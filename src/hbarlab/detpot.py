"""Classification of potentials by the Gaussian-convolution fixed point.

A potential whose force satisfies F = delta_eps * F (convolution with the
normalized Gaussian of width parameter eps, variance eps/2) for every
eps > 0 supports wave packets whose position mean obeys Newton's law with
the force at the mean; only forces with vanishing second derivative --
potentials of polynomial degree <= 2 -- pass, so the classifier separates
exactly {const, linear, quadratic} potentials from everything else.

Residuals are measured on the central half of the grid: polynomial forces
are not periodic, and the circular convolution wraps them at the seam, so
the window keeps the wrap-around contamination (which decays like
exp(-(L/4)^2/eps)) out of the norm.  The kernel-width precondition
sqrt(eps) <= L/12 makes that contamination negligible.

The Fourier restatement: convolution multiplies each mode by
exp(-eps k^2 / 4), so the per-mode residual is |F(k)| (1 - exp(-eps k^2/4)),
a factor vanishing at k = 0 with leading term (eps/4) k^2.  Nontrivial
forces passing for all eps must therefore have spectral weight only at
k = 0 (constant and linear parts); the testable real-space restatement is
that F, after removing its best-fit line, has zero second derivative.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InconclusiveError
from .grid import make_grid, real_field
from .potential import force_field

__all__ = [
    "DetpotReport",
    "gaussian_convolve",
    "detpot_residual",
    "fourier_residual",
    "fourier_residual_norm",
    "classify",
    "default_grid",
    "default_epsilon_list",
]

DEFAULT_TOL = 1e-8
WINDOW_FRACTION = 0.5
TINY = 1e-300


def default_grid():
    return make_grid(-8.0, 8.0, 2048)


def default_epsilon_list(grid):
    """{1e-1, 1e-2, 1e-3} relative to (L/12)^2."""
    scale = (grid.length / 12.0) ** 2
    return [scale * 1e-1, scale * 1e-2, scale * 1e-3]


def _window(grid):
    half = WINDOW_FRACTION * grid.length / 2.0
    center = 0.5 * (grid.x_min + grid.x_max)
    return np.abs(grid.x - center) <= half


def _windowed_norm(grid, values, window):
    return float(np.sqrt(grid.dx * np.sum(values[window] ** 2)))


def gaussian_convolve(f, epsilon):
    """Circular convolution of a field with the normalized Gaussian kernel
    of variance eps/2, via FFT.

    The kernel is sampled on the periodic grid and renormalized so its
    discrete mass is exactly one (a constant field is then a fixed point to
    machine precision).  eps = 0 returns the field unchanged.
    """
    if epsilon < 0:
        raise DomainError(f"epsilon must be nonnegative, got {epsilon}")
    if epsilon == 0.0:
        return real_field(f.grid, f.values.copy())
    g = f.grid
    if np.sqrt(epsilon) > g.length / 12.0:
        raise DomainError(
            f"kernel width sqrt(eps)={np.sqrt(epsilon):.3g} exceeds L/12 "
            f"= {g.length / 12.0:.3g}; wrap-around would contaminate")
    dist = g.x - g.x_min
    dist = np.minimum(dist, g.length - dist)   # periodic distance to 0
    kernel = np.exp(-dist ** 2 / epsilon)
    kernel /= g.dx * kernel.sum()
    conv = np.fft.ifft(np.fft.fft(f.values) * np.fft.fft(kernel)).real * g.dx
    return real_field(g, conv)


def detpot_residual(V, epsilon, grid=None):
    """Relative fixed-point defect ||F - delta_eps * F|| / ||F|| with both
    norms over the central window."""
    if grid is None:
        grid = default_grid()
    F = force_field(V, grid)
    conv = gaussian_convolve(F, epsilon)
    window = _window(grid)
    num = _windowed_norm(grid, F.values - conv.values, window)
    den = _windowed_norm(grid, F.values, window)
    return num / (den + TINY)


def _seam_slope(V, grid):
    """Slope of the line whose removal makes the sampled force continuous
    across the periodic seam.  Zero for tabulated potentials (tables are
    periodic by construction) and for any genuinely periodic force; for a
    sampled polynomial force it cancels the wrap jump exactly.  The removed
    line is spectral weight at k = 0 in the continuum statement of the
    problem -- precisely the content the convolution factor annihilates."""
    if V.kind == "tabulated":
        return 0.0
    from .potential import eval_force
    return (eval_force(V, grid.x_min + grid.length)
            - eval_force(V, grid.x_min)) / grid.length


def fourier_residual(V, epsilon, grid=None):
    """Per-mode residual |F(k)| (1 - exp(-eps k^2 / 4)) of the seam-detrended
    force, returned as a field whose values live on the wavenumber axis
    (grid.k ordering, transform scaled by dx)."""
    if grid is None:
        grid = default_grid()
    if epsilon < 0:
        raise DomainError(f"epsilon must be nonnegative, got {epsilon}")
    if epsilon > 0 and np.sqrt(epsilon) > grid.length / 12.0:
        raise DomainError("kernel too wide for the domain")
    F = force_field(V, grid)
    vals = F.values - _seam_slope(V, grid) * (grid.x - grid.x_min)
    f_hat = grid.dx * np.fft.fft(vals)
    factor = 1.0 - np.exp(-epsilon * grid.k ** 2 / 4.0)
    return real_field(grid, np.abs(f_hat) * factor)


def fourier_residual_norm(V, epsilon, grid=None):
    """Parseval-consistent total of the per-mode residual:
    sqrt(sum |residual_k|^2 / L)."""
    if grid is None:
        grid = default_grid()
    res = fourier_residual(V, epsilon, grid)
    return float(np.sqrt(np.sum(res.values ** 2) / grid.length))


@dataclass(frozen=True)
class DetpotReport:
    """Per-width results index-aligned with the ascending `epsilon_list`;
    a detpot run CSV's rows are their zip."""

    epsilon_list: tuple
    residual_per_epsilon: tuple
    fourier_residual_norms: tuple
    scaling_exponent: float        # None for clean fixed points
    verdict: str                   # "Deterministic" | "NonDeterministic"


def classify(V, epsilon_list=None, tol=DEFAULT_TOL, grid=None):
    """Classify a potential by the fixed-point residual across widths.

    Deterministic iff the relative residual stays below tol for every
    tested eps; NonDeterministic iff it exceeds tol for every eps.  Mixed
    outcomes raise InconclusiveError (grid or window artifacts suspected).
    Requires at least 3 widths spanning at least 2 decades.
    """
    if grid is None:
        grid = default_grid()
    if epsilon_list is None:
        epsilon_list = default_epsilon_list(grid)
    eps = sorted(float(e) for e in epsilon_list)
    if len(eps) < 3:
        raise DomainError("need at least 3 widths")
    if eps[0] <= 0:
        raise DomainError("widths must be positive")
    if eps[-1] / eps[0] < 99.0:
        raise DomainError("widths must span at least 2 decades")

    residuals = [detpot_residual(V, e, grid) for e in eps]
    fouriers = [fourier_residual_norm(V, e, grid) for e in eps]
    below = [r <= tol for r in residuals]
    if all(below):
        verdict = "Deterministic"
        exponent = None
    elif not any(below):
        verdict = "NonDeterministic"
        exponent = float(np.polyfit(np.log(eps), np.log(residuals), 1)[0])
    else:
        raise InconclusiveError(
            f"residuals straddle tol={tol:g} across widths: "
            + ", ".join(f"{r:.3e}" for r in residuals))
    return DetpotReport(tuple(eps), tuple(residuals), tuple(fouriers),
                        exponent, verdict)
