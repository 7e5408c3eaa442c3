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
from .grid import make_grid
from .potential import eval_force

__all__ = [
    "DetpotReport",
    "gaussian_convolve",
    "detpot_residual",
    "fourier_residual_norm",
    "classify",
    "default_grid",
    "default_epsilon_list",
]

DEFAULT_TOL = 1e-8
WINDOW_FRACTION = 0.5
TINY = 1e-300


def default_grid(V):
    """The grid V is classified on unless a caller names one: a tabulated
    potential's own grid, [-8, 8) with 2048 points for any other."""
    if V.kind == "tabulated":
        return V.grid
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


def gaussian_convolve(grid, values, epsilon):
    """Circular convolution of values sampled on grid with the normalized
    Gaussian kernel of variance eps/2, via FFT, as an array.

    The kernel is sampled on the periodic grid and renormalized so its
    discrete mass is exactly one (a constant is then a fixed point to
    machine precision).  eps = 0 returns a copy of the values.
    """
    if epsilon < 0:
        raise DomainError(f"epsilon must be nonnegative, got {epsilon}")
    if epsilon == 0.0:
        return np.array(values, dtype=float)
    if np.sqrt(epsilon) > grid.length / 12.0:
        raise DomainError(
            f"kernel width sqrt(eps)={np.sqrt(epsilon):.3g} exceeds L/12 "
            f"= {grid.length / 12.0:.3g}; wrap-around would contaminate")
    dist = grid.x - grid.x_min
    dist = np.minimum(dist, grid.length - dist)   # periodic distance to 0
    kernel = np.exp(-dist ** 2 / epsilon)
    kernel /= grid.dx * kernel.sum()
    return np.fft.ifft(np.fft.fft(values) * np.fft.fft(kernel)).real * grid.dx


def detpot_residual(V, epsilon, grid):
    """Relative fixed-point defect ||F - delta_eps * F|| / ||F|| with both
    norms over the central window."""
    F = eval_force(V, grid.x)
    window = _window(grid)
    num = _windowed_norm(grid, F - gaussian_convolve(grid, F, epsilon), window)
    den = _windowed_norm(grid, F, window)
    return num / (den + TINY)


def _seam_slope(V, grid, F):
    """Slope (F(x_min + L) - F(x_min)) / L of the line whose removal makes
    the force F sampled on grid continuous across the periodic seam.  A
    table's F(x_min + L) is its last two samples extrapolated one node on,
    so for a linear force, tabulated or not, the wrap jump cancels exactly.
    The removed line is spectral weight at k = 0 in the continuum statement
    of the problem -- precisely the content the convolution factor
    annihilates."""
    if V.kind == "tabulated":
        f_end = 2.0 * F[-1] - F[-2]
    else:
        f_end = eval_force(V, grid.x_min + grid.length)
    return (f_end - F[0]) / grid.length


def fourier_residual_norm(V, epsilon, grid):
    """Parseval-consistent total sqrt(sum |residual_k|^2 / L) of the
    per-mode residual |F(k)| (1 - exp(-eps k^2 / 4)) of the seam-detrended
    force (transform scaled by dx)."""
    F = eval_force(V, grid.x)
    vals = F - _seam_slope(V, grid, F) * (grid.x - grid.x_min)
    f_hat = grid.dx * np.fft.fft(vals)
    res = np.abs(f_hat) * (1.0 - np.exp(-epsilon * grid.k ** 2 / 4.0))
    return float(np.sqrt(np.sum(res ** 2) / grid.length))


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
    Requires at least 3 widths spanning at least 2 decades.  The grid
    defaults to `default_grid(V)`; a tabulated potential is classified on
    its own nodes only, and any other grid is refused.
    """
    if grid is None:
        grid = default_grid(V)
    if V.kind == "tabulated" and not np.array_equal(grid.x, V.grid.x):
        raise DomainError(
            f"a tabulated potential is classified on its own grid only, "
            f"[{V.grid.x_min:g}, {V.grid.x_max:g}) with {V.grid.n} points")
    if epsilon_list is None:
        epsilon_list = default_epsilon_list(grid)
    eps = sorted(float(e) for e in epsilon_list)
    if len(eps) < 3:
        raise DomainError("epsilon_list needs at least 3 widths")
    if eps[0] <= 0:
        raise DomainError("epsilon_list widths must be positive")
    if eps[-1] / eps[0] < 99.0:
        raise DomainError("epsilon_list must span at least 2 decades")

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
