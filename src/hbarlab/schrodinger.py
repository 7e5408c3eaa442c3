"""Split-step spectral propagation of the 1D Schrödinger equation.

The reduced Planck constant is an explicit runtime parameter: the solver
integrates i*hbar dpsi/dt = [-hbar^2/(2m) d^2/dx^2 + V(x)] psi by Strang
splitting -- half potential phase, full kinetic phase exp(-i hbar k^2 dt/2m)
in spectral space, half potential phase.  Each factor is unitary, so the
norm is conserved to roundoff; the splitting error is O(dt^2).  Within one
`propagate` call the closing half phase of a step and the opening half
phase of the next are applied as one full phase, so a step costs one FFT
pair (scipy.fft) and two multiplies; a single-step call is the plain
half-kinetic-half sequence.  The pair stays on scipy.fft, the package's one
use of scipy, because np.fft measured slower on a 2-core host: the seven
quantum presets of the benchmark took a median 4.33 s against 3.70 s over
6 alternating in-process runs, and a bare Strang step was slower at every
n from 512 to 16384.  `propagate` imports scipy.fft at its first call, so
the CLI and the Newton-side experiments start without it.

Width convention: init_gaussian's packet of width parameter eps,

    psi(x, 0) = (pi*eps)^(-1/4) exp(-(x - r0)^2 / (2 eps)) exp(i p0 x / hbar),

has density rho(x) = (pi*eps)^(-1/2) exp(-(x-r0)^2/eps) with variance
eps/2, so the "measured width" A(t), `Observables.width`, is defined as
2*Var(x) and A(0) = eps.  This removes a silent factor-of-two trap when
comparing against the closed-form width laws.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundaryLeak, DomainError, LabError
from .grid import _check_values, spectral_derivative
from .potential import eval_potential

__all__ = [
    "WaveFunction",
    "Observables",
    "init_gaussian",
    "propagate",
    "max_stable_dt",
    "boundary_leak_fraction",
    "observables",
]

LEAK_TOL = 1e-10        # max density fraction in the outer 5% of each side
NORM_TOL = 1e-9         # allowed norm drift per propagation call
EDGE_FRACTION = 0.05


@dataclass(frozen=True, eq=False)
class WaveFunction:
    """Complex samples on a grid plus their hbar and current time.

    The values are stored as a read-only complex copy, refused with
    DomainError unless they hold one finite sample per grid point."""

    grid: object            # Grid
    values: np.ndarray
    hbar: float
    t: float = field(default=0.0, kw_only=True)

    def __post_init__(self):
        object.__setattr__(self, "values",
                           _check_values(self.grid, self.values, complex))


@dataclass(frozen=True)
class Observables:
    x_mean: float
    p_mean: float
    var_x: float
    var_p: float
    uncertainty_product: float
    kurtosis_excess: float          # of |psi|^2; zero for a Gaussian

    @property
    def width(self):
        return 2.0 * self.var_x


def boundary_leak_fraction(psi):
    """Fraction of total density in the outer EDGE_FRACTION of grid points
    on each side."""
    rho = np.abs(psi.values) ** 2
    ne = max(1, int(EDGE_FRACTION * psi.grid.n))
    edge = rho[:ne].sum() + rho[-ne:].sum()
    return float(edge / rho.sum())


def _check_leak(psi):
    leak = boundary_leak_fraction(psi)
    if leak > LEAK_TOL:
        raise BoundaryLeak(
            f"boundary density fraction {leak:.3e} exceeds {LEAK_TOL:.0e} "
            f"at t={psi.t:.6g}")
    return psi


def init_gaussian(grid, epsilon, r0, p0, hbar):
    """Normalized Gaussian packet of width parameter eps at (r0, p0) at
    t = 0; it is the same for every mass."""
    if epsilon <= 0:
        raise DomainError(f"packet width parameter must be positive, got {epsilon}")
    if hbar <= 0:
        raise DomainError(f"hbar must be positive, got {hbar}")
    x = grid.x
    psi = (np.pi * epsilon) ** (-0.25) * np.exp(
        -((x - r0) ** 2) / (2.0 * epsilon) + 1j * p0 * x / hbar)
    nrm = np.sqrt(grid.dx * np.sum(np.abs(psi) ** 2))
    psi = psi / nrm
    return _check_leak(WaveFunction(grid, psi, float(hbar)))


def max_stable_dt(grid, V, hbar):
    """Largest step such that each split phase rotates < 0.5 rad anywhere,
    for the particle of mass m = V.mass.

    Kinetic factor: hbar * k_max^2 * dt / (2m) <= 0.5.
    Potential factor: max|V| * dt / hbar <= 0.5 (no bound for V = 0).
    """
    k_max = np.pi / grid.dx
    dt_kin = V.mass / (hbar * k_max ** 2)
    vmax = float(np.max(np.abs(eval_potential(V, grid.x))))
    if vmax > 0:
        return min(dt_kin, 0.5 * hbar / vmax)
    return dt_kin


@functools.lru_cache(maxsize=1)
def _phases(g, V, hbar, dt):
    """Kinetic, half- and full-potential phase factors of a Strang step,
    cached for the last (grid, V, hbar, dt) key; V holds the mass.  Grids
    and potential specs compare by identity and hold read-only arrays, so a
    repeated key gives the same factors; a dt over the stability limit
    raises, and lru_cache stores no exception, so it raises on every call."""
    dt_max = max_stable_dt(g, V, hbar)
    if dt > dt_max * (1.0 + 1e-12):
        raise DomainError(
            f"dt={dt:.3e} exceeds the phase-rotation limit {dt_max:.3e}")
    exp_kin = np.exp(-0.5j * hbar * g.k ** 2 * dt / V.mass)
    exp_v_half = np.exp(-0.5j * eval_potential(V, g.x) * dt / hbar)
    # the closing half phase of one step and the opening half phase of the
    # next are one full phase
    phases = (exp_kin, exp_v_half, exp_v_half * exp_v_half)
    for a in phases:
        a.setflags(write=False)
    return phases


def propagate(psi, V, dt, n_steps):
    """Advance a wave function by n_steps Strang steps of size dt under
    the potential V, for the particle of mass V.mass.

    Returns a new WaveFunction at t + n_steps*dt.  Raises DomainError for
    dt <= 0 or dt above the stability rule, BoundaryLeak when packet mass
    reaches the boundary margin, LabError when the norm drifts; both checks
    run on every call.  The phase factors, and the stability verdict with
    them, come from `_phases`, whose one-entry cache serves consecutive
    calls with the same grid and potential objects, hbar and dt.
    """
    from scipy import fft

    if dt <= 0:
        raise DomainError(f"dt must be positive, got {dt}")
    n_steps = int(n_steps)
    if n_steps < 1:
        raise DomainError(f"n_steps must be >= 1, got {n_steps}")
    g = psi.grid
    exp_kin, exp_v_half, exp_v = _phases(g, V, psi.hbar, dt)
    norm0 = g.dx * np.sum(np.abs(psi.values) ** 2)
    values = exp_v_half * psi.values
    for _ in range(n_steps - 1):
        values = exp_v * fft.ifft(exp_kin * fft.fft(values))
    values = exp_v_half * fft.ifft(exp_kin * fft.fft(values))

    norm1 = g.dx * np.sum(np.abs(values) ** 2)
    if abs(norm1 - norm0) > NORM_TOL:
        raise LabError(
            f"norm drifted by {abs(norm1 - norm0):.3e} over {n_steps} steps")
    out = WaveFunction(g, values, psi.hbar, t=psi.t + n_steps * dt)
    return _check_leak(out)


# ----------------------------------------------------------------------
# Observables
# ----------------------------------------------------------------------

def observables(psi):
    """Position/momentum means and variances, the uncertainty product and
    the excess kurtosis of |psi|^2, from one pass over the density.

    Momentum moments use the spectral derivative:
    <p> = Re int conj(psi) (-i hbar dpsi/dx) dx and <p^2> = int |hbar dpsi/dx|^2 dx
    (equal to <psi|p^2|psi> on the periodic grid by parts).
    """
    g = psi.grid
    w = g.dx * np.abs(psi.values) ** 2
    x_mean = float(np.sum(w * g.x))
    u = g.x - x_mean
    var_x = float(np.sum(w * u ** 2))
    m4 = float(np.sum(w * u ** 4))
    dpsi = spectral_derivative(g, psi.values, 1)
    p_mean = float(np.real(g.dx * np.sum(
        np.conj(psi.values) * (-1j * psi.hbar) * dpsi)))
    p2 = float(g.dx * np.sum(np.abs(psi.hbar * dpsi) ** 2))
    # a numpy scalar's ** 2 (C pow, like a float's) overflows to inf where
    # a float's raises OverflowError
    var_p = p2 - float(np.float64(p_mean) ** 2)
    return Observables(x_mean, p_mean, var_x, var_p,
                       float(np.sqrt(max(var_x, 0.0) * max(var_p, 0.0))),
                       float(m4 / np.float64(var_x) ** 2 - 3.0))
