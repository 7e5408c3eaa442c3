"""Split-step spectral propagation of the 1D Schrödinger equation.

The reduced Planck constant is an explicit runtime parameter: the solver
integrates i*hbar dpsi/dt = [-hbar^2/(2m) d^2/dx^2 + V(x)] psi by Strang
splitting -- half potential phase, full kinetic phase exp(-i hbar k^2 dt/2m)
in spectral space, half potential phase -- with an O(dt^2) error.  A step
may instead compose Strang substeps at the fractions `weights` of dt:
`_kernels.SUZUKI`'s five make a symmetric step with an O(dt^4) error,
bounded by commutators rather than by the phase at the grid's Nyquist mode
(Thalhammer, SIAM J. Numer. Anal. 46, 2022, 2008), and `propagate` allows
such a step up to SPAN_FACTOR times the Strang limit.  Each factor is
unitary, so the norm is conserved to roundoff.  Within one `propagate`
call the closing half phase of a substep and the opening half phase of the
next are applied as one phase, so a Strang substep costs one FFT pair
(scipy.fft) and two multiplies, and a composed step five pairs; a single
Strang step is the plain half-kinetic-half sequence.  The pairs stay on
scipy.fft, the package's one use of scipy: np.fft gives bit-identical
transforms but measured slower on a 2-core host, 10.9 against 9.2 us per
Strang pair at n = 64 and 88.1 against 72.4 us at n = 4096, and the
benchmark's quantum_scans wall time rose from a median 0.523 s to 0.563 s
over 10 alternating pairs (np.fft won 2).  `propagate` imports scipy.fft
at its first call, so the CLI and the Newton-side experiments start
without it.

The module only prepares and propagates states; a quantum run's
per-snapshot moments and action terms come from
`madelung.snapshot_diagnostics`, whose docstring states the width
convention A = 2*Var(x).
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundaryLeak, DomainError, LabError
from .grid import _check_values
from .potential import eval_potential

__all__ = [
    "WaveFunction",
    "init_gaussian",
    "propagate",
    "max_stable_dt",
    "phase_limits",
    "boundary_leak_fraction",
]

LEAK_TOL = 1e-10        # max density fraction in the outer 5% of each side
SPAN_FACTOR = 40        # a composed step's limit, in Strang limits
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


def phase_limits(grid, V, hbar):
    """(kinetic, potential) limits on a Strang step such that each split
    phase rotates < 0.5 rad anywhere, for the particle of mass m = V.mass.

    Kinetic factor: hbar * k_max^2 * dt / (2m) <= 0.5.
    Potential factor: max|V| * dt / hbar <= 0.5 (inf for V = 0).
    """
    k_max = np.pi / grid.dx
    vmax = float(np.max(np.abs(eval_potential(V, grid.x))))
    return (V.mass / (hbar * k_max ** 2),
            0.5 * hbar / vmax if vmax > 0 else np.inf)


def max_stable_dt(grid, V, hbar):
    """The largest Strang step, the smaller of the two `phase_limits`."""
    return min(phase_limits(grid, V, hbar))


@functools.lru_cache(maxsize=2)
def _phases(g, V, hbar, dt, weights):
    """(opening, stages, closing) phase factors of a step of size dt made of
    Strang substeps at the fractions `weights` of dt, for the last two
    (grid, V, hbar, dt, weights) keys -- a run's probe and span steps; V
    holds the mass.  stages[j] is substep j's kinetic phase and the
    potential phase that follows it: the closing half phase of substep j
    and the opening half phase of the next fused into one.  Each distinct
    weight and each distinct pair of neighbours gets one array.  Grids and
    potential specs compare by identity and hold read-only arrays, so a
    repeated key gives the same factors.  A dt over the limit of its step,
    `max_stable_dt` for a Strang step and SPAN_FACTOR times that for a
    composition, raises; lru_cache stores no exception, so it raises on
    every call."""
    limit = max_stable_dt(g, V, hbar)
    if len(weights) > 1:
        limit *= SPAN_FACTOR
    if dt > limit * (1.0 + 1e-12):
        raise DomainError(
            f"dt={dt:.3e} exceeds the phase-rotation limit {limit:.3e}")
    v = eval_potential(V, g.x)
    kin, half, fused = {}, {}, {}
    for w in weights:
        if w not in kin:
            kin[w] = np.exp(-0.5j * hbar * g.k ** 2 * (w * dt) / V.mass)
            half[w] = np.exp(-0.5j * v * (w * dt) / hbar)
    stages = []
    for w, w_next in zip(weights, weights[1:] + weights[:1]):
        pair = (min(w, w_next), max(w, w_next))
        if pair not in fused:
            fused[pair] = half[w] * half[w_next]
        stages.append((kin[w], fused[pair]))
    for a in (*kin.values(), *half.values(), *fused.values()):
        a.setflags(write=False)
    return half[weights[0]], tuple(stages), half[weights[-1]]


def propagate(psi, V, dt, n_steps, weights=(1.0,)):
    """Advance a wave function by n_steps steps of size dt under the
    potential V, for the particle of mass V.mass.  A step is one Strang
    step for the default weights, else Strang substeps at the fractions
    `weights` (a tuple) of dt, such as the symmetric composition
    `_kernels.SUZUKI`.

    Returns a new WaveFunction at t + n_steps*dt.  Raises DomainError for
    dt <= 0 or dt above its step's limit (see `_phases`), BoundaryLeak when
    packet mass reaches the boundary margin, LabError when the norm drifts;
    both checks run on every call.  The phase factors, and the limit's
    verdict with them, come from `_phases`, whose two-entry cache serves
    calls with the same grid and potential objects, hbar, dt and weights.
    """
    from scipy import fft

    if dt <= 0:
        raise DomainError(f"dt must be positive, got {dt}")
    n_steps = int(n_steps)
    if n_steps < 1:
        raise DomainError(f"n_steps must be >= 1, got {n_steps}")
    g = psi.grid
    opening, stages, closing = _phases(g, V, psi.hbar, dt, weights)
    norm0 = g.dx * np.sum(np.abs(psi.values) ** 2)
    values = opening * psi.values
    for j in range(n_steps * len(stages) - 1):
        exp_kin, exp_v = stages[j % len(stages)]
        values = exp_v * fft.ifft(exp_kin * fft.fft(values))
    values = closing * fft.ifft(stages[-1][0] * fft.fft(values))

    norm1 = g.dx * np.sum(np.abs(values) ** 2)
    if abs(norm1 - norm0) > NORM_TOL:
        raise LabError(
            f"norm drifted by {abs(norm1 - norm0):.3e} over {n_steps} steps")
    out = WaveFunction(g, values, psi.hbar, t=psi.t + n_steps * dt)
    return _check_leak(out)
