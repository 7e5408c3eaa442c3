"""Newtonian trajectories and phase-space transport.

newton_integrate lands composed fourth-order steps on the caller's sample
times and returns the Newton trajectory there as plain (r, p) arrays;
liouville_evolve advances a phase-space density by the backward
semi-Lagrangian method (each node is pulled back through the Newton flow
in composed fourth-order steps of at most dt, and the initial density is
sampled bilinearly at the feet, so there is no CFL limit and
interpolation diffusion is paid once per checkpoint, never compounded
across checkpoints).  Both read the particle mass from the potential,
V.mass.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _kernels
from .errors import DomainError, MassDriftError
from .potential import eval_force

__all__ = [
    "PhaseDensity",
    "newton_integrate",
    "gaussian_phase_blob",
    "liouville_evolve",
    "phase_mass",
]

MASS_DRIFT_TOL = 1e-3
DEFAULT_ESCAPE_BOUND = 1e6


def newton_integrate(V, r0, p0, times, n_steps):
    """Trajectory of the particle of mass V.mass under -dV/dx from
    (r0, p0) at t = 0 in SUZUKI steps of at most times[-1] / n_steps,
    landing on each sorted sample time (t = 0 allowed): arrays (r, p)
    there.  Bad times or n_steps, or more than MAX_STEPS force evaluations,
    raise DomainError before the first step; |r| past DEFAULT_ESCAPE_BOUND
    raises EscapeError."""
    times = np.asarray(times, dtype=float)
    if not (times.ndim == 1 and times.size and 0 <= times[0]
            and 0 < times[-1] < np.inf and np.all(np.diff(times) >= 0)
            and n_steps > 0):
        raise DomainError("sample times must be finite, sorted, >= 0 and not "
                          "all zero, and n_steps positive")
    # each gap takes at most one step more than its share of n_steps
    _kernels.check_steps((n_steps + times.size) * len(_kernels.SUZUKI),
                         "[numerics] t_final (or t_star) and n_snapshots")
    if V.kind == "tabulated":
        force = partial(eval_force, V)
    else:
        # a list keeps the scalar steps in Python floats (see _horner)
        force = partial(_kernels._horner, V.force_coeffs().tolist())
    return _kernels.newton_path(force, V.mass, float(r0), float(p0),
                                times.tolist(), times[-1] / n_steps,
                                DEFAULT_ESCAPE_BOUND)


# ----------------------------------------------------------------------
# Phase-space density
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PhaseDensity:
    x_min: float
    x_max: float
    nx: int
    p_min: float
    p_max: float
    n_p: int
    values: np.ndarray        # shape (nx, n_p), nonnegative

    @property
    def dx(self):
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def dp(self):
        return (self.p_max - self.p_min) / (self.n_p - 1)

    @property
    def x_nodes(self):
        return np.linspace(self.x_min, self.x_max, self.nx)

    @property
    def p_nodes(self):
        return np.linspace(self.p_min, self.p_max, self.n_p)


def phase_mass(rho):
    return float(rho.values.sum() * rho.dx * rho.dp)


def _validated(rho):
    if np.any(rho.values < 0) or not np.all(np.isfinite(rho.values)):
        raise DomainError("phase density must be finite and nonnegative")
    mass = phase_mass(rho)
    if abs(mass - 1.0) > 1e-6:
        raise DomainError(f"phase mass {mass} is not 1 within 1e-6")
    return rho


def gaussian_phase_blob(x0, p0, sigma_x, sigma_p, x_min, x_max, p_min, p_max,
                        nx=256, n_p=256):
    """Normalized isotropic Gaussian blob on a node-centered phase grid."""
    xs = np.linspace(x_min, x_max, nx)
    ps = np.linspace(p_min, p_max, n_p)
    X, P = np.meshgrid(xs, ps, indexing="ij")
    vals = np.exp(-0.5 * ((X - x0) / sigma_x) ** 2
                  - 0.5 * ((P - p0) / sigma_p) ** 2)
    rho = PhaseDensity(x_min, x_max, nx, p_min, p_max, n_p, vals)
    vals = vals / phase_mass(rho)
    return _validated(PhaseDensity(x_min, x_max, nx, p_min, p_max, n_p, vals))


def liouville_evolve(rho0, V, t, dt, n_checkpoints=1):
    """Semi-Lagrangian advance of a phase density to the n_checkpoints
    times t k / n_checkpoints, k = 1..n_checkpoints.

    One backward pass pulls every node through the Newton flow in composed
    fourth-order steps of at most dt (`_kernels.SUZUKI`).  The flow is
    autonomous, so the feet at one checkpoint are where the pull back to
    the next starts; at each checkpoint rho0 is sampled bilinearly at the
    feet -- one interpolation per checkpoint regardless of t.  Returns a
    tuple of (nx, n_p) arrays on rho0's nodes, one per checkpoint.  More
    than `_kernels.MAX_STEPS` force evaluations, len(SUZUKI) per step,
    raise DomainError before the first.  Raises MassDriftError
    when the advected mass at any checkpoint drifts beyond 1e-3 (grid too
    coarse or support reaching the boundary).
    """
    if dt <= 0 or t <= 0:
        raise DomainError("t and dt must be positive")
    if n_checkpoints < 1:
        raise DomainError(
            f"n_checkpoints must be >= 1, got {n_checkpoints}")
    _validated(rho0)
    n_per = max(1.0, np.ceil(t / (n_checkpoints * dt)))
    _kernels.check_steps(n_checkpoints * n_per * len(_kernels.SUZUKI),
                         "[numerics] t_final, dt and n_snapshots")
    n_sub = n_checkpoints * int(n_per)
    dt_eff = t / n_sub
    checkpoints = _kernels.liouville_pullback(
        V.force_coeffs(), V.mass, rho0.x_nodes, rho0.p_nodes, dt_eff, n_sub,
        n_checkpoints, np.ascontiguousarray(rho0.values), rho0.x_min,
        rho0.dx, rho0.p_min, rho0.dp)
    for k, vals in enumerate(checkpoints, 1):
        drift = abs(float(vals.sum() * rho0.dx * rho0.dp) - 1.0)
        if drift > MASS_DRIFT_TOL:
            raise MassDriftError(
                f"phase mass drifted by {drift:.3e} (> {MASS_DRIFT_TOL}) "
                f"at t = {t * k / n_checkpoints:.6g}")
    return tuple(checkpoints)
