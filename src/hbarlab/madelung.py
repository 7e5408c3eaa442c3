"""Madelung decomposition psi = sqrt(rho) * exp(i S / hbar) and the
density-weighted sides of the quantum action equation.

The decomposition turns the Schrödinger equation into a continuity equation
for rho and an action equation for S that differs from the classical
Hamilton-Jacobi equation by a single term proportional to hbar^2,

    Q = -(hbar^2 / 2m) * lap(sqrt(rho)) / sqrt(rho),

which couples rho back into S.  ("Quantum potential" is a common but
unfortunate name for it; a potential is normally an externally controlled
quantity, while this term is state-dependent, so the neutral name
"quantum term" is used throughout.)

The lab's per-snapshot measurement, `weighted_action_terms`, never forms
S: it builds rho Q and rho (dS/dt + (dS/dx)^2/2m + V) straight from a
snapshot triple of psi, weighted by the density, so both stay bounded where
rho -> 0 and the identity rho Q + rho (...) = 0 is checked over the whole
grid, nodes included.  Its x-derivatives are spectral: psi and rho decay
toward the grid's ends, so they are periodic-friendly.

Phase handling: S = hbar * arg(psi), which to_madelung forms for the field
dumps, is defined up to 2*pi*hbar jumps and is undefined where rho
vanishes.  Points with rho below DEFAULT_FLOOR * max(rho), the one support
floor of the lab, are masked; the remaining support must be a single
connected run, inside which the phase is unwrapped outward from the
density maximum by a minimal-increment rule.  The reported masked fraction
is mass-weighted (the fraction of probability sitting on masked points): a
localized packet on a padded grid masks most *points* while carrying
~1e-12 of the mass there, and it is the mass that decides whether
S-dependent operations are trustworthy.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NodeError
from .grid import RealField, real_field, spectral_derivative
from .potential import eval_potential

__all__ = [
    "MadelungFields",
    "DEFAULT_FLOOR",
    "to_madelung",
    "weighted_action_terms",
]

DEFAULT_FLOOR = 1e-12   # support floor, relative to max(rho)


@dataclass(frozen=True)
class MadelungFields:
    rho: RealField
    s: RealField
    hbar: float
    support: np.ndarray          # True where S is defined
    masked_mass_fraction: float


def _support_and_fraction(rho_vals, dx):
    support = rho_vals >= DEFAULT_FLOOR * rho_vals.max()
    masked_mass = dx * rho_vals[~support].sum()
    return support, float(masked_mass)


def _wrap(delta):
    return (delta + np.pi) % (2.0 * np.pi) - np.pi


def _unwrap_from(s0, phase, hbar):
    """S along a run of phases that starts where S = s0: the running sum,
    in order, of the minimal-increment steps hbar * wrap(dphase)."""
    return np.cumsum(np.concatenate(([s0], hbar * _wrap(np.diff(phase)))))


def to_madelung(psi):
    """Decompose a wave function into (rho, S).

    S is unwrapped along the grid starting from the global density maximum,
    where it is pinned to hbar * arg(psi) in (-pi hbar, pi hbar]; 2*pi
    jumps between neighbors are resolved by the minimal-increment rule.  So
    S is continuous in x within one call, but two calls (say, the field
    dumps of successive snapshots) agree only modulo 2*pi*hbar.  Masked
    points (rho < DEFAULT_FLOOR * max rho) get S = 0 and are excluded from
    unwrapping.  Raises NodeError when the support is disconnected (e.g. a
    state with an interior node), since unwrapping across a node would be
    ambiguous.
    """
    g = psi.grid
    rho_vals = np.abs(psi.values) ** 2
    support, masked = _support_and_fraction(rho_vals, g.dx)
    peak = int(np.argmax(rho_vals))

    # the support run around the peak ends at the nearest masked points
    gaps = np.flatnonzero(~support)
    k = int(np.searchsorted(gaps, peak))
    lo = int(gaps[k - 1]) + 1 if k > 0 else 0
    hi = int(gaps[k]) - 1 if k < gaps.size else g.n - 1
    outside = support.copy()
    outside[lo:hi + 1] = False
    if outside.any():
        # isolated points hovering at the floor are crossing jitter, not
        # nodes; genuinely disconnected structure sits far above the floor
        if np.max(rho_vals[outside]) >= 100.0 * DEFAULT_FLOOR * rho_vals.max():
            raise NodeError(
                "density support is disconnected; phase unwrapping is "
                "ambiguous")
        support &= ~outside
        masked = float(g.dx * rho_vals[~support].sum())

    phase = np.angle(psi.values)
    s_vals = np.zeros(g.n)
    s_peak = psi.hbar * phase[peak]
    s_vals[peak:hi + 1] = _unwrap_from(s_peak, phase[peak:hi + 1], psi.hbar)
    s_vals[lo:peak + 1] = _unwrap_from(s_peak, phase[lo:peak + 1][::-1],
                                       psi.hbar)[::-1]

    return MadelungFields(real_field(g, rho_vals), real_field(g, s_vals),
                          psi.hbar, support, masked)


def weighted_action_terms(triple, V, dt):
    """The two density-weighted sides of the action equation at the middle
    of a snapshot triple (psi(t - dt), psi(t), psi(t + dt)):

        rho Q = -(hbar^2/2m) (rho''/2 - (Re psi* psi')^2 / rho),
        rho (dS/dt + (dS/dx)^2/2m + V)
              = rho hbar arg(psi(t + dt) conj psi(t - dt)) / 2dt
                + hbar^2 (Im psi* psi')^2 / (2m rho) + rho V,

    with psi' the spectral derivative, as two arrays over the whole grid.
    Re psi* psi' = rho'/2 and Im psi* psi' = rho S'/hbar, so neither side
    needs S itself: no phase unwrapping and no support mask.  Both
    quotients are bounded (each square is at most rho |psi'|^2), so they
    are set to 0 only where rho = 0.  dS/dt is the pointwise phase
    difference, valid while no point turns by pi over 2 dt; hbar Im(psi*
    dpsi/dt) from a centered difference of psi would not do, since psi
    turns at E/hbar and that difference loses accuracy as hbar shrinks.
    """
    before, psi, after = triple
    g, hbar, m = psi.grid, psi.hbar, V.mass
    rho = np.abs(psi.values) ** 2
    w = np.conj(psi.values) * spectral_derivative(g, psi.values, 1)
    rho2 = spectral_derivative(g, rho, 2)
    occupied = rho > 0

    def over_rho(a):
        return np.divide(a, rho, out=np.zeros(g.n), where=occupied)

    # a numpy scalar's ** 2 overflows to inf where a float's raises
    h2m = np.float64(hbar) ** 2 / (2.0 * m)
    rho_q = -h2m * (0.5 * rho2 - over_rho(w.real ** 2))
    ds_dt = hbar * np.angle(after.values * np.conj(before.values)) / (2.0 * dt)
    rho_hj = (rho * (ds_dt + eval_potential(V, g.x))
              + h2m * over_rho(w.imag ** 2))
    return rho_q, rho_hj
