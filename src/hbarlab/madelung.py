"""Madelung decomposition psi = sqrt(rho) * exp(i S / hbar) and residual
evaluators for the Hamilton-Jacobi (action) equation.

The decomposition turns the Schrödinger equation into a continuity equation
for rho and an action equation for S that differs from the classical
Hamilton-Jacobi equation by a single term proportional to hbar^2,

    quantum_term(rho) = -(hbar^2 / 2m) * lap(sqrt(rho)) / sqrt(rho),

which couples rho back into S.  ("Quantum potential" is a common but
unfortunate name for it; a potential is normally an externally controlled
quantity, while this term is state-dependent, so the neutral name is used
throughout.)

The lab's per-snapshot measurement, `weighted_action_terms`, never forms
S: it builds rho Q and rho (dS/dt + (dS/dx)^2/2m + V) straight from a
snapshot triple of psi, weighted by the density, so both stay bounded where
rho -> 0 and the identity rho Q + rho (...) = 0 is checked over the whole
grid, nodes included.

Phase handling: S = hbar * arg(psi), which to_madelung forms for the field
dumps and the round trip, is defined up to 2*pi*hbar jumps and is undefined
where rho vanishes.  Points with rho below DEFAULT_FLOOR * max(rho), the one
support floor of the lab, are masked; the remaining support must be a
single connected run, inside which the phase is unwrapped outward from the
density maximum by a minimal-increment rule.  The reported masked fraction
is mass-weighted (the fraction of probability sitting on masked points): a
localized packet on a padded grid masks most *points* while carrying
~1e-12 of the mass there, and it is the mass that decides whether
S-dependent operations are trustworthy.

Gradient policy: derivatives of decaying fields (psi, rho, sqrt(rho)) use
the spectral operator; derivatives of a given S field (hj_residual) use
second-order finite differences, because S is generally not periodic on
the grid (a moving packet has S ~ p*x) and a spectral derivative would
ring.  Central differences are exact for the quadratic-in-x action fields
of the Gaussian family.  hj_residual takes its norm over the interior of
the fields' support.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NodeError
from .grid import RealField, complex_field, real_field, spectral_derivative
from .potential import eval_potential
from .schrodinger import WaveFunction, analytic_gaussian

__all__ = [
    "MadelungFields",
    "DEFAULT_FLOOR",
    "to_madelung",
    "from_madelung",
    "make_madelung",
    "quantum_term",
    "hj_residual",
    "weighted_action_terms",
    "analytic_packet_fields",
]

DEFAULT_FLOOR = 1e-12   # support floor, relative to max(rho)
NORM_TOL = 1e-6
MAX_MASKED_MASS = 0.2


@dataclass(frozen=True)
class MadelungFields:
    rho: RealField
    s: RealField
    hbar: float
    support: np.ndarray          # True where S is defined
    masked_mass_fraction: float

    @property
    def grid(self):
        return self.rho.grid


def _support_and_fraction(rho_vals, dx):
    support = rho_vals >= DEFAULT_FLOOR * rho_vals.max()
    masked_mass = dx * rho_vals[~support].sum()
    return support, float(masked_mass)


def make_madelung(rho, s, hbar):
    """Assemble MadelungFields from density and action fields, validating
    normalization and computing the support mask."""
    if rho.grid != s.grid:
        raise DomainError("rho and S live on different grids")
    if np.any(rho.values < 0):
        raise DomainError("density must be nonnegative")
    total = rho.grid.dx * rho.values.sum()
    if abs(total - 1.0) > NORM_TOL:
        raise DomainError(f"density mass {total} is not 1 within {NORM_TOL}")
    support, masked = _support_and_fraction(rho.values, rho.grid.dx)
    return MadelungFields(rho, s, float(hbar), support, masked)


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


def from_madelung(f, m=1.0, t=0.0):
    """Reassemble psi = sqrt(rho) exp(iS/hbar); masked points get phase 0."""
    if f.masked_mass_fraction > MAX_MASKED_MASS:
        raise DomainError(
            f"masked mass fraction {f.masked_mass_fraction:.3f} exceeds "
            f"{MAX_MASKED_MASS}; S is untrustworthy")
    total = f.grid.dx * f.rho.values.sum()
    if abs(total - 1.0) > NORM_TOL:
        raise DomainError(f"density mass {total} is not 1 within {NORM_TOL}")
    phase = np.where(f.support, f.s.values / f.hbar, 0.0)
    vals = np.sqrt(f.rho.values) * np.exp(1j * phase)
    # rho is normalized to 1e-6; the wave function itself carries unit norm
    # to machine precision
    vals /= np.sqrt(f.grid.dx * np.sum(np.abs(vals) ** 2))
    return WaveFunction(complex_field(f.grid, vals), f.hbar, float(m), t)


# ----------------------------------------------------------------------
# Quantum term
# ----------------------------------------------------------------------

def quantum_term(rho, hbar, m):
    """-(hbar^2/2m) lap(sqrt(rho))/sqrt(rho) on the support; 0 on masked
    points.  The Laplacian is spectral: sqrt(rho) decays (or is uniform),
    so it is periodic-friendly even when S is not."""
    amp = np.sqrt(np.maximum(rho.values, 0.0))
    lap = spectral_derivative(real_field(rho.grid, amp), 2).values
    support = rho.values >= DEFAULT_FLOOR * rho.values.max()
    out = np.zeros(rho.grid.n)
    out[support] = -(hbar ** 2) / (2.0 * m) * lap[support] / amp[support]
    return real_field(rho.grid, out)


# ----------------------------------------------------------------------
# Residual evaluators
# ----------------------------------------------------------------------

def hj_residual(f, ds_dt, V):
    """L2 norm over the interior of the support of the quantum action
    equation's residual dS/dt + (dS/dx)^2/2m + V + quantum_term; needs
    hbar > 0."""
    if f.hbar <= 0:
        raise DomainError("the quantum action equation needs hbar > 0")
    if f.masked_mass_fraction > MAX_MASKED_MASS:
        raise DomainError(
            f"masked mass fraction {f.masked_mass_fraction:.3f} exceeds "
            f"{MAX_MASKED_MASS}")
    g = f.grid
    m = V.mass
    grad_s = np.gradient(f.s.values, g.dx, edge_order=2)
    integrand = (ds_dt.values + grad_s ** 2 / (2.0 * m)
                 + eval_potential(V, g.x)
                 + quantum_term(f.rho, f.hbar, m).values)
    # the difference stencil for S needs both neighbors inside the support
    region = f.support.copy()
    region[1:] &= f.support[:-1]
    region[:-1] &= f.support[1:]
    return float(np.sqrt(g.dx * np.sum(integrand[region] ** 2)))


def weighted_action_terms(triple, V, dt):
    """The two density-weighted sides of the action equation at the middle
    of a snapshot triple (psi(t - dt), psi(t), psi(t + dt)):

        rho Q = -(hbar^2/2m) (rho''/2 - (Re psi* psi')^2 / rho),
        rho (dS/dt + (dS/dx)^2/2m + V)
              = rho hbar arg(psi(t + dt) conj psi(t - dt)) / 2dt
                + hbar^2 (Im psi* psi')^2 / (2m rho) + rho V,

    with psi' the spectral derivative, as two RealFields over the whole
    grid.  Re psi* psi' = rho'/2 and Im psi* psi' = rho S'/hbar, so neither
    side needs S itself: no phase unwrapping and no support mask.  Both
    quotients are bounded (each square is at most rho |psi'|^2), so they
    are set to 0 only where rho = 0.  dS/dt is the pointwise phase
    difference, valid while no point turns by pi over 2 dt; hbar Im(psi*
    dpsi/dt) from a centered difference of psi would not do, since psi
    turns at E/hbar and that difference loses accuracy as hbar shrinks.
    """
    before, psi, after = triple
    g, hbar, m = psi.grid, psi.hbar, V.mass
    rho = np.abs(psi.values) ** 2
    w = np.conj(psi.values) * spectral_derivative(psi.field, 1).values
    rho2 = spectral_derivative(real_field(g, rho), 2).values
    occupied = rho > 0

    def over_rho(a):
        return np.divide(a, rho, out=np.zeros(g.n), where=occupied)

    rho_q = -(hbar ** 2) / (2.0 * m) * (0.5 * rho2 - over_rho(w.real ** 2))
    ds_dt = hbar * np.angle(after.values * np.conj(before.values)) / (2.0 * dt)
    rho_hj = (rho * (ds_dt + eval_potential(V, g.x))
              + hbar ** 2 / (2.0 * m) * over_rho(w.imag ** 2))
    return real_field(g, rho_q), real_field(g, rho_hj)


# ----------------------------------------------------------------------
# Analytic Gaussian-packet fields
# ----------------------------------------------------------------------

def _width_derivatives(case, epsilon0, hbar, m, omega, t):
    if case in ("free", "constant_force"):
        beta = hbar / (m * epsilon0)
        eps = epsilon0 * (1.0 + (beta * t) ** 2)
        deps = 2.0 * epsilon0 * beta ** 2 * t
        d2eps = 2.0 * epsilon0 * beta ** 2
    else:
        aa = (hbar / (epsilon0 * m * omega)) ** 2
        c, s = np.cos(omega * t), np.sin(omega * t)
        eps = epsilon0 * (c ** 2 + aa * s ** 2)
        deps = epsilon0 * omega * np.sin(2 * omega * t) * (aa - 1.0)
        d2eps = 2.0 * epsilon0 * omega ** 2 * np.cos(2 * omega * t) * (aa - 1.0)
    return eps, deps, d2eps


def _gouy_phase(case, epsilon0, hbar, m, omega, t):
    """Accumulated phase term; its time derivative is -hbar^2/(2 m eps(t))."""
    if case in ("free", "constant_force"):
        return -(hbar / 2.0) * np.arctan(hbar * t / (m * epsilon0))
    a = epsilon0 * m * omega / hbar
    wt = omega * t
    theta = np.arctan(np.tan(wt) / a) + np.pi * np.floor(wt / np.pi + 0.5)
    return -(hbar / 2.0) * theta


def analytic_packet_fields(case, grid, epsilon0, p0, hbar, m, t,
                           omega=None, f0=None):
    """Closed-form (rho, S) fields of the Gaussian packet at time t, plus the
    analytic dS/dt field, for the free, constant-force, and harmonic cases,
    for a packet that starts at r0 = 0.

    S(x,t) = (m/4)(deps/eps)(x-r)^2 + p(t) x - p(t) r(t)/2 + gouy(t),
    with the width eps(t) from the closed forms and the phase term whose
    time derivative is -hbar^2/(2 m eps).  These fields satisfy the
    quantum action equation identically (they are exact solutions), so
    their hj_residual vanishes, which the test suite exercises.
    """
    st = analytic_gaussian(case, epsilon0, p0, hbar, m, t,
                           omega=omega, f0=f0)
    eps, deps, d2eps = _width_derivatives(case, epsilon0, hbar, m, omega, t)
    r, p = st.r_t, st.p_t
    if case == "free":
        pdot = 0.0
        extra = 0.0
        extra_rate = 0.0
    elif case == "constant_force":
        pdot = f0
        # A linear potential leaves an uncancelled -f0*r(t)/2 in the
        # action equation's constant balance, so the phase accumulates
        # (f0/2) * integral of r dt on top of the spreading phase.
        extra = 0.5 * f0 * (0.5 * p0 * t ** 2 / m + f0 * t ** 3 / (6.0 * m))
        extra_rate = 0.5 * f0 * r
    else:
        pdot = -m * omega ** 2 * r
        extra = 0.0
        extra_rate = 0.0
    rdot = p / m

    x = grid.x
    u = x - r
    rho_vals = (np.pi * eps) ** -0.5 * np.exp(-(u ** 2) / eps)
    s_vals = (0.25 * m * (deps / eps) * u ** 2 + p * x - 0.5 * p * r
              + _gouy_phase(case, epsilon0, hbar, m, omega, t) + extra)
    ds_dt_vals = (0.25 * m * (d2eps / eps - (deps / eps) ** 2) * u ** 2
                  - 0.5 * m * (deps / eps) * u * rdot
                  + pdot * x - 0.5 * (pdot * r + p * rdot)
                  - hbar ** 2 / (2.0 * m * eps) + extra_rate)

    rho = real_field(grid, rho_vals / (grid.dx * rho_vals.sum()))
    fields = make_madelung(rho, real_field(grid, s_vals), hbar)
    return fields, real_field(grid, ds_dt_vals)
