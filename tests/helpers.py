"""Shared test utilities: an independent integration oracle, tolerance
helpers, and the closed forms and residual checks the suite measures the
lab against.  Only the oracle, a hand-rolled Verlet, avoids the package's
own numerics; the Madelung and Ehrenfest helpers below differentiate with
`spectral_derivative` and evaluate V with `eval_potential`, and
`delta_ansatz_check` integrates with `newton_integrate`.

- `spectral_derivative`, `observables`: the FFT derivative of sampled
  values (order 1 or 2; order 1 zeroes the unpaired Nyquist mode) and the
  moments of one wave function (means, variances, uncertainty product,
  width 2*Var(x), excess kurtosis) taken one derivative at a time.  They
  are the oracles of `madelung.snapshot_diagnostics`, which takes every
  derivative of a row from one transform of psi and must give the same
  moments bit for bit.

- `analytic_gaussian`, `GaussianPacketState`: closed-form (eps(t), r(t),
  p(t)) of a Gaussian packet under a free, constant-force or harmonic
  potential.  An initial packet

      psi(x, 0) = (pi*eps)^(-1/4) exp(-(x - r0)^2 / (2 eps)) exp(i p0 x / hbar)

  stays Gaussian there, its center follows the classical trajectory, and
  its width parameter eps(t) (2*Var(x) = eps) obeys a closed form.
- `energy_mean`: <H> of a wave function.
- `MadelungFields`, `support_mask`, `make_madelung`, `from_madelung`,
  `quantum_term`, `hj_residual`, `analytic_packet_fields`: (rho, S) fields
  on a grid with the support where S is defined (rho >= DEFAULT_FLOOR * max
  rho, the floor `experiments.auto_grid` resolves packets down to) and
  the mass off it, their reassembly into psi, the hbar^2 term
  -(hbar^2/2m) lap(sqrt(rho))/sqrt(rho) and the residual of the quantum
  action equation on given fields.  The package itself never forms S (its
  field dumps write psi), so these oracles are the only Madelung fields.
  Derivatives of decaying fields (sqrt(rho)) are spectral; derivatives of
  a given S field (hj_residual) are second-order finite differences,
  because S is generally not periodic on the grid (a moving packet has
  S ~ p*x) and a spectral derivative would ring.  Central differences are exact for the quadratic-in-x action
  fields of the Gaussian family.  hj_residual takes its norm over the
  interior of the fields' support.
- `weak_liouville_residual`, `delta_ansatz_check`: the weak-form statement
  that a point density riding a Newton trajectory solves the phase-space
  transport equation: for smooth test functions phi(x, p),

      d/dt phi(r(t), p(t)) = (p/m) dphi/dx - dV/dx dphi/dp

  along the trajectory.
- `ehrenfest_residuals`: the two expectation-value laws d<x>/dt = <p>/m and
  d<p>/dt = <-dV/dx> on a series of wave functions.  Both hold for every
  potential; what is special about potentials of degree <= 2 is only that
  the mean force equals the force at the mean.
"""

from dataclasses import dataclass

import numpy as np

from hbarlab.classical import newton_integrate
from hbarlab.errors import DomainError
from hbarlab.experiments import DEFAULT_FLOOR
from hbarlab.potential import eval_force, eval_potential
from hbarlab.schrodinger import WaveFunction

NORM_TOL = 1e-6
MAX_MASKED_MASS = 0.2


def verlet_oracle(force, m, r0, p0, dt, n_steps):
    """Plain velocity-Verlet reference integrator (scalar, no saves)."""
    r, p = float(r0), float(p0)
    f = force(r)
    for _ in range(n_steps):
        ph = p + 0.5 * dt * f
        r += dt * ph / m
        f = force(r)
        p = ph + 0.5 * dt * f
    return r, p


def rel_err(value, ref, floor=1.0):
    """Relative error with an absolute floor for near-zero references."""
    return abs(value - ref) / max(abs(ref), floor)


def gauss_rho(x, eps, r=0.0):
    """Normalized Gaussian density with width parameter eps (variance eps/2)."""
    return (np.pi * eps) ** (-0.5) * np.exp(-((x - r) ** 2) / eps)


def expectations(g, rho, s, m):
    """(mean position, mean momentum) of a (rho, S) field pair sampled on
    grid g: x_mean = int x rho dx,  p_mean = int rho dS/dx dx."""
    total = g.dx * rho.sum()
    if abs(total - 1.0) > 1e-6:
        raise DomainError(f"density mass {total} is not 1 within 1e-6")
    x_mean = float(g.dx * np.sum(g.x * rho))
    p_mean = float(g.dx * np.sum(rho * np.gradient(s, g.dx, edge_order=2)))
    return x_mean, p_mean


# ----------------------------------------------------------------------
# Spectral derivative and the moments of one wave function
# ----------------------------------------------------------------------

def spectral_derivative(grid, values, order=1):
    """FFT-based derivative of values sampled on grid, as an array: real
    for real values, complex otherwise; exact for band-limited inputs.

    order 1 zeroes the unpaired Nyquist mode so real inputs stay real;
    order 2 keeps it (the -k^2 multiplier is real).  The caller is
    responsible for the values being effectively periodic on the grid.
    """
    if order not in (1, 2):
        raise DomainError(f"derivative order must be 1 or 2, got {order}")
    fk = np.fft.fft(values)
    if order == 1:
        mult = 1j * grid.k.copy()
        mult[grid.n // 2] = 0.0  # unpaired Nyquist mode
    else:
        mult = -(grid.k ** 2)
    out = np.fft.ifft(mult * fk)
    return out.real if np.isrealobj(values) else out


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
    var_p = p2 - float(np.float64(p_mean) ** 2)
    return Observables(x_mean, p_mean, var_x, var_p,
                       float(np.sqrt(max(var_x, 0.0) * max(var_p, 0.0))),
                       float(m4 / np.float64(var_x) ** 2 - 3.0))


# ----------------------------------------------------------------------
# Analytic Gaussian-packet family
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianPacketState:
    """Analytic packet state (eps(t), r(t), p(t)) for the closed-form cases."""

    epsilon_t: float
    r_t: float
    p_t: float


def analytic_gaussian(case, epsilon0, p0, hbar, m, t, omega=None, f0=None):
    """Closed-form (eps(t), r(t), p(t)) for the three solvable potentials,
    for a packet that starts at r0 = 0.

    free:           eps(t) = eps0 (1 + (hbar t / (m eps0))^2),
                    r = p0 t / m, p = p0.
    constant_force: same spreading as free (a uniform force translates the
                    packet without reshaping it); r and p from uniform
                    acceleration.
    harmonic:       eps(t) = eps0 [cos^2(wt) + (hbar/(eps0 m w))^2 sin^2(wt)],
                    r = (p0 / m w) sin(wt), p = m dr/dt.
                    eps is constant exactly when eps0 = hbar / (m w)
                    (the coherent packet).
    """
    if epsilon0 <= 0 or hbar <= 0 or m <= 0:
        raise DomainError("epsilon0, hbar, and m must all be positive")
    if case == "free":
        eps_t = epsilon0 * (1.0 + (hbar * t / (m * epsilon0)) ** 2)
        r_t = p0 * t / m
        p_t = p0
    elif case == "constant_force":
        if f0 is None:
            raise DomainError("constant_force case requires f0")
        eps_t = epsilon0 * (1.0 + (hbar * t / (m * epsilon0)) ** 2)
        r_t = p0 * t / m + 0.5 * f0 * t ** 2 / m
        p_t = p0 + f0 * t
    elif case == "harmonic":
        if omega is None or omega <= 0:
            raise DomainError("harmonic case requires omega > 0")
        w = float(omega)
        c, s = np.cos(w * t), np.sin(w * t)
        eps_t = epsilon0 * (c ** 2 + (hbar / (epsilon0 * m * w)) ** 2 * s ** 2)
        r_t = (p0 / (m * w)) * s
        p_t = p0 * c
    else:
        raise DomainError(f"unknown analytic case {case!r}")
    return GaussianPacketState(float(eps_t), float(r_t), float(p_t))


def energy_mean(psi, V):
    """<H> = int |hbar dpsi/dx|^2 / 2m + V |psi|^2 dx, m = V.mass."""
    g = psi.grid
    dpsi = spectral_derivative(g, psi.values, 1)
    kin = g.dx * np.sum(np.abs(psi.hbar * dpsi) ** 2) / (2.0 * V.mass)
    pot = g.dx * np.sum(eval_potential(V, g.x) * np.abs(psi.values) ** 2)
    return float(kin + pot)


# ----------------------------------------------------------------------
# Madelung fields, the quantum term and the action-equation residual
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MadelungFields:
    grid: object
    rho: np.ndarray
    s: np.ndarray
    hbar: float
    support: np.ndarray          # True where S is defined
    masked_mass_fraction: float


def support_mask(rho_vals, dx):
    """(points with rho >= DEFAULT_FLOOR * max rho, the probability mass
    off them).  The fraction is mass-weighted: a localized packet on a
    padded grid masks most points but ~1e-12 of its mass."""
    support = rho_vals >= DEFAULT_FLOOR * rho_vals.max()
    return support, float(dx * rho_vals[~support].sum())


def make_madelung(g, rho, s, hbar):
    """Assemble MadelungFields from density and action samples on grid g,
    validating normalization and computing the support mask."""
    rho = np.asarray(rho, dtype=float)
    s = np.asarray(s, dtype=float)
    if rho.shape != (g.n,) or s.shape != (g.n,):
        raise DomainError("rho and S need one sample per grid point")
    if np.any(rho < 0):
        raise DomainError("density must be nonnegative")
    total = g.dx * rho.sum()
    if abs(total - 1.0) > NORM_TOL:
        raise DomainError(f"density mass {total} is not 1 within {NORM_TOL}")
    support, masked = support_mask(rho, g.dx)
    return MadelungFields(g, rho, s, float(hbar), support, masked)


def from_madelung(f, t=0.0):
    """Reassemble psi = sqrt(rho) exp(iS/hbar); masked points get phase 0."""
    if f.masked_mass_fraction > MAX_MASKED_MASS:
        raise DomainError(
            f"masked mass fraction {f.masked_mass_fraction:.3f} exceeds "
            f"{MAX_MASKED_MASS}; S is untrustworthy")
    total = f.grid.dx * f.rho.sum()
    if abs(total - 1.0) > NORM_TOL:
        raise DomainError(f"density mass {total} is not 1 within {NORM_TOL}")
    phase = np.where(f.support, f.s / f.hbar, 0.0)
    vals = np.sqrt(f.rho) * np.exp(1j * phase)
    # rho is normalized to 1e-6; the wave function itself carries unit norm
    # to machine precision
    vals /= np.sqrt(f.grid.dx * np.sum(np.abs(vals) ** 2))
    return WaveFunction(f.grid, vals, f.hbar, t=t)


def quantum_term(g, rho, hbar, m):
    """-(hbar^2/2m) lap(sqrt(rho))/sqrt(rho) for rho sampled on grid g, as
    an array; 0 on masked points.  The Laplacian is spectral: sqrt(rho)
    decays (or is uniform), so it is periodic-friendly even when S is
    not."""
    amp = np.sqrt(np.maximum(rho, 0.0))
    lap = spectral_derivative(g, amp, 2)
    support, _ = support_mask(rho, g.dx)
    out = np.zeros(g.n)
    out[support] = -(hbar ** 2) / (2.0 * m) * lap[support] / amp[support]
    return out


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
    grad_s = np.gradient(f.s, g.dx, edge_order=2)
    integrand = (ds_dt + grad_s ** 2 / (2.0 * m) + eval_potential(V, g.x)
                 + quantum_term(g, f.rho, f.hbar, m))
    # the difference stencil for S needs both neighbors inside the support
    region = f.support.copy()
    region[1:] &= f.support[:-1]
    region[:-1] &= f.support[1:]
    return float(np.sqrt(g.dx * np.sum(integrand[region] ** 2)))


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
    analytic dS/dt on the grid, for the free, constant-force, and harmonic
    cases, for a packet that starts at r0 = 0.

    S(x,t) = (m/4)(deps/eps)(x-r)^2 + p(t) x - p(t) r(t)/2 + gouy(t),
    with the width eps(t) from the closed forms and the phase term whose
    time derivative is -hbar^2/(2 m eps).  These fields satisfy the
    quantum action equation identically (they are exact solutions), so
    their hj_residual vanishes.
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

    fields = make_madelung(grid, rho_vals / (grid.dx * rho_vals.sum()),
                           s_vals, hbar)
    return fields, ds_dt_vals


# ----------------------------------------------------------------------
# Weak-form transport check for the point-density ansatz
# ----------------------------------------------------------------------

DEFAULT_TEST_FUNCTIONS = (
    # (phi, dphi/dx, dphi/dp)
    (lambda x, p: x, lambda x, p: 1.0, lambda x, p: 0.0),
    (lambda x, p: p, lambda x, p: 0.0, lambda x, p: 1.0),
    (lambda x, p: x * x, lambda x, p: 2 * x, lambda x, p: 0.0),
    (lambda x, p: x * p, lambda x, p: p, lambda x, p: x),
    (lambda x, p: p * p, lambda x, p: 0.0, lambda x, p: 2 * p),
)


def weak_liouville_residual(r, p, h, V, test_functions=DEFAULT_TEST_FUNCTIONS):
    """Max over test functions and interior samples of
    | d/dt phi(r, p) - [(p/m) dphi/dx - dV/dx dphi/dp] | along the samples
    (r, p) of a trajectory, spaced h apart in time; m = V.mass."""
    if r.size < 3:
        raise DomainError("need at least 3 samples")
    force = eval_force(V, r)
    worst = 0.0
    for phi, phi_x, phi_p in test_functions:
        series = phi(r, p) * np.ones_like(r)
        dseries = (series[2:] - series[:-2]) / (2 * h)
        rhs = ((p / V.mass) * phi_x(r, p) + force * phi_p(r, p)
               * np.ones_like(r))[1:-1]
        worst = max(worst, float(np.max(np.abs(dseries - rhs))))
    return worst


def delta_ansatz_check(V, r0, p0, t_final):
    """Integrate a Newton trajectory, one composed step per sample, and
    verify the weak-form transport identity along it; returns the max
    residual over the default test functions.  Samples are 2e-4 apart,
    or a whole multiple of that past 8000 of them.  The sample spacing
    bounds the centered-differencing error: ~8000 samples give ~1e-7
    residuals on unit-scale problems."""
    n_fine = int(np.ceil(t_final / 2e-4))
    n = int(np.ceil(n_fine / max(1, n_fine // 8000)))
    h = t_final / n
    r, p = newton_integrate(V, r0, p0, h * np.arange(n + 1), n)
    return weak_liouville_residual(r, p, h, V)


# ----------------------------------------------------------------------
# Expectation-value evolution residuals
# ----------------------------------------------------------------------

def ehrenfest_residuals(snapshots, V):
    """Residual series of the two expectation-value laws on a series of
    wave functions: residual1 = d<x>/dt - <p>/m and residual2 = d<p>/dt -
    <F>, with second-order centered differences (one-sided at the ends)."""
    if len(snapshots) < 3:
        raise DomainError("need at least 3 snapshots")
    times = np.array([s.t for s in snapshots])
    h = times[1] - times[0]
    if not np.allclose(np.diff(times), h, rtol=1e-9, atol=1e-12):
        raise DomainError("snapshots must be uniformly spaced in time")
    obs = [observables(s) for s in snapshots]
    x_bar = np.array([o.x_mean for o in obs])
    p_bar = np.array([o.p_mean for o in obs])
    f_bar = np.array([s.grid.dx * np.sum(np.abs(s.values) ** 2
                                         * eval_force(V, s.grid.x))
                      for s in snapshots])
    res1 = np.gradient(x_bar, h, edge_order=2) - p_bar / V.mass
    res2 = np.gradient(p_bar, h, edge_order=2) - f_bar
    return res1, res2
