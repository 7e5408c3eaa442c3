"""Split-step spectral propagation of the 1D Schrödinger equation.

The reduced Planck constant is an explicit runtime parameter: the solver
integrates i*hbar dpsi/dt = [-hbar^2/(2m) d^2/dx^2 + V(x)] psi by Strang
splitting -- half potential phase, full kinetic phase exp(-i hbar k^2 dt/2m)
in spectral space, half potential phase.  Each factor is unitary, so the
norm is conserved to roundoff; the splitting error is O(dt^2).  Within one
`propagate` call the closing half phase of a step and the opening half
phase of the next are applied as one full phase, so a step costs one FFT
pair (scipy.fft) and two multiplies; a single-step call is the plain
half-kinetic-half sequence.

The module also carries the analytic Gaussian-packet family used as an
oracle throughout the test suite: for free, constant-force, and harmonic
potentials an initial packet

    psi(x, 0) = (pi*eps)^(-1/4) exp(-(x - r0)^2 / (2 eps)) exp(i p0 x / hbar)

stays Gaussian, its center follows the classical trajectory, and its width
parameter eps(t) (defined so that 2*Var(x) = eps) obeys a closed form.

Width convention: the density of the packet above is
rho(x) = (pi*eps)^(-1/2) exp(-(x-r0)^2/eps) with variance eps/2 per axis,
so the "measured width" A(t) is defined as 2*Var(x) and A(0) = eps.  This
removes a silent factor-of-two trap when comparing against the closed
forms.
"""

from dataclasses import dataclass

import numpy as np
from scipy import fft

from .errors import BoundaryLeak, DomainError, LabError
from .grid import complex_field, spectral_derivative
from .potential import eval_potential

__all__ = [
    "WaveFunction",
    "GaussianPacketState",
    "Observables",
    "init_gaussian",
    "propagate",
    "max_stable_dt",
    "boundary_leak_fraction",
    "observables",
    "width",
    "excess_kurtosis",
    "energy_mean",
    "analytic_gaussian",
]

LEAK_TOL = 1e-10        # max density fraction in the outer 5% of each side
NORM_TOL = 1e-9         # allowed norm drift per propagation call
EDGE_FRACTION = 0.05


@dataclass(frozen=True)
class WaveFunction:
    """Complex field on a grid plus its hbar, mass, and current time."""

    field: object           # ComplexField
    hbar: float
    m: float
    t: float = 0.0

    @property
    def grid(self):
        return self.field.grid

    @property
    def values(self):
        return self.field.values


@dataclass(frozen=True)
class GaussianPacketState:
    """Analytic packet state (eps(t), r(t), p(t)) for the closed-form cases."""

    epsilon_t: float
    r_t: float
    p_t: float


@dataclass(frozen=True)
class Observables:
    x_mean: float
    p_mean: float
    var_x: float
    var_p: float
    uncertainty_product: float

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
            f"at t={psi.t:.6g}", psi=psi, leak=leak)
    return psi


def init_gaussian(grid, epsilon, r0, p0, hbar, m):
    """Normalized Gaussian packet of width parameter eps at (r0, p0)."""
    if epsilon <= 0:
        raise DomainError(f"packet width parameter must be positive, got {epsilon}")
    if hbar <= 0:
        raise DomainError(f"hbar must be positive, got {hbar}")
    if m <= 0:
        raise DomainError(f"mass must be positive, got {m}")
    x = grid.x
    psi = (np.pi * epsilon) ** (-0.25) * np.exp(
        -((x - r0) ** 2) / (2.0 * epsilon) + 1j * p0 * x / hbar)
    nrm = np.sqrt(grid.dx * np.sum(np.abs(psi) ** 2))
    psi = psi / nrm
    wf = WaveFunction(complex_field(grid, psi), float(hbar), float(m), 0.0)
    return _check_leak(wf)


def max_stable_dt(grid, V, hbar, m):
    """Largest step such that each split phase rotates < 0.5 rad anywhere.

    Kinetic factor: hbar * k_max^2 * dt / (2m) <= 0.5.
    Potential factor: max|V| * dt / hbar <= 0.5 (no bound for V = 0).
    """
    k_max = np.pi / grid.dx
    dt_kin = m / (hbar * k_max ** 2)
    vmax = float(np.max(np.abs(eval_potential(V, grid.x))))
    if vmax > 0:
        return min(dt_kin, 0.5 * hbar / vmax)
    return dt_kin


def propagate(psi, V, dt, n_steps):
    """Advance a wave function by n_steps Strang steps of size dt.

    Returns a new WaveFunction at t + n_steps*dt.  Raises DomainError for
    dt <= 0 or dt above the stability rule, BoundaryLeak (carrying the
    final state) when packet mass reaches the boundary margin.
    """
    if dt <= 0:
        raise DomainError(f"dt must be positive, got {dt}")
    n_steps = int(n_steps)
    if n_steps < 1:
        raise DomainError(f"n_steps must be >= 1, got {n_steps}")
    g = psi.grid
    hbar, m = psi.hbar, psi.m
    dt_max = max_stable_dt(g, V, hbar, m)
    if dt > dt_max * (1.0 + 1e-12):
        raise DomainError(
            f"dt={dt:.3e} exceeds the phase-rotation limit {dt_max:.3e}")

    exp_kin = np.exp(-0.5j * hbar * g.k ** 2 * dt / m)
    exp_v_half = np.exp(-0.5j * eval_potential(V, g.x) * dt / hbar)
    # the closing half phase of one step and the opening half phase of the
    # next are one full phase
    exp_v = exp_v_half * exp_v_half
    norm0 = g.dx * np.sum(np.abs(psi.values) ** 2)
    values = exp_v_half * psi.values
    for _ in range(n_steps - 1):
        values = exp_v * fft.ifft(exp_kin * fft.fft(values))
    values = exp_v_half * fft.ifft(exp_kin * fft.fft(values))

    norm1 = g.dx * np.sum(np.abs(values) ** 2)
    if abs(norm1 - norm0) > NORM_TOL:
        raise LabError(
            f"norm drifted by {abs(norm1 - norm0):.3e} over {n_steps} steps")
    out = WaveFunction(complex_field(g, values), hbar, m,
                       psi.t + n_steps * dt)
    return _check_leak(out)


# ----------------------------------------------------------------------
# Observables
# ----------------------------------------------------------------------

def _density_moments(psi):
    g = psi.grid
    rho = np.abs(psi.values) ** 2
    w = g.dx * rho
    x_mean = float(np.sum(w * g.x))
    u = g.x - x_mean
    var = float(np.sum(w * u ** 2))
    m4 = float(np.sum(w * u ** 4))
    return x_mean, var, m4


def observables(psi):
    """Position/momentum means and variances plus the uncertainty product.

    Momentum moments use the spectral derivative:
    <p> = Re int conj(psi) (-i hbar dpsi/dx) dx and <p^2> = int |hbar dpsi/dx|^2 dx
    (equal to <psi|p^2|psi> on the periodic grid by parts).
    """
    g = psi.grid
    x_mean, var_x, _ = _density_moments(psi)
    dpsi = spectral_derivative(psi.field, 1).values
    p_mean = float(np.real(g.dx * np.sum(
        np.conj(psi.values) * (-1j * psi.hbar) * dpsi)))
    p2 = float(g.dx * np.sum(np.abs(psi.hbar * dpsi) ** 2))
    var_p = p2 - p_mean ** 2
    return Observables(x_mean, p_mean, var_x, var_p,
                       float(np.sqrt(max(var_x, 0.0) * max(var_p, 0.0))))


def width(psi):
    """Measured width A = 2*Var(x), so A(0) equals the packet's eps."""
    _, var_x, _ = _density_moments(psi)
    return 2.0 * var_x


def excess_kurtosis(psi):
    """Excess kurtosis of |psi|^2; zero for a Gaussian density."""
    _, var, m4 = _density_moments(psi)
    return float(m4 / var ** 2 - 3.0)


def energy_mean(psi, V):
    """<H> = int |hbar dpsi/dx|^2 / 2m + V |psi|^2 dx."""
    g = psi.grid
    dpsi = spectral_derivative(psi.field, 1).values
    kin = g.dx * np.sum(np.abs(psi.hbar * dpsi) ** 2) / (2.0 * psi.m)
    pot = g.dx * np.sum(eval_potential(V, g.x) * np.abs(psi.values) ** 2)
    return float(kin + pot)


# ----------------------------------------------------------------------
# Analytic Gaussian-packet family
# ----------------------------------------------------------------------

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
