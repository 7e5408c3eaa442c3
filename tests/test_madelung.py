import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbarlab.errors import DomainError
from hbarlab.grid import make_grid
from hbarlab.madelung import weighted_action_terms
from hbarlab.potential import PotentialSpec
from hbarlab.schrodinger import (
    WaveFunction,
    init_gaussian,
    max_stable_dt,
    observables,
    propagate,
)

from helpers import (
    analytic_packet_fields,
    from_madelung,
    gauss_rho,
    hj_residual,
    make_madelung,
    quantum_term,
    rel_err,
)


def fidelity(psi_a, psi_b):
    g = psi_a.grid
    return abs(g.dx * np.sum(np.conj(psi_a.values) * psi_b.values))


def wrapped_madelung(psi):
    """(rho, S) of psi with S = hbar * arg(psi), wrapped, not unwrapped."""
    g = psi.grid
    return make_madelung(g, np.abs(psi.values) ** 2,
                         psi.hbar * np.angle(psi.values), psi.hbar)


class TestFromMadelung:
    def test_round_trip_fidelity(self):
        g = make_grid(-10, 10, 512)
        psi = init_gaussian(g, 0.5, 0.3, 1.7, 1.0)
        back = from_madelung(wrapped_madelung(psi))
        assert fidelity(psi, back) >= 1.0 - 1e-10

    def test_uniform_density_zero_phase(self):
        g = make_grid(-5, 5, 64)
        f = make_madelung(g, np.full(64, 1.0 / g.length), np.zeros(64),
                          hbar=1.0)
        psi = from_madelung(f)
        assert np.allclose(psi.values, psi.values[0])
        assert np.allclose(np.abs(psi.values) ** 2, 1.0 / g.length)

    def test_unnormalized_density_rejected(self):
        g = make_grid(-5, 5, 64)
        with pytest.raises(DomainError):
            make_madelung(g, np.full(64, 0.2), np.zeros(64), hbar=1.0)

    def test_propagated_analytic_state_matches_analytic_evolution(self):
        # Reconstruct psi from the closed-form (rho, S) at t1, propagate with
        # the solver to t2, and compare against the closed form at t2.
        g = make_grid(-14, 14, 512)
        V = PotentialSpec.harmonic(1.0, 1.0)
        t1, t2 = 0.3, 0.8
        f1, _ = analytic_packet_fields("harmonic", g, 0.5, 1.0, 1.0, 1.0,
                                       t1, omega=1.0)
        psi = from_madelung(f1, t=t1)
        dt = 0.4 * max_stable_dt(g, V, 1.0)
        n = int(np.ceil((t2 - t1) / dt))
        out = propagate(psi, V, (t2 - t1) / n, n)
        f2, _ = analytic_packet_fields("harmonic", g, 0.5, 1.0, 1.0, 1.0,
                                       t2, omega=1.0)
        ref = from_madelung(f2, t=t2)
        obs = observables(out)
        st_eps = 0.5 * (np.cos(t2) ** 2 + 4.0 * np.sin(t2) ** 2)
        assert rel_err(observables(out).width, st_eps) <= 1e-4
        assert rel_err(obs.x_mean, np.sin(t2)) <= 1e-4
        assert fidelity(out, ref) >= 1.0 - 1e-4


# Random packets pushed through up to 100 steps of a random real polynomial
# potential of degree <= 4, on a grid wide enough that none reaches the leak
# margin; a random global phase on top.
ROUND_TRIP_GRID = make_grid(-16, 16, 256)
ROUND_TRIP_TOL = 1e-12


class TestRoundTripProperty:
    @settings(max_examples=100, deadline=None)
    @given(coeffs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5),
           eps=st.floats(0.2, 1.0), r0=st.floats(-1.0, 1.0),
           p0=st.floats(-2.0, 2.0), hbar=st.floats(0.5, 2.0),
           m=st.floats(0.5, 2.0), dt_frac=st.floats(0.01, 1.0),
           n=st.integers(1, 100), theta=st.floats(0.0, 2 * np.pi))
    def test_round_trip_up_to_global_phase(self, coeffs, eps, r0, p0, hbar,
                                           m, dt_frac, n, theta):
        # from_madelung(wrapped_madelung(psi)) = c psi with |c| = 1 on the
        # support; masked points lose their phase, so off the support the
        # difference is bounded by the masked mass
        g = ROUND_TRIP_GRID
        V = PotentialSpec.polynomial(coeffs, mass=m)
        psi = propagate(init_gaussian(g, eps, r0, p0, hbar), V,
                        dt_frac * max_stable_dt(g, V, hbar), n)
        psi = WaveFunction(g, np.exp(1j * theta) * psi.values, hbar)
        f = wrapped_madelung(psi)
        back = from_madelung(f).values
        overlap = np.sum(np.conj(psi.values) * back)
        diff = back - overlap / abs(overlap) * psi.values
        on_support = np.sqrt(g.dx * np.sum(np.abs(diff[f.support]) ** 2))
        total = np.sqrt(g.dx * np.sum(np.abs(diff) ** 2))
        assert on_support <= ROUND_TRIP_TOL
        assert total <= 2.0 * np.sqrt(f.masked_mass_fraction) + ROUND_TRIP_TOL


class TestQuantumTerm:
    def test_gaussian_closed_form(self):
        # For rho ~ exp(-(x-r)^2/eps):
        #   -(hbar^2/2m) lap(sqrt(rho))/sqrt(rho) = (hbar^2/2m eps^2)(eps-(x-r)^2)
        g = make_grid(-10, 10, 512)
        eps, hbar, m = 0.5, 1.3, 0.9
        r = 18 * g.dx  # on a grid point, so the peak check is exact
        rho = gauss_rho(g.x, eps, r)
        q = quantum_term(g, rho, hbar, m)
        # Compare where the division by sqrt(rho) is well conditioned; at
        # the 1e-12 support floor the FFT roundoff is amplified ~1e6x.
        region = rho >= 1e-9 * rho.max()
        expected = hbar ** 2 / (2 * m * eps ** 2) * (eps - (g.x - r) ** 2)
        assert np.max(np.abs(q[region] - expected[region])) <= 1e-8
        ir = np.argmin(np.abs(g.x - r))
        assert q[ir] == pytest.approx(hbar ** 2 / (2 * m * eps), rel=1e-6)

    def test_uniform_density_gives_zero(self):
        g = make_grid(-5, 5, 64)
        q = quantum_term(g, np.full(64, 0.1), 1.0, 1.0)
        assert np.max(np.abs(q)) <= 1e-12

    def test_zero_hbar_gives_zero(self):
        g = make_grid(-10, 10, 256)
        q = quantum_term(g, gauss_rho(g.x, 0.5), 0.0, 1.0)
        assert np.all(q == 0.0)

    def test_hbar_squared_scaling_exact(self):
        g = make_grid(-10, 10, 256)
        rho = gauss_rho(g.x, 0.7, 0.2)
        q1 = quantum_term(g, rho, 1.0, 1.0)
        q2 = quantum_term(g, rho, 2.0, 1.0)
        assert np.array_equal(q2, 4.0 * q1)


def propagate_triple(psi, V, t_target, dt):
    """Propagate to t_target and return (psi at t-dt, t, t+dt)."""
    n = int(round(t_target / dt))
    mid = propagate(psi, V, dt, n)
    prev = propagate(psi, V, dt, n - 1)
    nxt = propagate(psi, V, dt, n + 1)
    return prev, mid, nxt


class TestHJResidual:
    def test_analytic_state_satisfies_quantum_hj(self):
        g = make_grid(-12, 12, 1024)
        for case, V, kw in (
            ("free", PotentialSpec.free(), {}),
            ("constant_force", PotentialSpec.constant_force(0.8),
             {"f0": 0.8}),
            ("harmonic", PotentialSpec.harmonic(1.0, 1.0), {"omega": 1.0}),
        ):
            f, ds_dt = analytic_packet_fields(case, g, 0.1, 1.0, 0.1, 1.0,
                                              t=2.0, **kw)
            assert hj_residual(f, ds_dt, V) <= 1e-6

    def test_plane_wave_solves_classical_hj(self):
        # a uniform density has no quantum term, so the quantum residual is
        # the classical one
        g = make_grid(-5, 5, 64)
        p0, v0, m = 1.3, 0.4, 1.0
        energy = p0 ** 2 / (2 * m) + v0
        f = make_madelung(g, np.full(64, 1.0 / g.length), p0 * g.x, 1.0)
        ds_dt = np.full(64, -energy)
        V = PotentialSpec.polynomial([v0], mass=m)
        assert hj_residual(f, ds_dt, V) <= 1e-12

    def test_mode_validation(self):
        g = make_grid(-10, 10, 256)
        f = make_madelung(g, gauss_rho(g.x, 0.5), np.zeros(g.n), hbar=0.0)
        ds_dt = np.zeros(g.n)
        V = PotentialSpec.free()
        with pytest.raises(DomainError):
            hj_residual(f, ds_dt, V)

    def test_propagated_state_quantum_residual_second_order(self):
        g = make_grid(-16, 16, 256)
        V = PotentialSpec.harmonic(1.0, 1.0)
        psi = init_gaussian(g, 0.5, 0.0, 1.0, 1.0)

        def residual_at(delta):
            rho_q, rho_hj = weighted_action_terms(
                propagate_triple(psi, V, 0.5, delta), V, delta)
            return l2(rho_q + rho_hj, g.dx)

        r1 = residual_at(4e-4)
        r2 = residual_at(2e-4)
        assert r1 <= 1e-4
        assert 3.0 <= r1 / r2 <= 5.0

    def test_propagated_state_classical_residual_equals_quantum_norm(self):
        g = make_grid(-16, 16, 256)
        V = PotentialSpec.harmonic(1.0, 1.0)
        psi = init_gaussian(g, 0.5, 0.0, 1.0, 1.0)
        delta = 2e-4
        rho_q, rho_hj = weighted_action_terms(
            propagate_triple(psi, V, 0.5, delta), V, delta)
        assert l2(rho_hj, g.dx) == pytest.approx(l2(rho_q, g.dx), rel=0.02)


def l2(values, dx):
    return float(np.sqrt(dx * np.sum(values ** 2)))


# Two random Gaussians with a random relative momentum and phase interfere,
# so the density has near-zeros where S jumps; the density-weighted identity
# rho Q + rho (dS/dt + (dS/dx)^2/2m + V) = 0 needs no S and holds there too.
# The triple's probe step is 1% of the phase-rotation limit, so each split
# phase turns by at most 5e-3 rad per step and the O(step^2) errors of the
# centered phase difference and of the Strang step stay far below the
# tolerance.
WEIGHTED_IDENTITY_TOL = 1e-6


class TestWeightedIdentityProperty:
    @settings(max_examples=100, deadline=None)
    @given(coeffs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5),
           eps=st.tuples(st.floats(0.3, 1.0), st.floats(0.3, 1.0)),
           r0=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
           p0=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
           theta=st.floats(0.0, 2 * np.pi), hbar=st.floats(0.5, 2.0),
           m=st.floats(0.5, 2.0), dt_frac=st.floats(0.01, 1.0),
           n=st.integers(1, 100))
    def test_superposition_satisfies_weighted_identity(
            self, coeffs, eps, r0, p0, theta, hbar, m, dt_frac, n):
        g = ROUND_TRIP_GRID
        V = PotentialSpec.polynomial(coeffs, mass=m)
        a, b = (init_gaussian(g, e, r, p, hbar).values
                for e, r, p in zip(eps, r0, p0))
        vals = a + np.exp(1j * theta) * b
        vals = vals / np.sqrt(g.dx * np.sum(np.abs(vals) ** 2))
        psi = WaveFunction(g, vals, hbar)
        limit = max_stable_dt(g, V, hbar)
        psi = propagate(psi, V, dt_frac * limit, n)
        delta = 0.01 * limit
        triple = (psi, propagate(psi, V, delta, 1),
                  propagate(psi, V, delta, 2))
        rho_q, rho_hj = weighted_action_terms(triple, V, delta)
        assert (l2(rho_q + rho_hj, g.dx)
                <= WEIGHTED_IDENTITY_TOL * l2(rho_q, g.dx))
