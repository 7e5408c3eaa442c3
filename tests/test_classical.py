from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbarlab.classical import (
    gaussian_phase_blob,
    liouville_evolve,
    newton_integrate,
)
from hbarlab.errors import DomainError, EscapeError, MassDriftError
from hbarlab.grid import make_grid
from hbarlab.potential import PotentialSpec, eval_force, eval_potential
from hbarlab.schrodinger import init_gaussian, max_stable_dt, propagate

from helpers import (
    delta_ansatz_check,
    ehrenfest_residuals,
    weak_liouville_residual,
)


class TestNewtonIntegrate:
    def test_harmonic_closed_orbit(self):
        V = PotentialSpec.harmonic(1.0, 1.0)
        n = int(round(2 * np.pi / 1e-3))
        r, p = newton_integrate(V, 1.0, 0.0, [2 * np.pi], n)
        assert r[-1] == pytest.approx(1.0, abs=1e-6)
        assert p[-1] == pytest.approx(0.0, abs=1e-6)

    def test_free_motion_exact(self):
        # at the lab's reference step of 1e-2: each composed step rounds
        # five drifts, one of them backward, and 3000 steps round 1.2e-12
        r, _ = newton_integrate(PotentialSpec.free(), 0.0, 2.0, [3.0], 300)
        assert r[-1] == pytest.approx(6.0, abs=1e-12)

    def test_constant_force_exact(self):
        # Verlet, and so each substep of the composed step, is exact for a
        # uniform force.
        r, p = newton_integrate(PotentialSpec.constant_force(2.0),
                                0.0, 0.0, [1.0], 1000)
        assert r[-1] == pytest.approx(1.0, abs=1e-10)
        assert p[-1] == pytest.approx(2.0, abs=1e-12)

    def test_energy_has_no_secular_drift(self):
        V = PotentialSpec.harmonic(1.0, 1.0)
        # 1001 samples one time unit apart, 10^5 composed steps of 1e-2
        r, p = newton_integrate(V, 1.0, 0.0, np.arange(1001.0), 10 ** 5)
        energy = 0.5 * p ** 2 / V.mass + eval_potential(V, r)
        assert np.max(np.abs(energy - energy[0])) <= 1e-6

    def test_escape_guard(self):
        # inverted parabola V = -x^2: r = 0.1 cosh(sqrt(2) t) passes the
        # escape bound 1e6 near t = 11.9, inside the 50000 steps to t = 50
        V = PotentialSpec.polynomial([0, 0, -1.0])
        with pytest.raises(EscapeError):
            newton_integrate(V, 0.1, 0.0, [50.0], 50000)

    def test_dt_validation(self):
        # a negative, unsorted or all-zero sample time, or no step
        free = PotentialSpec.free()
        for times, n in (([-1e-3], 10), ([0.5, 0.2], 10), ([0.0, 0.0], 10),
                         ([], 10), ([1.0], 0), ([np.inf], 10)):
            with pytest.raises(DomainError):
                newton_integrate(free, 0.0, 1.0, times, n)

    def test_monodromy_determinant_is_one(self):
        # One composed harmonic step is an exactly linear map, so finite
        # differences recover it exactly; symplecticity means det = 1.
        V = PotentialSpec.harmonic(1.0, 1.0)
        dt, d = 1e-3, 1e-3

        def step(r0, p0):
            r, p = newton_integrate(V, r0, p0, [dt], 1)
            return r[-1], p[-1]

        r1, p1 = step(1.0 + d, 0.5)
        r2, p2 = step(1.0 - d, 0.5)
        r3, p3 = step(1.0, 0.5 + d)
        r4, p4 = step(1.0, 0.5 - d)
        jac = np.array([[(r1 - r2) / (2 * d), (r3 - r4) / (2 * d)],
                        [(p1 - p2) / (2 * d), (p3 - p4) / (2 * d)]])
        assert abs(np.linalg.det(jac) - 1.0) <= 1e-12

    def test_sampling(self):
        # one sample per requested time, t = 0 and a repeat included, each
        # landed on exactly: under a uniform force F = 2 the steps are
        # exact, so r = t^2 and p = 2 t hold at the times themselves, while
        # a sample one step of 1e-2 off would miss r by up to 2e-2
        times = np.array([0.0, 0.013, 0.25, 0.25, 0.5, 0.77, 1.0])
        r, p = newton_integrate(PotentialSpec.constant_force(2.0), 0.0, 0.0,
                                times, 100)
        assert r.size == p.size == times.size
        assert np.allclose(r, times ** 2, atol=1e-9)
        assert np.allclose(p, 2 * times)


# max |difference| / max(1, |value|) of r and p; 300 random cases read at
# most 2.5e-16
NEWTON_MASS_SCALING_TOL = 1e-14


class TestNewtonMassScaling:
    # m r'' = -V'(r) is, in tau = t/m, r'' = -m V'(r) with momentum
    # dr/dtau = p: the path under V of mass m at times t is the path under
    # m V of unit mass at times t/m.  The runs end by t = 0.25; the fastest
    # corner case (|c_j| = 1, |r0| = 1, |p0| = 2, m = 0.5) passes the
    # escape bound at t = 0.37.
    @settings(max_examples=100, deadline=None)
    @given(coeffs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5),
           m=st.floats(0.5, 2.0), r0=st.floats(-1.0, 1.0),
           p0=st.floats(-2.0, 2.0), dt=st.floats(1e-3, 5e-3),
           n=st.integers(1, 50))
    def test_mass_rescales_time(self, coeffs, m, r0, p0, dt, n):
        V = PotentialSpec.polynomial(coeffs, mass=m)
        unit = PotentialSpec.polynomial(m * np.asarray(coeffs))
        times = dt * np.arange(n + 1)
        path = newton_integrate(V, r0, p0, times, n)
        scaled = newton_integrate(unit, r0, p0, times / m, n)
        for a, b in zip(path, scaled):
            assert (np.max(np.abs(a - b) / np.maximum(1.0, np.abs(a)))
                    <= NEWTON_MASS_SCALING_TOL)


class TestLiouville:
    def test_quarter_period_rotation(self):
        # For m = omega = 1 the phase flow is a rigid rotation: a blob at
        # (1, 0) lands at (0, -1) after a quarter period.
        V = PotentialSpec.harmonic(1.0, 1.0)
        rho0 = gaussian_phase_blob(1.0, 0.0, 0.3, 0.3, -3, 3, -3, 3)
        (out,) = liouville_evolve(rho0, V, np.pi / 2, dt=0.05)
        X, P = np.meshgrid(rho0.x_nodes, rho0.p_nodes, indexing="ij")
        w = out * rho0.dx * rho0.dp
        cx = float(np.sum(w * X) / np.sum(w))
        cp = float(np.sum(w * P) / np.sum(w))
        assert abs(cx - 0.0) <= 2 * rho0.dx
        assert abs(cp + 1.0) <= 2 * rho0.dp

    def test_free_shear_preserves_momentum_marginal(self):
        V = PotentialSpec.free()
        rho0 = gaussian_phase_blob(0.0, 0.0, 0.3, 0.3, -4, 4, -2, 2)
        (out,) = liouville_evolve(rho0, V, 1.0, dt=1e-2)
        marg0 = rho0.values.sum(axis=0) * rho0.dx
        marg1 = out.sum(axis=0) * rho0.dx
        assert np.max(np.abs(marg1 - marg0)) <= 1e-10

    def test_time_splitting_commutes_within_interpolation_tolerance(self):
        V = PotentialSpec.harmonic(1.0, 1.0)
        rho0 = gaussian_phase_blob(1.0, 0.0, 0.4, 0.4, -3.5, 3.5, -3.5, 3.5)
        t1, t2 = 0.7, 0.9
        (once,) = liouville_evolve(rho0, V, t1 + t2, dt=0.05)
        (half,) = liouville_evolve(rho0, V, t1, dt=0.05)
        (twice,) = liouville_evolve(replace(rho0, values=half), V, t2,
                                    dt=0.05)
        l1 = np.sum(np.abs(once - twice)) * rho0.dx * rho0.dp
        assert l1 <= 1e-3

    def test_mass_drift_error_when_support_escapes(self):
        V = PotentialSpec.free()
        rho0 = gaussian_phase_blob(2.0, 1.5, 0.3, 0.3, -3, 3, -3, 3)
        with pytest.raises(MassDriftError):
            liouville_evolve(rho0, V, 2.0, dt=1e-2)  # drifts past x_max

    def test_checkpoints_match_separate_runs(self):
        # one backward pass sampled at t k / 4 gives the density a separate
        # pullback to each t k / 4 gives, up to roundoff in the step size
        V = PotentialSpec.harmonic(1.0, 1.0)
        rho0 = gaussian_phase_blob(1.0, 0.0, 0.3, 0.3, -3, 3, -3, 3,
                                   nx=128, n_p=128)
        checkpoints = liouville_evolve(rho0, V, 2 * np.pi, 0.05, 4)
        assert len(checkpoints) == 4
        for k, rho in enumerate(checkpoints, 1):
            (alone,) = liouville_evolve(rho0, V, 2 * np.pi * k / 4, 0.05)
            l1 = np.sum(np.abs(rho - alone)) * rho0.dx * rho0.dp
            assert l1 <= 1e-6

    def test_mass_drift_error_at_a_checkpoint(self):
        V = PotentialSpec.free()
        rho0 = gaussian_phase_blob(2.0, 1.5, 0.3, 0.3, -3, 3, -3, 3)
        with pytest.raises(MassDriftError):
            liouville_evolve(rho0, V, 2.0, 1e-2, 4)

    def test_checkpoint_count_must_be_positive(self):
        rho0 = gaussian_phase_blob(0.0, 0.0, 0.3, 0.3, -3, 3, -3, 3)
        with pytest.raises(DomainError):
            liouville_evolve(rho0, PotentialSpec.free(), 1.0, 1e-2, 0)


class TestDeltaAnsatz:
    def test_harmonic_weak_residual(self):
        V = PotentialSpec.harmonic(1.0, 1.0)
        assert delta_ansatz_check(V, 1.0, 0.5, 2 * np.pi) <= 1e-6

    def test_free_exact(self):
        V = PotentialSpec.free()
        n = 2000
        h = 3.0 / n
        r, p = newton_integrate(V, 0.0, 1.0, h * np.arange(n + 1), n)
        # phi = p is an exact invariant of free flow
        phi_p = ((lambda x, p: p, lambda x, p: 0.0, lambda x, p: 1.0),)
        assert weak_liouville_residual(r, p, h, V, phi_p) <= 1e-12
        # quadratic test functions are centered-difference exact up to
        # h-amplified roundoff
        assert delta_ansatz_check(V, 0.0, 1.0, 3.0) <= 1e-10

    def test_perturbed_trajectory_detected(self):
        V = PotentialSpec.harmonic(1.0, 1.0)
        n = 2000
        h = 2 * np.pi / n
        r, p = newton_integrate(V, 1.0, 0.5, h * np.arange(n + 1), n)
        assert weak_liouville_residual(r, 1.01 * p, h, V) > 1e-3


def quantum_snapshots(V, g, eps, r0, p0, hbar, t_final, n_snaps,
                      safety=0.5):
    psi = init_gaussian(g, eps, r0, p0, hbar)
    dt_max = safety * max_stable_dt(g, V, hbar)
    t_snap = t_final / n_snaps
    n_sub = int(np.ceil(t_snap / dt_max))
    out = [psi]
    for _ in range(n_snaps):
        psi = propagate(psi, V, t_snap / n_sub, n_sub)
        out.append(psi)
    return out


class TestEhrenfest:
    def test_harmonic_coherent_run(self):
        g = make_grid(-12, 12, 256)
        V = PotentialSpec.harmonic(1.0, 1.0)
        snaps = quantum_snapshots(V, g, 1.0, 0.0, 1.0, 1.0, 1.5, 300)
        res1, res2 = ehrenfest_residuals(snaps, V)
        assert np.max(np.abs(res1)) <= 1e-5
        assert np.max(np.abs(res2)) <= 1e-5

    def test_quartic_run_laws_hold_but_mean_force_differs(self):
        g = make_grid(-8, 8, 256)
        V = PotentialSpec.polynomial([0, 0, 0, 0, 1.0])
        snaps = quantum_snapshots(V, g, 0.5, 0.0, 1.0, 1.0, 1.5, 300)
        res1, res2 = ehrenfest_residuals(snaps, V)
        assert np.max(np.abs(res1)) <= 1e-4
        assert np.max(np.abs(res2)) <= 1e-4
        # mean force vs force at the mean: differs once the packet deforms
        gaps = []
        for psi in snaps:
            rho = np.abs(psi.values) ** 2
            x_bar = g.dx * np.sum(g.x * rho)
            f_bar = g.dx * np.sum(rho * eval_force(V, g.x))
            gaps.append(abs(f_bar - eval_force(V, x_bar)))
        assert max(gaps) > 1e-2

    def test_residual1_is_potential_independent(self):
        rng = np.random.default_rng(3)
        g = make_grid(-8, 8, 256)
        for _ in range(3):
            coeffs = np.zeros(5)
            coeffs[2] = rng.uniform(0.2, 0.6)
            coeffs[3] = rng.uniform(-0.1, 0.1)
            coeffs[4] = rng.uniform(0.05, 0.2)
            V = PotentialSpec.polynomial(coeffs)
            snaps = quantum_snapshots(V, g, 0.5, 0.0, 0.8, 1.0, 1.0, 200)
            res1, _ = ehrenfest_residuals(snaps, V)
            assert np.max(np.abs(res1)) <= 1e-5
