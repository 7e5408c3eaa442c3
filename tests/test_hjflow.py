import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hbarlab.errors import CausticError, DomainError
from hbarlab.grid import make_grid
from hbarlab.hjflow import (
    CharacteristicFan,
    classical_hj_residual,
    deterministic_continuity_check,
    integrate_fan,
    projected_newton_check,
    solve_hj,
)
from hbarlab.potential import PotentialSpec, eval_potential

from helpers import expectations, gauss_rho


def linear_s0(grid, p0):
    return p0 * grid.x


@st.composite
def hermite_nodes(draw):
    """(x, s, p): strictly increasing nodes with values and slopes."""
    n = draw(st.integers(2, 12))
    gaps = draw(arrays(np.float64, n - 1, elements=st.floats(0.05, 1.0)))
    x = draw(st.floats(-5.0, 5.0)) + np.concatenate([[0.0], np.cumsum(gaps)])
    value = arrays(np.float64, n, elements=st.floats(-5.0, 5.0))
    return x, draw(value), draw(value)


@settings(max_examples=200, deadline=None)
@given(nodes=hermite_nodes(),
       q=arrays(np.float64, st.integers(1, 20), elements=st.floats(0.0, 1.0)))
def test_action_is_scipys_cubic_hermite(nodes, q):
    # scipy's spline, with its end cubics extrapolating, is the oracle:
    # at the nodes, between them and up to 3 beyond either end
    from scipy.interpolate import CubicHermiteSpline
    x, s, p = nodes
    sol = CharacteristicFan(x, p, np.zeros(1), x[None], p[None], s[None],
                            1.0)
    spline = CubicHermiteSpline(x, s, p, extrapolate=True)
    xq = np.concatenate([x, x[0] - 3.0 + (x[-1] - x[0] + 6.0) * q])
    for order in range(3):
        want = spline(xq, order)
        scale = 1.0 + np.max(np.abs(want))
        assert np.allclose(sol.action(0, xq, order), want, rtol=0.0,
                           atol=1e-12 * scale)
    assert np.allclose(sol.action(0, x), s, rtol=0.0, atol=1e-13)
    assert np.allclose(sol.action(0, x, 1), p, rtol=0.0, atol=1e-12)
    with pytest.raises(DomainError):
        sol.action(0, x, 3)


class TestSolveHJ:
    def test_free_linear_flow_exact(self):
        g = make_grid(-8, 8, 256)
        V = PotentialSpec.free()
        p0 = 1.3
        sol = solve_hj(g, linear_s0(g, p0), V, t_final=1.0)
        for i, t in enumerate(sol.times):
            expected = p0 * g.x - p0 ** 2 * t / 2.0
            cov = sol.covered(i)
            err = np.max(np.abs(sol.action(i, g.x)[cov] - expected[cov]))
            assert err <= 1e-8
        assert classical_hj_residual(g, sol, V, len(sol.times) // 2) <= 1e-8

    def test_harmonic_flow_residual(self):
        # dS/dt differencing error grows with x^2 toward the fan edge, so
        # the snapshot spacing is kept small.
        g = make_grid(-8, 8, 256)
        V = PotentialSpec.harmonic(1.0, 1.0)
        ts = [0.0, 0.5999, 0.6, 0.6001, 1.2]
        sol = solve_hj(g, linear_s0(g, 1.0), V, t_final=1.2, dt=5e-5,
                       snapshot_times=ts)
        assert classical_hj_residual(g, sol, V, 2) <= 1e-6

    def test_focusing_flow_hits_caustic(self):
        # S0 = -x^2 m / (2T) sends every free characteristic to the origin
        # at t = T: x(t) = x0 (1 - t/T).
        g = make_grid(-8, 8, 256)
        T = 1.0
        s0 = -g.x ** 2 / (2 * T)
        with pytest.raises(CausticError) as err:
            solve_hj(g, s0, PotentialSpec.free(), t_final=1.5, dt=2e-4)
        assert err.value.t_caustic == pytest.approx(T, rel=0.01)

    def test_fan_stops_at_first_crossing(self):
        # the same focusing flow: the fan ends at the crossing and keeps
        # only the snapshots before it
        g = make_grid(-8, 8, 256)
        T = 1.0
        s0 = -g.x ** 2 / (2 * T)
        fan = integrate_fan(g, s0, PotentialSpec.free(), t_final=1.5 * T,
                            dt=2e-4, snapshot_times=np.linspace(0, 1.5, 7))
        assert fan.t_crossing == pytest.approx(T, rel=0.01)
        assert len(fan.times) == fan.x.shape[0] == 4
        assert np.all(fan.times < fan.t_crossing)
        assert fan.p.shape == fan.s.shape == fan.x.shape

    def test_crossing_after_last_snapshot_still_raises(self):
        # the fan runs through t_final, so the focusing caustic at t = T
        # ends it even when every snapshot comes before T
        g = make_grid(-8, 8, 256)
        T = 1.0
        s0 = -g.x ** 2 / (2 * T)
        fan = integrate_fan(g, s0, PotentialSpec.free(), t_final=1.5 * T,
                            dt=2e-4, snapshot_times=[0.0, 0.5])
        assert np.array_equal(fan.times, [0.0, 0.5])
        assert fan.t_crossing == pytest.approx(T, abs=1e-9)
        with pytest.raises(CausticError):
            solve_hj(g, s0, PotentialSpec.free(), t_final=1.5 * T, dt=2e-4,
                     snapshot_times=[0.0, 0.5])

    def test_fan_lands_on_incommensurate_snapshot_times(self):
        # report spacing 0.1275 with +-delta neighbours is no multiple of
        # dt = 2e-4: the fan still saves exactly at every requested time,
        # so the centred differences stay centred
        g = make_grid(-8, 8, 256)
        V = PotentialSpec.harmonic(1.0, 1.0)
        report = np.linspace(0.12, 1.14, 9)
        ts = np.unique(np.concatenate([report - 1e-3, report,
                                       report + 1e-3]))
        sol = solve_hj(g, linear_s0(g, 1.0), V, 1.2, dt=2e-4,
                       snapshot_times=ts)
        assert np.array_equal(sol.times, ts)
        # the report rows are the snapshots 1, 4, 7, ... (residual entries
        # 0, 3, 6, ...); their neighbours sit at -+ delta
        res = projected_newton_check(sol, V, np.sin(sol.times))[::3]
        assert np.max(res) <= 1e-5

    def test_rejects_tabulated_and_scheduled(self):
        g = make_grid(-8, 8, 256)
        tab = PotentialSpec.tabulated(g, g.x ** 2)
        with pytest.raises(DomainError):
            solve_hj(g, linear_s0(g, 1.0), tab, 1.0)

    def test_fan_energy_conservation(self):
        g = make_grid(-2, 2, 64)
        V = PotentialSpec.harmonic(1.0, 1.0)
        fan = integrate_fan(g, linear_s0(g, 1.0), V, t_final=1.2, dt=1e-4,
                            snapshot_times=np.linspace(0, 1.2, 7))
        energy = 0.5 * fan.p ** 2 / V.mass + eval_potential(V, fan.x)
        drift = np.max(np.abs(energy - energy[0]))
        assert drift <= 1e-8


class TestMomentumFieldAndExpectations:
    # the fan launches one characteristic from every grid node, with
    # p0 = dS0/dx
    def test_linear_action(self):
        g = make_grid(-6, 6, 128)
        fan = integrate_fan(g, linear_s0(g, 0.7), PotentialSpec.free(), 0.1,
                            snapshot_times=[0.0])
        assert np.array_equal(fan.x0, g.x)
        assert np.max(np.abs(fan.p0 - 0.7)) <= 1e-10

    def test_quadratic_action(self):
        g = make_grid(-6, 6, 128)
        s = 0.5 * 1.3 * g.x ** 2
        fan = integrate_fan(g, s, PotentialSpec.free(), 0.1,
                            snapshot_times=[0.0])
        assert np.array_equal(fan.x0, g.x)
        assert np.max(np.abs(fan.p0 - 1.3 * fan.x0)) <= 1e-10

    def test_matches_fan_momenta(self):
        # the fan's own momenta are the oracle for dS/dx of the action
        # spline: exact at the nodes, interpolated between them
        from scipy.interpolate import PchipInterpolator
        g = make_grid(-8, 8, 256)
        V = PotentialSpec.harmonic(1.0, 1.0)
        sol = solve_hj(g, linear_s0(g, 1.0), V, 0.8, dt=1e-4,
                       snapshot_times=[0.0, 0.4, 0.8])
        i = 1
        assert np.max(np.abs(sol.action(i, sol.x[i], 1) - sol.p[i])) \
            <= 1e-12
        pf = sol.action(i, g.x, 1)
        p_oracle = PchipInterpolator(sol.x[i], sol.p[i])(g.x)
        region = sol.covered(i)
        assert np.max(np.abs(pf[region] - p_oracle[region])) <= 1e-6

    def test_expectation_values(self):
        g = make_grid(-10, 10, 1024)
        rho = gauss_rho(g.x, 0.25, r=1.5)
        x_mean, p_mean = expectations(g, rho, linear_s0(g, 0.9), m=1.0)
        assert x_mean == pytest.approx(1.5, abs=1e-10)
        assert p_mean == pytest.approx(0.9, abs=1e-10)

    def test_momentum_gap_scales_linearly_in_epsilon(self):
        # With a cubic action, p_mean - dS/dx(r) = (3c/2) eps exactly.
        g = make_grid(-4, 4, 4096)
        c, r = 0.05, 0.4
        s = 1.0 * g.x + c * g.x ** 3
        gaps = []
        eps_list = [3e-2, 1e-2, 3e-3, 1e-3]
        for eps in eps_list:
            _, p_mean = expectations(g, gauss_rho(g.x, eps, r=r), s, m=1.0)
            gaps.append(p_mean - (1.0 + 3 * c * r ** 2))
        slope = np.polyfit(np.log(eps_list), np.log(np.abs(gaps)), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.02)
        assert gaps[0] == pytest.approx(1.5 * c * eps_list[0], rel=1e-4)


class TestDeterministicContinuity:
    def test_uniform_free_flow_both_terms_vanish(self):
        g = make_grid(-8, 8, 256)
        V = PotentialSpec.free()
        p0 = 1.0
        ts = np.linspace(0.0, 1.0, 5)
        sol = solve_hj(g, linear_s0(g, p0), V, 1.0, snapshot_times=ts)
        r_t = p0 * sol.times
        p_t = np.full_like(sol.times, p0)
        term1, term2, p_gap = deterministic_continuity_check(
            1e-3, sol, r_t, p_t)
        assert np.max(np.abs(term1)) <= 1e-10
        assert np.max(np.abs(term2)) <= 1e-10
        assert np.max(np.abs(p_gap)) <= 1e-10

    def test_quadratic_action_term2_exact(self):
        # Harmonic flow from uniform momentum keeps S quadratic with
        # d2S/dx2 = -m w tan(wt), so term2 = (eps/2) d2S/dx2 exactly and
        # term1 = -term2 (their sum is the conserved total mass).
        g = make_grid(-8, 8, 256)
        V = PotentialSpec.harmonic(1.0, 1.0)
        p0, t_eval = 1.0, 0.6
        ts = [0.0, t_eval, 1.2]
        sol = solve_hj(g, linear_s0(g, p0), V, 1.2, dt=1e-4,
                       snapshot_times=ts)
        r_t = p0 * np.sin(sol.times)
        p_t = p0 * np.cos(sol.times)
        eps = 1e-4
        term1, term2, _ = deterministic_continuity_check(eps, sol, r_t, p_t)
        i = 1
        expected = 0.5 * eps * (-np.tan(t_eval))
        assert term2[i] == pytest.approx(expected, rel=1e-4)
        assert term1[i] == pytest.approx(-term2[i], rel=1e-4)

    def test_term2_epsilon_scaling(self):
        g = make_grid(-8, 8, 256)
        V = PotentialSpec.harmonic(1.0, 1.0)
        p0 = 1.0
        sol = solve_hj(g, linear_s0(g, p0), V, 1.2, dt=1e-4,
                       snapshot_times=[0.0, 0.6, 1.2])
        r_t = p0 * np.sin(sol.times)
        p_t = p0 * np.cos(sol.times)
        eps_list = [1e-2, 1e-3, 1e-4, 1e-5]
        vals = [abs(deterministic_continuity_check(e, sol, r_t, p_t)[1][1])
                for e in eps_list]
        slope = np.polyfit(np.log(eps_list), np.log(vals), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.02)

    def test_momentum_mismatch_detected_by_p_gap(self):
        g = make_grid(-8, 8, 256)
        V = PotentialSpec.harmonic(1.0, 1.0)
        p0 = 1.0
        sol = solve_hj(g, linear_s0(g, p0), V, 1.2, dt=1e-4,
                       snapshot_times=[0.0, 0.6, 1.2])
        r_t = p0 * np.sin(sol.times)
        p_wrong = p0 * np.cos(sol.times) + 1.0
        term1, term2, p_gap = deterministic_continuity_check(
            1e-4, sol, r_t, p_wrong)
        assert abs(p_gap[1]) >= 10 * abs(term2[1])
        assert p_gap[1] == pytest.approx(1.0, abs=1e-3)


class TestQuantumConsistency:
    def test_characteristics_reproduce_vanishing_hbar_packet_fields(self):
        # In the vanishing-hbar limit the harmonic packet's width scales
        # rigidly, eps(t) = eps0 cos^2(wt), along the classical trajectory,
        # and its action is purely quadratic.  The characteristic solver
        # must reproduce that action.
        g = make_grid(-10, 10, 512)
        V = PotentialSpec.harmonic(1.0, 1.0)
        p0, t_eval = 1.0, 0.6
        sol = solve_hj(g, linear_s0(g, p0), V, t_eval, dt=1e-4,
                       snapshot_times=[0.0, t_eval])
        r_t = p0 * np.sin(t_eval)
        p_t = p0 * np.cos(t_eval)
        deps_over_eps = -2.0 * np.tan(t_eval)
        expected_s = (0.25 * deps_over_eps * (g.x - r_t) ** 2
                      + p_t * g.x - 0.5 * p_t * r_t)
        got = sol.action(-1, g.x)
        window = np.abs(g.x) <= 5.0
        diff = got[window] - expected_s[window]
        diff -= diff.mean()     # action fields match up to a constant
        assert np.max(np.abs(diff)) <= 1e-4

    def test_term2_over_epsilon_invariant_under_refinement(self):
        g = make_grid(-8, 8, 256)
        V = PotentialSpec.harmonic(1.0, 1.0)
        p0 = 1.0
        sol = solve_hj(g, linear_s0(g, p0), V, 1.2, dt=1e-4,
                       snapshot_times=[0.0, 0.6, 1.2])
        r_t = p0 * np.sin(sol.times)
        p_t = p0 * np.cos(sol.times)
        ratios = [deterministic_continuity_check(e, sol, r_t, p_t)[1][1] / e
                  for e in (1e-3, 1e-4, 1e-5)]
        spread = (max(ratios) - min(ratios)) / abs(ratios[0])
        assert spread <= 0.02


class TestProjectedNewton:
    def test_harmonic_consistency(self):
        g = make_grid(-8, 8, 256)
        V = PotentialSpec.harmonic(1.0, 1.0)
        p0, t0 = 1.0, 0.5
        ts = t0 + 2e-3 * np.arange(-2, 3)
        sol = solve_hj(g, linear_s0(g, p0), V, ts[-1], dt=1e-4,
                       snapshot_times=ts)
        r_t = p0 * np.sin(sol.times)
        res = projected_newton_check(sol, V, r_t)
        assert np.max(res) <= 1e-5

    def test_free_flow_zero(self):
        g = make_grid(-8, 8, 256)
        V = PotentialSpec.free()
        sol = solve_hj(g, linear_s0(g, 1.0), V, 1.0,
                       snapshot_times=np.linspace(0, 1, 5))
        r_t = 1.0 * sol.times
        assert np.max(projected_newton_check(sol, V, r_t)) <= 1e-8

    def test_mismatched_potential_detected(self):
        # Action field evolved under a quartic potential, trajectory from a
        # harmonic one: the projected law must fail loudly.
        g = make_grid(-2, 2, 256)
        V_field = PotentialSpec.polynomial([0, 0, 0, 0, 0.25])
        V_traj = PotentialSpec.harmonic(1.0, 1.0)
        p0, t0 = 0.5, 0.2
        ts = t0 + 2e-3 * np.arange(-2, 3)
        sol = solve_hj(g, linear_s0(g, p0), V_field, ts[-1], dt=1e-4,
                       snapshot_times=ts)
        r_t = p0 * np.sin(sol.times)
        res = projected_newton_check(sol, V_traj, r_t)
        assert np.max(res) > 1e-2
