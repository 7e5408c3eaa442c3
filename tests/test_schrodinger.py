import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbarlab._kernels import SUZUKI
from hbarlab.errors import BoundaryLeak, DomainError
from hbarlab.experiments import auto_grid, quantum_run
from hbarlab.grid import make_grid
from hbarlab.madelung import snapshot_diagnostics
from hbarlab.potential import PotentialSpec, eval_potential
from hbarlab.schrodinger import (
    SPAN_FACTOR,
    WaveFunction,
    _phases,
    init_gaussian,
    max_stable_dt,
    propagate,
)

from helpers import (
    analytic_gaussian,
    energy_mean,
    observables,
    rel_err,
    verlet_oracle,
)


def run_to(psi, V, t_final, safety=0.5):
    dt = safety * max_stable_dt(psi.grid, V, psi.hbar)
    n = int(np.ceil(t_final / dt))
    return propagate(psi, V, t_final / n, n)


class TestInitGaussian:
    def test_peak_density(self):
        g = make_grid(-10, 10, 512)
        psi = init_gaussian(g, epsilon=0.5, r0=0.0, p0=0.0, hbar=1.0)
        peak = np.max(np.abs(psi.values) ** 2)
        assert peak == pytest.approx((np.pi * 0.5) ** -0.5, rel=1e-6)

    def test_momentum_boost_leaves_density(self):
        g = make_grid(-10, 10, 512)
        psi0 = init_gaussian(g, 0.5, 0.0, 0.0, 1.0)
        psi2 = init_gaussian(g, 0.5, 0.0, 2.0, 1.0)
        assert np.allclose(np.abs(psi0.values) ** 2,
                           np.abs(psi2.values) ** 2, atol=1e-13)
        assert observables(psi2).p_mean == pytest.approx(2.0, abs=1e-8)

    def test_wide_packet_leaks(self):
        g = make_grid(-10, 10, 512)
        with pytest.raises(BoundaryLeak):
            init_gaussian(g, epsilon=25.0, r0=0.0, p0=0.0, hbar=1.0)

    def test_bad_epsilon(self):
        g = make_grid(-10, 10, 512)
        with pytest.raises(DomainError):
            init_gaussian(g, epsilon=-1.0, r0=0.0, p0=0.0, hbar=1.0)


class TestWaveFunction:
    def test_stores_a_read_only_complex_copy(self):
        g = make_grid(-1, 1, 16)
        vals = np.ones(16)
        psi = WaveFunction(g, vals, 1.0)
        vals[0] = 2.0
        assert psi.values.dtype == complex and np.all(psi.values == 1.0)
        with pytest.raises(ValueError):
            psi.values[0] = 1.0

    @pytest.mark.parametrize("vals", [np.zeros(17), np.full(16, np.nan),
                                      np.full(16, np.inf * 1j)])
    def test_rejects_bad_values(self, vals):
        with pytest.raises(DomainError):
            WaveFunction(make_grid(-1, 1, 16), vals, 1.0)

    def test_time_is_keyword_only(self):
        # the mass is the potential's; a fourth positional argument (a
        # mass, in old calls) must fail rather than become the time
        g = make_grid(-1, 1, 16)
        assert WaveFunction(g, np.ones(16), 1.0, t=0.5).t == 0.5
        with pytest.raises(TypeError):
            WaveFunction(g, np.ones(16), 1.0, 1.0)


class TestObservables:
    def test_minimum_uncertainty_packet(self):
        # Closed-form Gaussian Fourier pair: dx = sqrt(eps/2) = 0.5,
        # dp = hbar / sqrt(2 eps) = 1, product = hbar/2.
        g = make_grid(-10, 10, 512)
        psi = init_gaussian(g, 0.5, 0.0, 0.0, 1.0)
        obs = observables(psi)
        assert np.sqrt(obs.var_x) == pytest.approx(0.5, abs=1e-8)
        assert np.sqrt(obs.var_p) == pytest.approx(1.0, abs=1e-8)
        assert obs.uncertainty_product == pytest.approx(0.5, abs=1e-8)

    def test_p_mean_constant_under_free_flow(self):
        g = make_grid(-20, 20, 512)
        psi = init_gaussian(g, 0.5, 0.0, 1.5, 1.0)
        V = PotentialSpec.free()
        vals = [observables(psi).p_mean]
        for _ in range(4):
            psi = propagate(psi, V, 5e-4, 200)
            vals.append(observables(psi).p_mean)
        assert np.max(np.abs(np.diff(vals))) <= 1e-8


class TestPropagate:
    def test_free_spreading_width(self):
        # A_f(1) = eps (1 + (hbar/eps)^2 (t/m)^2) = 0.5 * 5 = 2.5
        g = make_grid(-20, 20, 512)
        psi = init_gaussian(g, 0.5, 0.0, 0.0, 1.0)
        out = run_to(psi, PotentialSpec.free(), 1.0)
        assert rel_err(observables(out).width, 2.5) <= 1e-4

    def test_coherent_width_constant_over_period(self):
        g = make_grid(-10, 10, 128)
        V = PotentialSpec.harmonic(mass=1.0, omega=1.0)
        psi = init_gaussian(g, epsilon=1.0, r0=0.0, p0=1.0, hbar=1.0)
        dt = 2.5e-4
        n_per = 80
        n_chunk = int(np.ceil(2 * np.pi / (n_per * dt)))
        for _ in range(n_per):
            psi = propagate(psi, V, dt, n_chunk)
            assert abs(observables(psi).width - 1.0) <= 1e-6

    def test_harmonic_width_quarter_period(self):
        # A_h(pi/2 / omega) = hbar^2 / (eps m^2 omega^2) = 2.0
        g = make_grid(-10, 10, 256)
        V = PotentialSpec.harmonic(mass=1.0, omega=1.0)
        psi = init_gaussian(g, 0.5, 0.0, 0.0, 1.0)
        out = run_to(psi, V, np.pi / 2, safety=0.25)
        assert rel_err(observables(out).width, 2.0) <= 1e-4

    def test_norm_conserved_per_step(self):
        g = make_grid(-10, 10, 256)
        V = PotentialSpec.harmonic(1.0, 1.0)
        psi = init_gaussian(g, 0.5, 0.0, 1.0, 1.0)
        n0 = g.dx * np.sum(np.abs(psi.values) ** 2)
        psi = propagate(psi, V, 2e-4, 1)
        n1 = g.dx * np.sum(np.abs(psi.values) ** 2)
        assert abs(n1 - n0) <= 1e-12

    def test_energy_conserved(self):
        g = make_grid(-15, 15, 256)
        V = PotentialSpec.harmonic(1.0, 1.0)
        psi = init_gaussian(g, 0.5, 1.0, 0.5, 1.0)
        e0 = energy_mean(psi, V)
        out = run_to(psi, V, 4.0)
        assert rel_err(energy_mean(out, V), e0) <= 1e-6

    def test_dt_validation(self):
        g = make_grid(-10, 10, 256)
        V = PotentialSpec.free()
        psi = init_gaussian(g, 0.5, 0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            propagate(psi, V, -1e-3, 10)
        limit = max_stable_dt(g, V, 1.0)
        with pytest.raises(DomainError):
            propagate(psi, V, 10 * limit, 10)
        # a composed step is allowed SPAN_FACTOR limits, and no more
        propagate(psi, V, SPAN_FACTOR * limit, 1, SUZUKI)
        with pytest.raises(DomainError):
            propagate(psi, V, SPAN_FACTOR * limit * (1 + 1e-9), 1, SUZUKI)

    def test_second_order_convergence_in_dt(self):
        g = make_grid(-12, 12, 256)
        V = PotentialSpec.harmonic(1.0, 1.0)
        psi = init_gaussian(g, 0.5, 0.5, 0.5, 1.0)
        t_final = 0.5
        dt0 = 2.5e-4

        def terminal(dt_scale):
            n = int(round(t_final / (dt0 / dt_scale)))
            return propagate(psi, V, t_final / n, n).values

        ref = terminal(8)
        err1 = np.linalg.norm(terminal(1) - ref)
        err2 = np.linalg.norm(terminal(2) - ref)
        assert 3.0 <= err1 / err2 <= 5.0

    def test_fourth_order_convergence_in_dt(self):
        # Suzuki's composed step at about 37 and 19 Strang limits; below
        # about 10 limits the error reaches roundoff
        g = make_grid(-12, 12, 256)
        V = PotentialSpec.harmonic(1.0, 1.0)
        psi = init_gaussian(g, 0.5, 0.5, 0.5, 1.0)
        t_final = 0.5
        assert t_final / 15 > 35 * max_stable_dt(g, V, 1.0)

        def terminal(n):
            return propagate(psi, V, t_final / n, n, SUZUKI).values

        ref = terminal(240)
        err1 = np.linalg.norm(terminal(15) - ref)
        err2 = np.linalg.norm(terminal(30) - ref)
        assert 12.0 <= err1 / err2 <= 20.0


# Two grids and two potentials under one step, so the phase memo of
# `propagate` sees keys that differ in the grid only or in V only.
MEMO_POTENTIALS = (PotentialSpec.harmonic(1.0, 1.0),
                   PotentialSpec.polynomial([0.0, 0.3, 0.2, 0.0, 0.05]))
MEMO_GRIDS = (make_grid(-10.0, 10.0, 256), make_grid(-12.0, 12.0, 512))
MEMO_DT = 0.5 * min(max_stable_dt(g, V, 1.0)
                    for g in MEMO_GRIDS for V in MEMO_POTENTIALS)


def memo_case(i_grid, i_potential):
    """Five steps of one (grid, V) case; the memo keys grids by identity,
    so a repeated case reuses its phases."""
    psi = init_gaussian(MEMO_GRIDS[i_grid], 0.5, 0.3, 0.5, 1.0)
    return propagate(psi, MEMO_POTENTIALS[i_potential], MEMO_DT, 5).values


def strang_reference(psi, V, dt, n_steps):
    """Unfused Strang steps with phases built here, on numpy's FFT."""
    g = psi.grid
    half = np.exp(-0.5j * eval_potential(V, g.x) * dt / psi.hbar)
    kin = np.exp(-0.5j * psi.hbar * g.k ** 2 * dt / V.mass)
    values = psi.values
    for _ in range(n_steps):
        values = half * np.fft.ifft(kin * np.fft.fft(half * values))
    return values


class TestPhaseMemo:
    def test_alternating_keys_match_a_fresh_interpreter(self, tmp_path):
        cases = [(0, 0), (1, 0), (0, 1), (1, 1)]
        ref = tmp_path / "fresh.npz"
        tests_dir = os.path.dirname(os.path.abspath(__file__))
        src = os.path.join(os.path.dirname(tests_dir), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests_dir]))
        script = ("import sys, numpy as np\n"
                  "from test_schrodinger import memo_case\n"
                  f"np.savez(sys.argv[1], *[memo_case(*c) for c in {cases}])")
        proc = subprocess.run([sys.executable, "-c", script, str(ref)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        with np.load(ref) as fresh:
            expected = [fresh[f"arr_{i}"] for i in range(len(cases))]
        # repeats (memo hits) and switches of grid, of V and of both
        for i in (0, 0, 1, 0, 1, 1, 2, 3, 2, 0, 3, 3, 1, 2):
            got = memo_case(*cases[i])
            assert got.tobytes() == expected[i].tobytes(), cases[i]

    def test_guard_after_a_valid_call(self):
        g = make_grid(-10, 10, 256)
        V = MEMO_POTENTIALS[0]
        psi = init_gaussian(g, 0.5, 0.0, 0.0, 1.0)
        limit = max_stable_dt(g, V, 1.0)
        propagate(psi, V, limit, 3)
        for _ in range(2):
            with pytest.raises(DomainError):
                propagate(psi, V, 10 * limit, 3)
        propagate(psi, V, limit, 3)

    def test_each_potential_gets_its_own_phases(self):
        g = make_grid(-10, 10, 256)
        psi = init_gaussian(g, 0.5, 0.3, 0.5, 1.0)
        outputs = [propagate(psi, V, MEMO_DT, 5).values
                   for V in MEMO_POTENTIALS]
        for V, values in zip(MEMO_POTENTIALS, outputs):
            ref = strang_reference(psi, V, MEMO_DT, 5)
            assert np.max(np.abs(values - ref)) <= 1e-12
        assert np.max(np.abs(outputs[0] - outputs[1])) > 1e-6

    def test_one_quantum_run_builds_its_phases_once(self):
        # the 26 propagate calls of an 8-snapshot run share two keys, the
        # probe step's and the span step's: each is built once, on its
        # first call, and the other 24 calls reuse them
        g = make_grid(-10, 10, 256)
        V = PotentialSpec.harmonic(1.0, 1.0)
        before = _phases.cache_info()
        quantum_run(V, g, 0.5, 0.3, 0.5, 1.0, 1.0, 8)
        after = _phases.cache_info()
        assert after.misses - before.misses == 2
        assert after.hits - before.hits == 24


# Random real polynomials of degree <= 4 and random packets on a 256-point
# grid wide enough that no packet reaches the leak margin within 100 Strang
# steps at dt <= max_stable_dt, the time of 2.5 composed steps at their
# limit.
PROPERTY_GRID = make_grid(-16, 16, 256)
PROPERTY_TOL = 1e-12
PROPERTY_COVARIANCE_TOL = 1e-10
# max |psi difference|; 300 random cases read at most 2.7e-15
MASS_SCALING_TOL = 1e-13
random_case = dict(
    coeffs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5),
    eps=st.floats(0.2, 1.0), r0=st.floats(-1.0, 1.0),
    p0=st.floats(-2.0, 2.0), hbar=st.floats(0.5, 2.0),
    m=st.floats(0.5, 2.0), dt_frac=st.floats(0.01, 1.0),
    n=st.integers(1, 100))


def _random_run(coeffs, eps, r0, p0, hbar, m, dt_frac, n, weights):
    """(V, psi, dt, n_steps) of a random case: a Strang step takes the
    drawn n steps, a composed step, up to SPAN_FACTOR times as long, at
    most two."""
    V = PotentialSpec.polynomial(coeffs, mass=m)
    psi = init_gaussian(PROPERTY_GRID, eps, r0, p0, hbar)
    dt = dt_frac * max_stable_dt(PROPERTY_GRID, V, hbar)
    if len(weights) > 1:
        dt *= SPAN_FACTOR
        n = max(1, n // SPAN_FACTOR)
    return V, psi, dt, n


def _l2(values):
    return float(np.sqrt(PROPERTY_GRID.dx * np.sum(np.abs(values) ** 2)))


def _propagator_properties(weights):
    """Unitarity, time reversal by conjugation and mass scaling as
    properties of `propagate` with one kind of step; each call makes its
    own test functions, so hypothesis sees one executor per function."""

    def random_run(*case):
        return _random_run(*case, weights)

    class PropagatorProperties:
        @settings(max_examples=100, deadline=None)
        @given(**random_case)
        def test_unitary(self, coeffs, eps, r0, p0, hbar, m, dt_frac, n):
            V, psi, dt, n = random_run(coeffs, eps, r0, p0, hbar, m, dt_frac,
                                       n)
            out = propagate(psi, V, dt, n, weights)
            assert abs(_l2(out.values) - _l2(psi.values)) <= PROPERTY_TOL

        @settings(max_examples=100, deadline=None)
        @given(**random_case)
        def test_conjugation_reverses_time(self, coeffs, eps, r0, p0, hbar,
                                           m, dt_frac, n):
            # for real V, conj . U . conj = U^-1, so conj . U . conj . U = I
            V, psi, dt, n = random_run(coeffs, eps, r0, p0, hbar, m, dt_frac,
                                       n)

            def conj(wf):
                return WaveFunction(wf.grid, np.conj(wf.values), wf.hbar)

            def step(wf):
                return propagate(wf, V, dt, n, weights)

            back = conj(step(conj(step(psi))))
            assert _l2(back.values - psi.values) <= PROPERTY_TOL

        @settings(max_examples=100, deadline=None)
        @given(**random_case)
        def test_mass_rescales_time(self, coeffs, eps, r0, p0, hbar, m,
                                    dt_frac, n):
            # i hbar psi_t = -(hbar^2/2m) psi'' + V psi is, in tau = t/m,
            # i hbar psi_tau = -(hbar^2/2) psi'' + m V psi: a step dt under
            # V of mass m is a step dt/m under m V of unit mass
            V, psi, dt, n = random_run(coeffs, eps, r0, p0, hbar, m, dt_frac,
                                       n)
            unit = PotentialSpec.polynomial(m * np.asarray(coeffs))
            out = propagate(psi, V, dt, n, weights).values
            scaled = propagate(psi, unit, dt / m, n, weights).values
            assert np.max(np.abs(out - scaled)) <= MASS_SCALING_TOL

    return PropagatorProperties


TestPropagatorProperties = _propagator_properties((1.0,))
TestComposedPropagatorProperties = _propagator_properties(SUZUKI)


class TestTranslationCovariance:
    @settings(max_examples=100, deadline=None)
    @given(eps=st.lists(st.floats(0.2, 1.0), min_size=2, max_size=2),
           r0=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
           p0=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
           weight=st.complex_numbers(max_magnitude=2.0),
           hbar=st.floats(0.5, 2.0), shift=st.integers(-32, 32))
    def test_grid_shift_moves_only_the_mean_position(self, eps, r0, p0,
                                                     weight, hbar, shift):
        # a superposition of two packets, moved by `shift` grid points
        # (at most 4 length units, far from the grid's edges)
        g = PROPERTY_GRID
        vals = (init_gaussian(g, eps[0], r0[0], p0[0], hbar).values
                + weight * init_gaussian(g, eps[1], r0[1], p0[1], hbar).values)
        vals = vals / np.sqrt(g.dx * np.sum(np.abs(vals) ** 2))
        obs = observables(WaveFunction(g, vals, hbar))
        moved = observables(WaveFunction(g, np.roll(vals, shift), hbar))
        tol = dict(rel=PROPERTY_COVARIANCE_TOL, abs=PROPERTY_COVARIANCE_TOL)
        assert moved.x_mean == pytest.approx(obs.x_mean + shift * g.dx, **tol)
        for name in ("p_mean", "var_x", "var_p", "uncertainty_product",
                     "kurtosis_excess"):
            assert getattr(moved, name) == pytest.approx(
                getattr(obs, name), **tol)


class TestOracleAgreement:
    def test_randomized_parameters_match_analytic_across_run(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            eps = float(rng.uniform(0.3, 1.0))
            hbar = float(rng.uniform(0.4, 1.5))
            p0 = float(rng.uniform(-1.5, 1.5))
            m = float(rng.uniform(0.7, 1.4))
            case = rng.choice(["free", "constant_force", "harmonic"])
            omega = float(rng.uniform(0.6, 1.6))
            f0 = float(rng.uniform(-1.0, 1.0))
            if case == "free":
                V = PotentialSpec.free(m)
            elif case == "constant_force":
                V = PotentialSpec.constant_force(f0, m)
            else:
                V = PotentialSpec.harmonic(m, omega)
            g = make_grid(-24, 24, 1024)
            psi = init_gaussian(g, eps, 0.0, p0, hbar)
            for _ in range(4):
                psi = run_to(psi, V, 0.2, safety=0.4)
                ref = analytic_gaussian(case, eps, p0, hbar, m, psi.t,
                                        omega=omega, f0=f0)
                obs = observables(psi)
                assert rel_err(observables(psi).width, ref.epsilon_t) <= 1e-4
                assert rel_err(obs.x_mean, ref.r_t) <= 1e-4
                assert rel_err(obs.p_mean, ref.p_t) <= 1e-4


class TestSpanStepHalving:
    @pytest.mark.parametrize("seed", range(4))
    def test_composed_span_error_by_step_halving(self, seed):
        # a quantum run crosses its spans in composed steps of up to
        # SPAN_FACTOR Strang limits; for this fourth-order step
        # |a(h) - a(h/2)| 16/15 estimates the error of a(h) (Richardson),
        # and on every row moment it must stay a hundredth of criteria
        # 1-2's 1e-4 width pin, over random polynomials of degree 2 to 6
        # and random packets on auto grids of at most 256 points
        rng = np.random.default_rng(seed)
        t_span, drawn = 0.5, 0
        for _ in range(8):
            coeffs = np.concatenate([
                [0.0, 0.0, rng.uniform(0.2, 1.0)],
                rng.uniform(-0.05, 0.05, rng.integers(0, 5))])
            V = PotentialSpec.polynomial(coeffs)
            hbar = rng.uniform(0.3, 1.0)
            eps = hbar * rng.uniform(0.5, 2.0)
            r0, p0 = rng.uniform(-1.0, 1.0, 2)
            grid = auto_grid(V, eps, r0, p0, hbar, t_span)
            if grid.n > 256:
                continue
            drawn += 1
            n = int(np.ceil(t_span / (SPAN_FACTOR
                                      * max_stable_dt(grid, V, hbar))))
            psi = init_gaussian(grid, eps, r0, p0, hbar)
            a_h, a_half = (
                np.array(snapshot_diagnostics((s, s, s), V, 1.0)[0])
                for s in (propagate(psi, V, t_span / n, n, SUZUKI),
                          propagate(psi, V, t_span / (2 * n), 2 * n,
                                    SUZUKI)))
            assert np.max(np.abs(a_h - a_half)) * 16 / 15 <= 1e-6
        assert drawn


class TestGaussianForm:
    def test_kurtosis_stays_gaussian_for_solvable_potentials(self):
        g = make_grid(-20, 20, 512)
        for V in (PotentialSpec.free(), PotentialSpec.constant_force(0.8),
                  PotentialSpec.harmonic(1.0, 1.0)):
            psi = init_gaussian(g, 0.5, 0.0, 0.5, 1.0)
            for _ in range(5):
                psi = run_to(psi, V, 0.3)
                assert abs(observables(psi).kurtosis_excess) <= 1e-3

    def test_kurtosis_grows_for_quartic(self):
        g = make_grid(-8, 8, 256)
        V = PotentialSpec.polynomial([0, 0, 0, 0, 1.0])
        psi = init_gaussian(g, 0.5, 0.0, 1.0, 1.0)
        worst = 0.0
        for _ in range(6):
            psi = run_to(psi, V, 0.25)
            worst = max(worst, abs(observables(psi).kurtosis_excess))
        assert worst > 1e-2


class TestAnalyticGaussian:
    def test_free_width(self):
        st = analytic_gaussian("free", 0.5, 0.0, 1.0, 1.0, t=1.0)
        assert st.epsilon_t == pytest.approx(2.5, rel=1e-12)

    def test_harmonic_center(self):
        st = analytic_gaussian("harmonic", 0.5, 1.0, 1.0, 1.0,
                               t=np.pi / 4, omega=2.0)
        assert st.r_t == pytest.approx(0.5, rel=1e-12)

    def test_constant_force_against_newton_oracle(self):
        f0, m = 2.0, 1.0
        r_ref, p_ref = verlet_oracle(lambda x: f0, m, 0.0, 0.0,
                                     dt=1e-5, n_steps=100000)
        st = analytic_gaussian("constant_force", 0.5, 0.0, 1.0, m,
                               t=1.0, f0=f0)
        assert st.r_t == pytest.approx(1.0, abs=1e-12)
        assert st.p_t == pytest.approx(2.0, abs=1e-12)
        assert st.r_t == pytest.approx(r_ref, abs=1e-9)
        assert st.p_t == pytest.approx(p_ref, abs=1e-9)

    def test_coherent_width_is_stationary(self):
        for t in np.linspace(0, 7, 11):
            st = analytic_gaussian("harmonic", 0.5, 1.0, 1.0, 2.0,
                                   t=t, omega=1.0)
            assert st.epsilon_t == pytest.approx(0.5, rel=1e-12)

    def test_unknown_case(self):
        with pytest.raises(DomainError):
            analytic_gaussian("quartic", 0.5, 0.0, 1.0, 1.0, t=0.0)
