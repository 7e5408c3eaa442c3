import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbarlab.detpot import (
    classify,
    default_epsilon_list,
    default_grid,
    detpot_residual,
    fourier_residual_norm,
    gaussian_convolve,
)
from hbarlab.errors import DomainError, InconclusiveError
from hbarlab.grid import make_grid
from hbarlab.potential import PotentialSpec, eval_force


def gaussian_moment_convolved_poly(coeffs, eps):
    """Moment oracle: E[(x+g)^j] with g ~ N(0, eps/2) expands a polynomial
    convolution exactly via central Gaussian moments."""
    sigma2 = eps / 2.0
    central = {0: 1.0, 1: 0.0, 2: sigma2, 3: 0.0, 4: 3 * sigma2 ** 2,
               5: 0.0, 6: 15 * sigma2 ** 3}
    out = np.zeros(len(coeffs))
    from math import comb
    for j, c in enumerate(coeffs):
        for i in range(j + 1):
            out[i] += c * comb(j, i) * central.get(j - i, 0.0)
    return out


def window_mask(grid):
    return np.abs(grid.x) <= grid.length / 4.0


class TestGaussianConvolve:
    def test_constant_fixed_point(self):
        g = make_grid(-8, 8, 1024)
        out = gaussian_convolve(g, np.full(g.n, 3.2), 0.1)
        assert np.max(np.abs(out - 3.2)) <= 1e-13

    def test_linear_fixed_point_on_window(self):
        g = make_grid(-8, 8, 1024)
        out = gaussian_convolve(g, g.x, 0.1)
        w = window_mask(g)
        assert np.max(np.abs(out[w] - g.x[w])) <= 1e-10

    def test_cubic_against_moment_oracle(self):
        g = make_grid(-8, 8, 2048)
        eps = 0.1
        out = gaussian_convolve(g, g.x ** 3, eps)
        oracle = gaussian_moment_convolved_poly([0, 0, 0, 1.0], eps)
        assert np.allclose(oracle, [0, 1.5 * eps, 0, 1.0])
        expected = np.polynomial.polynomial.polyval(g.x, oracle)
        w = window_mask(g)
        assert np.max(np.abs(out[w] - expected[w])) <= 1e-8

    def test_polynomials_up_to_degree_six_exact_on_window(self):
        g = make_grid(-8, 8, 2048)
        eps = 0.05
        rng = np.random.default_rng(5)
        for _ in range(3):
            coeffs = rng.uniform(-1, 1, size=7)
            f = np.polynomial.polynomial.polyval(g.x, coeffs)
            out = gaussian_convolve(g, f, eps)
            oracle = gaussian_moment_convolved_poly(coeffs, eps)
            expected = np.polynomial.polynomial.polyval(g.x, oracle)
            w = window_mask(g)
            scale = np.max(np.abs(expected[w]))
            assert np.max(np.abs(out[w] - expected[w])) <= 1e-8 * scale

    def test_too_wide_kernel_rejected(self):
        g = make_grid(-8, 8, 1024)
        with pytest.raises(DomainError):
            gaussian_convolve(g, g.x, (g.length / 10.0) ** 2)

    def test_zero_width_is_identity(self):
        g = make_grid(-8, 8, 1024)
        f = np.sin(g.x)
        out = gaussian_convolve(g, f, 0.0)
        assert np.array_equal(out, f)


class TestDetpotResidual:
    def test_quadratic_potentials_are_fixed_points(self):
        for coeffs in ([1.0], [0, 1.0], [0, 0, 1.0], [1.0, 2.0, 3.0]):
            V = PotentialSpec.polynomial(coeffs)
            assert detpot_residual(V, 0.1, default_grid(V)) <= 1e-10

    def test_quartic_residual_matches_moment_oracle(self):
        # delta_eps * (-4x^3) = -4x^3 - 6 eps x, so the windowed defect norm
        # is exactly ||6 eps x||.
        eps = 0.1
        V = PotentialSpec.polynomial([0, 0, 0, 0, 1.0])
        g = default_grid(V)
        res = detpot_residual(V, eps, g)
        w = window_mask(g)
        F = eval_force(V, g.x)
        num_oracle = np.sqrt(g.dx * np.sum((6 * eps * g.x[w]) ** 2))
        den = np.sqrt(g.dx * np.sum(F[w] ** 2))
        assert res == pytest.approx(num_oracle / den, rel=1e-6)

    def test_quartic_epsilon_scaling(self):
        V = PotentialSpec.polynomial([0, 0, 0, 0, 1.0])
        g = default_grid(V)
        eps_list = default_epsilon_list(g)
        res = [detpot_residual(V, e, g) for e in eps_list]
        slope = np.polyfit(np.log(eps_list), np.log(res), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.05)


class TestFourierResidual:
    def test_linear_force_vanishes(self):
        V = PotentialSpec.polynomial([0, 0, 1.0])  # F = -2x
        assert fourier_residual_norm(V, 0.1, default_grid(V)) <= 1e-8

    def test_single_mode_closed_form(self):
        g = make_grid(-8, 8, 2048)
        q = 2 * np.pi * 8 / g.length
        eps = 0.1
        # V = cos(qx)/q gives F = sin(qx)
        V = PotentialSpec.tabulated(g, np.cos(q * g.x) / q)
        fr = fourier_residual_norm(V, eps, g)
        f_norm = np.sqrt(g.dx * np.sum(np.sin(q * g.x) ** 2))
        expected = abs(1 - np.exp(-eps * q ** 2 / 4)) * f_norm
        # FD force from the table attenuates the amplitude by (q dx)^2/6
        assert fr == pytest.approx(expected, rel=2e-4)

    def test_zero_width_zero_residual(self):
        V = PotentialSpec.polynomial([0, 0, 0, 0, 1.0])
        assert fourier_residual_norm(V, 0.0, default_grid(V)) == 0.0

    def test_leading_quadratic_behavior_of_factor(self):
        g = make_grid(-8, 8, 2048)
        eps = 0.02
        factor = 1.0 - np.exp(-eps * g.k ** 2 / 4.0)
        small = np.abs(g.k) <= 2.0
        lead = eps * g.k[small] ** 2 / 4.0
        assert np.max(np.abs(factor[small] - lead)) <= np.max(lead) ** 2

    def test_parseval_agreement_with_real_space(self):
        g = make_grid(-8, 8, 2048)
        rng = np.random.default_rng(11)
        eps = 0.05
        for _ in range(4):
            j = int(rng.integers(5, 40))
            phase = float(rng.uniform(0, 2 * np.pi))
            q = 2 * np.pi * j / g.length
            table = -np.cos(q * g.x + phase) / q   # F = -dV/dx = -sin(...)
            V = PotentialSpec.tabulated(g, table)
            real_rel = detpot_residual(V, eps, g)
            F = eval_force(V, g.x)
            f_norm = np.sqrt(g.dx * np.sum(F ** 2))
            fourier_rel = fourier_residual_norm(V, eps, g) / f_norm
            assert real_rel == pytest.approx(fourier_rel, rel=0.01)


class TestClassify:
    def test_deterministic_family(self):
        for coeffs in ([0.0], [0, 1.0], [0, 0, 1.0], [1.0, 2.0, 3.0]):
            report = classify(PotentialSpec.polynomial(coeffs))
            assert report.verdict == "Deterministic"
            assert all(r <= 1e-8 for r in report.residual_per_epsilon)

    def test_nondeterministic_family(self):
        cubic = PotentialSpec.polynomial([0, 0, 0, 1.0])
        quartic = PotentialSpec.polynomial([0, 0, 0, 0, 1.0])
        cos_tables = [PotentialSpec.tabulated(g, np.cos(g.x))
                      for g in (make_grid(-8, 8, 2048),
                                make_grid(-20, 20, 4096))]
        for V in (cubic, quartic, *cos_tables):
            report = classify(V)
            assert report.verdict == "NonDeterministic"
            assert all(r > 1e-8 for r in report.residual_per_epsilon)
        assert classify(quartic).scaling_exponent == pytest.approx(
            1.0, abs=0.05)

    def test_subtolerance_quartic_admixture(self):
        V = PotentialSpec.polynomial([0, 0, 1.0, 0, 1e-12])
        report = classify(V)
        assert report.verdict == "Deterministic"

    def test_straddling_residuals_inconclusive(self):
        V = PotentialSpec.polynomial([0, 0, 1.0, 0, 6e-8])
        with pytest.raises(InconclusiveError):
            classify(V)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), degree=st.integers(0, 4),
           u=st.floats(-2.0, 2.0), sign=st.sampled_from((-1.0, 1.0)),
           b=st.floats(-10.0, 10.0))
    def test_verdict_invariant_under_affine_map_of_v(self, data, degree, u,
                                                     sign, b):
        # aV + b has the force aF, and the residual is relative, so the
        # verdict cannot depend on a or b; a leading coefficient >= 0.1
        # keeps cubic and quartic residuals clear of the tolerance
        coeffs = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=degree,
                                    max_size=degree))
        if degree >= 3:
            coeffs.append(data.draw(st.sampled_from((-1.0, 1.0)))
                          * data.draw(st.floats(0.1, 1.0)))
        else:
            coeffs.append(data.draw(st.floats(-1.0, 1.0)))
        a = sign * 10.0 ** u
        scaled = [a * c for c in coeffs]
        scaled[0] += b
        grid = make_grid(-8, 8, 2048)
        report = classify(PotentialSpec.polynomial(coeffs), grid=grid)
        mapped = classify(PotentialSpec.polynomial(scaled), grid=grid)
        assert mapped.verdict == report.verdict
        if report.verdict == "NonDeterministic":
            np.testing.assert_allclose(mapped.residual_per_epsilon,
                                       report.residual_per_epsilon, rtol=1e-9)

    def test_width_list_validation(self):
        V = PotentialSpec.polynomial([0, 0, 1.0])
        with pytest.raises(DomainError):
            classify(V, epsilon_list=[0.1, 0.05])
        with pytest.raises(DomainError):
            classify(V, epsilon_list=[0.1, 0.05, 0.02])


class TestTabulatedOnOwnGrid:
    def test_quadratic_tables_deterministic_on_any_range(self):
        # a table is classified on its own nodes, whatever its range and
        # spacing; its force is exactly linear there, so the seam-detrended
        # force has no Fourier residual either
        rng = np.random.default_rng(7)
        for _ in range(60):
            g = make_grid(rng.uniform(-30, -2), rng.uniform(2, 30),
                          rng.choice([256, 1024, 2048, 4096]))
            coeffs = [*rng.uniform(-1, 1, 2),
                      rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.0)]
            V = PotentialSpec.tabulated(
                g, np.polynomial.polynomial.polyval(g.x, coeffs))
            report = classify(V)
            assert report.verdict == "Deterministic"
            f_norm = np.sqrt(g.dx * np.sum(eval_force(V, g.x) ** 2))
            assert max(report.fourier_residual_norms) <= 1e-8 * f_norm

    def test_other_grid_refused(self):
        g = make_grid(-20, 20, 4096)
        V = PotentialSpec.tabulated(g, 0.5 * g.x ** 2)
        for other in (make_grid(-8, 8, 2048), make_grid(-20, 20, 2048)):
            with pytest.raises(DomainError, match="its own grid"):
                classify(V, grid=other)
        # a second grid on the same nodes is the table's grid
        same = classify(V, grid=make_grid(-20, 20, 4096))
        assert same.verdict == "Deterministic"
