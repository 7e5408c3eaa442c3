import numpy as np
import pytest

from hbarlab.errors import DomainError
from hbarlab.grid import make_grid, spectral_derivative
from hbarlab.potential import PotentialSpec, eval_force, eval_potential


class TestEvalPotential:
    def test_harmonic(self):
        V = PotentialSpec.harmonic(mass=1.0, omega=2.0)
        assert eval_potential(V, 1.0) == pytest.approx(2.0)

    def test_free(self):
        assert eval_potential(PotentialSpec.free(), 5.0) == 0.0

    def test_cubic(self):
        V = PotentialSpec.polynomial([0, 0, 0, 1])
        assert eval_potential(V, 2.0) == pytest.approx(8.0)

    def test_constant_force_potential_is_linear(self):
        V = PotentialSpec.constant_force(2.0)
        assert eval_potential(V, 3.0) == pytest.approx(-6.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            PotentialSpec.harmonic(mass=1.0, omega=0.0)
        with pytest.raises(DomainError):
            PotentialSpec.harmonic(mass=-1.0, omega=1.0)
        with pytest.raises(DomainError):
            PotentialSpec.polynomial(np.zeros(10))  # degree 9 > 8


class TestEvalForce:
    def test_harmonic(self):
        V = PotentialSpec.harmonic(mass=1.0, omega=1.0)
        assert eval_force(V, 0.5) == pytest.approx(-0.5)

    def test_constant_force(self):
        V = PotentialSpec.constant_force(2.0)
        for x in (-3.0, 0.0, 7.0):
            assert eval_force(V, x) == pytest.approx(2.0)

    def test_quartic(self):
        V = PotentialSpec.polynomial([0, 0, 0, 0, 1.0])
        assert eval_force(V, 1.0) == pytest.approx(-4.0)


class TestForceField:
    def test_free_zero(self):
        g = make_grid(-1, 1, 64)
        assert np.all(eval_force(PotentialSpec.free(), g.x) == 0.0)

    def test_harmonic_linear(self):
        g = make_grid(-1, 1, 64)
        f = eval_force(PotentialSpec.harmonic(1.0, 1.0), g.x)
        assert np.allclose(f, -g.x, atol=1e-14)

    def test_tabulated_matches_polynomial(self):
        g = make_grid(-4, 4, 512)
        Vt = PotentialSpec.tabulated(g, g.x ** 2)
        Vp = PotentialSpec.polynomial([0, 0, 1.0])
        ft = eval_force(Vt, g.x)
        fp = eval_force(Vp, g.x)
        assert np.max(np.abs(ft - fp)) <= 1e-8

    def test_harmonic_force_exact_everywhere(self):
        g = make_grid(-7, 7, 128)
        V = PotentialSpec.harmonic(mass=1.3, omega=0.8)
        f = eval_force(V, g.x)
        assert np.allclose(f, -1.3 * 0.8 ** 2 * g.x, rtol=0, atol=1e-13)


class TestSpectralConsistency:
    def test_polynomial_force_matches_tapered_spectral_derivative(self):
        # Sample V times a smooth window that is exactly 1 on the central
        # half and rolls off to zero well inside the boundary; the spectral
        # derivative of the windowed sample then matches the analytic force
        # on the central region.
        g = make_grid(-10, 10, 1024)
        V = PotentialSpec.polynomial([0.3, -0.2, 0.5, 0.05])
        w = (0.5 * (1 + np.tanh((g.x + 8.5) / 0.13))
             * 0.5 * (1 + np.tanh((8.5 - g.x) / 0.13)))
        dv = spectral_derivative(g, eval_potential(V, g.x) * w, 1)
        central = np.abs(g.x) <= 5.0
        err = np.max(np.abs(-dv[central] - eval_force(V, g.x[central])))
        assert err <= 1e-8


class TestTabulated:
    def test_nearest_node_lookup(self):
        g = make_grid(0, 8, 16)
        V = PotentialSpec.tabulated(g, np.arange(16, dtype=float))
        assert eval_potential(V, 0.1) == 0.0   # nearest node is x=0
        assert eval_potential(V, 0.3) == 1.0   # nearest node is x=0.5

    def test_out_of_range(self):
        g = make_grid(0, 8, 16)
        V = PotentialSpec.tabulated(g, np.zeros(16))
        with pytest.raises(DomainError):
            eval_potential(V, -0.5)

    def test_force_table_built_once_and_immutable(self):
        g = make_grid(0, 8, 16)
        V = PotentialSpec.tabulated(g, np.arange(16, dtype=float) ** 2)
        assert np.array_equal(
            V.force_table, -np.gradient(V.table, g.dx, edge_order=2))
        with pytest.raises(ValueError):
            V.force_table[0] = 1.0

    def test_has_no_force_polynomial(self):
        g = make_grid(0, 8, 16)
        V = PotentialSpec.tabulated(g, np.zeros(16))
        with pytest.raises(DomainError, match="polynomial-backed"):
            V.force_coeffs()

