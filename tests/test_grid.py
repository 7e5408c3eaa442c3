import numpy as np
import pytest

from hbarlab.errors import DomainError
from hbarlab.grid import MAX_GRID_N, make_grid
from hbarlab.potential import PotentialSpec

from helpers import spectral_derivative


def band_limited_field(grid, rng, n_modes=8):
    """Random real samples supported on low Fourier modes (no Nyquist)."""
    coeffs = np.zeros(grid.n, dtype=complex)
    for j in rng.integers(1, grid.n // 8, size=n_modes):
        c = rng.normal() + 1j * rng.normal()
        coeffs[j] = c
        coeffs[-j] = np.conj(c)
    return np.fft.ifft(coeffs).real


class TestMakeGrid:
    def test_spacing(self):
        g = make_grid(-10, 10, 256)
        assert g.dx == 20 / 256 == 0.078125
        assert g.x[0] == -10.0
        assert g.x[-1] == pytest.approx(10.0 - g.dx)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(DomainError):
            make_grid(-10, 10, 100)

    def test_rejects_small_and_inverted(self):
        with pytest.raises(DomainError):
            make_grid(-10, 10, 8)
        with pytest.raises(DomainError):
            make_grid(3, 3, 64)

    def test_rejects_more_than_max_grid_n(self):
        # 2^44 points: refused before numpy is asked for 140 TB
        with pytest.raises(DomainError, match=str(MAX_GRID_N)):
            make_grid(-8, 8, 1 << 44)

    def test_unit_circle_wavenumbers_are_integers(self):
        g = make_grid(0, 2 * np.pi, 64)
        assert set(np.rint(g.k).astype(int)) == set(range(-32, 32))
        assert np.allclose(g.k, np.rint(g.k), atol=1e-12)


class TestFields:
    # a potential table keeps its samples as `_check_values` gives them
    def test_rejects_nan(self):
        g = make_grid(-1, 1, 16)
        vals = np.zeros(16)
        vals[3] = np.nan
        with pytest.raises(DomainError):
            PotentialSpec.tabulated(g, vals)

    def test_rejects_length_mismatch(self):
        g = make_grid(-1, 1, 16)
        with pytest.raises(DomainError):
            PotentialSpec.tabulated(g, np.zeros(17))

    def test_values_immutable(self):
        g = make_grid(-1, 1, 16)
        V = PotentialSpec.tabulated(g, np.zeros(16))
        with pytest.raises(ValueError):
            V.table[0] = 1.0


class TestSpectralDerivative:
    # the suite's oracle derivative, which the row's moments are checked
    # against bit for bit
    def test_sine_second_derivative(self):
        g = make_grid(0, 2 * np.pi, 64)
        d2 = spectral_derivative(g, np.sin(g.x), 2)
        assert np.max(np.abs(d2 + np.sin(g.x))) <= 1e-12

    def test_constant_first_derivative(self):
        g = make_grid(-5, 5, 32)
        d1 = spectral_derivative(g, np.full(32, 3.7), 1)
        assert np.max(np.abs(d1)) <= 1e-13

    def test_gaussian_against_closed_form(self):
        g = make_grid(-10, 10, 256)
        d1 = spectral_derivative(g, np.exp(-g.x ** 2), 1)
        exact = -2 * g.x * np.exp(-g.x ** 2)
        assert np.max(np.abs(d1 - exact)) <= 1e-10

    def test_rejects_bad_order(self):
        g = make_grid(-1, 1, 16)
        with pytest.raises(DomainError):
            spectral_derivative(g, np.zeros(16), 3)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        g = make_grid(-4, 4, 128)
        f1 = band_limited_field(g, rng)
        f2 = band_limited_field(g, rng)
        a, b = 1.7, -0.4
        lhs = spectral_derivative(g, a * f1 + b * f2, 1)
        rhs = (a * spectral_derivative(g, f1, 1)
               + b * spectral_derivative(g, f2, 1))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_second_order_composes(self):
        rng = np.random.default_rng(11)
        g = make_grid(-4, 4, 128)
        f = band_limited_field(g, rng)
        once_twice = spectral_derivative(g, spectral_derivative(g, f, 1), 1)
        direct = spectral_derivative(g, f, 2)
        assert np.max(np.abs(once_twice - direct)) <= 1e-10

    def test_integral_of_derivative_vanishes(self):
        rng = np.random.default_rng(13)
        g = make_grid(-4, 4, 128)
        for _ in range(5):
            f = band_limited_field(g, rng)
            d = spectral_derivative(g, f, 1)
            assert abs(g.dx * np.sum(d)) <= 1e-12
