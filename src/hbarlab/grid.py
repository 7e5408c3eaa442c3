"""Uniform periodic 1D grid with FFT-based differentiation.

All field modules share this substrate.  Sample points are
x_i = x_min + i*dx for i in [0, n); the right endpoint is excluded because
the domain is periodic with length L = x_max - x_min.  Wavenumbers follow
the standard FFT layout (0, 1, ..., n/2-1, -n/2, ..., -1) * 2*pi/L, so a
field is differentiated by multiplying its transform with (ik)^order.

Grids are power-of-two only (n >= 16); fields are immutable after
construction and safe to share across threads.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "Grid",
    "RealField",
    "ComplexField",
    "make_grid",
    "real_field",
    "complex_field",
    "spectral_derivative",
]


def _is_power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


def _readonly(a):
    a = np.asarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Grid:
    """Periodic spatial lattice: bounds, point count, samples, wavenumbers."""

    x_min: float
    x_max: float
    n: int
    dx: float
    x: np.ndarray
    k: np.ndarray

    @property
    def length(self):
        return self.x_max - self.x_min

    def __eq__(self, other):
        if not isinstance(other, Grid):
            return NotImplemented
        return (self.x_min == other.x_min and self.x_max == other.x_max
                and self.n == other.n)

    def __hash__(self):
        return hash((self.x_min, self.x_max, self.n))


def make_grid(x_min, x_max, n):
    """Build a periodic grid on [x_min, x_max) with n points.

    n must be a power of two >= 16 (FFT efficiency and bit-stable tests).
    """
    x_min = float(x_min)
    x_max = float(x_max)
    n = int(n)
    if x_max <= x_min:
        raise DomainError(f"x_max ({x_max}) must exceed x_min ({x_min})")
    if n < 16 or not _is_power_of_two(n):
        raise DomainError(f"grid size must be a power of two >= 16, got {n}")
    dx = (x_max - x_min) / n
    x = x_min + dx * np.arange(n)
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    return Grid(x_min, x_max, n, dx, _readonly(x), _readonly(k))


def _check_values(grid, values, dtype):
    values = np.asarray(values, dtype=dtype)
    if values.shape != (grid.n,):
        raise DomainError(
            f"field length {values.shape} does not match grid n={grid.n}")
    if not np.all(np.isfinite(values)):
        raise DomainError("field contains NaN or Inf")
    return _readonly(values.copy())


@dataclass(frozen=True)
class RealField:
    grid: Grid
    values: np.ndarray


@dataclass(frozen=True)
class ComplexField:
    grid: Grid
    values: np.ndarray


def real_field(grid, values):
    return RealField(grid, _check_values(grid, values, float))


def complex_field(grid, values):
    return ComplexField(grid, _check_values(grid, values, complex))


def spectral_derivative(f, order=1):
    """FFT-based derivative of a field; exact for band-limited inputs.

    order 1 zeroes the unpaired Nyquist mode so real inputs stay real;
    order 2 keeps it (the -k^2 multiplier is real).  The caller is
    responsible for the field being effectively periodic on the grid.
    """
    if order not in (1, 2):
        raise DomainError(f"derivative order must be 1 or 2, got {order}")
    g = f.grid
    fk = np.fft.fft(f.values)
    if order == 1:
        mult = 1j * g.k.copy()
        mult[g.n // 2] = 0.0  # unpaired Nyquist mode
    else:
        mult = -(g.k ** 2)
    out = np.fft.ifft(mult * fk)
    if isinstance(f, RealField):
        return real_field(g, out.real)
    return complex_field(g, out)
