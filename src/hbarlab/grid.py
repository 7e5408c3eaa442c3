"""Uniform periodic 1D grid with FFT-based differentiation.

Sample points are x_i = x_min + i*dx for i in [0, n); the right endpoint
is excluded because the domain is periodic with length L = x_max - x_min.
Wavenumbers follow the standard FFT layout
(0, 1, ..., n/2-1, -n/2, ..., -1) * 2*pi/L, so sampled values are
differentiated by multiplying their transform with (ik)^order.

Every sampled field travels as a plain array beside the grid its caller
already holds.  Grids are power-of-two only, 16 <= n <= MAX_GRID_N, and
compare by identity.  `_check_values` gives the read-only copy, checked
for length and finiteness, that a wave function and a potential table
keep, so both are safe to share across threads.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "MAX_GRID_N",
    "Grid",
    "make_grid",
    "spectral_derivative",
]

MAX_GRID_N = 1 << 16            # most points of any grid


def _is_power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


def _readonly(a):
    a = np.asarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
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


def make_grid(x_min, x_max, n):
    """Build a periodic grid on [x_min, x_max) with n points.

    n must be a power of two >= 16 (FFT efficiency and bit-stable tests)
    and at most MAX_GRID_N, refused before anything is allocated.
    """
    x_min = float(x_min)
    x_max = float(x_max)
    n = int(n)
    if x_max <= x_min:
        raise DomainError(f"x_max ({x_max}) must exceed x_min ({x_min})")
    if n < 16 or not _is_power_of_two(n):
        raise DomainError(f"grid size must be a power of two >= 16, got {n}")
    if n > MAX_GRID_N:
        raise DomainError(
            f"grid size {n} exceeds the most allowed, {MAX_GRID_N}")
    dx = (x_max - x_min) / n
    x = x_min + dx * np.arange(n)
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    return Grid(x_min, x_max, n, dx, _readonly(x), _readonly(k))


def _check_values(grid, values, dtype):
    """A read-only copy of values as dtype, refused with DomainError unless
    it holds one finite sample per grid point."""
    values = np.asarray(values, dtype=dtype)
    if values.shape != (grid.n,):
        raise DomainError(
            f"field length {values.shape} does not match grid n={grid.n}")
    if not np.all(np.isfinite(values)):
        raise DomainError("field contains NaN or Inf")
    return _readonly(values.copy())


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
