"""External potential V(x) and its force -dV/dx.

Every built-in kind (free, constant force, harmonic) reduces internally to
polynomial coefficients, so evaluation and the hot integrator kernels share
one code path.  A tabulated potential keeps its table's grid, a read-only
copy of its samples and a read-only force table, the finite-difference
derivative built once at construction; both are read at the nearest node.
It has no force polynomial, so `force_coeffs` refuses it.  It exists for
exploratory use only.

Potentials are static.  The particle mass has one owner, the spec's
`mass`: the Schrödinger propagator, the Newton, fan and Liouville
integrators and the Madelung diagnostics all read V.mass, and no wave
function, trajectory or fan copies it, so the quantum and the classical
side of a comparison cannot disagree about it.  Specs are immutable and
evaluation is pure, so they are safe to share across threads.  Like grids,
specs compare and hash by identity: two specs built from the same inputs
are different keys of `schrodinger._phases`'s cache.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .grid import _check_values, _readonly

__all__ = ["PotentialSpec", "eval_potential", "eval_force"]

MAX_DEGREE = 8


def _as_coeffs(c):
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise DomainError("polynomial coefficients must be a 1D sequence")
    if c.size - 1 > MAX_DEGREE:
        raise DomainError(
            f"polynomial coeffs of degree {c.size - 1} exceed the supported "
            f"maximum {MAX_DEGREE}")
    if not np.all(np.isfinite(c)):
        raise DomainError("polynomial coefficients must be finite")
    c = c.copy()
    c.setflags(write=False)
    return c


@dataclass(frozen=True, eq=False)
class PotentialSpec:
    """Potential specification: kind tag, mass, and kind-specific data.

    Use the constructors (`free`, `constant_force`, `harmonic`, `polynomial`,
    `tabulated`) rather than instantiating directly.
    """

    kind: str
    mass: float
    coeffs: np.ndarray = None            # V polynomial, low -> high degree
    grid: object = None                  # the table's Grid
    table: np.ndarray = None             # V sampled on grid, read-only
    force_table: np.ndarray = None       # -dV/dx sampled on grid, read-only
    omega: float = None
    f0: float = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def free(mass=1.0):
        _check_mass(mass)
        return PotentialSpec("free", float(mass), coeffs=_as_coeffs([0.0]))

    @staticmethod
    def constant_force(f0, mass=1.0):
        _check_mass(mass)
        f0 = float(f0)
        return PotentialSpec("constant_force", float(mass),
                             coeffs=_as_coeffs([0.0, -f0]), f0=f0)

    @staticmethod
    def harmonic(mass, omega):
        _check_mass(mass)
        omega = float(omega)
        if omega <= 0:
            raise DomainError(
                f"harmonic frequency omega must be positive, got {omega}")
        c2 = 0.5 * mass * omega * omega
        if not np.isfinite(c2):
            raise DomainError(f"harmonic V = mass omega^2 x^2 / 2 overflows "
                              f"for mass {mass:g} and omega {omega:g}")
        c = _as_coeffs([0.0, 0.0, c2])
        return PotentialSpec("harmonic", float(mass), coeffs=c, omega=omega)

    @staticmethod
    def polynomial(coeffs, mass=1.0):
        """Polynomial V(x) = sum c_j x^j."""
        _check_mass(mass)
        return PotentialSpec("polynomial", float(mass), coeffs=_as_coeffs(coeffs))

    @staticmethod
    def tabulated(grid, values, mass=1.0):
        """V sampled at the nodes of grid; DomainError unless values hold
        one finite sample per node.

        The force table is a second-order finite difference of the samples
        (one-sided at the ends): tables are not periodic in general, so a
        spectral derivative would ring; the stencil is exact for quadratic
        tables and boundary-safe."""
        _check_mass(mass)
        table = _check_values(grid, values, float)
        force = _readonly(-np.gradient(table, grid.dx, edge_order=2))
        return PotentialSpec("tabulated", float(mass), grid=grid,
                             table=table, force_table=force)

    # -- helpers -----------------------------------------------------------

    def force_coeffs(self):
        """Coefficients of F(x) = -dV/dx, low -> high degree; DomainError
        for a tabulated potential, which has none."""
        if self.kind == "tabulated":
            raise DomainError("a tabulated potential has no force "
                              "polynomial; this requires a polynomial-backed "
                              "potential")
        c = self.coeffs
        if c.size == 1:
            return np.zeros(1)
        j = np.arange(1, c.size)
        return -(j * c[1:])


def _check_mass(mass):
    if float(mass) <= 0:
        raise DomainError(f"mass must be positive, got {mass}")


def _table_lookup(g, values, x):
    """values sampled on grid g, read at the node nearest each x."""
    x = np.asarray(x, dtype=float)
    if np.any(x < g.x_min) or np.any(x > g.x_max):
        raise DomainError(
            f"tabulated lookup outside grid range [{g.x_min}, {g.x_max}]")
    idx = np.rint((x - g.x_min) / g.dx).astype(int)
    idx = np.minimum(idx, g.n - 1)
    return values[idx]


def eval_potential(spec, x):
    """V(x); x may be a scalar or an array."""
    if spec.kind == "tabulated":
        out = _table_lookup(spec.grid, spec.table, x)
    else:
        out = np.polynomial.polynomial.polyval(np.asarray(x, dtype=float),
                                               spec.coeffs)
    if np.ndim(x) == 0:
        return float(out)
    return np.asarray(out, dtype=float)


def eval_force(spec, x):
    """F(x) = -dV/dx; analytic for polynomial kinds, read off the force
    table at the nearest node for a tabulated one."""
    if spec.kind == "tabulated":
        out = _table_lookup(spec.grid, spec.force_table, x)
    else:
        fc = spec.force_coeffs()
        out = np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), fc)
    if np.ndim(x) == 0:
        return float(out)
    return np.asarray(out, dtype=float)
