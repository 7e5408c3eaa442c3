"""Shared test utilities: an independent integration oracle, tolerance
helpers and the density-weighted expectation values of a (rho, S) pair.
The oracle deliberately avoids the package's own numerics (a hand-rolled
Verlet) so that every cross-check stays independent of the code path it
validates."""

import numpy as np

from hbarlab.errors import DomainError


def verlet_oracle(force, m, r0, p0, dt, n_steps):
    """Plain velocity-Verlet reference integrator (scalar, no saves)."""
    r, p = float(r0), float(p0)
    f = force(r)
    for _ in range(n_steps):
        ph = p + 0.5 * dt * f
        r += dt * ph / m
        f = force(r)
        p = ph + 0.5 * dt * f
    return r, p


def rel_err(value, ref, floor=1.0):
    """Relative error with an absolute floor for near-zero references."""
    return abs(value - ref) / max(abs(ref), floor)


def gauss_rho(x, eps, r=0.0):
    """Normalized Gaussian density with width parameter eps (variance eps/2)."""
    return (np.pi * eps) ** (-0.5) * np.exp(-((x - r) ** 2) / eps)


def expectations(rho, s, m):
    """(mean position, mean momentum) of a (rho, S) field pair:
    x_mean = int x rho dx,  p_mean = int rho dS/dx dx."""
    g = rho.grid
    total = g.dx * rho.values.sum()
    if abs(total - 1.0) > 1e-6:
        raise DomainError(f"density mass {total} is not 1 within 1e-6")
    x_mean = float(g.dx * np.sum(g.x * rho.values))
    p_mean = float(g.dx * np.sum(
        rho.values * np.gradient(s.values, g.dx, edge_order=2)))
    return x_mean, p_mean
