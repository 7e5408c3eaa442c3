"""Madelung decomposition psi = sqrt(rho) * exp(i S / hbar) and the
density-weighted sides of the quantum action equation.

The decomposition turns the Schrödinger equation into a continuity equation
for rho and an action equation for S that differs from the classical
Hamilton-Jacobi equation by a single term proportional to hbar^2,

    Q = -(hbar^2 / 2m) * lap(sqrt(rho)) / sqrt(rho),

which couples rho back into S.  ("Quantum potential" is a common but
unfortunate name for it; a potential is normally an externally controlled
quantity, while this term is state-dependent, so the neutral name
"quantum term" is used throughout.)

The lab's per-snapshot measurement, `weighted_action_terms`, never forms
S: it builds rho Q and rho (dS/dt + (dS/dx)^2/2m + V) straight from a
snapshot triple of psi, weighted by the density, so both stay bounded where
rho -> 0 and the identity rho Q + rho (...) = 0 is checked over the whole
grid, nodes included.  Its x-derivatives are spectral: psi and rho decay
toward the grid's ends, so they are periodic-friendly.
"""

import numpy as np

from .grid import spectral_derivative
from .potential import eval_potential

__all__ = ["weighted_action_terms"]


def weighted_action_terms(triple, V, dt):
    """The two density-weighted sides of the action equation at the middle
    of a snapshot triple (psi(t - dt), psi(t), psi(t + dt)):

        rho Q = -(hbar^2/2m) (rho''/2 - (Re psi* psi')^2 / rho),
        rho (dS/dt + (dS/dx)^2/2m + V)
              = rho hbar arg(psi(t + dt) conj psi(t - dt)) / 2dt
                + hbar^2 (Im psi* psi')^2 / (2m rho) + rho V,

    with psi' the spectral derivative, as two arrays over the whole grid.
    Re psi* psi' = rho'/2 and Im psi* psi' = rho S'/hbar, so neither side
    needs S itself: no phase unwrapping and no support mask.  Both
    quotients are bounded (each square is at most rho |psi'|^2), so they
    are set to 0 only where rho = 0.  dS/dt is the pointwise phase
    difference, valid while no point turns by pi over 2 dt; hbar Im(psi*
    dpsi/dt) from a centered difference of psi would not do, since psi
    turns at E/hbar and that difference loses accuracy as hbar shrinks.
    """
    before, psi, after = triple
    g, hbar, m = psi.grid, psi.hbar, V.mass
    rho = np.abs(psi.values) ** 2
    w = np.conj(psi.values) * spectral_derivative(g, psi.values, 1)
    rho2 = spectral_derivative(g, rho, 2)
    occupied = rho > 0

    def over_rho(a):
        return np.divide(a, rho, out=np.zeros(g.n), where=occupied)

    # a numpy scalar's ** 2 overflows to inf where a float's raises
    h2m = np.float64(hbar) ** 2 / (2.0 * m)
    rho_q = -h2m * (0.5 * rho2 - over_rho(w.real ** 2))
    ds_dt = hbar * np.angle(after.values * np.conj(before.values)) / (2.0 * dt)
    rho_hj = (rho * (ds_dt + eval_potential(V, g.x))
              + h2m * over_rho(w.imag ** 2))
    return rho_q, rho_hj
