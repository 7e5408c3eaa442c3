"""Madelung decomposition psi = sqrt(rho) * exp(i S / hbar) and the
per-snapshot diagnostics of a quantum run.

The decomposition turns the Schrödinger equation into a continuity equation
for rho and an action equation for S that differs from the classical
Hamilton-Jacobi equation by a single term proportional to hbar^2,

    Q = -(hbar^2 / 2m) * lap(sqrt(rho)) / sqrt(rho),

which couples rho back into S.  ("Quantum potential" is a common but
unfortunate name for it; a potential is normally an externally controlled
quantity, while this term is state-dependent, so the neutral name
"quantum term" is used throughout.)

`snapshot_diagnostics` builds every quantum row: the moments of psi and
the two density-weighted sides rho Q and rho (dS/dt + (dS/dx)^2/2m + V),
straight from a snapshot triple of psi.  It never forms S, so both sides
stay bounded where rho -> 0 and the identity rho Q + rho (...) = 0 is
checked over the whole grid, nodes included.  Its x-derivatives are
spectral, psi' and psi'' from one transform of psi: psi decays toward the
grid's ends, so it is periodic-friendly.
"""

import numpy as np

from .potential import eval_potential

__all__ = ["snapshot_diagnostics"]


def snapshot_diagnostics(triple, V, dt):
    """(moments, rho Q, rho (dS/dt + (dS/dx)^2/2m + V)) at the middle of a
    snapshot triple (psi(t - dt), psi(t), psi(t + dt)).

    moments are the seven floats (x_mean, p_mean, var_x, var_p,
    uncertainty_product, width, kurtosis_excess) of psi(t), the last the
    excess kurtosis of |psi|^2 (zero for a Gaussian).  The momentum moments
    are <p> = Re int conj(psi) (-i hbar psi') dx and <p^2> = int |hbar psi'|^2
    dx (equal to <psi|p^2|psi> on the periodic grid by parts).  Width
    convention: init_gaussian's packet of width parameter eps,

        psi(x, 0) = (pi*eps)^(-1/4) exp(-(x - r0)^2 / (2 eps))
                    * exp(i p0 x / hbar),

    has density rho(x) = (pi*eps)^(-1/2) exp(-(x-r0)^2/eps) with variance
    eps/2, so the "measured width" A(t) is defined as 2*Var(x) and
    A(0) = eps.  This removes a silent factor-of-two trap when comparing
    against the closed-form width laws.

    The two sides are arrays over the whole grid,

        rho Q = -(hbar^2/2m) (rho''/2 - (Re psi* psi')^2 / rho),
        rho (dS/dt + (dS/dx)^2/2m + V)
              = rho hbar arg(psi(t + dt) conj psi(t - dt)) / 2dt
                + hbar^2 (Im psi* psi')^2 / (2m rho) + rho V,

    with rho'' = 2 Re(psi* psi'') + 2 |psi'|^2, so rho's doubled band is
    never differentiated.  Re psi* psi' = rho'/2 and Im psi* psi' =
    rho S'/hbar, so neither side needs S itself: no phase unwrapping and
    no support mask.  Both quotients are bounded (each square is at most
    rho |psi'|^2), so they are set to 0 only where rho = 0.  dS/dt is the
    pointwise phase difference, valid while no point turns by pi over 2 dt;
    hbar Im(psi* dpsi/dt) from a centered difference of psi would not do,
    since psi turns at E/hbar and that difference loses accuracy as hbar
    shrinks.  One forward FFT of psi(t) gives psi' (its unpaired Nyquist
    mode zeroed) and psi'' by two inverses.
    """
    before, psi, after = triple
    g, hbar, m = psi.grid, psi.hbar, V.mass
    values = psi.values
    conj = np.conj(values)
    fk = np.fft.fft(values)
    ik = 1j * g.k
    ik[g.n // 2] = 0.0                  # unpaired Nyquist mode
    d1 = np.fft.ifft(ik * fk)
    d2 = np.fft.ifft(-(g.k ** 2) * fk)
    rho = np.abs(values) ** 2

    w = g.dx * rho
    x_mean = float(np.sum(w * g.x))
    u = g.x - x_mean
    var_x = float(np.sum(w * u ** 2))
    m4 = float(np.sum(w * u ** 4))
    p_mean = float(np.real(g.dx * np.sum(conj * (-1j * hbar) * d1)))
    p2 = float(g.dx * np.sum(np.abs(hbar * d1) ** 2))
    # a numpy scalar's ** 2 (C pow, like a float's) overflows to inf where
    # a float's raises OverflowError; so does h2m's below
    var_p = p2 - float(np.float64(p_mean) ** 2)
    moments = (x_mean, p_mean, var_x, var_p,
               float(np.sqrt(max(var_x, 0.0) * max(var_p, 0.0))),
               2.0 * var_x, float(m4 / np.float64(var_x) ** 2 - 3.0))

    psi_d1 = conj * d1
    rho2 = 2.0 * (conj * d2).real + 2.0 * np.abs(d1) ** 2
    occupied = rho > 0

    def over_rho(a):
        return np.divide(a, rho, out=np.zeros(g.n), where=occupied)

    h2m = np.float64(hbar) ** 2 / (2.0 * m)
    rho_q = -h2m * (0.5 * rho2 - over_rho(psi_d1.real ** 2))
    ds_dt = hbar * np.angle(after.values * np.conj(before.values)) / (2.0 * dt)
    rho_hj = (rho * (ds_dt + eval_potential(V, g.x))
              + h2m * over_rho(psi_d1.imag ** 2))
    return moments, rho_q, rho_hj
