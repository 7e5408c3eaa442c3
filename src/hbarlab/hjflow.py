"""Classical Hamilton-Jacobi field theory solved by characteristics.

The classical action equation dS/dt + (dS/dx)^2/2m + V = 0 is integrated by
launching one Newton trajectory from every grid node with p0 = dS0/dx and
accumulating the action S_j(t) = S0(x0_j) + int (p^2/2m - V) dt' along each.
The fan runs segment by segment between the snapshot times, each segment in
equal Stormer-Verlet steps no longer than the requested dt, so every
snapshot is taken exactly at its requested time and a centred difference
across snapshots t - delta, t, t + delta stays centred.

Characteristics are exact pre-caustic; when neighbors cross, a single-valued
action field stops existing, so the fan ends there and solve_hj raises
CausticError with the crossing time, interpolated within the step that
detects it.

The one representation of S at a snapshot is the fan itself: S is the
cubic Hermite spline through the fan's nodes (x_j, S_j) with the exact
nodal slopes dS/dx(x_j) = p_j that the fan provides for free, evaluated
straight from its arrays by `CharacteristicFan.action`.  It is piecewise
cubic and C^1, valid for the monotone node ordering pre-caustic, exact
whenever S is quadratic in x (every linear-flow case), and its end cubics
extend past the fan's ends.  Every x-derivative is the spline's own,
action(i, x, 1) and action(i, x, 2); t-derivatives are centered
differences across snapshots.  A grid node is covered at a snapshot when
it lies between the fan's two end characteristics.  solve_hj returns the
fan, and the diagnostics below take it, and the grid where they need one,
as arguments; no object holds the two together.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import CausticError, DomainError
from .potential import eval_force, eval_potential

__all__ = [
    "CharacteristicFan",
    "integrate_fan",
    "solve_hj",
    "classical_hj_residual",
    "deterministic_continuity_check",
    "projected_newton_check",
]


@dataclass(frozen=True, eq=False)
class CharacteristicFan:
    x0: np.ndarray       # launch points: the grid's nodes
    p0: np.ndarray       # launch momenta dS0/dx(x0)
    times: np.ndarray    # the snapshot times, each landed on exactly
    x: np.ndarray        # positions, shape (n_times, n_char)
    p: np.ndarray        # momenta
    s: np.ndarray        # the action: S0(x0) + accumulated Lagrangian integral
    t_crossing: float = None   # first crossing of adjacent characteristics

    def action(self, i, x, order=0):
        """S at snapshot i, or its order-th x-derivative (order 0, 1 or 2),
        at x: the cubic Hermite through the fan's (x_j, S_j) with slopes
        p_j, whose end cubics extend past the fan's ends."""
        xs, s, p = self.x[i], self.s[i], self.p[i]
        j = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, xs.size - 2)
        h = xs[j + 1] - xs[j]
        slope = (s[j + 1] - s[j]) / h
        t = (p[j] + p[j + 1] - 2.0 * slope) / h
        c2 = (slope - p[j]) / h - t
        c3 = t / h
        u = x - xs[j]
        # ascending powers, summed in scipy's PPoly order
        if order == 0:
            return s[j] + p[j] * u + c2 * (u * u) + c3 * (u * u * u)
        if order == 1:
            return p[j] + c2 * u * 2.0 + c3 * (u * u) * 3.0
        if order == 2:
            return c2 * 2.0 + c3 * u * 6.0
        raise DomainError(f"action order must be 0, 1 or 2, got {order}")

    def covered(self, *snapshots):
        """Launch points inside the fan at every one of the given
        snapshots: the grid's nodes that lie between the fan's two end
        characteristics there."""
        ends = self.x[list(snapshots)][:, [0, -1]]
        return (self.x0 >= ends[:, 0].max()) & (self.x0 <= ends[:, 1].min())


def integrate_fan(grid, s0, V, t_final, dt, snapshot_times):
    """Launch one characteristic from every node of grid, with p0 = dS0/dx
    of the samples s0 by second-order differences (exact for a quadratic
    S0), and integrate them through t_final, recording positions, momenta,
    and actions at the snapshot times.

    dt is the largest step: the fan runs segment by segment between the
    snapshot times and lands exactly on each, so `fan.times` are the
    requested times, clipped to [0, t_final], sorted and without repeats.
    The fan stops at the first crossing of adjacent characteristics, also
    one after the last snapshot: its time is recorded on the returned fan,
    and only the snapshots before it are kept.
    """
    if t_final <= 0:
        raise DomainError(f"t_final must be positive, got {t_final}")
    x0 = grid.x
    p0 = np.gradient(s0, grid.dx, edge_order=2)

    times = np.unique(np.clip(np.asarray(snapshot_times, dtype=float),
                              0.0, t_final))
    # at most one step more than t_final / dt per segment
    _kernels.check_steps(t_final / dt + times.size + 1, "[numerics] t_final")
    X, P, A, t_crossing = _kernels.fan_path(
        V.force_coeffs(), V.coeffs, V.mass, x0, p0,
        np.append(times, t_final), dt)
    kept = min(X.shape[0], times.size)
    return CharacteristicFan(x0, p0, times[:kept], X[:kept], P[:kept],
                             A[:kept] + s0[None, :], t_crossing)


def solve_hj(grid, s0, V, t_final, dt, snapshot_times):
    """Integrate the classical action equation from the initial action s0
    sampled on grid, with steps of at most dt landing exactly on the
    snapshot times.

    Returns the CharacteristicFan, whose `action` reads S at each
    snapshot time off its Hermite spline.  Raises CausticError(t_caustic)
    when adjacent characteristics cross before t_final, also after the
    last snapshot.
    """
    fan = integrate_fan(grid, s0, V, t_final, dt, snapshot_times)
    if fan.t_crossing is not None:
        raise CausticError(
            f"characteristics crossed at t={fan.t_crossing:.6g}; "
            f"single-valued action field ends there",
            t_caustic=fan.t_crossing)
    return fan


def classical_hj_residual(grid, fan, V, i):
    """L2 norm of dS/dt + (dS/dx)^2/2m + V at interior snapshot i of the
    fan launched from grid's nodes, with dS/dt from centered differencing
    of the neighboring snapshots.

    The norm runs over grid points covered by the fan at all three
    snapshots."""
    if i < 1 or i > fan.times.size - 2:
        raise DomainError("residual needs an interior snapshot index")
    x = grid.x
    dt2 = fan.times[i + 1] - fan.times[i - 1]
    ds_dt = (fan.action(i + 1, x) - fan.action(i - 1, x)) / dt2
    grad_s = fan.action(i, x, 1)
    integrand = ds_dt + grad_s ** 2 / (2.0 * V.mass) + eval_potential(V, x)
    region = fan.covered(i - 1, i, i + 1)
    return float(np.sqrt(grid.dx * np.sum(integrand[region] ** 2)))


# ----------------------------------------------------------------------
# Deterministic-ansatz diagnostics
# ----------------------------------------------------------------------

def deterministic_continuity_check(epsilon, fan, r_t, p_t):
    """Moments of the continuity equation under a narrow Gaussian density of
    width parameter epsilon riding at r(t) with trajectory momentum p(t).

    Inserting rho_eps(x - r(t)) into the continuity equation and collecting
    terms leaves the bracket (x-r)(p - dS/dx) + (eps/2) d2S/dx2; integrating
    it against rho_eps gives, per snapshot,

        term1 = int rho_eps (x-r)(p - dS/dx) dx
        term2 = (eps/2) int rho_eps d2S/dx2 dx.

    The two always sum to ~0 (the integrated continuity equation is the
    conservation of total mass), and each separately scales linearly with
    epsilon when d2S/dx2 is regular -- the property the scan tests pin.
    Also returned is p_gap = p(t) - int rho_eps dS/dx dx, the
    trajectory-vs-field momentum gap, which unlike term1 *does* detect a
    constant momentum mismatch (term1's (x-r) weight integrates any
    constant mismatch to zero).

    Integrals are 40-node Gauss-Hermite quadrature on the action spline's
    own derivatives, so widths far below the grid spacing are handled
    exactly for the polynomial action fields the scans use.
    """
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    z, w = np.polynomial.hermite.hermgauss(40)
    w = w / np.sqrt(np.pi)
    se = np.sqrt(epsilon)
    term1 = np.empty(fan.times.size)
    term2 = np.empty(fan.times.size)
    p_gap = np.empty(fan.times.size)
    for i in range(fan.times.size):
        nodes = r_t[i] + se * z
        grad_vals = fan.action(i, nodes, 1)
        term1[i] = np.sum(w * se * z * (p_t[i] - grad_vals))
        term2[i] = 0.5 * epsilon * np.sum(w * fan.action(i, nodes, 2))
        p_gap[i] = p_t[i] - np.sum(w * grad_vals)
    return term1, term2, p_gap


def projected_newton_check(fan, V, r_t):
    """Residual of the projected Newton law along a trajectory r(t):

        d/dt [dS/dx](r(t), t)  computed as the two-term chain rule
        (partial time derivative of the momentum field plus
        (dS/dx)(d2S/dx2)/m, both evaluated at r(t))  minus  the force
        -dV/dx(r(t)).

    Returns the |field-theory dp/dt - Newton force| series over interior
    snapshots (centered time differencing needs both neighbors)."""
    out = np.empty(max(fan.times.size - 2, 0))
    for i in range(1, fan.times.size - 1):
        r = r_t[i]
        dt2 = fan.times[i + 1] - fan.times[i - 1]
        dt_grad = (fan.action(i + 1, r, 1) - fan.action(i - 1, r, 1)) / dt2
        advect = fan.action(i, r, 1) * fan.action(i, r, 2) / V.mass
        out[i - 1] = abs(dt_grad + advect - eval_force(V, r))
    return out
