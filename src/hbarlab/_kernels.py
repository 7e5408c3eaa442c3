"""Hot integrator kernels on one symplectic stepper.

`_kdk` is the only kick-drift-kick loop in the package: every step is
SUZUKI's fourth-order composition of Stormer-Verlet substeps, and given
the potential it sums the action on the way.  It works on scalars and on
numpy arrays alike, and run with a negative dt it traces the same flow
backward.  It steps copies of its start arrays in place, so a step makes
no new node arrays; what it yields is valid only until its next step.
The three public kernels are short loops over it: the scalar Newton
trajectory (`newton_path`) and the characteristic fan with its action
(`fan_path`), both landing on given times by one rule (`_gaps`), and the
backward semi-Lagrangian phase-space pullback (`liouville_pullback`).
MAX_STEPS bounds the steps of any one run, classical or quantum, counted
as FFT pairs or force evaluations.  SUZUKI is the one table of
composition weights, and it serves both splittings (`schrodinger.propagate`
composes its Strang step so): a symmetric step of second order, taken in
turn at these fractions of dt, is a symmetric step of fourth order.

Everything is serial numpy and evaluation order is fixed, so reruns are
byte-identical.  Polynomials are coefficient arrays (low -> high degree):
`fc` for the force, `vc` for the potential.
"""

from functools import partial

import numpy as np

from .errors import DomainError, EscapeError

# the most steps one run may take, classical or quantum, counted as FFT
# pairs (one per Strang step or substep) or force evaluations (one per
# Verlet substep)
MAX_STEPS = 10 ** 7

# Suzuki's five-stage fourth-order composition (Phys. Lett. A 146, 319,
# 1990): substeps s, s, 1 - 4s, s, s with s = 1/(4 - 4^(1/3))
_S = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
SUZUKI = (_S, _S, 1.0 - 4.0 * _S, _S, _S)


def check_steps(n_steps, source):
    """Refuse, before the first step, a run of n_steps steps (FFT pairs or
    force evaluations; a float or inf before rounding) above MAX_STEPS with
    DomainError naming the config `source` ("[numerics] t_final", ...) that
    sets the count."""
    if not n_steps <= MAX_STEPS:
        raise DomainError(
            f"the run would take {n_steps:.3g} steps (one per FFT pair or "
            f"force evaluation), more than {MAX_STEPS:.0e}; the count "
            f"follows from {source}")


def _horner(c, x):
    """sum_j c[j] x**j by Horner's rule from the leading coefficient, bit
    for bit numpy's polyval; a length-1 c gives the scalar c[0], which
    broadcasts against x.  An array x gets one new array, updated in
    place.  c is an array or a list of floats; a list and a float x keep
    the sum in Python floats, the same double arithmetic as numpy scalars
    and cheaper."""
    if len(c) == 1:
        return c[0]
    acc = c[-1] * x
    for j in range(len(c) - 2, 0, -1):
        acc += c[j]
        acc *= x
    acc += c[0]
    return acc


def _kdk(force, m, x, p, dt, n_steps, potential=None):
    """Composed kick-drift-kick steps from (x, p) under the force x -> F(x);
    yields (step, x, p, action) after each of the steps 1..n_steps.

    A step runs a Stormer-Verlet substep at each fraction SUZUKI of dt, the
    closing half-kick of each fused with the opening one of the next: it
    costs len(SUZUKI) force evaluations.  Given the potential x -> V(x),
    the action since entry sums each substep's discrete Lagrangian
    h (p_half^2 / 2m - (V_0 + V_1) / 2), else it is None.  x and p are
    copied once at entry and then updated in place, so the caller's arrays
    are never touched and an array step makes no new x or p; the yielded
    arrays are valid only until the next step.  On scalars the same
    augmented assignments just rebind."""
    x = x * 1.0
    p = p * 1.0
    # substep i kicks by its opening half-kick w_i dt / 2 fused with the
    # closing one of substep i - 1, then drifts by w_i dt / m
    h = [0.5 * dt * w for w in SUZUKI]
    stages = tuple(zip(h[:1] + [a + b for a, b in zip(h, h[1:])],
                       [dt * w / m for w in SUZUKI]))
    closing = h[-1]
    f = force(x)
    act, v = (None, None) if potential is None else (0.0, potential(x))
    for step in range(1, n_steps + 1):
        for kick, drift in stages:
            p += kick * f
            x += drift * p
            if act is not None:
                # minus the kick's weight times V, plus the drift's h p^2/2m
                act += 0.5 * drift * p * p - kick * v
                v = potential(x)
            f = force(x)
        p += closing * f
        if act is not None:
            act -= closing * v
        yield step, x, p, act


def _gaps(times, dt_max):
    """(t0, n, dt) for each gap [t0, t1] from t = 0 through the sorted
    `times`: n = ceil((t1 - t0) / dt_max) equal steps of dt, landing on t1;
    the shave keeps roundoff from adding a step to a whole multiple."""
    t0 = 0.0
    for t1 in times:
        n = int(np.ceil((t1 - t0) / dt_max * (1.0 - 1e-12)))
        yield t0, n, (t1 - t0) / max(n, 1)
        t0 = t1


def newton_path(force, m, r0, p0, times, dt_max, r_max):
    """Scalar trajectory under the callable `force` in SUZUKI steps of at
    most dt_max: arrays (r, p) at the sorted `times` (see `_gaps`), or
    EscapeError at the end of the first step past |r| = r_max."""
    r_out, p_out = [], []
    r, p = r0, p0
    for t0, n, dt in _gaps(times, dt_max):
        for step, r, p, _ in _kdk(force, m, r, p, dt, n):
            if abs(r) > r_max:
                raise EscapeError(f"trajectory left |r| <= {r_max:g} at "
                                  f"t={t0 + step * dt:.6g}")
        r_out.append(r)
        p_out.append(p)
    return np.array(r_out), np.array(p_out)


def fan_path(fc, vc, m, x0, p0, save_times, dt_max):
    """Integrate a fan of characteristics, with the action integral of
    (p^2/2m - V) that `_kdk` sums along each.

    The fan runs in composed steps, segment by segment between the sorted
    save times (`_gaps`), so every saved row sits exactly at its requested
    time.  The fan's spatial ordering is checked after every step, and the
    integration stops at the first step where two adjacent characteristics
    cross (or coincide): past it no single-valued action field exists.
    Returns the rows saved before the crossing and `t_crossing`, the
    earliest root of the crossed gaps interpolated linearly across that
    step (exact for free flow), or None if the fan stayed monotone.
    """
    force = partial(_horner, fc)
    potential = partial(_horner, vc)
    ns = save_times.size
    x_out = np.empty((ns, x0.size))
    p_out = np.empty((ns, x0.size))
    a_out = np.empty((ns, x0.size))
    # x keeps the previous step's positions for the crossing interpolation:
    # the stepper updates its own x in place
    x, p = x0.copy(), p0
    act = np.zeros(x0.size)
    for isave, (t0, n, dt) in enumerate(_gaps(save_times, dt_max)):
        gained = 0.0
        for step, x_new, p, gained in _kdk(force, m, x, p, dt, n, potential):
            if (x_new[1:] <= x_new[:-1]).any():
                gap = np.diff(x)
                gap_new = np.diff(x_new)
                crossed = gap_new <= 0.0
                frac = np.min(gap[crossed] / (gap[crossed] - gap_new[crossed]))
                t_cross = t0 + (step - 1 + frac) * dt
                return x_out[:isave], p_out[:isave], a_out[:isave], t_cross
            np.copyto(x, x_new)
        act += gained
        x_out[isave] = x
        p_out[isave] = p
        a_out[isave] = act
    return x_out, p_out, a_out, None


def liouville_pullback(fc, m, x_nodes, p_nodes, dt, n_sub, n_checkpoints,
                       rho0, x0_min, dx0, p0_min, dp0):
    """Pull every phase-space node (x, p) backward through the Newton flow
    for n_sub steps of size dt, and sample rho0 bilinearly at the feet
    after every n_sub / n_checkpoints steps (n_checkpoints divides n_sub).
    Returns one (nx, np) array per checkpoint.  Feet outside the source
    rectangle contribute zero."""
    stride = n_sub // n_checkpoints
    nx, npp = x_nodes.size, p_nodes.size
    out = []
    for step, x, p, _ in _kdk(partial(_horner, fc), m,
                              np.repeat(x_nodes, npp), np.tile(p_nodes, nx),
                              -dt, n_sub):
        if step % stride == 0:
            out.append(_bilinear(rho0, x, p, x0_min, dx0, p0_min, dp0)
                       .reshape(nx, npp))
    return out


def _bilinear(rho0, x, p, x0_min, dx0, p0_min, dp0):
    """rho0 (on the node grid from (x0_min, p0_min) with spacings dx0, dp0)
    sampled bilinearly at the points (x, p); zero outside the grid."""
    nx, npp = rho0.shape
    fx = (x - x0_min) / dx0
    fp = (p - p0_min) / dp0
    inside = (fx >= 0.0) & (fx <= nx - 1) & (fp >= 0.0) & (fp <= npp - 1)
    i0c = np.clip(np.floor(fx).astype(int), 0, nx - 2)
    j0c = np.clip(np.floor(fp).astype(int), 0, npp - 2)
    wx = fx - i0c
    wp = fp - j0c
    vals = (rho0[i0c, j0c] * (1.0 - wx) * (1.0 - wp)
            + rho0[i0c + 1, j0c] * wx * (1.0 - wp)
            + rho0[i0c, j0c + 1] * (1.0 - wx) * wp
            + rho0[i0c + 1, j0c + 1] * wx * wp)
    vals[~inside] = 0.0
    return vals
