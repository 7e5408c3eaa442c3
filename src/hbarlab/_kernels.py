"""Hot integrator kernels on one symplectic stepper.

`_kdk` is the only kick-drift-kick (Stormer-Verlet) loop in the package.
It composes: given weights, one step runs a Verlet substep at each of
those fractions of dt.  It works on scalars and on numpy arrays alike, and
run with a negative dt it traces the same flow backward.  It steps copies
of its start arrays in place, so a step makes no new node arrays; what it
yields is valid only until its next step, and a kernel that needs the
previous step keeps its own copy.  The three public kernels are short
loops over it: the scalar Newton trajectory (`verlet_path`) and the
characteristic fan with its action integral, in equal steps between its
save times (`fan_path`), both plain Verlet, and the backward
semi-Lagrangian phase-space pullback (`liouville_pullback`), composed.
MAX_STEPS bounds the steps of any one run, classical or quantum, counted
as FFT pairs or force evaluations.  SUZUKI is the one table of
composition weights, and it serves both splittings: a symmetric step of
second order, taken in turn at these fractions of dt, is a symmetric step
of fourth order (`schrodinger.propagate` composes its Strang step so, and
`liouville_pullback` its Verlet step).

Everything is serial numpy and evaluation order is fixed, so reruns are
byte-identical.  Polynomials are coefficient arrays (low -> high degree):
`fc` for the force, `vc` for the potential.
"""

from functools import partial

import numpy as np

from .errors import DomainError

# the most steps one run may take, classical or quantum, counted as FFT
# pairs (one per Strang step or substep) or force evaluations (one per
# Verlet step or substep)
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


def _kdk(force, m, x, p, dt, n_steps, weights=(1.0,)):
    """Kick-drift-kick steps from (x, p) under the force x -> F(x); yields
    (step, x, p, f) after each of the steps 1..n_steps, f = F(x).

    A step runs one kick-drift-kick substep at each fraction `weights` of
    dt in turn: Stormer-Verlet for the default, a symmetric fourth-order
    composition for SUZUKI.  The closing half-kick of one substep and the
    opening half-kick of the next are one kick, so a step costs
    len(weights) force evaluations.  x and p are copied once at entry and
    then updated in place, so the caller's arrays are never touched and an
    array step makes no new x or p; the yielded arrays are valid only until
    the next step.  On scalars the same augmented assignments just
    rebind."""
    x = x * 1.0
    p = p * 1.0
    # substep i kicks by its opening half-kick w_i dt / 2 fused with the
    # closing one of substep i - 1, then drifts by w_i dt / m; w = 1 rounds
    # exactly as Verlet's dt / 2 and dt / m
    h = [0.5 * dt * w for w in weights]
    stages = tuple(zip(h[:1] + [a + b for a, b in zip(h, h[1:])],
                       [dt * w / m for w in weights]))
    closing = h[-1]
    f = force(x)
    for step in range(1, n_steps + 1):
        for kick, drift in stages:
            p += kick * f
            x += drift * p
            f = force(x)
        p += closing * f
        yield step, x, p, f


def verlet_path(force, m, r0, p0, dt, n_steps, stride, r_max):
    """Scalar trajectory under the callable `force`; saves every `stride`
    steps (step 0 included).  Returns (r_saved, p_saved, escape_step) with
    escape_step = -1 when |r| stayed within r_max."""
    r_out = [r0]
    p_out = [p0]
    escape_step = -1
    for step, r, p, _ in _kdk(force, m, r0, p0, dt, n_steps):
        if abs(r) > r_max:
            escape_step = step
            break
        if step % stride == 0:
            r_out.append(r)
            p_out.append(p)
    return np.array(r_out), np.array(p_out), escape_step


def fan_path(fc, vc, m, x0, p0, save_times, dt_max):
    """Integrate a fan of characteristics, accumulating the action
    integral of (p^2/2m - V) by the trapezoid rule.

    The fan runs segment by segment between the sorted save times (the
    first segment starts at t = 0): each segment [t0, t1] takes
    n = ceil((t1 - t0) / dt_max) equal steps of (t1 - t0) / n, so every
    saved row sits exactly at its requested time.  A segment that is a
    whole multiple of dt_max up to roundoff takes that whole number of
    steps.  The fan's spatial ordering is checked after every step, and
    the integration stops at the first step where two adjacent
    characteristics cross (or coincide): past it no single-valued action
    field exists.  Returns the rows saved before the crossing and
    `t_crossing`, the earliest root of the crossed gaps interpolated
    linearly across that step (exact for free flow), or None if the fan
    stayed monotone.
    """
    force = partial(_horner, fc)
    ns = save_times.size
    x_out = np.empty((ns, x0.size))
    p_out = np.empty((ns, x0.size))
    a_out = np.empty((ns, x0.size))
    # x keeps the previous step's positions for the crossing interpolation:
    # the stepper updates its own x in place
    x, p = x0.copy(), p0
    act = np.zeros(x0.size)
    lag = 0.5 * p0 * p0 / m - _horner(vc, x0)
    t0 = 0.0
    for isave, t1 in enumerate(save_times):
        # the relative shave keeps roundoff in the quotient from adding a
        # step to a whole multiple of dt_max
        n = int(np.ceil((t1 - t0) / dt_max * (1.0 - 1e-12)))
        dt = (t1 - t0) / max(n, 1)
        for step, x_new, p, _ in _kdk(force, m, x, p, dt, n):
            if (x_new[1:] <= x_new[:-1]).any():
                gap = np.diff(x)
                gap_new = np.diff(x_new)
                crossed = gap_new <= 0.0
                frac = np.min(gap[crossed] / (gap[crossed] - gap_new[crossed]))
                t_cross = t0 + (step - 1 + frac) * dt
                return x_out[:isave], p_out[:isave], a_out[:isave], t_cross
            np.copyto(x, x_new)
            lnew = 0.5 * p * p / m - _horner(vc, x)
            act += 0.5 * dt * (lag + lnew)
            lag = lnew
        x_out[isave] = x
        p_out[isave] = p
        a_out[isave] = act
        t0 = t1
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
                              -dt, n_sub, SUZUKI):
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
