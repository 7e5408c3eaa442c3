from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hbarlab import _kernels

# unit-scale polynomials and times up to 1 keep every flow bounded
unit = st.floats(-1.0, 1.0)
# bounded so that no power overflows
coeff = st.floats(-1e3, 1e3)
# the package's one stepper: Suzuki's fourth-order composition of Verlet
# substeps
KDK = pytest.mark.parametrize("kdk", [_kernels._kdk], ids=["suzuki"])


@settings(max_examples=200, deadline=None)
@given(c=arrays(np.float64, st.integers(1, 6), elements=coeff),
       x=coeff | arrays(np.float64, st.integers(0, 8), elements=coeff))
def test_horner_is_polyval_bit_for_bit(c, x):
    # the same multiply-add sequence as numpy's polyval; a size-1 c gives a
    # scalar that broadcasts against x.  The list of the same coefficients,
    # which keeps a float x in Python floats, gives the same numbers
    expected = np.polynomial.polynomial.polyval(x, c)
    for coeffs in (c, c.tolist()):
        got = np.broadcast_to(_kernels._horner(coeffs, x), np.shape(expected))
        assert np.array_equal(got, expected)


@KDK
@settings(max_examples=60, deadline=None)
@given(fc=st.lists(unit, min_size=1, max_size=4), x0=unit, p0=unit,
       dt=st.floats(1e-4, 1e-2), n=st.integers(1, 100))
def test_stepper_retraces_its_path_backward(kdk, fc, x0, p0, dt, n):
    # a palindromic composition of Stormer-Verlet steps is symmetric: n
    # steps of dt then n steps of -dt return to the start, up to roundoff
    force = partial(_kernels._horner, np.array(fc))
    for _, x, p, _ in kdk(force, 1.0, x0, p0, dt, n):
        pass
    for _, x, p, _ in kdk(force, 1.0, x, p, -dt, n):
        pass
    assert abs(x - x0) <= 1e-10
    assert abs(p - p0) <= 1e-10


@KDK
def test_stepper_converges_at_its_order(kdk):
    # halving dt divides the end-point error by 2^4 under the anharmonic
    # force of V = 0.3 x^2 + 0.05 x^4
    force = partial(_kernels._horner, np.array([0.0, -0.6, 0.0, -0.2]))

    def terminal(n):
        for _, x, p, _ in kdk(force, 1.0, 0.7, -0.3, 5.0 / n, n):
            pass
        return np.array([x, p])

    ref = terminal(320)
    err1 = np.linalg.norm(terminal(20) - ref)
    err2 = np.linalg.norm(terminal(40) - ref)
    assert 12.0 <= err1 / err2 <= 20.0


@settings(max_examples=60, deadline=None)
@given(fc=st.lists(unit, min_size=1, max_size=4),
       vc=st.lists(unit, min_size=1, max_size=5), x0=unit, p0=unit,
       m=st.floats(0.5, 2.0), dt=st.floats(-1e-2, 1e-2),
       n=st.integers(1, 20))
def test_action_sums_the_substeps_discrete_lagrangians(fc, vc, x0, p0, m,
                                                       dt, n):
    # each Verlet substep of h = w dt adds h (p_half^2 / 2m - (V0 + V1) / 2);
    # the stepper sums the same terms in another order, so up to roundoff
    force = partial(_kernels._horner, fc)
    potential = partial(_kernels._horner, vc)
    x, p, expected = x0, p0, 0.0
    for _ in range(n):
        for w in _kernels.SUZUKI:
            h = w * dt
            p_half = p + 0.5 * h * force(x)
            x_new = x + h * p_half / m
            expected += h * (0.5 * p_half ** 2 / m
                             - 0.5 * (potential(x) + potential(x_new)))
            x = x_new
            p = p_half + 0.5 * h * force(x)
    for _, x_kdk, p_kdk, action in _kernels._kdk(force, m, x0, p0, dt, n,
                                                 potential):
        pass
    assert x_kdk == pytest.approx(x, abs=1e-12)
    assert p_kdk == pytest.approx(p, abs=1e-12)
    assert action == pytest.approx(expected, abs=1e-12)


def test_single_characteristic_fan_is_the_composed_trajectory():
    # one segment of 500 whole steps of dt_max: the same arithmetic as 500
    # steps of _kdk carrying the action, so the end points and the action
    # agree bit for bit
    fc = np.array([0.0, -0.6, 0.0, -0.2])       # V = 0.3 x^2 + 0.05 x^4
    vc = np.array([0.0, 0.0, 0.3, 0.0, 0.05])
    for _, r, p, action in _kernels._kdk(
            partial(_kernels._horner, fc), 1.0, np.array([0.7]),
            np.array([-0.3]), 1e-2, 500, partial(_kernels._horner, vc)):
        pass
    x_fan, p_fan, a_fan, t_crossing = _kernels.fan_path(
        fc, vc, 1.0, np.array([0.7]), np.array([-0.3]),
        np.array([0.0, 5.0]), 1e-2)
    assert t_crossing is None
    assert np.array_equal(x_fan[:, 0], [0.7, r[0]])
    assert np.array_equal(p_fan[:, 0], [-0.3, p[0]])
    assert np.array_equal(a_fan[:, 0], [0.0, action[0]])


@KDK
@settings(max_examples=60, deadline=None)
@given(fc=st.lists(unit, min_size=1, max_size=4),
       vc=st.none() | st.lists(unit, min_size=1, max_size=5),
       nodes=st.lists(st.tuples(unit, unit), min_size=1, max_size=8),
       m=st.floats(0.5, 2.0), dt=st.floats(-1e-2, 1e-2),
       n=st.integers(1, 50))
def test_array_steps_are_the_scalar_steps(kdk, fc, vc, nodes, m, dt, n):
    # the array path updates its own copies in place; every node must
    # still follow its scalar path bit for bit, action included, and the
    # caller's arrays stay as they were
    force = partial(_kernels._horner, np.array(fc))
    potential = None if vc is None else partial(_kernels._horner,
                                                np.array(vc))
    x0 = np.array([x for x, _ in nodes])
    p0 = np.array([p for _, p in nodes])
    x_start, p_start = x0.copy(), p0.copy()
    scalar = [[(x, p, a) for _, x, p, a
               in kdk(force, m, x, p, dt, n, potential)]
              for x, p in nodes]
    for step, x, p, a in kdk(force, m, x0, p0, dt, n, potential):
        assert x.tobytes() == np.array(
            [path[step - 1][0] for path in scalar]).tobytes()
        assert p.tobytes() == np.array(
            [path[step - 1][1] for path in scalar]).tobytes()
        if potential is None:
            assert a is None
        else:
            assert a.tobytes() == np.array(
                [path[step - 1][2] for path in scalar]).tobytes()
    assert x0.tobytes() == x_start.tobytes()
    assert p0.tobytes() == p_start.tobytes()
