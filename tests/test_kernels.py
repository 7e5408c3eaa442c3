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
# Stormer-Verlet and the fourth-order composition the pullback steps with
WEIGHTS = pytest.mark.parametrize("weights", [(1.0,), _kernels.SUZUKI],
                                  ids=["verlet", "suzuki"])


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


@WEIGHTS
@settings(max_examples=60, deadline=None)
@given(fc=st.lists(unit, min_size=1, max_size=4), x0=unit, p0=unit,
       dt=st.floats(1e-4, 1e-2), n=st.integers(1, 100))
def test_stepper_retraces_its_path_backward(weights, fc, x0, p0, dt, n):
    # Stormer-Verlet and its palindromic compositions are symmetric: n
    # steps of dt then n steps of -dt return to the start, up to roundoff
    force = partial(_kernels._horner, np.array(fc))
    for _, x, p, _ in _kernels._kdk(force, 1.0, x0, p0, dt, n, weights):
        pass
    for _, x, p, _ in _kernels._kdk(force, 1.0, x, p, -dt, n, weights):
        pass
    assert abs(x - x0) <= 1e-10
    assert abs(p - p0) <= 1e-10


@pytest.mark.parametrize("weights, lo, hi", [((1.0,), 3.0, 5.0),
                                             (_kernels.SUZUKI, 12.0, 20.0)],
                         ids=["verlet", "suzuki"])
def test_stepper_converges_at_its_order(weights, lo, hi):
    # halving dt divides the end-point error by 2^2 for Verlet and by 2^4
    # for the composition, under the anharmonic force of
    # V = 0.3 x^2 + 0.05 x^4
    force = partial(_kernels._horner, np.array([0.0, -0.6, 0.0, -0.2]))

    def terminal(n):
        for _, x, p, _ in _kernels._kdk(force, 1.0, 0.7, -0.3, 5.0 / n, n,
                                        weights):
            pass
        return np.array([x, p])

    ref = terminal(320)
    err1 = np.linalg.norm(terminal(20) - ref)
    err2 = np.linalg.norm(terminal(40) - ref)
    assert lo <= err1 / err2 <= hi


def test_single_characteristic_fan_is_the_verlet_trajectory():
    # one segment of 5000 whole steps of dt_max: the same arithmetic as
    # verlet_path, so the end points agree bit for bit
    fc = np.array([0.0, -0.6, 0.0, -0.2])       # V = 0.3 x^2 + 0.05 x^4
    vc = np.array([0.0, 0.0, 0.3, 0.0, 0.05])
    r, p, escape = _kernels.verlet_path(
        partial(_kernels._horner, fc), 1.0, 0.7, -0.3, 1e-3, 5000, 5000, 1e6)
    assert escape == -1
    x_fan, p_fan, _, t_crossing = _kernels.fan_path(
        fc, vc, 1.0, np.array([0.7]), np.array([-0.3]),
        np.array([0.0, 5.0]), 1e-3)
    assert t_crossing is None
    assert np.array_equal(x_fan[:, 0], r)
    assert np.array_equal(p_fan[:, 0], p)


@WEIGHTS
@settings(max_examples=60, deadline=None)
@given(fc=st.lists(unit, min_size=1, max_size=4),
       nodes=st.lists(st.tuples(unit, unit), min_size=1, max_size=8),
       m=st.floats(0.5, 2.0), dt=st.floats(-1e-2, 1e-2),
       n=st.integers(1, 50))
def test_array_steps_are_the_scalar_steps(weights, fc, nodes, m, dt, n):
    # the array path updates its own copies in place; every node must
    # still follow its scalar path bit for bit, and the caller's arrays
    # stay as they were
    force = partial(_kernels._horner, np.array(fc))
    x0 = np.array([x for x, _ in nodes])
    p0 = np.array([p for _, p in nodes])
    x_start, p_start = x0.copy(), p0.copy()
    scalar = [[(x, p) for _, x, p, _
               in _kernels._kdk(force, m, x, p, dt, n, weights)]
              for x, p in nodes]
    for step, x, p, _ in _kernels._kdk(force, m, x0, p0, dt, n, weights):
        assert x.tobytes() == np.array(
            [path[step - 1][0] for path in scalar]).tobytes()
        assert p.tobytes() == np.array(
            [path[step - 1][1] for path in scalar]).tobytes()
    assert x0.tobytes() == x_start.tobytes()
    assert p0.tobytes() == p_start.tobytes()
