"""The reduced closed forms give the same bits on the float and array paths.

`transmission_probability` and `transition_time` raise to a power with the
parameter type's ``_power``, through ``ops.pow``: CPython's float ``**`` for
floats, and ``np.float_power`` for arrays, which calls the same libm
``pow``.  The pinned sweep bytes rest on that, so the array pow is checked
against float ``**`` directly, and each closed form is checked point by
point across the whole exponent range: the array result equals the scalar
calls bit for bit, signed zeros included, and where a scalar call raises,
the array call raises the same type and message.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twostate import DomainError, ReducedParams, transition_time, transmission_probability
from twostate.params import _ARRAY_OPS


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("n", [2, 4])
def test_array_pow_rounds_as_float_pow(n):
    rng = np.random.default_rng(20 + n)
    # every binary exponent whose n-th power is finite, subnormal results
    # and exact zeros included, with both signs and the signed zeros
    exponents = rng.integers(-1074 // n - 4, 1024 // n, size=200_000)
    x = np.ldexp(rng.uniform(1.0, 2.0, exponents.size), exponents)
    x = np.concatenate([x, -x[:1000], [0.0, -0.0]])
    want = np.array([v**n for v in x.tolist()])
    np.testing.assert_array_equal(_bits(_ARRAY_OPS.pow(x, n)), _bits(want))


@pytest.mark.parametrize("n", [2, 4])
def test_power_raises_one_domain_error_on_floats_and_arrays(n):
    with pytest.raises(DomainError) as scalar:
        ReducedParams(0.5, 1.0, 1e200)._power("coupling", n)
    with pytest.raises(DomainError) as array:
        ReducedParams(0.5, 1.0, np.array([1.0, 1e200, 1e300]))._power("coupling", n)
    assert array.value.args == scalar.value.args
    assert str(scalar.value) == (
        f"coupling**{n} overflows at coupling=1e+200; coupling must be at most "
        f"{1.7976931348623157e308 ** (1 / n):.4g}"
    )


# any positive float: a mantissa in [1, 2) times 2**e, subnormals included
POSITIVE = st.builds(
    math.ldexp, st.floats(1.0, 2.0, exclude_max=True), st.integers(-1074, 1023)
)
POINTS = st.tuples(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    POSITIVE,
    st.one_of(st.just(0.0), POSITIVE),
)


def _outcome(form, *fields):
    try:
        return form(ReducedParams(*fields)), None
    except Exception as exc:  # the outcome compared is the type and message
        return None, (type(exc), str(exc))


def _array_outcome(form, points, shared_v):
    eps, v, k0 = map(np.array, zip(*points))
    return _outcome(form, eps, v[:1] if shared_v else v, k0)


@pytest.mark.parametrize("form", [transmission_probability, transition_time])
@settings(max_examples=300, deadline=None)
@given(points=st.lists(POINTS, min_size=1, max_size=8), shared_v=st.booleans())
@example(points=[(0.5, 1e154, 1.0)], shared_v=False)  # 16 V**2 overflows
def test_array_form_equals_scalar_calls(form, points, shared_v):
    if shared_v:  # one V for the whole grid, as a sweep series has
        points = [(eps, points[0][1], k0) for eps, _, k0 in points]
    scalar = [_outcome(form, *point) for point in points]
    good = [point for point, (_, error) in zip(points, scalar) if error is None]
    if good:
        got, error = _array_outcome(form, good, shared_v)
        assert error is None
        want = [value for value, error in scalar if error is None]
        assert all(type(value) is float for value in want)
        np.testing.assert_array_equal(_bits(got), _bits(want))
    errors = {error for _, error in scalar if error is not None}
    for point, (_, error) in zip(points, scalar):
        if error is not None:
            assert _array_outcome(form, [point], False)[1] == error
    if errors:
        # the whole grid reports one of its points as a scalar call does
        assert _array_outcome(form, points, shared_v)[1] in errors
