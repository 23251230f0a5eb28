"""The array pow rounds as the float pow, and overflows as one DomainError.

`transmission_probability` and `transition_time` raise to a power with the
parameter type's ``_power``, through ``ops.pow``: CPython's float ``**`` for
floats, and ``np.float_power`` for arrays, which calls the same libm
``pow``.  The pinned sweep bytes rest on that, so the array pow is checked
against float ``**`` directly, signed zeros and subnormal results included.
That each closed form's array result equals its scalar calls bit for bit on
the seeded reduced draw, and raises the scalar call's error, is
``test_library_contract.py::test_reduced_closed_forms``.
"""

import numpy as np
import pytest
from contract_draw import _bits

from twostate import DomainError, ReducedParams
from twostate.params import _ARRAY_OPS


@pytest.mark.parametrize("n", [2, 4])
def test_array_pow_rounds_as_float_pow(n):
    rng = np.random.default_rng(20 + n)
    # every binary exponent whose n-th power is finite, subnormal results
    # and exact zeros included, with both signs and the signed zeros
    exponents = rng.integers(-1074 // n - 4, 1024 // n, size=200_000)
    x = np.ldexp(rng.uniform(1.0, 2.0, exponents.size), exponents)
    x = np.concatenate([x, -x[:1000], [0.0, -0.0]])
    want = np.array([v**n for v in x.tolist()])
    assert _bits(_ARRAY_OPS.pow(x, n)) == _bits(want)


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

