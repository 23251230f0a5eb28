"""Every closed form gives finite fields or one typed DomainError.

The CLI contract test (``test_cli_contract.py``) reaches the closed forms
only through the CLI, which never calls ``group_delays`` or
``solve_amplitudes`` with a general mass and hbar.  Here each public closed
form is called directly, with its parameter fields drawn over the whole
finite float range, on floats and on two-point arrays, with numpy's
RuntimeWarnings turned into errors by the test settings.  A call must
return finite fields (the one documented exception: ``reflection_phase``
is NaN at k0 = 0) or raise a DomainError (``DegenerateCouplingError``
among them); an OverflowError, a ZeroDivisionError, a warning, an inf or a
NaN fails the test.  An array call raises where a float call at one of its
points raises, and otherwise returns what the float calls return, within
1e-15 relative: numpy's exp, arctan and complex division may round
differently from libm's and CPython's.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twostate import greens, params, scatter, times
from twostate.params import DomainError, ModelParams, ReducedParams

# any finite float, hypothesis's own mix of edge values included
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _number(default: float):
    """A finite float, or the default times a power of two, as in
    ``test_cli_contract.py``, so that most draws pass validation."""
    return st.one_of(FINITE, st.integers(-1074, 1023).map(lambda e: default * 2.0**e))


MODEL = st.fixed_dictionaries({
    "energy": _number(0.25), "potential": _number(1.0), "coupling": _number(1.0),
    "mass": _number(0.5), "hbar": _number(1.0), "center": _number(1.0),
})
REDUCED = st.fixed_dictionaries({
    "epsilon": _number(0.25), "potential": _number(1.0), "coupling": _number(1.0),
})

MODEL_FORMS = {
    "wave_numbers": params.wave_numbers,
    "solve_amplitudes": scatter.solve_amplitudes,
    "scattering_phases": scatter.scattering_phases,
    "group_delays": times.group_delays,
    "time_taxonomy": times.time_taxonomy,
    "greens_constant": lambda p: greens.greens_constant(p.center, -p.center, p),
    "effective_strength": greens.effective_strength,
}
REDUCED_FORMS = {
    "transition_time": times.transition_time,
    "transmission_probability": scatter.transmission_probability,
}

CONTRACT = settings(max_examples=400, deadline=None, derandomize=True)


def _fields(value) -> dict:
    """The named float or complex fields of a closed form's result."""
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    if isinstance(value, tuple):
        return dict(enumerate(value))
    return {"value": value}


def _call(form, fields: dict):
    """The form's fields at parameters ``fields``, or None where the
    parameters are invalid or the form raises a DomainError."""
    cls = ReducedParams if "epsilon" in fields else ModelParams
    try:
        p = cls(**fields)
        result = _fields(form(p))
    except DomainError:
        return None
    for name, value in result.items():
        finite = np.isfinite(value)
        if name == "reflection_phase":  # NaN, by design, where k0 = 0
            finite |= np.broadcast_to(p.coupling == 0.0, np.shape(finite))
        assert np.all(finite), (name, value, fields)
    return result


def _close(got, want) -> bool:
    """Equal, or within 1e-15 relative (about 4 ulp) in each component."""
    return all(g == w or abs(g - w) <= 1e-15 * abs(w)
               for g, w in ((got.real, want.real), (got.imag, want.imag)))


def _check(form, first: dict, second: dict) -> None:
    """Floats at each point, then the two points as one array call."""
    one = [_call(form, point) for point in (first, second)]
    both = _call(form, {name: np.array([first[name], second[name]]) for name in first})
    if None in one:
        assert both is None, (first, second)
        return
    assert both is not None, (first, second)
    for name, value in both.items():
        for at, point in enumerate(one):
            got, want = complex(np.broadcast_to(value, (2,))[at]), complex(point[name])
            assert _close(got, want) or (math.isnan(got.real) and math.isnan(want.real)), (
                name, got, want, first, second)


DEFAULT = {"energy": 0.25, "potential": 1.0, "coupling": 1.0, "mass": 0.5, "hbar": 1.0,
           "center": 0.0}


def _point(energy, potential, coupling, mass=0.5, hbar=1.0):
    return {**DEFAULT, "energy": energy, "potential": potential, "coupling": coupling,
            "mass": mass, "hbar": hbar}


@pytest.mark.parametrize("name", sorted(MODEL_FORMS))
@CONTRACT
@given(first=MODEL, second=MODEL)
# numerator and denominator of the delay both underflow to 0
@example(first=_point(6.110217636905391e-64, 5.901476869729932e-63, 2.211353215042252e-270,
                      mass=3.9638958482868515e-180, hbar=2.9720066382313664e-99),
         second=DEFAULT)
# numerator and denominator of the delay both overflow
@example(first=_point(3.3881176012719845e277, 6.413762747233867e277, 3.928387707325421e26,
                      mass=2.0673576620345306e17), second=DEFAULT)
# 2 m overflows, though k is 7.07e153
@example(first=_point(0.25, 1.0, 1.0, mass=1e308), second=DEFAULT)
# k is 2.4e384, beyond the float range
@example(first=_point(2.866409686187577e188, 3.5027426300836074e188, 4.693813821417284e-169,
                      hbar=7.108416342810307e-291), second=DEFAULT)
def test_model_closed_forms(name, first, second):
    _check(MODEL_FORMS[name], first, second)


@pytest.mark.parametrize("name", sorted(REDUCED_FORMS))
@CONTRACT
@given(first=REDUCED, second=REDUCED)
def test_reduced_closed_forms(name, first, second):
    _check(REDUCED_FORMS[name], first, second)
