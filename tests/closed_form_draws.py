"""Parameter draws, result helpers and the two shared closed-form draws.

One hypothesis draw per parameter type, ``model_failures`` and
``reduced_failures``, runs once per test session, on the first call, and
calls every closed form of that type on each example.  The CLI contract test
(``test_cli_contract.py``) reaches the closed forms only through the CLI,
which never calls ``group_delays`` or ``solve_amplitudes`` with a general
mass and hbar.  Here each example is a short list of points, each field over
the whole finite float range, with up to two fields set to NaN or an
infinity, and numpy's RuntimeWarnings are errors by the test settings.  Each
example asserts, for every form:

- a call returns finite fields (the one documented exception:
  ``reflection_phase`` is NaN at k0 = 0) or raises a DomainError
  (``DegenerateCouplingError`` among them); an OverflowError, a
  ZeroDivisionError, a warning, an inf or a NaN fails the form;
- one array call over the points where every float call returns gives what
  those float calls give: within 1e-15 relative for the model forms, as
  numpy's exp, arctan and complex division may round differently from
  libm's and CPython's, and bit for bit, signed zeros included, for the
  reduced forms, whose powers go through ``ops.pow`` (libm ``pow`` on both
  paths; the pinned sweep bytes rest on that);
- a one-point array at a point whose float call raises raises the same
  type and message, and the array call over all points raises one of the
  errors its float calls raise;

and, once per example, that the array constructor raises the scalar
constructor's error at the first point that has one, so a later point
failing an earlier rule does not change the message.

The Green's function is called with x1 and x2 as a column, so that its
value has a larger shape than the fields.

A failure does not stop the draw: each check (a form's name, or
``"constructor"``) keeps the first example that fails it, once as a
``"contract"`` failure and once as a ``"mismatch"`` (the float and array
paths disagree), and ``assert_passed`` reports it, unshrunk, from the test
that owns that check.  ``test_library_contract.py`` owns each form,
``test_pow_parity.py`` the reduced forms' mismatches, and ``test_arrays.py``
the constructor.  ``test_cli_contract.py`` draws the CLI's numeric options
from ``_number``; ``test_pow_parity.py`` and ``test_arrays.py`` also compare
results with ``_bits`` and ``_rel``.
"""

import dataclasses
import functools
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twostate import greens, params, scatter, times
from twostate.params import DomainError, ModelParams, ReducedParams

# any finite float, hypothesis's own mix of edge values included
FINITE = st.floats(allow_nan=False, allow_infinity=False)

# any positive float: a mantissa in [1, 2) times 2**e, subnormals included
POSITIVE = st.builds(
    math.ldexp, st.floats(1.0, 2.0, exclude_max=True), st.integers(-1074, 1023)
)


def _number(default: float):
    """A finite float, or the default times a power of two, so that most
    draws pass the first checks and reach the arithmetic behind them."""
    return st.one_of(FINITE, st.integers(-1074, 1023).map(lambda e: default * 2.0**e))


MODEL = st.fixed_dictionaries({
    "energy": _number(0.25), "potential": _number(1.0), "coupling": _number(1.0),
    "mass": _number(0.5), "hbar": _number(1.0), "center": _number(1.0),
})
# a point as _number draws it, or one inside the domain with every field
# of any mantissa: across the whole exponent range, or on the sweeps' scale,
# where k0**4 and 16 V**2 eps (1 - eps) are alike and so the last bit of
# each reaches |T|**2
EPSILON = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
SCALE = st.floats(0.0, 10.0, exclude_min=True)
REDUCED = st.one_of(
    st.fixed_dictionaries({
        "epsilon": _number(0.25), "potential": _number(1.0), "coupling": _number(1.0),
    }),
    st.fixed_dictionaries({
        "epsilon": EPSILON, "potential": POSITIVE, "coupling": st.one_of(st.just(0.0), POSITIVE),
    }),
    st.fixed_dictionaries({"epsilon": EPSILON, "potential": SCALE, "coupling": SCALE}),
)


def _holes(names) -> st.SearchStrategy:
    """Up to two (point, field, value) entries that set a field of a drawn
    point to NaN or an infinity; the point index is taken modulo the count."""
    return st.lists(st.tuples(st.integers(0, 7), st.sampled_from(names),
                              st.sampled_from([math.nan, math.inf, -math.inf])), max_size=2)


# each closed form of the model parameters, called with the positions x1
# and x2 that only the Green's function reads
MODEL_FORMS = {
    "wave_numbers": lambda p, x1, x2: params.wave_numbers(p),
    "solve_amplitudes": lambda p, x1, x2: scatter.solve_amplitudes(p),
    "scattering_phases": lambda p, x1, x2: scatter.scattering_phases(p),
    "group_delays": lambda p, x1, x2: times.group_delays(p),
    "time_taxonomy": lambda p, x1, x2: times.time_taxonomy(p),
    "greens_constant": lambda p, x1, x2: greens.greens_constant(x1, x2, p),
    "effective_strength": lambda p, x1, x2: greens.effective_strength(p),
}
REDUCED_FORMS = {
    "transition_time": times.transition_time,
    "transmission_probability": scatter.transmission_probability,
}


def _fields(value) -> dict:
    """The named float or complex fields of a closed form's result."""
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    if isinstance(value, tuple):
        return dict(enumerate(value))
    return {"value": value}


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


def _outcome(call, *args, **kwargs):
    """(call(*args, **kwargs), None), or (None, (type, message)) of the
    DomainError it raises; any other exception propagates."""
    try:
        return call(*args, **kwargs), None
    except DomainError as exc:
        return None, (type(exc), str(exc))


def _rel(got, want) -> float:
    return abs(got - want) / abs(want) if want else abs(got)


class Mismatch(AssertionError):
    """The array path disagrees with the float path."""


def _agree(ok: bool, *context) -> None:
    if not ok:
        raise Mismatch(*context)


def _points(points: list, holes: list) -> list:
    """Copies of the drawn points with the holes' fields set."""
    points = [dict(point) for point in points]
    for at, name, value in holes:
        points[at % len(points)][name] = value
    return points


def _columns(points: list) -> dict:
    """The points as one array per field."""
    return {name: np.array([point[name] for point in points]) for name in points[0]}


def _call(form, cls, fields: dict, *args):
    """The fields of ``form(cls(**fields), *args)`` and None, or None and the
    (type, message) of the DomainError that construction or the form raises;
    any other exception fails the check, and the fields must be finite."""
    p, error = _outcome(cls, **fields)
    if error is None:
        result, error = _outcome(form, p, *args)
    if error is not None:
        return None, error
    result = _fields(result)
    for name, value in result.items():
        finite = np.isfinite(value)
        if name == "reflection_phase":  # NaN, by design, where k0 = 0
            finite |= np.broadcast_to(p.coupling == 0.0, np.shape(finite))
        assert np.all(finite), (name, value, fields)
    return result, None


def _close(got: complex, want: complex) -> bool:
    """Equal, or within 1e-15 relative (about 4 ulp) in each component, or
    both NaN."""
    return all(g == w or abs(g - w) <= 1e-15 * abs(w) or (math.isnan(g) and math.isnan(w))
               for g, w in ((got.real, want.real), (got.imag, want.imag)))


def _check(form, cls, points: list, grid, positions=((),), exact=False) -> None:
    """``form`` at each point and position on floats, then as arrays, with
    the points' fields as ``grid`` makes them of a list of points and the
    positions as columns, so that the value has shape (positions, points)."""
    columns = [np.array(x)[:, None] for x in zip(*positions)]
    # one[j][i]: the float call at point j and position i
    one = [[_call(form, cls, point, *at) for at in positions] for point in points]
    fine = [all(error is None for _, error in row) for row in one]
    good = [row for row, ok in zip(one, fine) if ok]
    if good:
        both, error = _call(form, cls, grid([p for p, ok in zip(points, fine) if ok]), *columns)
        _agree(error is None, error, points)
        for name, value in both.items():
            value = np.broadcast_to(value, (len(positions), len(good)))
            for j, row in enumerate(good):
                for i, (want, _) in enumerate(row):
                    if exact:
                        _agree(type(want[name]) is float, name, want[name], points)
                        _agree(_bits(value[i, j]) == _bits(want[name]), name, points)
                    else:
                        got, want = complex(value[i, j]), complex(want[name])
                        _agree(_close(got, want), name, got, want, points)
    for point, row in zip(points, one):
        for at, (_, error) in zip(positions, row):
            if error is not None:
                alone = _call(form, cls, _columns([point]), *(np.array([[x]]) for x in at))
                _agree(alone[1] == error, alone[1], error, point, at)
    if not all(fine):
        errors = {error for row in one for _, error in row if error is not None}
        _agree(_call(form, cls, grid(points), *columns)[1] in errors, points)


def _first_error(cls, points: list, grid: dict) -> None:
    """The array constructor raises the error of the first point whose
    scalar constructor raises, at that point alone and over the grid."""
    errors = [_outcome(cls, **point)[1] for point in points]
    for point, error in zip(points, errors):
        if error is not None:
            _agree(_outcome(cls, **_columns([point]))[1] == error, point)
    _agree(_outcome(cls, **grid)[1] == next((e for e in errors if e is not None), None), points)


def _constructs(cls, point: dict) -> bool:
    try:
        cls(**point)
    except Exception:  # a DomainError, or a failure the constructor check records
        return False
    return True


def _judge(failures: dict, key: str, drawn: dict, check, *args, **kwargs) -> None:
    """Run ``check(*args, **kwargs)`` and keep, under (key, kind), the first drawn
    example at which it fails, with its exception: kind "mismatch" where
    the float and array paths disagree, else "contract"."""
    if (key, "contract") in failures and (key, "mismatch") in failures:
        return
    try:
        check(*args, **kwargs)
    except Exception as exc:
        failures.setdefault((key, "mismatch" if isinstance(exc, Mismatch) else "contract"),
                            (drawn, exc))


def assert_passed(failures: dict, key: str, kinds=("contract", "mismatch")) -> None:
    """Fail with the first drawn example at which check ``key`` failed."""
    for kind in kinds:
        if (key, kind) in failures:
            drawn, exc = failures[key, kind]
            raise AssertionError(f"{key}: {kind} failure at {drawn}") from exc


CONTRACT = settings(max_examples=400, deadline=None, derandomize=True)
MODEL_FAILURES: dict = {}
REDUCED_FAILURES: dict = {}

DEFAULT = {"energy": 0.25, "potential": 1.0, "coupling": 1.0, "mass": 0.5, "hbar": 1.0,
           "center": 0.0}


def _point(energy, potential, coupling, mass=0.5, hbar=1.0):
    return {**DEFAULT, "energy": energy, "potential": potential, "coupling": coupling,
            "mass": mass, "hbar": hbar}


@CONTRACT
@given(points=st.lists(MODEL, min_size=2, max_size=3), holes=_holes(ModelParams.__match_args__),
       positions=st.lists(st.tuples(_number(1.0), _number(1.0)), min_size=1, max_size=2))
# numerator and denominator of the delay both underflow to 0
@example(points=[_point(6.110217636905391e-64, 5.901476869729932e-63, 2.211353215042252e-270,
                        mass=3.9638958482868515e-180, hbar=2.9720066382313664e-99), DEFAULT],
         holes=[], positions=[(0.0, -0.0)])
# numerator and denominator of the delay both overflow
@example(points=[_point(3.3881176012719845e277, 6.413762747233867e277, 3.928387707325421e26,
                        mass=2.0673576620345306e17), DEFAULT], holes=[], positions=[(0.0, -0.0)])
# 2 m overflows, though k is 7.07e153
@example(points=[_point(0.25, 1.0, 1.0, mass=1e308), DEFAULT], holes=[], positions=[(0.0, -0.0)])
# k is 2.4e384, beyond the float range
@example(points=[_point(2.866409686187577e188, 3.5027426300836074e188, 4.693813821417284e-169,
                        hbar=7.108416342810307e-291), DEFAULT], holes=[], positions=[(0.0, -0.0)])
# G overflows at the first point, on a grid whose x1 adds an axis
@example(points=[_point(0.0, 5e-324, 1.0, hbar=1e-154), _point(0.0, 1.0, 1.0, hbar=1e-154)],
         holes=[], positions=[(0.0, 0.0), (1.0, 0.0)])
def _model_draw(points, holes, positions):
    drawn = {"points": points, "holes": holes, "positions": positions}
    points = _points(points, holes)
    _judge(MODEL_FAILURES, "constructor", drawn, _first_error, ModelParams, points,
           _columns(points))
    valid = [point for point in points if _constructs(ModelParams, point)]
    for name, form in MODEL_FORMS.items():
        if valid:
            _judge(MODEL_FAILURES, name, drawn, _check, form, ModelParams, valid, _columns,
                   positions)


@CONTRACT
@given(points=st.lists(REDUCED, min_size=1, max_size=8), shared_v=st.booleans(),
       holes=_holes(ReducedParams.__match_args__))
@example(points=[{"epsilon": 0.5, "potential": 1e154, "coupling": 1.0}], shared_v=False,
         holes=[])  # 16 V**2 overflows
def _reduced_draw(points, shared_v, holes):
    drawn = {"points": points, "shared_v": shared_v, "holes": holes}
    points = _points(points, holes)
    if shared_v:  # one V for the whole grid, as a sweep series has
        points = [{**point, "potential": points[0]["potential"]} for point in points]

    def grid(subset: list) -> dict:
        columns = _columns(subset)
        if shared_v:
            columns["potential"] = columns["potential"][:1]
        return columns

    _judge(REDUCED_FAILURES, "constructor", drawn, _first_error, ReducedParams, points,
           grid(points))
    valid = [point for point in points if _constructs(ReducedParams, point)]
    for name, form in REDUCED_FORMS.items():
        if valid:
            _judge(REDUCED_FAILURES, name, drawn, _check, form, ReducedParams, valid, grid,
                   exact=True)


@functools.cache
def model_failures() -> dict:
    """The failures of the model draw, which runs on the first call."""
    _model_draw()
    return MODEL_FAILURES


@functools.cache
def reduced_failures() -> dict:
    """The failures of the reduced draw, which runs on the first call."""
    _reduced_draw()
    return REDUCED_FAILURES
