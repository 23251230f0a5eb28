"""The suite's seeded draws, the library contract's checks, and the result
helpers the tests share.

One seeded numpy generator draws every point once per session, so every job
and test order sees the same points.  A field is a signed log-uniform
magnitude (subnormals included), a signed edge value (0, 5e-324, the
smallest normal, the largest float) or its default times 2**e; or the point
lies inside the domain, its magnitudes over the whole exponent range or on
the sweeps' scale.  Up to two fields or positions of an example are NaN or
an infinity.  Each field, and each of the Green's function's positions, is
a float, a 0-d array, a one-point array or a column over the example's
points (a column of positions adds an axis): one shape for all, or one each.

Of the points that construct, each closed form gives finite fields
(``reflection_phase`` is NaN at k0 = 0 by design) or a DomainError, with
warnings as errors; the shaped call over the points whose float calls
return gives their values, within 1e-15 in each component for the model
forms (numpy's arctan and complex division round otherwise than libm's and
CPython's) and bit for bit, as floats, for the reduced forms; a one-point
array raises the float call's error, and the shaped call over every point
one of the float calls' errors.  A constructor raises the scalar error of
the first bad point.  Each entry of ``ONE_CONFIGURATION`` gives a finite
value or its typed error on floats, the same bits or error with float and
0-d fields mixed, and a DomainError on one-point arrays;
``greens_grid_extrapolated`` is within 1e-8 of ``greens_constant``.

The suite's other property tests draw from the same seeded generator, once
per session too, and fail through ``first_breach`` at the first drawn input
that breaks them:

- ``cli_calls``: 300 calls of each CLI subcommand (``test_cli_contract``),
  after two fixed ``greens`` calls; floats from ``_value``, integers from
  below -2**63 up to the option's largest value (beyond 2**63 for
  ``--stride``, which has none), each option a ``--name=value`` flag, a
  ``--name value`` flag or a config value (at times a JSON integer beyond
  2**1024 for a float);
- ``sweep_specs``: 200 sweep specs over the sweeps' ranges
  (``test_sweep_arrays``);
- ``step_draws``: a fixed row and 60 sizes, hoppings, time steps and seeds
  for the wave packet's free step (``test_wavepacket``).
"""

import dataclasses
import functools
import math
import sys
import warnings

import numpy as np

from twostate import DomainError, GridSpec, ModelParams, PacketSpec, RunGuardError
from twostate import greens, oracle, params, propagate, scatter, sweep, times

SEED = 24
EDGES = (0.0, 5e-324, sys.float_info.min, sys.float_info.max)  # each with either sign
HOLES = (math.nan, math.inf, -math.inf)
SHAPES = ("float", "0-d", "one-point", "column")
MODEL = {"energy": 0.25, "potential": 1.0, "coupling": 1.0, "mass": 0.5, "hbar": 1.0,
         "center": 1.0}
REDUCED = {"epsilon": 0.25, "potential": 1.0, "coupling": 1.0}


def _bits(value):
    """Every bit of a result: dataclass fields and tuple items in turn, and
    the shape, dtype and bytes of each number or array."""
    if dataclasses.is_dataclass(value):
        return [(f.name, _bits(getattr(value, f.name))) for f in dataclasses.fields(value)]
    if isinstance(value, tuple):
        return [_bits(v) for v in value]
    array = np.asarray(value)
    return array.shape, array.dtype.str, array.tobytes()


def _rel(got, want) -> float:
    return abs(got - want) / abs(want) if want else abs(got)


def _outcome(call, *args, **kwargs):
    """(call(*args, **kwargs), None), or (None, the exception it raised),
    a warning included."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call(*args, **kwargs), None
        except Exception as exc:
            return None, exc


def _key(exc):
    return None if exc is None else (type(exc), str(exc))


def _typed(exc, allowed=DomainError) -> None:
    if exc is not None and not isinstance(exc, allowed):
        raise AssertionError(f"untyped {type(exc).__name__}: {exc}") from exc


def _finite(value) -> bool:
    """Every number of a result is finite; convergence_study's order may be
    its documented +inf where every error sits below 1e-12."""
    if isinstance(value, oracle.ConvergenceReport) and max(value.errors) < 1e-12:
        value = value.errors
    if dataclasses.is_dataclass(value):
        value = tuple(getattr(value, f.name) for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return all(map(_finite, value))
    return bool(np.isfinite(value).all())


def _magnitude(rng) -> float:
    return math.ldexp(rng.uniform(1.0, 2.0), int(rng.integers(-1074, 1024)))


def _value(rng, default: float) -> float:
    """A signed magnitude, a signed edge value, or ``default`` times 2**e."""
    sign, pick = (-1.0, 1.0)[rng.integers(2)], rng.integers(3)
    if pick < 2:
        return sign * (_magnitude(rng) if pick == 0 else EDGES[rng.integers(len(EDGES))])
    return math.ldexp(default, int(rng.integers(-1074, 1024 - math.frexp(default)[1])))


def _model_point(rng, arm: int) -> dict:
    """Each field from ``_value``; or E = eps V, eps in [0, 1), with V, k0, m
    and hbar log-uniform; or V and k0 in (0, 10], m and hbar their defaults
    times 2**e, |e| <= 4, and the centre in [-50, 50)."""
    if arm == 0:
        return {name: _value(rng, d) for name, d in MODEL.items()}
    if arm == 1:
        v, k0, mass, hbar = (_magnitude(rng) for _ in range(4))
        center = _value(rng, 1.0)
    else:
        v, k0 = 10.0 - rng.uniform(0.0, 10.0, 2)
        mass, hbar = np.ldexp([0.5, 1.0], rng.integers(-4, 5, 2))
        center = rng.uniform(-50.0, 50.0)
    return {"energy": rng.uniform() * v, "potential": float(v), "coupling": float(k0),
            "mass": float(mass), "hbar": float(hbar), "center": center}


def _reduced_point(rng, arm: int) -> dict:
    """Each field from ``_value``; or eps in [0, 1) with V and k0
    log-uniform, k0 = 0 at times; or V and k0 in (0, 10]."""
    if arm == 0:
        return {name: _value(rng, d) for name, d in REDUCED.items()}
    if arm == 1:
        k0 = 0.0 if rng.integers(4) == 0 else _magnitude(rng)
        return {"epsilon": rng.uniform(), "potential": _magnitude(rng), "coupling": k0}
    v, k0 = 10.0 - rng.uniform(0.0, 10.0, 2)
    return {"epsilon": rng.uniform(), "potential": float(v), "coupling": float(k0)}


def _holes(rng, rows: list) -> None:
    """Set up to two fields of the rows to NaN or an infinity."""
    for _ in range(rng.integers(3)):
        row = rows[rng.integers(len(rows))]
        row[sorted(row)[rng.integers(len(row))]] = HOLES[rng.integers(len(HOLES))]


def _shapes(rng, names) -> dict:
    if rng.integers(2):
        return dict.fromkeys(names, SHAPES[rng.integers(len(SHAPES))])
    return {name: SHAPES[rng.integers(len(SHAPES))] for name in names}


@dataclasses.dataclass(frozen=True)
class Example:
    """Points (dicts of floats) and each field's shape, and so for the
    positions (x1 and x2).  A field that is not a column has the first
    point's value at every point; with no column, only the first point is."""

    points: list
    shapes: dict
    positions: list = ({},)
    position_shapes: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        for name, shapes in (("points", self.shapes), ("positions", self.position_shapes)):
            rows = getattr(self, name)[:None if "column" in shapes.values() else 1]
            shared = {key: rows[0][key] for key, shape in shapes.items() if shape != "column"}
            object.__setattr__(self, name, [{**row, **shared} for row in rows])

    def fields(self, indices=None) -> dict:
        """The fields of the points at ``indices``, all by default, shaped."""
        rows = self.points if indices is None else [self.points[i] for i in indices]
        return _shaped(rows, self.shapes, (-1,))

    def at(self) -> tuple:
        return tuple(_shaped(self.positions, self.position_shapes, (-1, 1)).values())


def _shaped(rows: list, shapes: dict, column: tuple) -> dict:
    first = rows[0]
    return {name: {"float": first[name], "0-d": np.array(first[name]),
                   "one-point": np.array([first[name]]),
                   "column": np.array([row[name] for row in rows]).reshape(column)}[shape]
            for name, shape in shapes.items()}


def _point(energy, potential, coupling, mass=0.5, hbar=1.0) -> dict:
    return dict(zip(MODEL, (energy, potential, coupling, mass, hbar, 0.0)))


def _fixed(points, positions=((0.0, -0.0),)) -> Example:
    """An example with every field and position a column."""
    return Example(points, dict.fromkeys(MODEL, "column"),
                   [{"x1": x1, "x2": x2} for x1, x2 in positions],
                   dict.fromkeys(("x1", "x2"), "column"))


@functools.cache
def model_examples() -> tuple:
    """The fixed examples, then 400 of two or three points from
    ``_model_point``'s arms and one or two positions, each from ``_value``
    or in [-50, 50)."""
    rng = np.random.default_rng([SEED, 1])
    examples = []
    for _ in range(400):
        points = [_model_point(rng, rng.integers(3)) for _ in range(rng.integers(2, 4))]
        positions = [{x: _value(rng, 1.0) if rng.integers(2) else rng.uniform(-50.0, 50.0)
                      for x in ("x1", "x2")} for _ in range(rng.integers(1, 3))]
        _holes(rng, points + positions)
        examples.append(Example(points, _shapes(rng, MODEL), positions,
                                _shapes(rng, ("x1", "x2"))))
    default = _point(0.25, 1.0, 1.0)
    return (
        # numerator and denominator of the delay both underflow to 0
        _fixed([_point(6.110217636905391e-64, 5.901476869729932e-63, 2.211353215042252e-270,
                       3.9638958482868515e-180, 2.9720066382313664e-99), default]),
        # numerator and denominator of the delay both overflow
        _fixed([_point(3.3881176012719845e277, 6.413762747233867e277, 3.928387707325421e26,
                       2.0673576620345306e17), default]),
        # 2 m overflows, though k is 7.07e153
        _fixed([_point(0.25, 1.0, 1.0, 1e308), default]),
        # k is 2.4e384, beyond the float range
        _fixed([_point(2.866409686187577e188, 3.5027426300836074e188, 4.693813821417284e-169,
                       hbar=7.108416342810307e-291), default]),
        # G overflows at the first point, on a grid whose x1 adds an axis
        _fixed([_point(0.0, 5e-324, 1.0, hbar=1e-154), _point(0.0, 1.0, 1.0, hbar=1e-154)],
               positions=((0.0, 0.0), (1.0, 0.0))),
        *examples,
    )


@functools.cache
def reduced_examples() -> tuple:
    """The fixed example, then 400 of one to eight points from
    ``_reduced_point``'s arms; in every fifth, V is one value, a one-point
    array, as a sweep series has it."""
    rng = np.random.default_rng([SEED, 2])
    # 16 V**2 overflows
    examples = [Example([{"epsilon": 0.5, "potential": 1e154, "coupling": 1.0}],
                        dict.fromkeys(REDUCED, "column"))]
    for n in range(400):
        points = [_reduced_point(rng, rng.integers(3)) for _ in range(rng.integers(1, 9))]
        _holes(rng, points)
        shapes = _shapes(rng, REDUCED)
        if n % 5 == 0:
            shapes = {**dict.fromkeys(REDUCED, "column"), "potential": "one-point"}
        examples.append(Example(points, shapes))
    return tuple(examples)


@functools.cache
def one_configuration_points() -> tuple:
    """(floats, mixed) pairs: the fixed points, then 400 points of
    ``_model_point``'s second arm and 200 from ``_value`` with up to two
    holes; the mixed fields are the same values, each a float or a 0-d
    array, one 0-d at least."""
    rng = np.random.default_rng([SEED, 3])
    points = [
        # hbar (phi(E + h) - phi(E - h)) / (2 h) overflows
        _point(1.9938566446344077e-267, 1.1635931281259978e-266, 1.7969363436169433e-57,
               1.3400223185866949e22, 2.199492000287222e95),
        # k = sqrt(2 m E) / hbar rounds to 0, and the dwell time divided by it
        _point(1.3193090264132902e-194, 1.7279379451816654e-193, 2.1954388336148563e278,
               4.3048167390586256e-179, 2.0752540985479053e244),
        # the dwell time, m / (hbar k) times the density integral, overflows
        _point(1.2294858858736341e-78, 1.7433556222271209e-78, 9.89183763426145e-27,
               1.77623194662702e294, 5.190750582440217e263),
        # 20 / max(k, kappa) overflows, so a window piece took 0 panels
        _point(2.830567261865575e-197, 4.409625041587391e-197, 1.557689921567096e194,
               4.3347123555014955e108, 7.676847012116032e263),
    ]
    for n in range(600):
        points.append(_model_point(rng, int(n < 400)))
        if n >= 400:
            _holes(rng, points[-1:])
    pairs = []
    for point in points:
        zero_d = rng.integers(2, size=len(point)).astype(bool)
        zero_d[rng.integers(len(point))] = True
        pairs.append((point, {name: np.array(v) if z else v
                              for (name, v), z in zip(point.items(), zero_d)}))
    return tuple(pairs)


MODEL_FORMS = {
    "wave_numbers": params.wave_numbers,
    "solve_amplitudes": scatter.solve_amplitudes,
    "scattering_phases": scatter.scattering_phases,
    "group_delays": times.group_delays,
    "time_taxonomy": times.time_taxonomy,
    "greens_constant": lambda p, x1, x2: greens.greens_constant(x1, x2, p),
    "effective_strength": greens.effective_strength,
}
REDUCED_FORMS = {
    "transition_time": times.transition_time,
    "transmission_probability": scatter.transmission_probability,
}


def _call(form, cls, fields: dict, *at):
    """The fields of ``form(cls(**fields), *at)``, by name, and None, or None
    and the DomainError that construction or the form raises; any other
    exception fails, and the fields must be finite."""
    p, error = _outcome(cls, **fields)
    if error is None:
        result, error = _outcome(form, p, *at)
    _typed(error)
    if error is not None:
        return None, error
    if dataclasses.is_dataclass(result):
        result = dataclasses.asdict(result)
    result = dict(enumerate(result)) if isinstance(result, tuple) else result
    result = result if isinstance(result, dict) else {"value": result}
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


def _one_point(values: dict, column: tuple) -> dict:
    return {name: np.array(value).reshape(column) for name, value in values.items()}


def closed_form(example: Example, form, cls, exact: bool) -> None:
    """``form`` at each point that constructs and each position on floats,
    then shaped, as the module docstring lists."""
    positions = example.positions if form is MODEL_FORMS["greens_constant"] else [{}]
    at = example.at() if positions[0] else ()
    valid = [j for j, point in enumerate(example.points) if _outcome(cls, **point)[1] is None]
    # one[j]: the float calls at valid point j, one per position
    one = {j: [_call(form, cls, example.points[j], *x.values()) for x in positions]
           for j in valid}
    good = [j for j in valid if all(error is None for _, error in one[j])]
    if good:
        both, error = _call(form, cls, example.fields(good), *at)
        assert error is None, ("the shaped call raised", _key(error))
        for name, value in both.items():
            value = np.broadcast_to(value, (len(positions), len(good)))
            for column, j in enumerate(good):
                for i, (want, _) in enumerate(one[j]):
                    got, want = value[i, column], want[name]
                    if exact:
                        assert type(want) is float and _bits(got) == _bits(want), (name, got, want)
                    else:
                        assert _close(complex(got), complex(want)), (name, got, want)
    errors = {_key(error) for j in valid for _, error in one[j] if error is not None}
    for j in valid:
        for x, (_, error) in zip(positions, one[j]):
            if error is not None:
                alone = _call(form, cls, _one_point(example.points[j], (-1,)),
                              *_one_point(x, (-1, 1)).values())[1]
                assert _key(alone) == _key(error), ("one-point array", _key(alone), _key(error))
    if errors:
        whole = _key(_call(form, cls, example.fields(valid), *at)[1])
        assert whole in errors, ("the shaped call raised none of the float calls' errors", whole)


def constructor(example: Example, cls) -> None:
    """The shaped constructor raises the error of the first point whose
    scalar constructor raises, and a one-point array that point's error."""
    errors = [_outcome(cls, **point)[1] for point in example.points]
    for point, error in zip(example.points, errors):
        _typed(error)
        if error is not None:
            alone = _outcome(cls, **_one_point(point, (-1,)))[1]
            assert _key(alone) == _key(error), ("one-point array", _key(alone), _key(error))
    first = next((e for e in errors if e is not None), None)
    whole = _outcome(cls, **example.fields())[1]
    assert _key(whole) == _key(first), ("shaped", _key(whole), "first point", _key(first))


P = ModelParams(energy=0.25, potential=1.0, coupling=1.0)
PACKET = PacketSpec(center=-100.0, wavenumber=0.5, sigma=20.0)
GRID = GridSpec(half_length=300.0, points=3001, dt=0.4, steps=370)


def splu_stub(*args):
    """``wavepacket.splu`` for ``propagate``'s row, so that only the checks
    before the run run."""
    raise RunGuardError("the run was reached")


ONE_CONFIGURATION = {
    "fd_group_delay": oracle.fd_group_delay,
    "greens_grid": oracle.greens_grid,
    "greens_grid_extrapolated": oracle.greens_grid_extrapolated,
    "solve_regularized": lambda p: oracle.solve_regularized(p, 1e-3),
    "convergence_study": oracle.convergence_study,
    "dwell_time_regularized": lambda p: oracle.dwell_time_regularized(p, 1e-3),
    "dwell_time_window": lambda p: oracle.dwell_time_window(p, 1e-3, 2.0),
    "dwell_time_window_0.5": lambda p: oracle.dwell_time_window(p, 1e-3, 0.5),
    "PacketSpec.for_energy": lambda p: PacketSpec.for_energy(0.25, p, 20.0, -100.0),
    "PacketSpec.central_energy": PACKET.central_energy,
    "propagate": lambda p: propagate(PACKET, p, 1e-3, GRID),
    # these take floats, not parameters: the point's fields
    "extremum_search": lambda p: oracle.extremum_search(p.energy / p.potential, p.potential),
    "PacketSpec": lambda p: PacketSpec(float(p.center), float(p.coupling), float(p.mass)),
    "GridSpec": lambda p: GridSpec(float(p.center), GRID.points, float(p.energy), GRID.steps),
}
TAKES_FLOATS = {"extremum_search", "PacketSpec", "GridSpec"}
# the typed errors beyond DomainError: the specs' and propagate's own checks
# raise ValueError, and propagate's stub RunGuardError
ALLOWED = {"PacketSpec": ValueError, "GridSpec": ValueError,
           "propagate": (ValueError, RunGuardError)}


def configuration(pair, entry: str) -> None:
    """The entry on a point's floats, on its mixed fields and on one-point
    arrays, as the module docstring lists."""
    call = ONE_CONFIGURATION[entry]
    point, mixed = pair
    p, error = _outcome(ModelParams, **point)
    _typed(error)
    if error is None:
        value, error = _outcome(call, p)
        _typed(error, ALLOWED.get(entry, DomainError))
        assert error or _finite(value), ("not finite", value)
        if error is None and entry == "greens_grid_extrapolated":  # where G has a value
            exact, refused = _outcome(greens.greens_constant, p.center, p.center, p)
            _typed(refused)
            assert refused or abs(value - exact) <= 1e-8 * abs(exact), (value, exact)
    want = _key(error) if error else _bits(value)
    if entry not in TAKES_FLOATS:
        got, error = _outcome(lambda: call(ModelParams(**mixed)))
        assert (_key(error) if error else _bits(got)) == want, ("0-d fields", _key(error))
        _, error = _outcome(lambda: call(ModelParams(**_one_point(point, (-1,)))))
        assert isinstance(error, DomainError), ("one-point array", _key(error))


def first_breach(check, examples, *args) -> None:
    """Fail with the first example at which ``check(example, *args)`` fails,
    an escaping exception or exit included."""
    for example in examples:
        try:
            check(example, *args)
        except (Exception, SystemExit) as failure:
            raise AssertionError(f"contract broken at {example}: {failure!r}") from failure


CLI_MODEL = {"potential": 1.0, "coupling": 1.0, "mass": 0.5, "hbar": 1.0}
# each drawn option of each subcommand: a float's default, a list's default
# in a list, an integer's largest value (None: unbounded) or the texts an
# option takes; --points, --steps and --count go no higher than their
# defaults, so no call allocates a large array
CLI_OPTIONS = {
    "sweep": {"potential": sweep.DEFAULT_POTENTIAL, "from": 0.5, "to": 0.5,
              "count": sweep.DEFAULT_COUNT, "margin": 1e-4, "format": ("csv", "svg", "both")},
    "greens": {"x1": 1.0, "x2": 1.0, "energy": 0.5, **CLI_MODEL},
    "wavepacket": {"energy": 0.25, **CLI_MODEL, "width": 1e-3, "sigma": 60.0, "x0": -300.0,
                   "half_domain": 720.0, "points": 8193, "dt": 0.5, "steps": 1380,
                   "stride": None},
}
SWEEP_SERIES = {"epsilon": {"epsilon": [0.25]},
                "coupling_sq": {"coupling": [1.0], "coupling_sq": [4.0]}}


def _offset(rng) -> int:
    """A non-negative integer, log-uniform up to 2**80."""
    return int(math.ldexp(rng.uniform(), int(rng.integers(81))))


def _option(rng, kind):
    """A value for an option of ``CLI_OPTIONS``: from ``_value``, one to
    three of them, an integer at most the largest value, or one of the texts."""
    if isinstance(kind, tuple):
        return kind[rng.integers(len(kind))]
    if isinstance(kind, list):
        return [_value(rng, kind[0]) for _ in range(rng.integers(1, 4))]
    if isinstance(kind, float):
        return _value(rng, kind)
    if kind is None:
        return _offset(rng) * (-1, 1)[rng.integers(2)]
    return kind - _offset(rng)


@functools.cache
def cli_calls(command: str) -> tuple:
    """(argv, config) pairs: the fixed ones, then 300 of a drawn subset of
    the subcommand's options (a sweep's quantity drawn, with its series), in
    drawn order, each a flag spelt ``--name=value`` or ``--name value``, or
    a config value, where a float may be a JSON integer beyond 2**1024;
    the rest take their defaults."""
    rng = np.random.default_rng([SEED, 4, list(CLI_OPTIONS).index(command)])
    calls = {"greens": [
        # k0**2 and G are finite, their product is not
        (["greens", "--coupling=1e150", "--hbar=1e-150"], {}),
        # 2 m (V - E) overflows, so kappa is inf, yet G at x1 = x2 is finite
        (["greens", "--energy=0.25", "--potential=4.49423283715579e307", "--mass=2"], {}),
    ]}.get(command, [])
    for _ in range(300):
        argv, options, config = [command], CLI_OPTIONS[command], {}
        if command == "sweep":
            argv.append(sweep.QUANTITIES[rng.integers(len(sweep.QUANTITIES))])
            options = {**options, **SWEEP_SERIES[sweep.QUANTITY_ROWS[argv[1]].series]}
        for name in rng.permutation(sorted(options))[:rng.integers(len(options) + 1)].tolist():
            value = _option(rng, options[name])
            if rng.integers(2):
                if isinstance(value, float) and rng.integers(2):  # any JSON integer is a number
                    value = (2**1024 + _offset(rng)) * (1 if value >= 0 else -1)
                config[name] = value
            else:
                text = ",".join(map(repr, value)) if isinstance(value, list) else str(value)
                flag = "--" + name.replace("_", "-")
                argv += [f"{flag}={text}"] if rng.integers(2) else [flag, text]
        calls.append((argv, config))
    return tuple(calls)


def _within(rng, low: float, high: float) -> float:
    """``low`` or ``high``, one time in eight each, else uniform between."""
    pick = rng.integers(8)
    return (low, high)[pick] if pick < 2 else float(rng.uniform(low, high))


@functools.cache
def sweep_specs() -> tuple:
    """200 (quantity, series, potential, start, stop, count, margin) rows:
    V in [0.05, 20], one to four series values, eps in [0.01, 0.99] with k0**2
    from [0, 5] to [5.5, 50], or k0**2 in [0, 100] ([1e-3, 100] for tau)
    with eps from [0, 0.45] to [0.55, 1]; 2 to 60 points, margin in
    [1e-6, 0.1]."""
    rng = np.random.default_rng([SEED, 5])
    rows = []
    for _ in range(200):
        quantity = sweep.QUANTITIES[rng.integers(len(sweep.QUANTITIES))]
        coupling = quantity == "tau_vs_coupling"
        low = 0.0 if quantity == "transmission" else 1e-3
        low, high = (0.01, 0.99) if coupling else (low, 100.0)
        series = tuple(_within(rng, low, high) for _ in range(rng.integers(1, 5)))
        start, stop = ((0.0, 5.0), (5.5, 50.0)) if coupling else ((0.0, 0.45), (0.55, 1.0))
        rows.append((quantity, series, _within(rng, 0.05, 20.0), _within(rng, *start),
                     _within(rng, *stop), int(rng.integers(2, 61)), _within(rng, 1e-6, 0.1)))
    return tuple(rows)


@functools.cache
def step_draws() -> tuple:
    """(n, t, dt, seed) rows: the fixed one, then 60 with n in [3, 2048], t
    in [1e-2, 1e6] and dt in [1e-3, 10] log-uniform, and b's seed."""
    rng = np.random.default_rng([SEED, 6])
    # lam t near 4.5e5: the lowest modes' energies 2t - 2t cos(theta) lose
    # 2 eps / theta**2 of their bits there, 4t sin(theta / 2)**2 none
    rows = [(1138, 108812.83556933902, 8.287088054028713, 0)]
    for _ in range(60):
        t, dt = 10.0 ** rng.uniform((-2.0, -3.0), (6.0, 1.0))
        rows.append((int(rng.integers(3, 2049)), float(t), float(dt), int(rng.integers(2**32))))
    return tuple(rows)
