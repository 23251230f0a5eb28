"""No CLI input reaches a traceback: every run exits 0, or 2 with one line.

``cli.main`` catches only typed failures: ValueError (DomainError among
them), OSError, RunGuardError and MemoryError, and every ``name = value``
line a run prints must hold a finite number, so a silent inf or NaN fails
the test too.  Each subcommand
is driven with its numeric options drawn over the whole finite float
range, each one given as a flag or as a config-file value (where a JSON
integer may be far beyond the float range), so an OverflowError, a
ZeroDivisionError or a TypeError from arithmetic escapes ``main`` and
fails the test, as does a numpy RuntimeWarning, which the test settings
turn into an error.

The wave packet's step builder ``wavepacket.splu`` is replaced by a stub
that raises a RunGuardError sentinel, so no run starts; everything the
wavepacket command checks before the step still runs.  ``--points``, ``--steps`` and ``--count`` are capped at their
documented defaults, so no example allocates a large array.
"""

import json
import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from twostate import cli, sweep, wavepacket
from twostate.params import RunGuardError

def _number(default: float):
    """A finite float (hypothesis's own mix of edge values included), or the
    default times a power of two, so that most draws pass the first checks
    and reach the arithmetic behind them."""
    return st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                     st.integers(-1074, 1023).map(lambda e: default * 2.0**e))


def _numbers(default: float):
    return st.lists(_number(default), min_size=1, max_size=3)


def _model(energy: float) -> dict:
    return {"energy": _number(energy), "potential": _number(1.0),
            "coupling": _number(1.0), "mass": _number(0.5), "hbar": _number(1.0)}


SWEEP = {
    "potential": _number(sweep.DEFAULT_POTENTIAL),
    "from": _number(0.5),
    "to": _number(0.5),
    "count": st.integers(max_value=sweep.DEFAULT_COUNT),
    "margin": _number(1e-4),
    "format": st.sampled_from(["csv", "svg", "both"]),
}
SWEEP_SERIES = {  # the series options of each kind of sweep
    "epsilon": {"epsilon": _numbers(0.25)},
    "coupling_sq": {"coupling": _numbers(1.0), "coupling_sq": _numbers(4.0)},
}
GREENS = {"x1": _number(1.0), "x2": _number(1.0), **_model(0.5)}
WAVEPACKET = {
    **_model(0.25),
    "width": _number(1e-3),
    "sigma": _number(60.0),
    "x0": _number(-300.0),
    "half_domain": _number(720.0),
    "points": st.integers(max_value=8193),
    "dt": _number(0.5),
    "steps": st.integers(max_value=1380),
    "stride": st.integers(),
}


def _stub_splu(*args):
    raise RunGuardError("factorization reached")


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    # a cached free-run time would be read and kept under the stub: clear it
    wavepacket._free_arrival.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wavepacket, "splu", _stub_splu)
        yield tmp_path_factory.mktemp("contract")
    wavepacket._free_arrival.cache_clear()


@st.composite
def _call(draw, options: dict) -> tuple[list[str], dict]:
    """A drawn subset of ``options`` as ``--name=value`` flags and as
    config-file values; the rest take their defaults."""
    names = draw(st.lists(st.sampled_from(sorted(options)), unique=True))
    flags, config = [], {}
    for name in names:
        value = draw(options[name])
        if draw(st.booleans()):
            if isinstance(value, float) and draw(st.booleans()):
                # a JSON integer of any size is a number to the config reader
                value = draw(st.integers(min_value=2**1024)) * (1 if value >= 0 else -1)
            config[name] = value
        else:
            text = ",".join(map(repr, value)) if isinstance(value, list) else value
            flags.append(f"--{name.replace('_', '-')}={text}")
    return flags, config


def _check(command: list[str], call, out_dir, capsys) -> None:
    """Run ``command`` with the call's flags and config file: exit 0 with
    nothing on stderr, or 2 with one ``error:`` line, and in either case
    every ``name = value`` printed is a finite number."""
    flags, config = call
    path = out_dir / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    argv = [*command, *flags, f"--config={path}"]
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    if rc == 0:
        assert err == ""
    else:
        assert rc == 2, (argv, rc, err)
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
    for line in out.splitlines():
        if " = " in line:
            assert math.isfinite(float(line.partition(" = ")[2])), (argv, out)


CONTRACT = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@CONTRACT
@given(data=st.data(), quantity=st.sampled_from(sweep.QUANTITIES))
def test_sweep_options(data, quantity, out_dir, capsys):
    series = SWEEP_SERIES[sweep.QUANTITY_ROWS[quantity].series]
    command = ["sweep", quantity, f"--out={out_dir / 'sweep'}"]
    _check(command, data.draw(_call({**SWEEP, **series})), out_dir, capsys)


@CONTRACT
@given(call=_call(GREENS))
# k0**2 and G are finite, their product is not
@example(call=(["--coupling=1e150", "--hbar=1e-150"], {}))
# 2 m (V - E) overflows, so kappa is inf, yet G at x1 = x2 is finite
@example(call=(["--energy=0.25", "--potential=4.49423283715579e307", "--mass=2"], {}))
def test_greens_options(call, out_dir, capsys):
    _check(["greens"], call, out_dir, capsys)


@CONTRACT
@given(call=_call(WAVEPACKET))
def test_wavepacket_options(call, out_dir, capsys):
    _check(["wavepacket"], call, out_dir, capsys)
