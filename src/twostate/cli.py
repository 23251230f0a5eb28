"""Command-line front end.

Subcommands:

* ``sweep``      emit CSV/SVG parameter sweeps of the closed forms
* ``verify``     run the named oracle checks; exit 1 if any fails
* ``wavepacket`` measure the arrival delay of a narrow-band packet
* ``greens``     evaluate the closed-channel Green's function

An optional JSON config file takes the long flag names as keys (hyphens
or underscores), each value type-checked; explicit flags take precedence
over config values.  Exit codes: 0 success, 1 verification failure, 2
usage, config or domain error (an input whose arithmetic would leave the
float range included), a tripped wave-packet guard, an array too large
for memory, or a dependency that is not installed (one
``error: <command> needs <package>`` line).

Each subcommand imports the modules it alone needs (``checks``, ``oracle``,
``wavepacket``), so that a cold call pays only for its own imports.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple

from . import greens, sweep, times
from .params import ModelParams, ReducedParams, RunGuardError, _as_float, make_reduced

__all__ = ["main"]


def _float_list(text: str) -> tuple[float, ...]:
    vals = tuple(float(tok) for tok in text.split(",") if tok.strip())
    if not vals:
        raise argparse.ArgumentTypeError("expected a comma-separated float list")
    return vals


class _Option(NamedTuple):
    """One ``--name`` flag, also read from the config key ``name``."""

    name: str
    type: Callable[[str], Any]  # parses the flag text
    default: Any = None


# flag type -> the JSON types its config value may have, and their name;
# a list-valued option also takes a bare number, meaning a one-element list
_CONFIG_TYPES = {
    float: ((int, float), "a number"),
    int: (int, "an integer"),
    str: (str, "a string"),
    _float_list: ((int, float), "a number or a list of numbers"),
}

_MODEL_OPTIONS = (
    _Option("potential", float, 1.0),
    _Option("coupling", float, 1.0),
    _Option("mass", float, ModelParams.mass),
    _Option("hbar", float, ModelParams.hbar),
)

# Every option of every subcommand, with its built-in default.  The sweep
# options have none: the quantity's sweep.default_spec gives every field
# that is left unset, the series at the given --potential included.
_OPTIONS: dict[str, tuple[_Option, ...]] = {
    "sweep": (
        _Option("potential", float),
        _Option("epsilon", _float_list),
        _Option("coupling", _float_list),
        _Option("coupling_sq", _float_list),
        _Option("from", float),
        _Option("to", float),
        _Option("count", int),
        _Option("margin", float),
        _Option("out", str),
        _Option("format", str),  # SweepSpec checks it, as it does a config value
    ),
    "verify": (),
    "wavepacket": (
        _Option("energy", float, 0.25),
        *_MODEL_OPTIONS,
        _Option("width", float, 1e-3),
        _Option("sigma", float, 60.0),
        _Option("x0", float, -300.0),
        _Option("half_domain", float, 720.0),
        # odd point count keeps the coupling strip centered on a grid site
        _Option("points", int, 8193),
        _Option("dt", float, 0.5),
        _Option("steps", int, 1380),
        _Option("snapshots", str),
        _Option("stride", int, 50),
    ),
    "greens": (
        _Option("x1", float, ModelParams.center),
        _Option("x2", float, ModelParams.center),
        _Option("energy", float, 0.5),
        *_MODEL_OPTIONS,
    ),
}


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError("config file must contain a JSON object")
    return {str(k).replace("-", "_"): v for k, v in data.items()}


def _config_value(opt: _Option, value):
    types, expected = _CONFIG_TYPES[opt.type]
    listed = opt.type is _float_list and isinstance(value, list)
    items = value if listed else [value]
    if not all(isinstance(v, types) and not isinstance(v, bool) for v in items):
        raise ValueError(f"{opt.name} must be {expected}, got {value!r}")
    try:
        return tuple(map(float, items)) if opt.type is _float_list else opt.type(value)
    except OverflowError:  # an int beyond the float range
        raise ValueError(f"{opt.name} must be {expected} within the float range") from None


def _resolve(args: argparse.Namespace) -> dict:
    """Each option's flag value, else its config value, else its default.

    Every config value of an option is type-checked, also when a flag
    overrides it.  Config keys that are not options of the subcommand are
    ignored, so one file can serve several subcommands.
    """
    opts = dict(vars(args))
    config = _load_config(args.config)
    for opt in _OPTIONS[args.command]:
        if opt.name in config:
            config[opt.name] = _config_value(opt, config[opt.name])
        if opts[opt.name] is None:
            opts[opt.name] = config.get(opt.name, opt.default)
    return opts


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twostate",
        description="Two-channel point-coupling scattering model",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func in (
        ("sweep", "emit a parameter sweep as CSV/SVG", _cmd_sweep),
        ("verify", "run the oracle verification suite", _cmd_verify),
        ("wavepacket", "narrow-band arrival-delay run", _cmd_wavepacket),
        ("greens", "closed-channel Green's function", _cmd_greens),
    ):
        cmd = sub.add_parser(name, help=help_text)
        if name == "sweep":
            cmd.add_argument("quantity", choices=sweep.QUANTITIES)
        for opt in _OPTIONS[name]:
            cmd.add_argument(
                "--" + opt.name.replace("_", "-"),
                dest=opt.name,
                type=opt.type,
                metavar="LIST" if opt.type is _float_list else None,
            )
        cmd.add_argument("--config", type=str)
        cmd.set_defaults(func=func)
    return parser


def _model_params(opts: dict) -> ModelParams:
    fields = ("energy", *(opt.name for opt in _MODEL_OPTIONS))
    return ModelParams(**{name: opts[name] for name in fields})


def _cmd_sweep(opts: dict) -> int:
    if opts["out"] is None:
        raise ValueError("sweep needs an output path (--out)")
    spec = sweep.default_spec(opts["quantity"], opts["out"])
    if opts["coupling"] is not None:
        if "coupling_sq" not in spec.fixed:
            raise ValueError("--coupling gives the coupling_sq series, which sweep "
                             f"{spec.quantity!r} does not take")
        if opts["coupling_sq"] is not None:
            raise ValueError("give either --coupling or --coupling-sq, not both")
        squares = (ReducedParams(0.5, 1.0, v)._power("coupling", 2) for v in opts["coupling"])
        opts["coupling_sq"] = tuple(squares)  # validated and squared as the closed forms do

    def given(*names, **renamed):  # the options set, by field name
        pairs = [*zip(names, names), *renamed.items()]
        return {field: opts[name] for field, name in pairs if opts[name] is not None}

    variable = dataclasses.replace(spec.variable, **given("count", start="from", stop="to"))
    spec = dataclasses.replace(spec, variable=variable, **given("format", "margin"),
                               fixed=given("potential", "epsilon", "coupling_sq"))
    for path in sweep.run_sweep(spec):
        print(path)
    return 0


def _cmd_verify(opts: dict) -> int:
    from . import checks

    results = checks.run_verification()
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed: "
              f"{', '.join(failed)}")
        return 1
    print(f"all {len(results)} checks passed")
    return 0


def _cmd_wavepacket(opts: dict) -> int:
    from . import wavepacket

    p = _model_params(opts)
    packet = wavepacket.PacketSpec.for_energy(
        p.energy, p, sigma=opts["sigma"], center=opts["x0"]
    )
    grid = wavepacket.GridSpec(
        half_length=opts["half_domain"],
        points=opts["points"],
        dt=opts["dt"],
        steps=opts["steps"],
    )
    result = wavepacket.propagate(
        packet,
        p,
        width=opts["width"],
        grid=grid,
        snapshot_path=opts["snapshots"],
        snapshot_stride=opts["stride"],
    )
    for field in dataclasses.fields(result):
        print(f"{field.name} = {getattr(result, field.name):.15g}")
    if p.coupling > 0.0 and p.hbar == 1.0 and p.mass == 0.5:
        tau = times.transition_time(make_reduced(p))
        print(f"analytic_transition_time = {tau:.15g}")
        # relative bias is undefined at the symmetric point where tau = 0
        if tau != 0.0:
            print(f"relative_bias = {(result.delay - tau) / tau:.15g}")
    return 0


def _cmd_greens(opts: dict) -> int:
    from . import oracle

    p = _model_params(opts)
    x1, x2 = (_as_float(name, opts[name]) for name in ("x1", "x2"))
    value = greens.greens_constant(x1, x2, p)
    alpha = greens.effective_strength(p)
    diagonal = greens.greens_constant(p.center, p.center, p)
    numeric = oracle.greens_grid_extrapolated(p)  # all four before any line is printed
    print(f"greens_value = {value:.15g}")
    print(f"effective_strength = {alpha:.15g}")
    print(f"grid_oracle = {numeric:.15g}")
    print(f"oracle_gap = {abs(numeric - diagonal):.3e}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(_resolve(args))
    except (ValueError, OSError, RunGuardError, MemoryError) as exc:
        print(f"error: {exc or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
