"""Command-line front end.

Subcommands:

* ``sweep``      emit CSV/SVG parameter sweeps of the closed forms
* ``verify``     run the named oracle checks; exit 1 if any fails
* ``wavepacket`` measure the arrival delay of a narrow-band packet
* ``greens``     evaluate the closed-channel Green's function

An optional JSON config file mirrors the long flag names (hyphens or
underscores); explicit flags take precedence over config values.  Exit
codes: 0 success, 1 verification failure, 2 usage or domain error, or a
tripped wave-packet run guard.

Each subcommand imports the modules it alone needs (``checks``, ``oracle``,
``wavepacket``), so that ``sweep`` loads no scipy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import greens, sweep, times
from .params import ModelParams, RunGuardError, make_reduced

__all__ = ["main"]


def _float_list(text: str) -> list[float]:
    vals = [float(tok) for tok in text.split(",") if tok.strip()]
    if not vals:
        raise argparse.ArgumentTypeError("expected a comma-separated float list")
    return vals


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError("config file must contain a JSON object")
    return {str(k).replace("-", "_"): v for k, v in data.items()}


class _Resolver:
    """Flag value, else config value, else built-in default."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = _load_config(getattr(args, "config", None))

    def get(self, name: str, default=None):
        val = getattr(self.args, name, None)
        if val is not None:
            return val
        if name in self.config:
            return self.config[name]
        return default

    def numbers(self, name: str) -> tuple[float, ...] | None:
        """A list-valued setting; a bare number in the config is one value."""
        val = self.get(name)
        if val is None:
            return None
        items = val if isinstance(val, list) else [val]
        if not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in items
        ):
            raise ValueError(
                f"{name} must be a number or a list of numbers, got {val!r}"
            )
        return tuple(float(v) for v in items)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twostate",
        description="Two-channel point-coupling scattering model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sw = sub.add_parser("sweep", help="emit a parameter sweep as CSV/SVG")
    sw.add_argument("quantity", choices=sweep.QUANTITIES)
    sw.add_argument("--potential", type=float)
    sw.add_argument("--epsilon", type=_float_list, metavar="LIST")
    sw.add_argument("--coupling", type=_float_list, metavar="LIST")
    sw.add_argument("--coupling-sq", dest="coupling_sq", type=_float_list,
                    metavar="LIST")
    sw.add_argument("--from", dest="start", type=float)
    sw.add_argument("--to", dest="stop", type=float)
    sw.add_argument("--count", type=int)
    sw.add_argument("--margin", type=float)
    sw.add_argument("--out", type=str)
    sw.add_argument("--format", choices=("csv", "svg", "both"))
    sw.add_argument("--config", type=str)
    sw.set_defaults(func=_cmd_sweep)

    vf = sub.add_parser("verify", help="run the oracle verification suite")
    vf.add_argument("--config", type=str)
    vf.set_defaults(func=_cmd_verify)

    wp = sub.add_parser("wavepacket", help="narrow-band arrival-delay run")
    wp.add_argument("--energy", type=float)
    wp.add_argument("--potential", type=float)
    wp.add_argument("--coupling", type=float)
    wp.add_argument("--width", type=float)
    wp.add_argument("--mass", type=float)
    wp.add_argument("--hbar", type=float)
    wp.add_argument("--sigma", type=float)
    wp.add_argument("--x0", type=float)
    wp.add_argument("--half-domain", dest="half_domain", type=float)
    wp.add_argument("--points", type=int)
    wp.add_argument("--dt", type=float)
    wp.add_argument("--steps", type=int)
    wp.add_argument("--snapshots", type=str)
    wp.add_argument("--stride", type=int)
    wp.add_argument("--config", type=str)
    wp.set_defaults(func=_cmd_wavepacket)

    gr = sub.add_parser("greens", help="closed-channel Green's function")
    gr.add_argument("--x1", type=float)
    gr.add_argument("--x2", type=float)
    gr.add_argument("--energy", type=float)
    gr.add_argument("--potential", type=float)
    gr.add_argument("--coupling", type=float)
    gr.add_argument("--mass", type=float)
    gr.add_argument("--hbar", type=float)
    gr.add_argument("--config", type=str)
    gr.set_defaults(func=_cmd_greens)

    return parser


def _cmd_sweep(args: argparse.Namespace) -> int:
    res = _Resolver(args)
    out = res.get("out")
    if out is None:
        raise ValueError("sweep needs an output path (--out)")
    quantity = args.quantity
    base = sweep.default_spec(quantity, Path(out), res.get("format", "csv"))
    margin = float(res.get("margin", base.margin))

    potential = float(res.get("potential", 1.0))
    fixed = {"potential": potential}
    if quantity == "tau_vs_coupling":
        if res.get("coupling") is not None or res.get("coupling_sq") is not None:
            raise ValueError(
                "tau_vs_coupling sweeps the coupling; fix epsilon instead"
            )
        eps = res.numbers("epsilon")
        fixed["epsilon"] = eps if eps is not None else base.fixed["epsilon"]
        lo, hi = 0.0, 10.0
    else:
        if res.get("epsilon") is not None:
            raise ValueError(
                f"{quantity} sweeps epsilon; fix the coupling instead"
            )
        ksq = res.numbers("coupling_sq")
        k0 = res.numbers("coupling")
        if ksq is not None and k0 is not None:
            raise ValueError("give either --coupling or --coupling-sq, not both")
        if ksq is not None:
            series = ksq
        elif k0 is not None:
            series = tuple(v**2 for v in k0)
        elif quantity == "transmission":
            series = tuple(potential * math.sqrt(q) for q in (0.4, 4.0, 40.0))
        elif quantity == "phase":
            series = (4.0 * potential,)
        else:
            series = base.fixed["coupling_sq"]
        fixed["coupling_sq"] = series
        lo, hi = 0.0, 1.0

    variable = sweep.SweepVariable(
        name=base.variable.name,
        start=float(res.get("start", lo)),
        stop=float(res.get("stop", hi)),
        count=int(res.get("count", base.variable.count)),
    )
    spec = sweep.SweepSpec(
        quantity=quantity,
        variable=variable,
        fixed=fixed,
        output=Path(out),
        format=res.get("format", "csv"),
        margin=margin,
    )
    for path in sweep.run_sweep(spec):
        print(path)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
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


def _cmd_wavepacket(args: argparse.Namespace) -> int:
    from . import wavepacket

    res = _Resolver(args)
    energy = float(res.get("energy", 0.25))
    p = ModelParams(
        energy=energy,
        potential=float(res.get("potential", 1.0)),
        coupling=float(res.get("coupling", 1.0)),
        mass=float(res.get("mass", 0.5)),
        hbar=float(res.get("hbar", 1.0)),
    )
    packet = wavepacket.PacketSpec.for_energy(
        energy, p, sigma=float(res.get("sigma", 60.0)),
        center=float(res.get("x0", -300.0)),
    )
    # odd point count keeps the coupling strip centered on a grid site
    grid = wavepacket.GridSpec(
        half_length=float(res.get("half_domain", 720.0)),
        points=int(res.get("points", 8193)),
        dt=float(res.get("dt", 0.5)),
        steps=int(res.get("steps", 1380)),
    )
    result = wavepacket.propagate(
        packet,
        p,
        width=float(res.get("width", 1e-3)),
        grid=grid,
        snapshot_path=res.get("snapshots"),
        snapshot_stride=int(res.get("stride", 50)),
    )
    print(f"t_arrival = {result.t_arrival:.15g}")
    print(f"t_free = {result.t_free:.15g}")
    print(f"delay = {result.delay:.15g}")
    print(f"norm_drift = {result.norm_drift:.15g}")
    print(f"transmitted_fraction = {result.transmitted_fraction:.15g}")
    if p.coupling > 0.0 and p.hbar == 1.0 and p.mass == 0.5:
        tau = times.transition_time(make_reduced(p))
        print(f"analytic_transition_time = {tau:.15g}")
        # relative bias is undefined at the symmetric point where tau = 0
        if tau != 0.0:
            print(f"relative_bias = {(result.delay - tau) / tau:.15g}")
    return 0


def _cmd_greens(args: argparse.Namespace) -> int:
    from . import oracle

    res = _Resolver(args)
    p = ModelParams(
        energy=float(res.get("energy", 0.5)),
        potential=float(res.get("potential", 1.0)),
        coupling=float(res.get("coupling", 1.0)),
        mass=float(res.get("mass", 0.5)),
        hbar=float(res.get("hbar", 1.0)),
    )
    x1 = float(res.get("x1", p.center))
    x2 = float(res.get("x2", p.center))
    value = greens.greens_constant(x1, x2, p).value
    alpha = greens.effective_strength(p)
    print(f"greens_value = {value:.15g}")
    print(f"effective_strength = {alpha:.15g}")
    diagonal = greens.greens_constant(p.center, p.center, p).value
    numeric = oracle.greens_grid_extrapolated(p)
    print(f"grid_oracle = {numeric:.15g}")
    print(f"oracle_gap = {abs(numeric - diagonal):.3e}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RunGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
