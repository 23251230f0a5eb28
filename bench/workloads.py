"""Seeded inputs, timed operations and output checks of the three workloads.

An operation is split into ``act``, the timed calls into twostate, and
``check``, which runs untimed afterwards and returns a list of problems.
Outputs are checked against pinned SHA-256 hashes of the default sweep
CSVs, against this file's own transcription of the reduced closed forms
(hbar = 1, m = 1/2; see the docstrings of ``times.py`` and
``scatter.py``) at 1e-12 relative, against unitarity, and against the
oracles' own convergence criteria.

Workloads (each a closed loop with one client, no threads).  Every
iteration of a run makes the same operations on the same inputs; the seed
chooses the inputs of the run.

* ``cli_cold``: fresh ``python -m twostate.cli`` processes; each iteration
  runs ``greens`` with seeded flags, a ``sweep`` of each of the four
  quantities at its defaults and with seeded flags, and ``verify``.
  Import is most of every call, so lazy imports show here.
* ``library_warm``: in one warm process, a seeded batch of parameter points
  through the scalar closed forms one point per call, the four default and
  four seeded sweeps (CSV into a scratch directory), ``run_verification``
  and an oracle battery on a seeded batch of points.  Import costs nothing
  here; the grid paths sit beside the one-point-per-call path.
* ``wavepacket``: ``propagate`` on the documented envelope, once plain and
  once writing snapshots every 50 steps.  E stays 0.25 for every seed
  because the default grid fails at E = 0.22 (no crossing) and E = 0.30
  (edge contamination); V and k0 vary with the seed.
"""

from __future__ import annotations

import hashlib
import math
import random
import statistics
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import setup_probe

WORKLOADS = ("cli_cold", "library_warm", "wavepacket")

DEFAULT_SWEEP_SHA256 = {
    "transmission": "b7fd1d52151c381dcddef7c0dc5733549177f80ec63aeecd650703e83b1e509c",
    "phase": "9d84ca9215aced25c13dffdbe55dd132335a003f791dd21878dff94b831a68fb",
    "tau_vs_energy": "3de73be26eae03b8f30e7c1fd6b92e23c1e44a7678cd880c25564616cb084e41",
    "tau_vs_coupling": "bee720f99e85dc5be7b83e7fac39917883d82eace644fb42c907a3fd7ef316e0",
}
QUANTITIES = tuple(DEFAULT_SWEEP_SHA256)
SWEEP_COUNT = 999
SWEEP_MARGIN = 1e-4
ORACLE_POINTS = 16
REL = 1e-12

PACKET = {"sigma": 60.0, "center": -300.0}
GRID = {"half_length": 720.0, "points": 8193, "dt": 0.5, "steps": 1380}
SNAPSHOT_STRIDE = 50
WIDTH = 1e-3
ENERGY = 0.25


@dataclass
class Op:
    kind: str
    act: Callable[[], Any]
    check: Callable[[Any], list]


@dataclass
class CliResult:
    returncode: int
    stdout: str
    stderr: str
    spans_path: Path | None = None


@dataclass
class Context:
    root: Path
    scratch: Path
    python: str
    env: dict
    smoke: bool


# ---------------------------------------------------------------------------
# transcription of the closed forms, hbar = 1 and m = 1/2
# ---------------------------------------------------------------------------

def ref_greens(x1, x2, energy, potential):
    gap = potential - energy
    return -0.5 * math.exp(-math.sqrt(gap) * abs(x1 - x2)) / math.sqrt(gap)


def ref_transmission(eps, potential, ksq):
    return 1.0 / (1.0 + ksq * ksq / (16.0 * potential**2 * eps * (1.0 - eps)))


def ref_phase(eps, potential, ksq):
    return math.atan(ksq / (4.0 * potential * math.sqrt(eps * (1.0 - eps))))


def ref_tau(eps, potential, ksq):
    return 2.0 * (2.0 * eps - 1.0) / (
        math.sqrt(eps) * math.sqrt(1.0 - eps)
        * (ksq + 16.0 * eps * (1.0 - eps) * potential**2 / ksq)
    )


def ref_extremum(eps, potential):
    return (4.0 * potential * math.sqrt(eps * (1.0 - eps)),
            (2.0 * eps - 1.0) / (4.0 * potential * eps * (1.0 - eps)))


def close(value, ref, rel=REL):
    return abs(value - ref) <= rel * abs(ref)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def seeded_sweep(rng: random.Random, quantity: str) -> dict:
    """A sweep of ``quantity`` with seeded potential, series and range."""
    potential = rng.uniform(0.5, 2.0)
    if quantity == "tau_vs_coupling":
        series = tuple(rng.choice((rng.uniform(0.05, 0.45), rng.uniform(0.55, 0.95)))
                       for _ in range(4))
        start, stop = rng.uniform(0.0, 1.0), rng.uniform(5.0, 12.0)
    else:
        n = 1 if quantity == "phase" else 3
        series = tuple(rng.uniform(0.2, 6.0) * potential for _ in range(n))
        start, stop = rng.uniform(0.0, 0.2), rng.uniform(0.8, 1.0)
    return {"quantity": quantity, "potential": potential, "series": series,
            "start": start, "stop": stop}


def sweep_args(s: dict, out: Path) -> list[str]:
    series_flag = "--epsilon" if s["quantity"] == "tau_vs_coupling" else "--coupling-sq"
    return ["sweep", s["quantity"], "--potential", repr(s["potential"]),
            series_flag, ",".join(repr(v) for v in s["series"]),
            "--from", repr(s["start"]), "--to", repr(s["stop"]), "--out", str(out)]


def check_seeded_csv(text: str, s: dict) -> list[str]:
    """Compare a seeded sweep CSV with the transcribed closed forms."""
    import numpy as np

    q, v, series = s["quantity"], s["potential"], s["series"]
    lo = max(s["start"], SWEEP_MARGIN)
    hi = s["stop"] if q == "tau_vs_coupling" else min(s["stop"], 1.0 - SWEEP_MARGIN)
    grid = np.linspace(lo, hi, SWEEP_COUNT)
    lines = text.split("\n")
    if lines[-1] != "" or len(lines) != SWEEP_COUNT + 2:
        return [f"{q}: expected {SWEEP_COUNT} rows and a final newline"]
    header = lines[0].split(",")
    want = "coupling_sq" if q == "tau_vs_coupling" else "epsilon"
    if header[0] != want or len(header) != 1 + len(series):
        return [f"{q}: header {lines[0]!r}"]
    worst = 0.0
    for i, line in enumerate(lines[1:-1]):
        cells = line.split(",")
        x = float(grid[i])
        if cells[0] != f"{x:.15g}":
            return [f"{q}: grid cell {cells[0]} != {x:.15g}"]
        for j, s_val in enumerate(series):
            if q == "transmission":
                ref = ref_transmission(x, v, s_val)
            elif q == "phase":
                ref = ref_phase(x, v, s_val)
            elif q == "tau_vs_energy":
                ref = ref_tau(x, v, s_val)
            else:
                ref = ref_tau(s_val, v, x)
            got = float(cells[j + 1])
            if not close(got, ref):
                worst = max(worst, abs(got - ref) / abs(ref))
    return [f"{q}: max relative deviation {worst:.3e} > {REL}"] if worst else []


def check_default_csv(data: bytes, quantity: str) -> list[str]:
    digest = hashlib.sha256(data).hexdigest()
    if digest != DEFAULT_SWEEP_SHA256[quantity]:
        return [f"default {quantity} CSV sha256 {digest} differs from the pinned hash"]
    return []


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class CliCold:
    """Fresh-process CLI calls: greens, eight sweeps, verify per iteration."""

    def __init__(self, seed: int, ctx: Context):
        rng = random.Random(seed)
        self.ctx = ctx
        v = rng.uniform(0.5, 2.0)
        self.greens = {"energy": rng.uniform(0.05, 0.95) * v, "potential": v,
                       "coupling": rng.uniform(0.2, 3.0),
                       "x1": rng.uniform(-2.0, 2.0), "x2": rng.uniform(-2.0, 2.0)}
        self.sweeps = [(q, None) for q in QUANTITIES] + [(q, seeded_sweep(rng, q))
                                                          for q in QUANTITIES]
        self.out = ctx.scratch / "cli_sweep.csv"
        self.facts = {}

    def _call(self, args: list[str], traced: bool) -> Callable[[], CliResult]:
        ctx = self.ctx
        if traced:
            spans = ctx.scratch / "cli_spans.json"
            cmd = [ctx.python, str(ctx.root / "bench" / "cli_child.py"), str(spans), *args]
        else:
            spans = None
            cmd = [ctx.python, "-m", "twostate.cli", *args]

        def act():
            proc = subprocess.run(cmd, cwd=ctx.root, env=ctx.env, capture_output=True,
                                  text=True, timeout=120)
            return CliResult(proc.returncode, proc.stdout, proc.stderr, spans)

        return act

    def ops(self, traced: bool) -> list[Op]:
        g = self.greens
        greens_args = ["greens"] + [a for k, val in g.items() for a in (f"--{k}", repr(val))]

        def check_greens(res: CliResult) -> list[str]:
            if res.returncode != 0:
                return [f"greens exit {res.returncode}: {res.stderr.strip()[-200:]}"]
            vals = dict(line.split(" = ") for line in res.stdout.strip().split("\n"))
            gap = g["potential"] - g["energy"]
            want = {
                "greens_value": (ref_greens(g["x1"], g["x2"], g["energy"], g["potential"]), REL),
                "effective_strength": (g["coupling"] ** 2 * 0.5 / math.sqrt(gap), REL),
                "grid_oracle": (ref_greens(0.0, 0.0, g["energy"], g["potential"]), 1e-8),
            }
            return [f"greens {k} = {vals.get(k)} vs {ref!r}" for k, (ref, tol) in want.items()
                    if k not in vals or not close(float(vals[k]), ref, tol)]

        def sweep_op(quantity: str, s: dict | None) -> Op:
            def check_sweep(res: CliResult) -> list[str]:
                if res.returncode != 0:
                    return [f"sweep exit {res.returncode}: {res.stderr.strip()[-200:]}"]
                data = self.out.read_bytes()
                self.out.unlink()
                if s is None:
                    return check_default_csv(data, quantity)
                return check_seeded_csv(data.decode("utf-8"), s)

            args = (["sweep", quantity, "--out", str(self.out)] if s is None
                    else sweep_args(s, self.out))
            kind = f"sweep:{quantity}:{'default' if s is None else 'seeded'}"
            return Op(kind, self._call(args, traced), check_sweep)

        def check_verify(res: CliResult) -> list[str]:
            last = res.stdout.strip().split("\n")[-1]
            if res.returncode != 0 or last != "all 8 checks passed":
                return [f"verify exit {res.returncode}: {last}"]
            return []

        return ([Op("greens", self._call(greens_args, traced), check_greens)]
                + [sweep_op(q, s) for q, s in self.sweeps]
                + [Op("verify", self._call(["verify"], traced), check_verify)])

    def named(self, typical: dict) -> dict:
        sweeps = [t for k, t in typical.items() if k.startswith("sweep:")]
        return {"cli_greens_s": (typical["greens"], "s"),
                "cli_sweep_s": (statistics.median(sweeps), "s"),
                "cli_verify_s": (typical["verify"], "s")}


def _scalar_point(rng: random.Random) -> tuple[float, float, float]:
    """(E, V, k0) with eps = E / V kept 0.01 away from the zero of tau."""
    v = rng.uniform(0.5, 2.0)
    eps = rng.choice((rng.uniform(0.02, 0.49), rng.uniform(0.51, 0.98)))
    return eps * v, v, rng.uniform(0.2, 3.0)


class LibraryWarm:
    """Scalar closed forms one point per call, sweeps, verification, oracles."""

    def __init__(self, seed: int, ctx: Context):
        from twostate import checks, oracle, params, scatter, sweep, times

        self.params, self.scatter, self.times, self.oracle = params, scatter, times, oracle
        self.sweep, self.checks = sweep, checks
        rng = random.Random(seed)
        self.points = [_scalar_point(rng) for _ in range(20 if ctx.smoke else 800)]
        self.seeded = [seeded_sweep(rng, q) for q in QUANTITIES]
        self.battery = []
        for _ in range(1 if ctx.smoke else ORACLE_POINTS):
            v = rng.uniform(0.5, 2.0)
            eps = rng.choice((rng.uniform(0.1, 0.45), rng.uniform(0.55, 0.9)))
            self.battery.append((eps * v, v, rng.uniform(0.5, 2.0)))
        self.dir = ctx.scratch / "sweeps"
        self.dir.mkdir(exist_ok=True)
        # The default specs have 3, 1, 3 and 4 series; the seeded ones as many.
        self.sweep_points = 2 * SWEEP_COUNT * (3 + 1 + 3 + 4)
        self.facts = {}

    def _scalar(self):
        P, S, T = self.params, self.scatter, self.times
        out = []
        for e, v, k0 in self.points:
            p = P.ModelParams(energy=e, potential=v, coupling=k0)
            r = P.make_reduced(p)
            out.append((r, S.solve_amplitudes(p), T.group_delays(p), T.time_taxonomy(p),
                        T.transition_time(r), S.transmission_probability(r)))
        return out

    def _check_scalar(self, out) -> list[str]:
        bad = []
        for (e, v, k0), (r, amps, gd, tax, tau, t2) in zip(self.points, out):
            eps, ksq = e / v, k0 * k0
            ref_t, ref_tau_v = ref_transmission(eps, v, ksq), ref_tau(eps, v, ksq)
            ok = (r.epsilon == eps
                  and abs(amps.transmission_prob + amps.reflection_prob - 1.0) <= REL
                  and close(amps.transmission_prob, ref_t) and close(t2, ref_t)
                  and close(gd[0], ref_tau_v) and close(gd[1], ref_tau_v)
                  and close(gd[2], ref_tau_v) and close(tau, ref_tau_v)
                  and close(tax.transition, ref_tau_v)
                  and tax.dwell == 0.0 and tax.absorption == 0.0)
            if not ok:
                bad.append(f"scalar closed forms disagree at E={e!r}, V={v!r}, k0={k0!r}")
        return bad[:3]

    def _oracle(self):
        P, O = self.params, self.oracle
        out = []
        for e, v, k0 in self.battery:
            p = P.ModelParams(energy=e, potential=v, coupling=k0)
            out.append((O.fd_group_delay(p), O.greens_grid_extrapolated(p),
                        O.convergence_study(p), O.dwell_time_regularized(p, 1e-2),
                        O.dwell_time_regularized(p, 1e-3), O.dwell_time_window(p, 1e-3, 0.5),
                        O.extremum_search(e / v, v)))
        return out

    def _check_oracle(self, out) -> list[str]:
        bad = []
        for (e, v, k0), (fd, grid, conv, d2, d3, window, (ksq, tau_x)) in zip(self.battery, out):
            eps = e / v
            tau = ref_tau(eps, v, k0 * k0)
            ksq_ref, tau_ref = ref_extremum(eps, v)
            errs = conv.errors
            ok = (abs(fd - tau) <= 1e-6 * max(1.0, abs(tau))
                  and close(grid, ref_greens(0.0, 0.0, e, v), 1e-8)
                  and conv.observed_order >= 0.8 and errs[-1] <= 2e-3
                  and all(a > b for a, b in zip(errs, errs[1:]))
                  and 0.0 < d3 < d2 and d2 / d3 >= 5.0 and window >= d3
                  and abs(ksq - ksq_ref) <= 1e-6 * max(1.0, ksq_ref)
                  and abs(abs(tau_x) - abs(tau_ref)) <= 1e-9 * max(1.0, abs(tau_ref)))
            if not ok:
                bad.append(f"oracle battery fails its criteria at E={e!r}, V={v!r}, k0={k0!r}")
        return bad

    def _specs(self):
        sw = self.sweep
        specs = [(None, sw.default_spec(q, self.dir / f"default_{q}.csv")) for q in QUANTITIES]
        for s in self.seeded:
            q = s["quantity"]
            var, key = (("coupling_sq", "epsilon") if q == "tau_vs_coupling"
                        else ("epsilon", "coupling_sq"))
            specs.append((s, sw.SweepSpec(
                quantity=q,
                variable=sw.SweepVariable(var, s["start"], s["stop"], SWEEP_COUNT),
                fixed={"potential": s["potential"], key: s["series"]},
                output=self.dir / f"seeded_{q}.csv",
            )))
        return specs

    def _sweeps(self):
        specs = self._specs()
        return [(s, spec.quantity, self.sweep.run_sweep(spec)) for s, spec in specs]

    @staticmethod
    def _check_sweeps(out) -> list[str]:
        bad = []
        for s, quantity, paths in out:
            data = Path(paths[0]).read_bytes()
            bad += (check_default_csv(data, quantity) if s is None
                    else check_seeded_csv(data.decode("utf-8"), s))
        return bad

    def _verify(self):
        return self.checks.run_verification()

    @staticmethod
    def _check_verify(results) -> list[str]:
        failed = [r.name for r in results if not r.passed]
        if failed or len(results) != 8:
            return [f"verification: {len(results)} checks, failed {failed}"]
        return []

    def ops(self, traced: bool) -> list[Op]:
        return [Op("scalar", self._scalar, self._check_scalar),
                Op("sweeps", self._sweeps, self._check_sweeps),
                Op("verify", self._verify, self._check_verify),
                Op("oracle", self._oracle, self._check_oracle)]

    def named(self, typical: dict) -> dict:
        return {
            "scalar_evals_per_s": (7 * len(self.points) / typical["scalar"], "1/s"),
            "sweep_points_per_s": (self.sweep_points / typical["sweeps"], "1/s"),
            "verify_s": (typical["verify"], "s"),
            "oracle_s": (typical["oracle"], "s"),
        }


class Wavepacket:
    """Crank-Nicolson arrival delay: one plain and one snapshot run."""

    def __init__(self, seed: int, ctx: Context):
        import twostate as ts

        self.ts = ts
        rng = random.Random(seed)
        self.potential = rng.uniform(0.8, 1.2)
        self.coupling = rng.uniform(0.6, 1.2)
        self.packet_kw = setup_probe.SMALL_PACKET if ctx.smoke else PACKET
        self.grid_kw = setup_probe.SMALL_GRID if ctx.smoke else GRID
        self.snap = ctx.scratch / "snapshots.csv"
        self.last_plain = None
        self.facts = {}

    def _run(self, snapshot: bool):
        ts = self.ts
        p = ts.ModelParams(energy=ENERGY, potential=self.potential, coupling=self.coupling)
        packet = ts.PacketSpec.for_energy(ENERGY, p, **self.packet_kw)
        return ts.propagate(packet, p, width=WIDTH, grid=ts.GridSpec(**self.grid_kw),
                            snapshot_path=self.snap if snapshot else None,
                            snapshot_stride=SNAPSHOT_STRIDE)

    def _check(self, res, snapshot: bool) -> list[str]:
        eps, ksq = ENERGY / self.potential, self.coupling**2
        tau = ref_tau(eps, self.potential, ksq)
        t2 = ref_transmission(eps, self.potential, ksq)
        bias = abs(res.delay - tau) / abs(tau)
        self.facts["wavepacket.rel_bias"] = (bias, "1")
        bad = []
        if not res.norm_drift <= 1e-6:
            bad.append(f"norm drift {res.norm_drift:.3e} > 1e-6")
        if not bias <= 0.25:
            bad.append(f"relative delay bias {bias:.3f} > 0.25")
        if not abs(res.transmitted_fraction - t2) <= 0.05 * t2:
            bad.append(f"transmitted fraction {res.transmitted_fraction} vs |T|^2 {t2}")
        if not snapshot:
            self.last_plain = res
            return bad
        if self.last_plain is not None and res != self.last_plain:
            bad.append("snapshot run changed the measured delay")
        rows, size = 0, self.snap.stat().st_size
        with open(self.snap, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                rows += chunk.count(b"\n")
        self.snap.unlink()
        g = self.grid_kw
        want = 1 + len(range(0, g["steps"] + 1, SNAPSHOT_STRIDE)) * g["points"]
        if rows != want:
            bad.append(f"snapshot rows {rows} != {want}")
        self.facts["wavepacket.snapshot_bytes"] = (float(size), "bytes")
        return bad

    def ops(self, traced: bool) -> list[Op]:
        return [Op("plain", lambda: self._run(False), lambda r: self._check(r, False)),
                Op("snapshot", lambda: self._run(True), lambda r: self._check(r, True))]

    def named(self, typical: dict) -> dict:
        return {
            "wavepacket_s": (typical["plain"], "s"),
            "wavepacket_snapshot_s": (typical["snapshot"], "s"),
            "wavepacket_rel_bias": self.facts["wavepacket.rel_bias"],
        }


def make(name: str, seed: int, ctx: Context):
    cls = {"cli_cold": CliCold, "library_warm": LibraryWarm, "wavepacket": Wavepacket}[name]
    return cls(seed, ctx)
