"""twostate benchmark: seeded workloads, checked outputs, named metrics.

Run from the repository root; the package is imported from ``src``:

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload wavepacket --seed 1 --seconds 1 --trace 1 --smoke

``--trace 0`` measures the end-to-end metrics with no hooks installed.
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics, the import and closed-form probes, and the tracing
overhead.  ``--smoke`` runs one iteration at a tiny size.  Lines starting
with ``#`` are for people; the last line of stdout is the JSON result.
A copy of the result, with the environment and every operation's median,
tail and sample count, goes to ``.bench/`` (spans too, when traced).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import setup_probe
import tracing
import workloads

ROOT = Path.cwd()
SETUP_RUNS = 9
PROBE_RUNS = 5
MICRO_POINTS = 256
MICRO_REPEATS = 7
# Traced iterations kept; library_warm records about 60k spans in each.
TRACED_ITERATIONS = 4
# Reference work, timed REF_SAMPLES times before every operation (see
# HostSpeed).  Each NOMINAL_S is about its mean time on the 2-vCPU Xeon
# host the bounds were set on (Python 3.11, numpy 1.26, scipy 1.11).
REF_SAMPLES = 3

IMPORT_PROBE = """import json, sys
before = set(sys.modules)
import {module}
new = set(sys.modules) - before
print(json.dumps([len(new), sum(1 for m in new if m == "scipy" or m.startswith("scipy."))]))
"""
IMPORTTIME = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")

MICRO = (
    # metric, module, function, argument builder from (p, r, (E, V, k0))
    ("params.ModelParams_us", "params", "ModelParams", lambda p, r, t: t),
    ("params.ReducedParams_us", "params", "ReducedParams", lambda p, r, t: (t[0] / t[1], t[1], t[2])),
    ("params.make_reduced_us", "params", "make_reduced", lambda p, r, t: (p,)),
    ("greens.greens_constant_us", "greens", "greens_constant", lambda p, r, t: (0.0, 0.0, p)),
    ("greens.effective_strength_us", "greens", "effective_strength", lambda p, r, t: (p,)),
    ("scatter.solve_amplitudes_us", "scatter", "solve_amplitudes", lambda p, r, t: (p,)),
    ("scatter.transmission_probability_us", "scatter", "transmission_probability", lambda p, r, t: (r,)),
    ("scatter.scattering_phases_us", "scatter", "scattering_phases", lambda p, r, t: (p,)),
    ("times.group_delays_us", "times", "group_delays", lambda p, r, t: (p,)),
    ("times.time_taxonomy_us", "times", "time_taxonomy", lambda p, r, t: (p,)),
    ("times.transition_time_us", "times", "transition_time", lambda p, r, t: (r,)),
    ("times.extremal_coupling_us", "times", "extremal_coupling", lambda p, r, t: (t[0] / t[1], t[1])),
)


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a wrong output)."""


def tail(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return f"max {max(values):.6g} (n < 20)"
    return f"p{100 * (n - 10) // n} {sorted(values)[n - 11]:.6g}"


def run_child(cmd: list[str], env: dict) -> subprocess.CompletedProcess:
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1:3]} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return proc


def time_to_ready(cmd: list[str], env: dict) -> float:
    """Seconds from spawning ``cmd`` to the clock reading it prints last."""
    t0 = time.perf_counter()
    proc = run_child(cmd, env)
    return float(proc.stdout.strip().split("\n")[-1]) - t0


class PythonLoop:
    """A fixed pure-Python float loop: interpreter-bound work."""

    NOMINAL_S = 2.5e-3

    def __call__(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(20000):
            acc += (i * 0.5) ** 0.5
        return time.perf_counter() - t0


class SparseSteps:
    """Crank-Nicolson-shaped steps done by numpy and scipy alone.

    A sparse product, a SuperLU solve and a density sum on a fixed
    pentadiagonal system of the wave packet's size (2 x 8193 unknowns).
    """

    NOMINAL_S = 3.3e-3
    STEPS = 4

    def __init__(self):
        import numpy as np
        from scipy.sparse import diags, identity
        from scipy.sparse.linalg import splu

        n = 2 * workloads.GRID["points"]
        ham = diags([np.full(n - 2, -1.0), np.full(n - 1, 0.1), np.full(n, 2.0),
                     np.full(n - 1, 0.1), np.full(n - 2, -1.0)], offsets=[-2, -1, 0, 1, 2],
                    format="csr")
        one = identity(n, dtype=complex, format="csr")
        self.forward = (one - 0.25j * ham).tocsr()
        self.backward = splu((one + 0.25j * ham).tocsc())
        self.psi = np.exp(-np.linspace(-4.0, 4.0, n) ** 2).astype(complex)
        self.np = np

    def __call__(self) -> float:
        t0 = time.perf_counter()
        psi = self.psi
        for _ in range(self.STEPS):
            psi = self.backward.solve(self.forward @ psi)
            float((self.np.abs(psi) ** 2).sum())
        return time.perf_counter() - t0


# The reference work of each workload's iterations is of the kind that
# dominates them.  Set-up (imports, first calls) is interpreter-bound.
REFERENCES = {"cli_cold": PythonLoop, "library_warm": PythonLoop, "wavepacket": SparseSteps}


class HostSpeed:
    """How fast the host runs fixed reference work over the whole run.

    A shared machine's speed changes with its other tenants' load, from
    one second to the next and by 25% between two sets of runs on the
    host the bounds were set on, in CPU time as much as in wall time.  So
    the gated times are given in reference seconds: wall time times the
    reference's NOMINAL_S over the run's mean time of the reference, which
    is timed before every operation or set-up probe.  Code in twostate
    cannot move the reference.  Different work slows by different amounts,
    so the reference is work of the same kind as what it scales.
    """

    def __init__(self, reference):
        self.reference = reference()
        self.times: list[float] = []

    def sample(self) -> None:
        self.times += [self.reference() for _ in range(REF_SAMPLES)]

    def scale(self) -> float:
        return self.reference.NOMINAL_S / statistics.fmean(self.times)


class SetupProbe:
    """Times fresh-process set-up, one probe at a time, spread over the run."""

    def __init__(self, ctx: workloads.Context, workload: str, runs: int, seconds: float,
                 host: HostSpeed):
        self.cmd = [ctx.python, str(ROOT / "bench" / "setup_probe.py"), workload, str(ctx.scratch)]
        self.env = ctx.env
        self.runs = runs
        self.seconds = seconds
        self.host = host
        self.times: list[float] = []
        time_to_ready(self.cmd, self.env)  # writes the bytecode caches of a fresh checkout

    def __call__(self, busy: float = math.inf) -> None:
        """Probe once if ``busy`` seconds of iterations have earned it."""
        if len(self.times) < min(self.runs, busy * self.runs / self.seconds):
            self.host.sample()
            self.times.append(time_to_ready(self.cmd, self.env))


def import_metrics(ctx: workloads.Context, runs: int) -> dict:
    py, env = ctx.python, ctx.env
    start = [time_to_ready([py, "-c", "import time; print(repr(time.perf_counter()))"], env)
             for _ in range(runs)]
    total, scipy_ms, numpy_ms, counts = [], [], [], None
    for _ in range(runs):
        proc = run_child([py, "-X", "importtime", "-c", IMPORT_PROBE.format(module="twostate")], env)
        counts = json.loads(proc.stdout.strip().split("\n")[-1])
        rows = [m.groups() for m in map(IMPORTTIME.match, proc.stderr.split("\n")) if m]
        total.append(sum(int(c) for _, c, name in rows if name == "twostate") / 1e3)
        for acc, pkg in ((scipy_ms, "scipy"), (numpy_ms, "numpy")):
            acc.append(sum(int(s) for s, _, name in rows
                           if name == pkg or name.startswith(pkg + ".")) / 1e3)
    proc = run_child([py, "-c", IMPORT_PROBE.format(module="twostate.scatter")], env)
    scatter_counts = json.loads(proc.stdout.strip().split("\n")[-1])
    return {
        "process.python_start_ms": (1e3 * min(start), "ms"),
        "import.total_ms": (min(total), "ms"),
        "import.scipy_ms": (min(scipy_ms), "ms"),
        "import.numpy_ms": (min(numpy_ms), "ms"),
        "import.modules": (float(counts[0]), "count"),
        "import.scipy_modules": (float(counts[1]), "count"),
        "import.scatter_only_scipy_modules": (float(scatter_counts[1]), "count"),
    }


def micro_metrics(seed: int, repeats: int) -> tuple[dict, list[str]]:
    """Microseconds per call of each scalar closed form, no hooks installed."""
    import importlib

    from twostate import params

    rng = random.Random(seed)
    triples = [workloads._scalar_point(rng) for _ in range(MICRO_POINTS)]
    ps = [params.ModelParams(*t) for t in triples]
    rs = [params.make_reduced(p) for p in ps]
    out, absent = {}, []
    for metric, mod, fname, build in MICRO:
        fn = getattr(importlib.import_module(f"twostate.{mod}"), fname, None)
        if fn is None:
            absent.append(f"{mod}.{fname}")
            continue
        args = [build(p, r, t) for p, r, t in zip(ps, rs, triples)]
        per_call = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for a in args:
                fn(*a)
            per_call.append((time.perf_counter() - t0) / len(args))
        out[metric] = (1e6 * min(per_call), "us")
    return out, absent


def measure(work, seconds: float, smoke: bool, rec: tracing.Recorder | None,
            host: HostSpeed, between=None):
    """Closed loop of iterations for about ``seconds`` of iteration time.

    Every iteration makes the same operations.  With ``rec``, odd
    iterations are traced, up to TRACED_ITERATIONS of them.  The host's
    speed is sampled before each operation, untimed.  ``between(busy)``
    runs after each iteration and its time is not counted.  The loop stops
    at the iteration end nearest to ``seconds``.
    """
    samples = {False: defaultdict(list), True: defaultdict(list)}
    attempted = failed = 0
    problems: list[str] = []
    ops = {False: work.ops(False), True: work.ops(True) if rec is not None else None}
    busy = 0.0
    i = 0
    while True:
        start = time.perf_counter()
        traced = rec is not None and i % 2 == 1 and i // 2 < TRACED_ITERATIONS
        if traced:
            rec.iteration = i
            rec.install()
        try:
            for op in ops[traced]:
                host.sample()
                sid = rec.begin("op", op.kind) if traced else -1
                t0 = time.perf_counter()
                try:
                    out, err = op.act(), None
                except Exception as exc:  # counted as a failed operation
                    out, err = None, f"{op.kind}: {type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - t0
                if traced:
                    rec.end(sid)
                    path = getattr(out, "spans_path", None)
                    if path is not None and path.exists():
                        rec.adopt(json.loads(path.read_text(encoding="utf-8")), sid)
                        path.unlink()
                try:
                    bad = [err] if err else op.check(out)
                except Exception as exc:  # a malformed output is a failure
                    bad = [f"{op.kind}: output check raised {type(exc).__name__}: {exc}"]
                attempted += 1
                failed += bool(bad)
                problems += bad
                samples[traced][op.kind].append(elapsed)
        finally:
            if traced:
                rec.uninstall()
        last = time.perf_counter() - start
        busy += last
        i += 1
        if between is not None:
            between(busy)
        enough = i >= (2 if rec is not None else 1)
        if enough and (smoke or busy + last / 2 >= seconds):
            break
    return samples, attempted, failed, problems


def typical(samples: dict) -> dict:
    """Median time of each operation."""
    return {k: statistics.median(v) for k, v in samples.items()}


def iteration_seconds(samples: dict) -> float:
    """Sum over the operations of an iteration of their median times."""
    return sum(typical(samples).values())


def environment() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    cpu, llc = "unknown", "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().split("\n"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        caches = Path("/sys/devices/system/cpu/cpu0/cache")
        levels = [(int((d / "level").read_text()), (d / "size").read_text().strip())
                  for d in caches.glob("index*")]
        llc = f"L{max(levels)[0]} {max(levels)[1]}" if levels else llc
    except OSError:
        pass
    origin = importlib.util.find_spec("twostate").origin
    return {
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "nproc": os.cpu_count(), "cpu": cpu,
        "last_level_cache": llc,
        "twostate_imported_from_source": Path(origin).resolve().is_relative_to(ROOT / "src"),
        "threads": "OPENBLAS/OMP/MKL_NUM_THREADS=1",
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
    }


def run(args, ctx: workloads.Context) -> tuple[dict, dict]:
    smoke = args.smoke
    probes = 1 if smoke else SETUP_RUNS
    report: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "smoke": smoke}
    metrics: dict = {}
    host = HostSpeed(REFERENCES[args.workload])
    if args.trace:
        metrics.update(import_metrics(ctx, 1 if smoke else PROBE_RUNS))
        tracing.import_package()
        setup = None
    else:
        setup = SetupProbe(ctx, args.workload, probes, args.seconds, HostSpeed(PythonLoop))
    work = workloads.make(args.workload, args.seed, ctx)
    if args.workload != "cli_cold":
        setup_probe.warm_up(args.workload, str(ctx.scratch))
    absent: list[str] = []
    rec = None
    if args.trace:
        micro, absent = micro_metrics(args.seed, 1 if smoke else MICRO_REPEATS)
        metrics.update(micro)
        rec = tracing.Recorder()
    samples, attempted, failed, problems = measure(work, args.seconds, smoke, rec, host, setup)
    while setup is not None and len(setup.times) < probes:
        setup()
    plain = samples[False]
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0
    named = {
        "setup_wall_s": (statistics.median(setup.times), "s") if setup else None,
        "iteration_wall_s": (iteration_seconds(plain), "s"),
        "reference_s": (statistics.fmean(host.times), "s"),
        "setup_reference_s": (statistics.fmean(setup.host.times), "s") if setup else None,
        "peak_rss_mb": (peak, "MB"),
        "failure_rate": (failed / attempted, "1"),
        **work.named(typical(plain)),
    }
    report["operations"] = {
        ("traced " if t else "") + k: {"median_s": statistics.median(v), "tail": tail(v), "n": len(v),
                                       "samples": v}
        for t in (False, True) for k, v in samples[t].items()
    }
    report["named"] = {k: v for k, v in named.items() if v is not None}
    if setup is not None:
        report["setup_probes_s"] = setup.times
    report["reference_samples_s"] = host.times
    if setup is not None:
        report["setup_reference_samples_s"] = setup.host.times
    if args.trace:
        absent += rec.absent
        metrics.update(tracing.layer_metrics(rec.spans, rec.absent))
        # Read 0 on the workloads that make no wave packet.
        metrics.update({"wavepacket.rel_bias": (0.0, "1"),
                        "wavepacket.snapshot_bytes": (0.0, "bytes"), **work.facts})
        base = iteration_seconds(plain)
        metrics["trace.overhead_pct"] = (100.0 * (iteration_seconds(samples[True]) / base - 1.0), "%")
        report["absent"] = absent
        report["spans"] = len(rec.spans)
        spans_file = ROOT / ".bench" / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(rec.spans), encoding="utf-8")
    else:
        metrics = {
            "setup_s": (setup.host.scale() * named["setup_wall_s"][0], "s"),
            "iteration_s": (host.scale() * named["iteration_wall_s"][0], "s"),
            "peak_rss_mb": (peak, "MB"),
        }
    report["problems"] = problems[:20]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    return report, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one iteration at a tiny size, to check the harness")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "twostate" / "__init__.py").is_file():
        print(f"error: no src/twostate under {ROOT}; run from the repository root",
              file=sys.stderr)
        return 2
    # One thread per process keeps runs on a shared machine steady; the
    # solvers used here are single-threaded anyway.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # One core for the run and its children: the reference loop then
    # samples the core the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))

    out_dir = ROOT / ".bench"
    out_dir.mkdir(exist_ok=True)
    scratch = out_dir / f"tmp-{os.getpid()}"
    scratch.mkdir()
    ctx = workloads.Context(root=ROOT, scratch=scratch, python=sys.executable, env=env,
                            smoke=args.smoke)
    try:
        report, result = run(args, ctx)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report["environment"] = environment()
    report["result"] = result
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(report, indent=1), encoding="utf-8")

    print(f"# environment {json.dumps(report['environment'])}")
    for kind, s in report["operations"].items():
        print(f"# op {kind}: median {s['median_s']:.6g} s, min {min(s['samples']):.6g} s, "
              f"{s['tail']}, n = {s['n']}")
    for key, (value, unit) in report["named"].items():
        print(f"# {key} = {value:.6g} {unit}")
    for msg in report["problems"]:
        print(f"# FAILED {msg}")
    if args.trace:
        print(f"# absent hooks: {report['absent'] or 'none'}; spans: {report['spans']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
