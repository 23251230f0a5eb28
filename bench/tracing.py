"""In-memory spans around calls into twostate, and the per-layer figures.

The traced run replaces the module-level names that each layer looks up
at call time (``scatter.solve_amplitudes``, ``checks.check_unitarity_grid``,
``wavepacket.splu`` ...) with wrappers that record a span: name, label,
parent span, iteration id, start and end.  Every binding of the same
function object inside the ``twostate`` modules is replaced, so calls
through ``from .x import y`` names and package re-exports are seen too.
A hooked name that no longer exists is listed in ``absent`` and the
metrics built on it are left out of the report rather than failing.

Spans stay in memory until the run ends.  Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

MODULES = (
    "params", "greens", "scatter", "times", "oracle",
    "sweep", "checks", "wavepacket", "cli",
)

CHECKS = (
    "unitarity_grid", "closed_form_consistency", "phase_derivative_oracle",
    "structural_laws", "extremum_law", "reduction_chain", "dwell_limit",
    "taxonomy_identities",
)
QUANTITIES = ("transmission", "phase", "tau_vs_energy", "tau_vs_coupling")
ORACLES = (
    "fd_group_delay", "greens_grid_extrapolated", "convergence_study",
    "dwell_time_regularized", "dwell_time_window", "extremum_search",
)
CLI_COMMANDS = ("greens", "sweep", "verify")

# Span fields: name, label, parent index, iteration, start, end.
NAME, LABEL, PARENT, ITERATION, START, END = range(6)


def _sweep_label(args, kwargs):
    spec = args[0] if args else kwargs.get("spec")
    return str(getattr(spec, "quantity", ""))


def _cli_label(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return str(argv[0]) if argv else ""


class _TimedLU:
    """SuperLU factor whose ``solve`` calls are recorded as spans."""

    def __init__(self, lu, recorder):
        self._lu = lu
        self._recorder = recorder

    def solve(self, *args, **kwargs):
        sid = self._recorder.begin("wavepacket.sparse_solve")
        try:
            return self._lu.solve(*args, **kwargs)
        finally:
            self._recorder.end(sid)

    def __getattr__(self, name):
        return getattr(self._lu, name)


# (module, attribute, span name or None for "module.attribute", label, result)
HOOKS = (
    [("scatter", f, None, None, None) for f in
     ("solve_amplitudes", "transmission_probability", "scattering_phases")]
    + [("times", f, None, None, None) for f in
       ("group_delays", "time_taxonomy", "transition_time", "extremal_coupling")]
    + [("greens", f, None, None, None) for f in
       ("greens_constant", "effective_strength")]
    + [("sweep", "run_sweep", None, _sweep_label, None),
       ("checks", "run_verification", None, None, None)]
    + [("checks", f"check_{c}", None, None, None) for c in CHECKS]
    + [("oracle", f, None, None, None) for f in ORACLES]
    + [("cli", "main", None, _cli_label, None),
       ("wavepacket", "propagate", None, None, None),
       ("wavepacket", "_run", "wavepacket.run", None, None),
       ("wavepacket", "splu", None, None, "timed_lu")]
)


class Recorder:
    """Collects spans; installs and removes the call hooks."""

    def __init__(self):
        self.spans: list[list] = []
        self.iteration = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def begin(self, name: str, label: str = "") -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, label, parent, self.iteration, time.perf_counter(), 0.0])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][END] = time.perf_counter()
        self._stack.pop()

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded by a child process under span ``parent``."""
        offset = len(self.spans)
        for name, label, par, _, start, end in spans:
            self.spans.append([
                name, label, parent if par < 0 else par + offset,
                self.iteration, start, end,
            ])

    def _wrap(self, fn, name, label, result):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = rec.begin(name, label(args, kwargs) if label else "")
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.end(sid)
            return _TimedLU(out, rec) if result == "timed_lu" else out

        return wrapper

    def install(self) -> None:
        """Hook every name in HOOKS that the loaded package still has."""
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "twostate" or name.startswith("twostate."))]
        self.absent = []
        for modname, attr, name, label, result in HOOKS:
            owner = sys.modules.get(f"twostate.{modname}")
            fn = getattr(owner, attr, None) if owner is not None else None
            span_name = name or f"{modname}.{attr}"
            if fn is None:
                self.absent.append(span_name)
                continue
            wrapped = self._wrap(fn, span_name, label, result)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, fn))

    def uninstall(self) -> None:
        while self._restore:
            mod, key, fn = self._restore.pop()
            setattr(mod, key, fn)


def import_package() -> None:
    """Import every twostate module that exists, so that it can be hooked."""
    for name in MODULES:
        try:
            importlib.import_module(f"twostate.{name}")
        except ModuleNotFoundError:
            pass


def _median(values):
    return statistics.median(values) if values else 0.0


def _fastest(values):
    return min(values) if values else 0.0


def _anchors(spans, is_anchor):
    """Index of the nearest enclosing span that satisfies ``is_anchor``."""
    out = [-1] * len(spans)
    for i, s in enumerate(spans):
        if is_anchor(s):
            out[i] = i
        elif s[PARENT] >= 0:
            out[i] = out[s[PARENT]]
    return out


def _closed_form_counts(spans, is_anchor, prefixes=("scatter.", "times.")):
    """Calls into the closed-form layers made under each anchor span."""
    anchor_of = _anchors(spans, is_anchor)
    counts = {i: 0 for i, s in enumerate(spans) if is_anchor(s)}
    for i, s in enumerate(spans):
        if s[NAME].startswith(prefixes):
            a = anchor_of[i]
            while a >= 0:
                counts[a] += 1
                parent = spans[a][PARENT]
                a = anchor_of[parent] if parent >= 0 else -1
    return counts


def layer_metrics(spans: list[list], absent: list[str]) -> dict:
    """Per-layer figures from the spans of the traced iterations.

    Counts are medians per operation, summed over operation kinds, so they
    repeat exactly for a given seed.  Times are the fastest call, in wall
    time.  A layer the workload never calls reads 0.
    Names built on an absent hook are left out.
    """
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]

    def durations(name, label=None):
        return [dur[i] for i, s in enumerate(spans)
                if s[NAME] == name and (label is None or s[LABEL] == label)]

    m: dict[str, tuple[float, str]] = {}
    missing = set(absent)

    def put(metric, value, unit, *hooks):
        """Record ``metric`` unless a hook it is built on is absent."""
        if not missing.intersection(hooks):
            m[metric] = (value, unit)

    for layer in ("scatter", "times"):
        counts = _closed_form_counts(spans, lambda s: s[NAME] == "op", (f"{layer}.",))
        total = 0.0
        for kind in {spans[i][LABEL] for i in counts}:
            total += _median([c for i, c in counts.items() if spans[i][LABEL] == kind])
        put(f"{layer}.calls", total, "count")

    sweeps = _closed_form_counts(spans, lambda s: s[NAME] == "sweep.run_sweep")
    put("sweep.closed_form_calls", sum(
        _median([c for i, c in sweeps.items() if spans[i][LABEL] == q])
        for q in QUANTITIES), "count", "sweep.run_sweep")
    verifies = _closed_form_counts(spans, lambda s: s[NAME] == "checks.run_verification")
    put("checks.closed_form_calls", _median(list(verifies.values())), "count",
        "checks.run_verification")
    for c in CHECKS:
        name = f"checks.check_{c}"
        counts = _closed_form_counts(spans, lambda s, n=name: s[NAME] == n)
        put(f"checks.{c}_calls", _median(list(counts.values())), "count", name)
        put(f"checks.{c}_ms", 1e3 * _fastest(durations(name)), "ms", name)
    for q in QUANTITIES:
        put(f"sweep.{q}_ms", 1e3 * _fastest(durations("sweep.run_sweep", q)), "ms",
            "sweep.run_sweep")
    for f in ORACLES:
        put(f"oracle.{f}_ms", 1e3 * _fastest(durations(f"oracle.{f}")), "ms", f"oracle.{f}")
    for cmd in CLI_COMMANDS:
        selfs = [dur[i] - child[i] for i, s in enumerate(spans)
                 if s[NAME] == "cli.main" and s[LABEL] == cmd]
        put(f"cli.{cmd}_self_ms", 1e3 * _fastest(selfs), "ms", "cli.main")

    # Wave packet: propagate calls of the plain (no snapshot) operation.
    op_of = _anchors(spans, lambda s: s[NAME] == "op")
    plain = [i for i, s in enumerate(spans) if s[NAME] == "wavepacket.propagate"
             and op_of[i] >= 0 and spans[op_of[i]][LABEL] == "plain"]
    runs = {i: [] for i in plain}
    solves = {i: [0.0, 0] for i in plain}
    prop_of = _anchors(spans, lambda s: s[NAME] == "wavepacket.propagate")
    for i, s in enumerate(spans):
        p = prop_of[i]
        if p in runs and i != p:
            if s[NAME] == "wavepacket.run" and s[PARENT] == p:
                runs[p].append(dur[i])
            elif s[NAME] == "wavepacket.sparse_solve":
                solves[p][0] += dur[i]
                solves[p][1] += 1
    prop, run, lu = "wavepacket.propagate", "wavepacket.run", "wavepacket.splu"
    put("wavepacket.propagate_s", _fastest([dur[i] for i in plain]), "s", prop)
    put("wavepacket.coupled_run_s", _fastest([r[0] for r in runs.values() if r]), "s",
        prop, run)
    put("wavepacket.free_run_s", _fastest([r[1] for r in runs.values() if len(r) > 1]), "s",
        prop, run)
    put("wavepacket.sparse_factorize_ms", 1e3 * _fastest(durations(lu)), "ms", lu)
    put("wavepacket.sparse_solve_s", _fastest([v[0] for v in solves.values()]), "s", prop, lu)
    put("wavepacket.sparse_solve_calls", _median([v[1] for v in solves.values()]), "count",
        prop, lu)
    return m
