"""Self-test of the benchmark harness.

    python3 -m pytest bench

Each workload runs once at a tiny size (``--smoke``) in both modes, and
every metric that BENCHMARK.json names must come back with its unit.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(cwd, *args):
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_reports_every_metric_with_its_unit(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_the_package():
    bare = ROOT / ".bench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _bench(bare, "--workload", "library_warm", "--seed", "1", "--seconds", "1",
                      "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "no src/twostate" in proc.stderr


def test_layer_metrics_counts_calls_and_self_time():
    # op -> run_sweep -> (scattering_phases -> solve_amplitudes); op -> cli.main -> run_sweep
    spans = [
        ["op", "sweeps", -1, 1, 0.0, 10.0],
        ["sweep.run_sweep", "phase", 0, 1, 1.0, 5.0],
        ["scatter.scattering_phases", "", 1, 1, 2.0, 3.0],
        ["scatter.solve_amplitudes", "", 2, 1, 2.1, 2.9],
        ["cli.main", "sweep", 0, 1, 5.0, 9.0],
        ["sweep.run_sweep", "phase", 4, 1, 6.0, 7.0],
    ]
    m = tracing.layer_metrics(spans, [])
    assert m["scatter.calls"] == (2, "count")
    assert m["sweep.closed_form_calls"] == (1.0, "count")  # median of 2 and 0
    assert m["cli.sweep_self_ms"] == (3000.0, "ms")
    assert m["sweep.phase_ms"] == (1000.0, "ms")  # the faster of 4 s and 1 s
    assert m["checks.unitarity_grid_calls"] == (0.0, "count")
    assert "sweep.phase_ms" not in tracing.layer_metrics(spans, ["sweep.run_sweep"])


def test_seeded_csv_check_catches_a_changed_digit():
    import random

    from twostate import sweep

    s = workloads.seeded_sweep(random.Random(5), "tau_vs_energy")
    (ROOT / ".bench").mkdir(exist_ok=True)
    out = ROOT / ".bench" / "selftest-tau.csv"
    sweep.run_sweep(sweep.SweepSpec(
        quantity="tau_vs_energy",
        variable=sweep.SweepVariable("epsilon", s["start"], s["stop"], workloads.SWEEP_COUNT),
        fixed={"potential": s["potential"], "coupling_sq": s["series"]}, output=out))
    text = out.read_text(encoding="utf-8")
    out.unlink()
    assert workloads.check_seeded_csv(text, s) == []
    lines = text.split("\n")
    cells = lines[100].split(",")
    cells[2] = repr(float(cells[2]) * (1.0 + 1e-10))
    lines[100] = ",".join(cells)
    assert workloads.check_seeded_csv("\n".join(lines), s)
