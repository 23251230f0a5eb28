import importlib.metadata
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import twostate
from twostate import checks, cli

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# the most float64 values one numpy array can hold
MAX_FLOATS = np.iinfo(np.intp).max // 8

WP_FAST = [
    "--energy", "1", "--potential", "2", "--sigma", "20", "--x0", "-100",
    "--half-domain", "300", "--points", "1025", "--dt", "0.4", "--steps", "370",
]


def _kv(out):
    pairs = {}
    for line in out.splitlines():
        if " = " in line:
            key, val = line.split(" = ", 1)
            pairs[key] = val
    return pairs


def test_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "tau.csv"
    rc = cli.main(["sweep", "tau_vs_energy", "--out", str(out), "--count", "11"])
    assert rc == 0
    assert str(out) in capsys.readouterr().out
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape == (11, 4)


def test_sweep_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    cli.main(["sweep", "transmission", "--out", str(a), "--count", "11"])
    cli.main(["sweep", "transmission", "--out", str(b), "--count", "11"])
    assert a.read_bytes() == b.read_bytes()


def test_sweep_custom_series(tmp_path):
    out = tmp_path / "t.csv"
    rc = cli.main(
        ["sweep", "transmission", "--out", str(out), "--coupling", "1,2",
         "--count", "5"]
    )
    assert rc == 0
    header = out.read_text(encoding="utf-8").splitlines()[0]
    assert header == (
        "epsilon,transmission[coupling_sq=1],transmission[coupling_sq=4]"
    )


# each refused sweep call, --out aside, and its one error line
SWEEP_REFUSALS = {
    "transmission --epsilon 0.5":
        "sweep 'transmission' takes fixed 'potential' and 'coupling_sq', not 'epsilon'",
    "transmission --coupling 1 --coupling-sq 1":
        "give either --coupling or --coupling-sq, not both",
    "tau_vs_coupling --coupling-sq 1":
        "sweep 'tau_vs_coupling' takes fixed 'potential' and 'epsilon', not 'coupling_sq'",
    "tau_vs_energy": "sweep needs an output path (--out)",  # given no --out
    "transmission --from 0.9 --to 0.1": "empty sweep range after clipping: [0.9, 0.1] for epsilon",
    # SweepSpec checks the format, not argparse, so the flag gets one line too
    "transmission --format bad": "format must be csv, svg or both, got 'bad'",
}


@pytest.mark.parametrize("argv", [["sweep", *call.split()] for call in SWEEP_REFUSALS])
def test_sweep_usage_errors(argv, tmp_path, capsys):
    message = SWEEP_REFUSALS[" ".join(argv[1:])]
    if len(argv) > 2:
        argv = argv + ["--out", str(tmp_path / "x.csv")]
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_an_empty_float_list_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "transmission", "--epsilon", ",", "--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        " error: argument --epsilon: expected a comma-separated float list\n")
    assert not out.exists()


@pytest.mark.parametrize("how", ["flag", "config"])
def test_coupling_for_a_sweep_without_a_coupling_series_exits_2(how, tmp_path, capsys):
    # tau_vs_coupling sweeps coupling_sq and takes epsilon as its series; a
    # config file shared with greens sets coupling too
    out, cfg = tmp_path / "t.csv", tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"coupling": 2, "potential": 1.5, "energy": 0.5}), encoding="utf-8")
    given = ["--coupling", "1"] if how == "flag" else ["--config", str(cfg)]
    assert cli.main(["sweep", "tau_vs_coupling", *given, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --coupling gives the coupling_sq series, which sweep "
                            "'tau_vs_coupling' does not take\n")
    assert not out.exists()


def test_config_file_and_flag_precedence(tmp_path):
    out_cfg = tmp_path / "from_config.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"count": 7, "out": str(out_cfg), "coupling-sq": [2.0]}),
        encoding="utf-8",
    )
    rc = cli.main(["sweep", "tau_vs_energy", "--config", str(cfg)])
    assert rc == 0
    assert np.loadtxt(out_cfg, delimiter=",", skiprows=1).shape == (7, 2)

    out_flag = tmp_path / "from_flag.csv"
    rc = cli.main(
        ["sweep", "tau_vs_energy", "--config", str(cfg), "--count", "5",
         "--out", str(out_flag)]
    )
    assert rc == 0
    assert np.loadtxt(out_flag, delimiter=",", skiprows=1).shape == (5, 2)


@pytest.mark.parametrize(
    ("quantity", "key", "value"),
    [
        ("transmission", "coupling_sq", 1),
        ("transmission", "coupling", 1.5),
        ("tau_vs_coupling", "epsilon", 0.25),
    ],
)
def test_config_scalar_is_a_one_element_list(quantity, key, value, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}), encoding="utf-8")
    from_config, from_flag = tmp_path / "config.csv", tmp_path / "flag.csv"
    argv = ["sweep", quantity, "--count", "5"]
    assert cli.main([*argv, "--config", str(cfg), "--out", str(from_config)]) == 0
    flag = "--" + key.replace("_", "-")
    assert cli.main([*argv, flag, str(value), "--out", str(from_flag)]) == 0
    assert from_config.read_bytes() == from_flag.read_bytes()


@pytest.mark.parametrize("value", ["1,4", "abc", True, [1, "x"], {"a": 1}, [[1]]])
def test_config_non_numeric_series_exits_2(value, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"coupling_sq": value}), encoding="utf-8")
    rc = cli.main(
        ["sweep", "transmission", "--config", str(cfg),
         "--out", str(tmp_path / "x.csv")]
    )
    assert rc == 2
    assert "coupling_sq must be a number or a list of numbers" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize(
    ("command", "config", "message"),
    [
        ("sweep", {"potential": [1]}, "potential must be a number, got [1]"),
        ("sweep", {"count": 2.7}, "count must be an integer, got 2.7"),
        ("sweep", {"count": True}, "count must be an integer, got True"),
        ("wavepacket", {"points": "8193"}, "points must be an integer, got '8193'"),
        ("sweep", {"out": 5}, "out must be a string, got 5"),
        # JSON integers beyond the float range
        ("greens", {"potential": 10**400}, "potential must be a number within the float range"),
        ("sweep", {"coupling": [1, -(10**400)]},
         "coupling must be a number or a list of numbers within the float range"),
        ("verify", [1, 2], "config file must contain a JSON object"),
    ],
)
def test_config_value_of_wrong_type_exits_2(
    command, config, message, tmp_path, capsys
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    argv = [command, "--config", str(cfg)]
    if command == "sweep":
        # a flag does not excuse a config value of the wrong type
        argv = [command, "transmission", "--config", str(cfg),
                "--out", str(tmp_path / "x.csv")]
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("quantity", ["tau_vs_energy", "tau_vs_coupling"])
def test_config_from_to_match_flags(quantity, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"from": 0.4, "to": 0.6, "count": 3}), encoding="utf-8")
    from_config, from_flag = tmp_path / "config.csv", tmp_path / "flag.csv"
    argv = ["sweep", quantity]
    assert cli.main([*argv, "--config", str(cfg), "--out", str(from_config)]) == 0
    assert cli.main(
        [*argv, "--from", "0.4", "--to", "0.6", "--count", "3",
         "--out", str(from_flag)]
    ) == 0
    assert from_config.read_bytes() == from_flag.read_bytes()
    assert np.loadtxt(from_config, delimiter=",", skiprows=1)[:, 0].tolist() == [
        0.4, 0.5, 0.6
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["greens", "--coupling", "1e200"],
        ["sweep", "transmission", "--coupling", "1e200"],
        ["sweep", "transmission", "--potential", "1e-170"],
    ],
)
def test_overflow_exits_2(argv, tmp_path, capsys):
    detail = "coupling**2 overflows at coupling=1e+200; coupling must be at most 1.341e+154"
    if "--potential" in argv:  # V**2 underflows instead
        detail = "potential=1e-170 is too small: 16 V**2 eps (1 - eps) underflows to 0"
    if argv[0] == "sweep":
        argv = [*argv, "--out", str(tmp_path / "x.csv")]
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and detail in lines[0]


def _child_env():
    """Environment in which a child process imports the tree under test,
    even though cwd moves and the caller's PYTHONPATH may be relative."""
    src = str(Path(twostate.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


def _run_cli(argv, cwd):
    """The CLI in a fresh process, with Python's default warning filters."""
    env = _child_env()
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run(
        [sys.executable, "-m", "twostate.cli", *argv],
        capture_output=True, text=True, timeout=120, cwd=cwd, env=env,
    )


def test_subnormal_coupling_sweep_is_quiet(tmp_path):
    # 16 eps (1 - eps) V**2 / k0**2 overflows at k0**2 = 5e-324, so every
    # cell is mended: tau is a subnormal or zero, negative below eps = 1/2
    # and positive from there on
    out = tmp_path / "tau.csv"
    proc = _run_cli(
        ["sweep", "tau_vs_energy", "--coupling-sq", "5e-324", "--out", str(out)],
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    eps, tau = np.array([[float(cell) for cell in row.split(",")] for row in rows]).T
    assert np.all(np.abs(tau) < sys.float_info.min)
    # a cell printed as 0.5 may lie on either side of it
    assert np.all(np.signbit(tau[eps < 0.5])) and not np.any(np.signbit(tau[eps > 0.5]))
    assert np.count_nonzero(tau) > len(rows) // 2


def test_sweep_cell_out_of_range_exits_2(tmp_path):
    # the exact tau itself, about -2.5e310 at the first cell, is beyond the
    # float range: a typed error, not an inf cell
    out = tmp_path / "tau.csv"
    proc = _run_cli(
        ["sweep", "tau_vs_energy", "--coupling-sq", "4e-309",
         "--potential", "1e-307", "--out", str(out)],
        tmp_path,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith(
        "error: transition time overflows at epsilon=0.0001, potential=1e-307, coupling=")
    assert proc.stderr.endswith("; |tau| must stay below about 1.8e308\n")
    assert proc.stderr.count("\n") == 1
    assert not out.exists()


def test_sweep_phase_overflow_exits_2_quietly(tmp_path):
    # k0**2 G overflows: the typed error alone, with no numpy warning before it
    out = tmp_path / "phase.csv"
    proc = _run_cli(
        ["sweep", "phase", "--coupling-sq", "1e300", "--potential", "1e-300",
         "--out", str(out)],
        tmp_path,
    )
    assert proc.returncode == 2
    assert proc.stderr == (
        "error: m k0**2 G / (hbar**2 k) overflows at hbar=1.0, mass=0.5, "
        "coupling=1e+150; the amplitudes need m k0**2 / (2 hbar**2 "
        "sqrt(E (V - E))) below about 1.8e308\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        # propagate's spread hbar**2 k / (m sigma)
        (["wavepacket", "--hbar", "1e200"],
         "hbar**2 overflows at hbar=1e+200; hbar must be at most 1.341e+154"),
        # (x - x0)**2 on the grid and _run's dx**2, rejected before the
        # envelope, so numpy prints no overflow warning
        (["wavepacket", "--half-domain", "1e200"],
         "(half-domain - x0)**2 or k (half-domain - x0) overflows at "
         "half-domain 1e+200, x0=-300.0, k=0.5"),
        (["sweep", "transmission", "--coupling", "1e200", "--out", "t.csv"],
         "coupling**2 overflows at coupling=1e+200; coupling must be at most 1.341e+154"),
        # k0**2 and G are finite, their product is not
        (["greens", "--coupling", "1e150", "--hbar", "1e-150"],
         "effective strength k0**2 |G| overflows at coupling=1e+150, hbar=1e-150, "
         "mass=0.5, energy=0.5, potential=1.0; k0**2 sqrt(m / (2 hbar**2 (V - E))) "
         "must stay below about 1.8e308"),
        # counts that no numpy array can hold, refused before np.linspace
        (["sweep", "transmission", f"--count={2**63}", "--out", "t.csv"],
         f"count must be at most {MAX_FLOATS}, got {2**63}"),
        (["wavepacket", f"--points={2**63}"],
         f"points must be at most {MAX_FLOATS}, got {2**63}"),
        (["wavepacket", f"--steps={2**63}"],
         f"steps must be at most {MAX_FLOATS}, got {2**63}"),
        # the coupling cells' height k0 / width, refused before the grid
        (["wavepacket", "--coupling", "1e308"],
         "coupling / width overflows at coupling=1e+308, width=0.001"),
    ],
)
def test_range_errors_exit_2_with_one_typed_line(argv, message, tmp_path):
    proc = _run_cli(argv, tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {message}\n"
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv", [["sweep", "transmission", "--count=100"], ["wavepacket", "--points=1025"]]
)
def test_memory_error_exits_2_with_one_line(argv, monkeypatch, tmp_path, capsys):
    def linspace(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr(np, "linspace", linspace)
    if argv[0] == "sweep":
        argv = [*argv, "--out", str(tmp_path / "x.csv")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: Unable to allocate 745. GiB for an array\n"


def test_verify_reports_pass(monkeypatch, capsys):
    fake = [checks.CheckResult("alpha", True, "fine")]
    monkeypatch.setattr(checks, "run_verification", lambda: fake)
    rc = cli.main(["verify"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS alpha: fine" in out
    assert "all 1 checks passed" in out


def test_verify_reports_failure(monkeypatch, capsys):
    fake = [
        checks.CheckResult("alpha", True, "fine"),
        checks.CheckResult("beta", False, "broken"),
    ]
    monkeypatch.setattr(checks, "run_verification", lambda: fake)
    rc = cli.main(["verify"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL beta: broken" in out
    assert "1 of 2 checks failed: beta" in out


def test_wavepacket_free_run(capsys):
    rc = cli.main(["wavepacket", "--coupling", "0", *WP_FAST])
    out = capsys.readouterr().out
    assert rc == 0
    vals = _kv(out)
    assert float(vals["delay"]) == 0.0
    assert float(vals["transmitted_fraction"]) == pytest.approx(1.0, abs=1e-9)
    assert "analytic_transition_time" not in vals


def test_wavepacket_coupled_run(tmp_path, capsys):
    frames = tmp_path / "frames.csv"
    rc = cli.main(
        ["wavepacket", "--coupling", "1", "--snapshots", str(frames),
         "--stride", "100", *WP_FAST]
    )
    out = capsys.readouterr().out
    assert rc == 0
    vals = _kv(out)
    assert abs(float(vals["delay"])) <= 0.05
    assert float(vals["norm_drift"]) <= 1e-8
    assert float(vals["analytic_transition_time"]) == 0.0
    assert frames.read_text(encoding="utf-8").startswith("t,x,density1,density2\n")


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["--steps", "3000", "--points", "1025"], "edge density"),
        ([*WP_FAST, "--steps", "30"], "never crossed"),
        # rejected before the run
        ([*WP_FAST, "--half-domain", "nan"], "must be finite"),
        ([*WP_FAST, "--dt", "inf"], "must be finite"),
        ([*WP_FAST, "--width", "nan"], "regularization width"),
        ([*WP_FAST, "--x0", "-100000"], "x0=-100000.0"),
    ],
)
def test_wavepacket_run_guard_exits_2(argv, message, capsys):
    rc = cli.main(["wavepacket", *argv])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and message in lines[0]


@pytest.mark.parametrize(("argv", "message"),
                         [(["--half-domain", "180"], "edge density"),
                          (["--steps", "3000"], "edge density"),
                          (["--steps", "30"], "transmitted centroid never crossed")],
                         ids=["at-start", "mid-run", "no-crossing"])
def test_wavepacket_stopped_by_a_guard_writes_no_snapshots(argv, message, tmp_path, capsys):
    # exit 2 writes nothing, as for sweep: not even the frames before the guard
    frames = tmp_path / "frames.csv"
    rc = cli.main(["wavepacket", *WP_FAST, *argv, "--snapshots", str(frames),
                   "--stride", "10"])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not frames.exists()


def test_greens_defaults(capsys):
    rc = cli.main(["greens"])
    out = capsys.readouterr().out
    assert rc == 0
    vals = _kv(out)
    assert float(vals["greens_value"]) == pytest.approx(
        -0.7071067811865475, rel=1e-12
    )
    assert float(vals["effective_strength"]) == pytest.approx(
        0.7071067811865475, rel=1e-12
    )
    assert float(vals["oracle_gap"]) <= 1e-8


def test_greens_domain_error(capsys):
    rc = cli.main(["greens", "--energy", "2", "--potential", "1"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("how", ["flag", "config"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["x1", "x2"])
def test_greens_nonfinite_position_exits_2(name, value, how, tmp_path, capsys):
    # the positions reach greens_constant as given, so they are checked first
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({name: value}), encoding="utf-8")  # NaN, Infinity: JSON as json reads it
    given = [f"--{name}={value}"] if how == "flag" else ["--config", str(cfg)]
    assert cli.main(["greens", *given]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {name} must be finite, got {value}\n"


def test_greens_underflow_exits_2_with_no_output(tmp_path):
    # G(x, x) is about -7e-451: every value is computed before the first is
    # printed, so the refusal leaves stdout empty
    proc = _run_cli(["greens", "--energy", "0.5e300", "--potential", "1e300",
                     "--mass", "1e-300", "--hbar", "1e150"], tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: the Green's function underflows at energy=5e+299, potential=1e+300, "
        "hbar=1e+150, mass=1e-300; sqrt(m / (2 hbar**2 (V - E))) must stay above "
        "about 2.5e-324\n"
    )


@pytest.mark.parametrize(("argv", "err"), [
    (["greens", "--x1", "-1e-3"], ""),
    (["greens", "--x1", "-inf"], "error: x1 must be finite, got -inf\n"),
    (["sweep", "transmission", "--from", "-1e-3"], ""),
    (["sweep", "tau_vs_coupling", "--epsilon", "-1e-3,0.5"],
     "error: epsilon must lie in (0, 1), got -0.001\n"),
    (["wavepacket", "--coupling", "0", *WP_FAST, "--x0", "-1e2"], ""),
], ids=["greens", "greens-inf", "sweep", "sweep-list", "wavepacket"])
def test_a_negative_value_after_a_space_reads_as_after_an_equals_sign(argv, err, tmp_path,
                                                                      capsys):
    # argparse by itself takes only -1 and -1.5 for negative numbers
    out = ["--out", str(tmp_path / "s.csv")] if argv[0] == "sweep" else []
    joined = [*argv[:-2], f"{argv[-2]}={argv[-1]}"]
    assert cli.main([*argv, *out]) == (2 if err else 0)
    spaced = capsys.readouterr()
    assert spaced.err == err
    assert cli.main([*joined, *out]) == (2 if err else 0)
    assert capsys.readouterr() == spaced


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def _declared_scripts():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10 has no tomllib
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


def _assert_greens_runs(argv, **kwargs):
    proc = subprocess.run(
        [*argv, "greens"], capture_output=True, text=True, timeout=120, **kwargs
    )
    assert proc.returncode == 0, proc.stderr
    assert "greens_value" in proc.stdout


def test_console_script_installed(tmp_path):
    # Checks the declared entry point from source, the way an installer's
    # wrapper script would run it, so no install step is needed.
    scripts = _declared_scripts()
    assert "twostate" in scripts
    ep = importlib.metadata.EntryPoint(
        name="twostate", value=scripts["twostate"], group="console_scripts"
    )
    assert ep.load() is cli.main
    wrapper = (
        f"import sys; from {ep.module} import {ep.attr}; sys.exit({ep.attr}())"
    )
    _assert_greens_runs(
        [sys.executable, "-c", wrapper], cwd=tmp_path, env=_child_env()
    )


@pytest.mark.skipif(
    shutil.which("twostate") is None,
    reason=(
        "no twostate on PATH; install it with "
        "pip install -e . --no-build-isolation (see README, Install)"
    ),
)
def test_console_script_on_path():
    _assert_greens_runs([shutil.which("twostate")])
