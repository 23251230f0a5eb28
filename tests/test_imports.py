"""Import cost: the package loads no scipy, and its snapshot and CSV
formatter only where a run writes frames or a sweep writes its table.

Every check runs in a fresh interpreter, because the test process itself
has long since imported everything.  The absolute ``src`` of the tree
under test goes first on PYTHONPATH, so the child imports the same code
whatever the caller's working directory and PYTHONPATH.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twostate

SRC = str(Path(twostate.__file__).resolve().parents[1])

# appended to each probe: report the scipy modules the process loaded
REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def _run(code: str, cwd: Path) -> subprocess.CompletedProcess:
    """``code`` run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, cwd=cwd, env=env,
    )


def _fresh(code: str, cwd: Path) -> str:
    """Last stdout line of ``code`` run in a fresh interpreter."""
    proc = _run(code, cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def _scipy_loaded_by(code: str, cwd: Path) -> list[str]:
    return json.loads(_fresh(code + REPORT, cwd))


def _cli(argv: list[str]) -> str:
    return (
        "import sys\nfrom twostate.cli import main\n"
        f"rc = main({argv!r})\nif rc:\n    sys.exit(rc)\n"
    )


@pytest.mark.parametrize(
    "module",
    ["twostate", "twostate.cli", "twostate.oracle", "twostate.checks",
     "twostate.wavepacket"],
)
def test_import_loads_no_scipy(module, tmp_path):
    assert _scipy_loaded_by(f"import {module}", tmp_path) == []


def test_sweep_loads_no_scipy(tmp_path):
    code = _cli(["sweep", "phase", "--out", str(tmp_path / "phase.csv")])
    assert _scipy_loaded_by(code, tmp_path) == []
    assert (tmp_path / "phase.csv").is_file()


@pytest.mark.parametrize("command", ["verify", "greens"])
def test_oracle_commands_load_no_scipy(command, tmp_path):
    # the grid, quadrature and extremum oracles run on numpy alone
    assert _scipy_loaded_by(_cli([command]), tmp_path) == []


# a grid on which the packet crosses the detector cleanly in a fraction
# of a second
SMALL_WAVEPACKET = [
    "wavepacket", "--sigma", "45", "--x0", "-225", "--half-domain", "580",
    "--points", "2049", "--dt", "1", "--steps", "545",
]


@pytest.mark.parametrize(
    "code, loaded",
    [("import twostate.wavepacket", "False"),
     (_cli(SMALL_WAVEPACKET), "False"),
     (_cli(SMALL_WAVEPACKET + ["--snapshots", "frames.csv", "--stride", "100"]), "True")],
    ids=["import", "run", "snapshots"],
)
def test_the_snapshot_formatter_loads_with_a_snapshot_run_only(code, loaded, tmp_path):
    probe = "\nimport sys\nprint('twostate.g15' in sys.modules)\n"
    assert _fresh(code + probe, tmp_path) == loaded


@pytest.mark.parametrize(
    "code, loaded",
    [("import twostate", False), (_cli(["greens"]), False), (_cli(["verify"]), False),
     (_cli(["sweep", "tau_vs_energy", "--out", "tau.csv"]), True)],
    ids=["import", "greens", "verify", "sweep"],
)
def test_the_csv_formatter_loads_with_a_sweep_only(code, loaded, tmp_path):
    # a sweep formats its CSV by g15; none of these loads scipy
    probe = "\nimport sys\nprint('twostate.g15' in sys.modules)\n"
    proc = _run(code + probe + REPORT, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == [str(loaded), "[]"]


def test_wavepacket_loads_no_scipy(tmp_path):
    # the run steps, sums and transforms in numpy alone, so one OpenBLAS,
    # numpy's, serves it
    assert _scipy_loaded_by(_cli(SMALL_WAVEPACKET), tmp_path) == []


# make scipy unimportable, as on a numpy-only install
BLOCK_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

sys.meta_path.insert(0, BlockScipy())
"""


def test_wavepacket_without_scipy_prints_what_it_prints_with_it(tmp_path):
    blocked = _run(BLOCK_SCIPY + _cli(SMALL_WAVEPACKET), tmp_path)
    assert blocked.returncode == 0, blocked.stderr
    assert blocked.stdout == _run(_cli(SMALL_WAVEPACKET), tmp_path).stdout
    assert "t_arrival" in blocked.stdout


def test_wavepacket_without_scipy_writes_its_snapshots(tmp_path):
    snapshots = tmp_path / "frames.csv"
    argv = SMALL_WAVEPACKET + ["--snapshots", str(snapshots), "--stride", "100"]
    proc = _run(BLOCK_SCIPY + _cli(argv), tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert snapshots.read_bytes().startswith(b"t,x,density1,density2\n")


def test_wavepacket_names_import_without_scipy(tmp_path):
    code = BLOCK_SCIPY + (
        "from twostate import (BoundaryContaminationError, DelayResult, "
        "GridSpec, NoCrossingError, NormDriftError, PacketSpec)\n"
    )
    assert _scipy_loaded_by(code, tmp_path) == []


FROM_IMPORT = """
for name in twostate.__all__:
    exec(f"from twostate import {name}", ns)
"""
GETATTR = """
via_getattr = {name: getattr(twostate, name) for name in twostate.__all__}
"""


@pytest.mark.parametrize("first", ["from_import", "getattr"])
def test_exports_resolve_to_their_submodules(first, tmp_path):
    # Whichever lookup runs first goes through the package's lazy
    # resolution; both must give the object defined by the submodule.
    lookups = FROM_IMPORT + GETATTR if first == "from_import" else GETATTR + FROM_IMPORT
    code = """
import importlib, json, twostate
ns = {}
""" + lookups + """
owners = {}
for sub in ("params", "greens", "scatter", "times", "sweep", "oracle", "wavepacket"):
    mod = importlib.import_module(f"twostate.{sub}")
    for name in mod.__all__:
        if name in twostate.__all__:
            owners[name] = mod
try:
    twostate.no_such_name
    unknown = "resolved"
except AttributeError:
    unknown = "AttributeError"
print(json.dumps({
    "unowned": sorted(set(twostate.__all__) - set(owners)),
    "from_mismatch": sorted(
        n for n in twostate.__all__ if ns[n] is not getattr(owners[n], n, None)
    ),
    "getattr_mismatch": sorted(
        n for n in twostate.__all__
        if via_getattr[n] is not getattr(owners[n], n, None)
    ),
    "missing_from_dir": sorted(set(twostate.__all__) - set(dir(twostate))),
    "unknown": unknown,
}))
"""
    report = json.loads(_fresh(code, tmp_path))
    assert report == {
        "unowned": [],
        "from_mismatch": [],
        "getattr_mismatch": [],
        "missing_from_dir": [],
        "unknown": "AttributeError",
    }
