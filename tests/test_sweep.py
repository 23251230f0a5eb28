import hashlib
import math

import numpy as np
import pytest

from twostate import ReducedParams, SweepSpec, SweepVariable, run_sweep, transition_time
from twostate import cli
from twostate.sweep import QUANTITIES, default_spec

# SHA-256 of the CSVs written by the per-quantity implementation that
# QUANTITY_ROWS replaced; the defaults are the figures the benchmark pins.
DEFAULT_SHA256 = {
    "transmission": "b7fd1d52151c381dcddef7c0dc5733549177f80ec63aeecd650703e83b1e509c",
    "phase": "9d84ca9215aced25c13dffdbe55dd132335a003f791dd21878dff94b831a68fb",
    "tau_vs_energy": "3de73be26eae03b8f30e7c1fd6b92e23c1e44a7678cd880c25564616cb084e41",
    "tau_vs_coupling": "bee720f99e85dc5be7b83e7fac39917883d82eace644fb42c907a3fd7ef316e0",
}
POTENTIAL_2_SHA256 = {
    "transmission": "c0769d35f2e22d604974faacfb5ad009a5a4e20f14f9dd5a7063f93a46b5d799",
    "phase": "f5b5666daea377c22d0f3555080f64b47f82ce46c96625fc4f29c1ad0756f521",
    "tau_vs_energy": "0299ffb1e18ee8b2e9f8db5b32dc49db7ba12cfb7cf4b1f72c133e2bddcdc80e",
    "tau_vs_coupling": "8969bd953d78e4cea29c7daab30ffa47117ddcc9d52b387c5575efe357fb4543",
}
MARGIN_1E5_SHA256 = {
    "transmission": "b4fbadeb2c1a0b55656772880538f79dcc23cee8d2bd2a4d6fac7d99d8ffb367",
    "phase": "87e972cdbfb36e8fb58f9cbfc3cc58e50cd483046c0d4a8003a21fd0d921dc64",
    "tau_vs_energy": "2ecdf72bf0b039d34935f38b832154f1ea77d44127c846e484f476b0f3aa4e3e",
    "tau_vs_coupling": "f2a0a9a19b93efbd8a7d3e6d94cb6c89101ac3bc3eb084ff307020a9cf3a1ccf",
}


def _rows(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("quantity", QUANTITIES)
def test_default_csv_golden_hash(quantity, tmp_path):
    lib, cmd = tmp_path / "library.csv", tmp_path / "cli.csv"
    run_sweep(default_spec(quantity, lib))
    assert cli.main(["sweep", quantity, "--out", str(cmd)]) == 0
    assert _sha256(lib) == DEFAULT_SHA256[quantity]
    assert _sha256(cmd) == DEFAULT_SHA256[quantity]


@pytest.mark.parametrize("quantity", QUANTITIES)
@pytest.mark.parametrize(
    ("flags", "digests"),
    [(["--potential", "2"], POTENTIAL_2_SHA256),
     (["--margin", "1e-5"], MARGIN_1E5_SHA256)],
    ids=["potential-2", "margin-1e-5"],
)
def test_cli_csv_golden_hash(quantity, flags, digests, tmp_path):
    out = tmp_path / "out.csv"
    assert cli.main(["sweep", quantity, *flags, "--out", str(out)]) == 0
    assert _sha256(out) == digests[quantity]


def test_default_specs_are_well_formed(tmp_path):
    for q in QUANTITIES:
        spec = default_spec(q, tmp_path / f"{q}.csv")
        assert spec.quantity == q
        assert spec.variable.count == 999
        if q == "tau_vs_coupling":
            assert spec.variable.name == "coupling_sq"
            assert spec.fixed["epsilon"] == (0.6, 0.7, 0.8, 0.9)
        else:
            assert spec.variable.name == "epsilon"
    with pytest.raises(ValueError):
        default_spec("bogus", tmp_path / "x.csv")


def test_csv_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_sweep(default_spec("transmission", a))
    run_sweep(default_spec("transmission", b))
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text(encoding="utf-8")
    assert "\r" not in text
    assert text.endswith("\n")


def test_csv_header_and_shape(tmp_path):
    path = tmp_path / "t.csv"
    run_sweep(default_spec("transmission", path))
    header = path.read_text(encoding="utf-8").splitlines()[0]
    cols = header.split(",")
    assert cols[0] == "epsilon"
    assert len(cols) == 4
    assert all(c.startswith("transmission[coupling_sq=") for c in cols[1:])
    data = _rows(path)
    assert data.shape == (999, 4)
    assert data[0, 0] == pytest.approx(1e-4, rel=1e-12)
    assert data[-1, 0] == pytest.approx(1.0 - 1e-4, rel=1e-12)


def test_single_series_label(tmp_path):
    path = tmp_path / "p.csv"
    run_sweep(default_spec("phase", path))
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "epsilon,phase"


def test_values_match_closed_form(tmp_path):
    path = tmp_path / "tau.csv"
    spec = SweepSpec(
        quantity="tau_vs_coupling",
        variable=SweepVariable("coupling_sq", 0.5, 4.0, 8),
        fixed={"potential": 1.0, "epsilon": (0.75,)},
        output=path,
    )
    run_sweep(spec)
    data = _rows(path)
    for ksq, tau in data:
        expected = transition_time(ReducedParams(0.75, 1.0, math.sqrt(ksq)))
        assert tau == pytest.approx(expected, rel=1e-12)


def test_fifteen_digit_roundtrip(tmp_path):
    path = tmp_path / "tau.csv"
    spec = SweepSpec(
        quantity="tau_vs_energy",
        variable=SweepVariable("epsilon", 0.25, 0.25, 2),
        fixed={"potential": 1.0, "coupling_sq": 1.0},
        output=path,
    )
    with pytest.raises(ValueError):
        run_sweep(spec)  # degenerate range
    spec = SweepSpec(
        quantity="tau_vs_energy",
        variable=SweepVariable("epsilon", 0.25, 0.75, 3),
        fixed={"potential": 1.0, "coupling_sq": 1.0},
        output=path,
    )
    run_sweep(spec)
    line = path.read_text(encoding="utf-8").splitlines()[1]
    assert line.split(",")[1] == "-0.577350269189626"


def test_margin_clips_open_interval(tmp_path):
    path = tmp_path / "wide.csv"
    spec = SweepSpec(
        quantity="tau_vs_energy",
        variable=SweepVariable("epsilon", 0.0, 1.0, 11),
        fixed={"potential": 1.0, "coupling_sq": 1.0},
        output=path,
        margin=1e-3,
    )
    run_sweep(spec)
    data = _rows(path)
    assert data[0, 0] == pytest.approx(1e-3, rel=1e-12)
    assert data[-1, 0] == pytest.approx(1.0 - 1e-3, rel=1e-12)


def test_svg_structure(tmp_path):
    path = tmp_path / "t.svg"
    run_sweep(default_spec("transmission", path, fmt="svg"))
    text = path.read_text(encoding="utf-8")
    assert text.startswith("<svg ")
    assert text.endswith("</svg>\n")
    assert text.count("<polyline ") == 3
    assert "\r" not in text


def test_both_formats(tmp_path):
    out = tmp_path / "t.csv"
    written = run_sweep(default_spec("tau_vs_energy", out, fmt="both"))
    assert sorted(p.suffix for p in written) == [".csv", ".svg"]
    for p in written:
        assert p.exists()


def test_run_sweep_validation(tmp_path):
    good = SweepVariable("epsilon", 0.1, 0.9, 5)
    out = tmp_path / "x.csv"
    with pytest.raises(ValueError):
        run_sweep(SweepSpec("bogus", good, {"coupling_sq": 1.0}, out))
    with pytest.raises(ValueError):
        run_sweep(
            SweepSpec(
                "transmission",
                SweepVariable("coupling_sq", 0.1, 1.0, 5),
                {"coupling_sq": 1.0},
                out,
            )
        )
    with pytest.raises(ValueError):
        run_sweep(
            SweepSpec("transmission", good, {"coupling_sq": 1.0}, out, format="png")
        )
    with pytest.raises(ValueError):
        run_sweep(
            SweepSpec("transmission", good, {"coupling_sq": 1.0}, out, margin=0.7)
        )
    with pytest.raises(ValueError):
        run_sweep(SweepSpec("transmission", good, {"potential": 1.0}, out))
    with pytest.raises(ValueError):
        SweepVariable("epsilon", 0.1, 0.9, 1)
    with pytest.raises(ValueError):
        SweepVariable("epsilon", math.nan, 0.9, 5)
    most = np.iinfo(np.intp).max // 8  # the most float64 values one array can hold
    with pytest.raises(ValueError, match=f"^count must be at most {most}, got {2**63}$"):
        SweepVariable("epsilon", 0.1, 0.9, 2**63)


@pytest.mark.parametrize("count, error, match", [
    (10.5, TypeError, r"^count must be an integer, got float$"),
    (10.0, TypeError, r"^count must be an integer, got float$"),
    (True, TypeError, r"^count must be an integer, got bool$"),
    (1, ValueError, r"^count must be at least 2, got 1$"),
])
def test_sweep_count_follows_the_one_count_rule(count, error, match):
    # the rule of GridSpec's points and steps: an int, refused before numpy
    with pytest.raises(error, match=match):
        SweepVariable("epsilon", 0.0, 1.0, count)


def test_sweep_count_is_stored_as_a_python_int():
    count = SweepVariable("epsilon", 0.0, 1.0, np.int64(7)).count
    assert type(count) is int and count == 7
