import dataclasses
import json
import math
import operator
import re

import numpy as np
import pytest

from twostate import checks, oracle, scatter, times

EXPECTED_ORDER = [
    "unitarity_grid",
    "closed_form_consistency",
    "phase_derivative_oracle",
    "structural_laws",
    "extremum_law",
    "reduction_chain",
    "dwell_limit",
    "taxonomy_identities",
]

# one printed figure: "label = value", with " (rule bound)" if it is asserted
_FIGURE = re.compile(r"(?P<label>.+) = (?P<value>\S+)(?: \((?P<rule><=|>=|>|==|in) (?P<bound>[^()]+)\))?")
_HOLDS = {"<=": operator.le, ">=": operator.ge, ">": operator.gt, "==": operator.eq,
          "in": lambda value, bound: bound[0] <= value <= bound[1]}


def _failing(detail: str) -> list[str]:
    """The labels of the printed figures whose printed value is outside
    their printed bound."""
    failing = []
    for part in detail.split("; "):
        figure = _FIGURE.fullmatch(part)
        assert figure, part
        if figure["rule"]:
            bound = json.loads(figure["bound"])  # a number, or [low, high] for "in"
            if not _HOLDS[figure["rule"]](float(figure["value"]), bound):
                failing.append(figure["label"])
    return failing


def _assert_fails(result: checks.CheckResult) -> None:
    """The check fails, and its text names a figure outside its bound."""
    assert not result.passed
    assert _failing(result.detail), result.detail


def test_full_verification_passes():
    results = checks.run_verification()
    assert [r.name for r in results] == EXPECTED_ORDER
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"
        assert r.detail and _failing(r.detail) == []


def test_delay_sign_fault_is_caught(monkeypatch):
    real = times.group_delays

    def flipped(p):
        return tuple(-t for t in real(p))

    monkeypatch.setattr(times, "group_delays", flipped)
    _assert_fails(checks.check_phase_derivative_oracle())
    _assert_fails(checks.check_closed_form_consistency())
    # checks that do not involve the delay formula keep passing
    assert checks.check_unitarity_grid().passed


def test_unitarity_fault_is_caught(monkeypatch):
    real = scatter.solve_amplitudes

    def skewed(p):
        amps = real(p)
        return dataclasses.replace(
            amps, transmission_prob=amps.transmission_prob + 1e-6
        )

    monkeypatch.setattr(scatter, "solve_amplitudes", skewed)
    _assert_fails(checks.check_unitarity_grid())
    assert checks.check_structural_laws().passed


def test_transition_time_skew_is_caught(monkeypatch):
    real = times.transition_time
    monkeypatch.setattr(times, "transition_time", lambda r: real(r) * (1.0 + 1e-9))
    _assert_fails(checks.check_closed_form_consistency())


def test_transition_time_nan_is_caught(monkeypatch):
    real = times.transition_time

    def one_nan(r):
        tau = np.array(real(r))
        tau.flat[0] = np.nan
        return tau

    monkeypatch.setattr(times, "transition_time", one_nan)
    _assert_fails(checks.check_closed_form_consistency())


def test_transition_time_sign_fault_is_caught(monkeypatch):
    real = times.transition_time
    monkeypatch.setattr(times, "transition_time", lambda r: -real(r))
    result = checks.check_structural_laws()
    _assert_fails(result)
    assert "points off the sign law = 999 (== 0)" in result.detail


def test_check_result_fields():
    r = checks.CheckResult(name="x", passed=True, detail="d")
    assert (r.name, r.passed, r.detail) == ("x", True, "d")
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.passed = False


def test_group_delay_nan_is_caught(monkeypatch):
    # max(0.0, nan) is 0.0, so a running Python max would pass this fault
    real = times.group_delays
    monkeypatch.setattr(
        times, "group_delays", lambda p: tuple(t * np.nan for t in real(p))
    )
    result = checks.check_taxonomy_identities()
    _assert_fails(result)
    assert "identity defect = nan" in result.detail


def test_extremal_coupling_nan_is_caught(monkeypatch):
    monkeypatch.setattr(times, "extremal_coupling", lambda eps, v: (np.nan, np.nan))
    result = checks.check_extremum_law()
    _assert_fails(result)
    assert "= nan (<= 1e-06)" in result.detail


def test_regularized_residual_nan_is_caught(monkeypatch):
    real = oracle.solve_regularized
    monkeypatch.setattr(
        oracle,
        "solve_regularized",
        lambda p, w: dataclasses.replace(real(p, w), residual=np.nan),
    )
    result = checks.check_reduction_chain()
    _assert_fails(result)
    assert "max residual = nan" in result.detail


@pytest.mark.parametrize(
    "rule, bound, shown",
    [("<=", 1.0, "1"), (">=", 1.0, "1"), (">", 1.0, "1"), ("==", 0.0, "0"),
     ("in", (3.5, 4.5), "[3.5, 4.5]")],
)
def test_nan_meets_no_rule(rule, bound, shown):
    result = checks._result("x", ("a", math.nan, rule, bound))
    _assert_fails(result)
    assert result.detail == f"a = nan ({rule} {shown})"


def test_a_figure_without_a_rule_never_fails():
    result = checks._result("x", ("a", math.nan), ("b", -math.inf), ("n", 7))
    assert result == checks.CheckResult("x", True, "a = nan; b = -inf; n = 7")


def test_every_figure_is_printed_with_its_bound():
    result = checks._result(
        "x",
        ("a", 4.441e-16, "<=", 1e-12),
        ("b", 0.9971358, ">=", 0.8),
        ("c", 2000.0, ">", 1e2),
        ("d", 3, "==", 0),
        ("e", 4.0, "in", (3.5, 4.5)),
        ("f", 0.6841),
    )
    _assert_fails(result)
    assert result.detail == (
        "a = 4.441e-16 (<= 1e-12); b = 0.9971 (>= 0.8); c = 2000 (> 100); "
        "d = 3 (== 0); e = 4 (in [3.5, 4.5]); f = 0.6841"
    )
    assert _failing(result.detail) == ["d"]


def test_a_bound_is_met_at_its_edge():
    assert checks._result("x", ("a", 1.0, "<=", 1.0), ("b", 4.5, "in", (3.5, 4.5)),
                          ("c", 0.8, ">=", 0.8)).passed
    assert not checks._result("x", ("a", 1.0, ">", 1.0)).passed


def test_errors_that_stop_falling_are_caught(monkeypatch):
    real = oracle.convergence_study

    def swapped(p, widths):
        report = real(p, widths)
        e = report.errors
        return dataclasses.replace(report, errors=(e[1], e[0], e[2]))

    monkeypatch.setattr(oracle, "convergence_study", swapped)
    result = checks.check_reduction_chain()
    _assert_fails(result)
    assert _failing(result.detail) == ["width steps where the error does not fall"]


def test_dwell_that_stops_falling_is_caught(monkeypatch):
    real = oracle.dwell_time_regularized
    monkeypatch.setattr(oracle, "dwell_time_regularized",
                        lambda p, w: real(p, w) if w < 0.05 else 1e-9)
    result = checks.check_dwell_limit()
    _assert_fails(result)
    assert _failing(result.detail) == ["width steps where the dwell does not fall"]


def test_dwell_too_large_at_the_narrowest_strip_is_caught(monkeypatch):
    real = oracle.dwell_time_regularized
    monkeypatch.setattr(oracle, "dwell_time_regularized", lambda p, w: 100.0 * real(p, w))
    result = checks.check_dwell_limit()
    _assert_fails(result)
    assert _failing(result.detail) == ["dwell at w=1e-3"]
