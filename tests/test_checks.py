import dataclasses

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


def test_full_verification_passes():
    results = checks.run_verification()
    assert [r.name for r in results] == EXPECTED_ORDER
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"
        assert r.detail


def test_delay_sign_fault_is_caught(monkeypatch):
    real = times.group_delays

    def flipped(p):
        return tuple(-t for t in real(p))

    monkeypatch.setattr(times, "group_delays", flipped)
    assert not checks.check_phase_derivative_oracle().passed
    assert not checks.check_closed_form_consistency().passed
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
    assert not checks.check_unitarity_grid().passed
    assert checks.check_structural_laws().passed


def test_transition_time_skew_is_caught(monkeypatch):
    real = times.transition_time
    monkeypatch.setattr(times, "transition_time", lambda r: real(r) * (1.0 + 1e-9))
    assert not checks.check_closed_form_consistency().passed


def test_transition_time_nan_is_caught(monkeypatch):
    real = times.transition_time

    def one_nan(r):
        tau = np.array(real(r))
        tau.flat[0] = np.nan
        return tau

    monkeypatch.setattr(times, "transition_time", one_nan)
    assert not checks.check_closed_form_consistency().passed


def test_transition_time_sign_fault_is_caught(monkeypatch):
    real = times.transition_time
    monkeypatch.setattr(times, "transition_time", lambda r: -real(r))
    result = checks.check_structural_laws()
    assert not result.passed
    assert "sign law broken" in result.detail


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
    assert not result.passed
    assert "identity defect = nan" in result.detail


def test_extremal_coupling_nan_is_caught(monkeypatch):
    monkeypatch.setattr(times, "extremal_coupling", lambda eps, v: (np.nan, np.nan))
    result = checks.check_extremum_law()
    assert not result.passed
    assert "= nan (tol 1e-6)" in result.detail


def test_regularized_residual_nan_is_caught(monkeypatch):
    real = oracle.solve_regularized
    monkeypatch.setattr(
        oracle,
        "solve_regularized",
        lambda p, w: dataclasses.replace(real(p, w), residual=np.nan),
    )
    result = checks.check_reduction_chain()
    assert not result.passed
    assert "max residual = nan" in result.detail
