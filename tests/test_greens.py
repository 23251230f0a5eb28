import math

import numpy as np
import pytest

from twostate import (
    DomainError,
    ModelParams,
    effective_strength,
    greens_constant,
    group_delays,
    solve_amplitudes,
)


@pytest.mark.parametrize(
    ("energy", "potential", "mass", "hbar", "expected"),
    [
        (0.5, 1.0, 0.5, 1.0, -0.7071067811865475),
        (0.0, 1.0, 0.5, 1.0, -0.5),
        (0.5, 2.0, 0.5, 1.0, -0.4082482904638631),
        (1.0, 2.0, 1.0, 1.0, -0.7071067811865475),
    ],
)
def test_diagonal_values(energy, potential, mass, hbar, expected):
    p = ModelParams(
        energy=energy, potential=potential, coupling=1.0, mass=mass, hbar=hbar
    )
    got = greens_constant(0.0, 0.0, p)
    assert got == pytest.approx(expected, rel=1e-14)


def test_symmetric_in_arguments():
    p = ModelParams(energy=0.3, potential=1.0, coupling=1.0)
    assert greens_constant(0.7, -0.2, p) == greens_constant(-0.2, 0.7, p)


def test_exponential_decay_off_diagonal():
    p = ModelParams(energy=0.5, potential=1.0, coupling=1.0)
    kappa = math.sqrt(2.0 * p.mass * (p.potential - p.energy)) / p.hbar
    diag = greens_constant(0.0, 0.0, p)
    for d in (0.5, 1.0, 3.0):
        off = greens_constant(0.0, d, p)
        assert off == pytest.approx(diag * math.exp(-kappa * d), rel=1e-14)


def test_always_negative():
    for e in (0.0, 0.2, 0.8, 0.99):
        p = ModelParams(energy=e, potential=1.0, coupling=1.0)
        assert greens_constant(0.0, 0.0, p) < 0.0


def test_effective_strength_zero_coupling_exact():
    p = ModelParams(energy=0.5, potential=1.0, coupling=0.0)
    assert effective_strength(p) == 0.0
    assert math.copysign(1.0, effective_strength(p)) == 1.0  # +0.0, printed as "0"


def test_effective_strength_value_and_scaling():
    p = ModelParams(energy=0.5, potential=1.0, coupling=1.0)
    alpha = effective_strength(p)
    assert alpha == pytest.approx(0.7071067811865475, rel=1e-14)
    doubled = ModelParams(energy=0.5, potential=1.0, coupling=2.0)
    assert effective_strength(doubled) == pytest.approx(4.0 * alpha, rel=1e-14)


def test_effective_strength_grows_toward_threshold():
    lo = effective_strength(ModelParams(energy=0.2, potential=1.0, coupling=1.0))
    hi = effective_strength(ModelParams(energy=0.98, potential=1.0, coupling=1.0))
    assert 0.0 < lo < hi


@pytest.mark.parametrize(
    "hbar",
    [1e-200, np.array([1.0, 1e-200]), 1e-161, np.array([1.0, 1e-161]),
     3e-155, np.array([1.0, 3e-155]), 4e-155, np.array([1.0, 4e-155])],
)
def test_underflowing_hbar_squared_is_a_domain_error(hbar):
    # hbar**2 is 0 below about 1.57e-162 and subnormal below about 1.5e-154;
    # mass / (2 hbar**2) overflows below about 3.73e-155, and at E = 1/4,
    # V = k0 = 1 the amplitude ratio below about 5.7e-155.  Both paths name
    # hbar, none divides by 0 and none warns first (pytest makes a
    # RuntimeWarning an error).
    p = ModelParams(energy=0.25, potential=1.0, coupling=1.0, hbar=hbar)
    finite_greens = np.min(hbar) > 3.73e-155
    overflow = r"^mass / \(2 hbar\*\*2\) overflows at hbar="
    for closed_form in (
        lambda: greens_constant(0.0, 0.0, p),
        lambda: effective_strength(p),
    ):
        if finite_greens:
            assert np.all(np.isfinite(closed_form()))
        else:
            with pytest.raises(DomainError, match=overflow):
                closed_form()
    if finite_greens:
        overflow = r"^m k0\*\*2 G / \(hbar\*\*2 k\) overflows at hbar="
    for closed_form in (lambda: solve_amplitudes(p), lambda: group_delays(p)):
        with pytest.raises(DomainError, match=overflow):
            closed_form()
