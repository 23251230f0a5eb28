import math

import pytest

from twostate import ModelParams, effective_strength, greens_constant


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
