import dataclasses
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from twostate import (
    ConventionError,
    DomainError,
    ModelParams,
    ReducedParams,
    expand_reduced,
    make_reduced,
    transition_time,
    wave_numbers,
)


def test_model_defaults():
    p = ModelParams(energy=0.5, potential=1.0, coupling=1.0)
    assert p.mass == 0.5
    assert p.hbar == 1.0
    assert p.center == 0.0


def test_model_is_frozen():
    p = ModelParams(energy=0.5, potential=1.0, coupling=1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.energy = 0.7


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(energy=-0.1, potential=1.0, coupling=1.0),
        dict(energy=1.0, potential=1.0, coupling=1.0),  # needs E < V
        dict(energy=1.5, potential=1.0, coupling=1.0),
        dict(energy=0.5, potential=1.0, coupling=-1.0),
        dict(energy=0.5, potential=1.0, coupling=1.0, mass=0.0),
        dict(energy=0.5, potential=1.0, coupling=1.0, hbar=0.0),
        dict(energy=math.nan, potential=1.0, coupling=1.0),
        dict(energy=0.5, potential=math.inf, coupling=1.0),
        dict(energy=0.5, potential=1.0, coupling=1.0, center=math.nan),
    ],
)
def test_model_rejects_bad_parameters(kwargs):
    with pytest.raises(DomainError):
        ModelParams(**kwargs)


def test_int_beyond_the_float_range_names_the_field():
    with pytest.raises(DomainError, match=r"^potential must be finite, got 1000"):
        ModelParams(0.25, 10**400, 1)
    with pytest.raises(DomainError, match=r"^coupling must be finite"):
        ReducedParams(np.array([0.3]), 1.0, Fraction(10**400))


def test_scalar_fields_become_python_floats():
    eps = np.float32(0.3)
    r = ReducedParams(eps, 1, Fraction(1, 2))
    assert all(type(getattr(r, name)) is float for name in ("epsilon", "potential", "coupling"))
    assert (r.epsilon, r.coupling) == (float(eps), 0.5)
    tau = transition_time(r)
    assert type(tau) is float
    assert tau == transition_time(ReducedParams(float(eps), 1.0, 0.5))


@pytest.mark.parametrize("value", [True, Decimal("0.3")])
def test_bool_and_decimal_fields_are_refused(value):
    with pytest.raises(TypeError, match="^epsilon must be a real number"):
        ReducedParams(value, 1.0, 1.0)
    with pytest.raises(TypeError, match="^coupling must be a real number"):
        ReducedParams(np.array([0.3]), 1.0, value)


def test_model_accepts_zero_energy():
    # threshold value usable by the closed-channel resolvent only
    p = ModelParams(energy=0.0, potential=1.0, coupling=1.0)
    assert p.energy == 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(epsilon=0.0, potential=1.0, coupling=1.0),
        dict(epsilon=1.0, potential=1.0, coupling=1.0),
        dict(epsilon=-0.2, potential=1.0, coupling=1.0),
        dict(epsilon=1.3, potential=1.0, coupling=1.0),
        dict(epsilon=0.5, potential=0.0, coupling=1.0),
        dict(epsilon=0.5, potential=-1.0, coupling=1.0),
        dict(epsilon=0.5, potential=1.0, coupling=-0.5),
        dict(epsilon=math.nan, potential=1.0, coupling=1.0),
    ],
)
def test_reduced_rejects_bad_parameters(kwargs):
    with pytest.raises(DomainError):
        ReducedParams(**kwargs)


@pytest.mark.parametrize(
    ("epsilon", "potential", "coupling"),
    [(0.25, 1.0, 1.0), (0.5, 2.0, 0.7), (0.9, 0.5, 2.0)],
)
def test_reduced_roundtrip(epsilon, potential, coupling):
    r = ReducedParams(epsilon=epsilon, potential=potential, coupling=coupling)
    p = expand_reduced(r)
    assert p.energy == pytest.approx(epsilon * potential, rel=1e-15)
    assert p.mass == 0.5 and p.hbar == 1.0
    back = make_reduced(p)
    assert back.epsilon == pytest.approx(epsilon, rel=1e-15)
    assert back.potential == potential
    assert back.coupling == coupling


@pytest.mark.parametrize("mass,hbar", [(1.0, 1.0), (0.5, 2.0), (1.0, 2.0)])
def test_make_reduced_requires_convention(mass, hbar):
    p = ModelParams(energy=0.5, potential=1.0, coupling=1.0, mass=mass, hbar=hbar)
    with pytest.raises(ConventionError):
        make_reduced(p)


def test_make_reduced_rejects_zero_energy():
    p = ModelParams(energy=0.0, potential=1.0, coupling=1.0)
    with pytest.raises(DomainError):
        make_reduced(p)


def test_wave_numbers_values():
    p = ModelParams(energy=0.5, potential=1.0, coupling=1.0)
    kn = wave_numbers(p)
    assert kn.k == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert kn.kappa == pytest.approx(math.sqrt(0.5), rel=1e-15)
    # k^2 + kappa^2 = 2 m V / hbar^2 independent of E
    p2 = ModelParams(energy=0.1, potential=1.0, coupling=1.0)
    kn2 = wave_numbers(p2)
    assert kn2.k**2 + kn2.kappa**2 == pytest.approx(1.0, rel=1e-14)


def test_wave_numbers_scale_with_units():
    p = ModelParams(energy=2.0, potential=8.0, coupling=1.0, mass=1.0, hbar=2.0)
    kn = wave_numbers(p)
    assert kn.k == pytest.approx(1.0, rel=1e-15)
    assert kn.kappa == pytest.approx(math.sqrt(12.0) / 2.0, rel=1e-15)


def test_wave_numbers_need_propagation():
    p = ModelParams(energy=0.0, potential=1.0, coupling=1.0)
    with pytest.raises(DomainError):
        wave_numbers(p)
