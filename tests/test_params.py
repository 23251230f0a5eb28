import dataclasses
import itertools
import math
import warnings
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
from twostate.params import _ARRAY_OPS, _FLOAT_OPS


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


def _float_and_array(**fields):
    return (ModelParams(**fields),
            ModelParams(**{name: np.array([value, value]) for name, value in fields.items()}))


@pytest.mark.parametrize("fields", [
    dict(energy=0.25, potential=1.0, coupling=1.0, mass=1e308),  # 2 m overflows
    dict(energy=0.25, potential=4.49423283715579e307, coupling=1.0, mass=2.0),  # 2 m (V - E)
    # 2 m E underflows to 0, though k is 1.4e-162
    dict(energy=1.0484326333116877e-23, potential=1.0, coupling=0.0, mass=9.332636185032189e-302),
    # 2 m E is subnormal: the plain k was 3.8739e-151, 1.1% off
    dict(energy=5.305247052818001e-56, potential=9.206897804594856e-56, coupling=1.0,
         mass=7.61253601517369e-268, hbar=2.2951258434684764e-11),
])
def test_wave_numbers_are_the_nearest_floats_where_the_plain_form_is_lost(fields):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        e, v, m = (mp.mpf(fields[name]) for name in ("energy", "potential", "mass"))
        h = mp.mpf(fields.get("hbar", 1.0))
        want = (float(mp.sqrt(2 * m * e) / h), float(mp.sqrt(2 * m * (v - e)) / h))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in _float_and_array(**fields):
            kn = wave_numbers(p)
            assert np.all(kn.k == want[0]) and np.all(kn.kappa == want[1])


def test_wave_numbers_beyond_the_float_range_raise():
    # the exact k is 2.4e384
    fields = dict(energy=2.866409686187577e188, potential=3.5027426300836074e188,
                  coupling=4.693813821417284e-169, hbar=7.108416342810307e-291)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in _float_and_array(**fields):
            with pytest.raises(DomainError, match=r"^k = sqrt\(2 m E\) / hbar overflows at"):
                wave_numbers(p)


# zeros, subnormals, normals, the largest floats, infinities and NaN, each signed
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e308, -1e308, math.inf, -math.inf, math.nan]


def test_muldiv_is_one_quotient_on_floats_and_arrays():
    # a * b / c as numpy gives it, on both paths: at a -0.0 divisor the float
    # path once took the sign of a * b alone, and a NaN a * b over 0 gave ±inf
    def bits(x):
        return "nan" if x != x else np.float64(x).tobytes()

    differ = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b, c in itertools.product(EDGE_VALUES, repeat=3):
            got = _FLOAT_OPS.muldiv(a, b, c)
            want = _ARRAY_OPS.muldiv(np.array(a), np.array(b), np.array(c))
            if type(got) is not float or bits(got) != bits(float(want)):
                differ.append((a, b, c, got, want))
    assert not differ, f"{len(differ)} of {len(EDGE_VALUES) ** 3}: {differ[:5]}"
