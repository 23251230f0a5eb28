import cmath
import math

import numpy as np
import pytest

from twostate import (
    DegenerateCouplingError,
    DomainError,
    ModelParams,
    ReducedParams,
    expand_reduced,
    scattering_phases,
    solve_amplitudes,
    transmission_probability,
)


def test_canonical_amplitudes():
    # alpha = k at this point, so the matching ratio is exactly -1/2
    p = ModelParams(energy=0.5, potential=1.0, coupling=1.0)
    a = solve_amplitudes(p)
    assert a.transmission == pytest.approx(0.8 + 0.4j, rel=1e-14)
    assert a.reflection == pytest.approx(-0.2 + 0.4j, rel=1e-13)
    assert a.transmission_prob == pytest.approx(0.8, rel=1e-14)
    assert a.reflection_prob == pytest.approx(0.2, rel=1e-13)
    assert a.transmission_phase == pytest.approx(math.atan(0.5), rel=1e-14)
    assert a.reflection_phase == pytest.approx(-math.atan(2.0), rel=1e-14)


@pytest.mark.parametrize("eps", [0.05, 0.25, 0.5, 0.75, 0.95])
@pytest.mark.parametrize("ksq", [0.1, 1.0, 4.0])
@pytest.mark.parametrize("pot", [0.5, 1.0, 2.0])
def test_unitarity(eps, ksq, pot):
    p = expand_reduced(ReducedParams(eps, pot, math.sqrt(ksq)))
    a = solve_amplitudes(p)
    assert abs(a.transmission_prob + a.reflection_prob - 1.0) <= 1e-13


@pytest.mark.parametrize("eps", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("ksq", [0.5, 2.0])
def test_phase_product_law(eps, ksq):
    p = expand_reduced(ReducedParams(eps, 1.0, math.sqrt(ksq)))
    phi_t, phi_r = scattering_phases(p)
    assert math.tan(phi_t) * math.tan(phi_r) == pytest.approx(-1.0, rel=1e-12)
    assert 0.0 < phi_t < math.pi / 2.0
    assert -math.pi / 2.0 < phi_r < 0.0


def test_phases_match_complex_arguments():
    p = ModelParams(energy=0.3, potential=1.0, coupling=1.2)
    a = solve_amplitudes(p)
    assert np.angle(a.transmission) == pytest.approx(a.transmission_phase, rel=1e-13)
    # stored reflection phase sits a constant pi below arg(B)
    assert np.angle(a.reflection) == pytest.approx(
        a.reflection_phase + math.pi, rel=1e-13
    )


def test_center_translation_only_rotates_reflection():
    base = ModelParams(energy=0.5, potential=1.0, coupling=1.0)
    moved = ModelParams(energy=0.5, potential=1.0, coupling=1.0, center=0.7)
    a0 = solve_amplitudes(base)
    a1 = solve_amplitudes(moved)
    k = math.sqrt(2.0 * base.mass * base.energy) / base.hbar
    assert a1.transmission == pytest.approx(a0.transmission, rel=1e-14)
    assert a1.reflection == pytest.approx(
        a0.reflection * cmath.exp(2j * k * 0.7), rel=1e-13
    )
    assert a1.transmission_prob == pytest.approx(a0.transmission_prob, rel=1e-14)
    assert a1.reflection_prob == pytest.approx(a0.reflection_prob, rel=1e-13)
    assert a1.transmission_phase == a0.transmission_phase
    assert a1.reflection_phase == a0.reflection_phase


def test_uncoupled_channel_is_transparent():
    p = ModelParams(energy=0.5, potential=1.0, coupling=0.0)
    a = solve_amplitudes(p)
    assert a.transmission == 1.0 + 0.0j
    assert a.reflection == 0.0 + 0.0j
    assert a.transmission_prob == 1.0
    assert a.reflection_prob == 0.0
    assert a.transmission_phase == 0.0
    assert math.isnan(a.reflection_phase)


@pytest.mark.filterwarnings("error")
def test_hbar_squared_k_overflow_gives_the_float_result_on_arrays():
    # hbar**2 * k overflows here; ops.muldiv keeps the array call unwarned
    fields = dict(potential=2.0**303, coupling=0.0, mass=2.5436883695607526e282,
                  hbar=2.792153336231947e121)
    want = solve_amplitudes(ModelParams(2.0**302, **fields))
    got = solve_amplitudes(ModelParams(np.array([2.0**302]), **fields))
    assert (want.transmission_prob, want.reflection_prob) == (1.0, 0.0)
    assert math.isnan(want.reflection_phase)
    for name, value in vars(want).items():
        assert np.array_equal(getattr(got, name), [value], equal_nan=True), name


def test_requires_propagating_energy():
    p = ModelParams(energy=0.0, potential=1.0, coupling=1.0)
    with pytest.raises(DomainError):
        solve_amplitudes(p)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "coupling, named",
    [
        (1.35e154, "1.35e+154"),
        (1e160, "1e+160"),
        (np.array([0.3, 1.0, 1e160, 1.35e154]), "1e+160"),
    ],
)
def test_overflowing_coupling_square_is_one_domain_error(coupling, named):
    # k0**2 overflows above about 1.34e154: floats and arrays raise the same
    # typed error, naming the first such point, with no OverflowError and
    # no numpy warning first
    p = ModelParams(energy=0.25, potential=1.0, coupling=coupling)
    with pytest.raises(DomainError) as info:
        solve_amplitudes(p)
    assert str(info.value) == (
        f"m k0**2 G / (hbar**2 k) overflows at hbar=1.0, mass=0.5, "
        f"coupling={named}; the amplitudes need m k0**2 / (2 hbar**2 "
        "sqrt(E (V - E))) below about 1.8e308"
    )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("center", [1.7e308, np.array([0.7, 1.7e308])])
def test_overflowing_reflection_phase_is_one_domain_error(center):
    # 2 k xc overflows while k and xc are finite: floats and arrays raise
    # the same typed error at the first such point, with no numpy warning
    p = ModelParams(energy=0.9, potential=1.0, coupling=1.0, center=center)
    with pytest.raises(DomainError) as info:
        solve_amplitudes(p)
    assert str(info.value) == (
        "2 k xc overflows at center=1.7e+308, energy=0.9, mass=0.5, hbar=1.0, "
        "so the reflection phase exp(2 i k xc) is undefined in floats"
    )


def test_phases_reject_zero_coupling():
    p = ModelParams(energy=0.5, potential=1.0, coupling=0.0)
    with pytest.raises(DegenerateCouplingError):
        scattering_phases(p)


def test_transmission_probability_closed_form():
    assert transmission_probability(ReducedParams(0.25, 1.0, 1.0)) == pytest.approx(
        0.75, rel=1e-14
    )


@pytest.mark.parametrize("eps", [0.1, 0.25, 0.5, 0.8])
@pytest.mark.parametrize("ksq", [0.3, 1.0, 5.0])
@pytest.mark.parametrize("pot", [0.5, 2.0])
def test_transmission_probability_matches_amplitudes(eps, ksq, pot):
    r = ReducedParams(eps, pot, math.sqrt(ksq))
    a = solve_amplitudes(expand_reduced(r))
    assert transmission_probability(r) == pytest.approx(
        a.transmission_prob, rel=1e-12
    )


def test_transmission_peak_at_band_center():
    # |T|^2 is maximal at eps = 1/2 where it equals 1/(1 + k0^4/(4 V^2))
    for ksq in (0.5, 2.0, 6.0):
        r = ReducedParams(0.5, 1.0, math.sqrt(ksq))
        peak = 1.0 / (1.0 + ksq**2 / 4.0)
        assert transmission_probability(r) == pytest.approx(peak, rel=1e-14)
        for eps in (0.2, 0.35, 0.65, 0.9):
            off = transmission_probability(ReducedParams(eps, 1.0, math.sqrt(ksq)))
            assert off < transmission_probability(r)
