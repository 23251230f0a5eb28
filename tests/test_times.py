import math
import warnings

import numpy as np
import pytest

from twostate import (
    DegenerateCouplingError,
    DomainError,
    ModelParams,
    ReducedParams,
    expand_reduced,
    extremal_coupling,
    group_delays,
    time_taxonomy,
    transition_time,
)

SQRT3 = 1.7320508075688772


def test_transition_time_reference_values():
    assert transition_time(ReducedParams(0.25, 1.0, 1.0)) == pytest.approx(
        -1.0 / SQRT3, rel=1e-14
    )
    assert transition_time(ReducedParams(0.75, 1.0, 1.0)) == pytest.approx(
        1.0 / SQRT3, rel=1e-14
    )


def test_transition_time_zero_at_band_center():
    assert transition_time(ReducedParams(0.5, 1.0, 1.0)) == 0.0
    assert transition_time(ReducedParams(0.5, 3.0, 0.4)) == 0.0


@pytest.mark.parametrize("eps", [0.05, 0.2, 0.35, 0.45])
@pytest.mark.parametrize("ksq", [0.5, 1.0, 3.0])
def test_antisymmetry_and_sign(eps, ksq):
    k0 = math.sqrt(ksq)
    lo = transition_time(ReducedParams(eps, 1.0, k0))
    hi = transition_time(ReducedParams(1.0 - eps, 1.0, k0))
    assert lo < 0.0 < hi
    assert lo == pytest.approx(-hi, rel=1e-13)


def test_endpoint_divergence():
    assert transition_time(ReducedParams(1e-6, 1.0, 1.0)) < -1e2
    assert transition_time(ReducedParams(1.0 - 1e-6, 1.0, 1.0)) > 1e2


def test_strong_coupling_suppression():
    # magnitude decays once k0^2 passes the extremal value
    star, tau_star = extremal_coupling(0.75, 1.0)
    weak = transition_time(ReducedParams(0.75, 1.0, math.sqrt(star / 10.0)))
    strong = transition_time(ReducedParams(0.75, 1.0, math.sqrt(star * 10.0)))
    assert abs(weak) < abs(tau_star)
    assert abs(strong) < abs(tau_star)


def test_group_delays_match_reduced_form():
    p = expand_reduced(ReducedParams(0.25, 1.0, 1.0))
    tau_gt, tau_gr, tau_g = group_delays(p)
    assert tau_gt == pytest.approx(-1.0 / SQRT3, rel=1e-13)
    assert tau_gr == tau_gt
    assert tau_g == pytest.approx(tau_gt, rel=1e-13)


@pytest.mark.parametrize("eps", [0.1, 0.3, 0.7, 0.9])
@pytest.mark.parametrize("ksq", [0.25, 1.0, 4.0])
@pytest.mark.parametrize("pot", [0.5, 2.0])
def test_full_and_reduced_forms_agree(eps, ksq, pot):
    r = ReducedParams(eps, pot, math.sqrt(ksq))
    full = group_delays(expand_reduced(r))[0]
    reduced = transition_time(r)
    assert full == pytest.approx(reduced, rel=1e-12)


def test_group_delays_with_general_units():
    # same physical point expressed with m = 1, hbar = 2 stays finite and real
    p = ModelParams(energy=1.0, potential=4.0, coupling=2.0, mass=1.0, hbar=2.0)
    tau_gt, tau_gr, tau_g = group_delays(p)
    assert math.isfinite(tau_gt)
    assert tau_gr == tau_gt
    assert tau_g == pytest.approx(tau_gt, rel=1e-13)


def test_taxonomy_structure():
    p = expand_reduced(ReducedParams(0.3, 1.0, 1.0))
    tax = time_taxonomy(p)
    assert tax.dwell == 0.0
    assert tax.absorption == 0.0
    assert tax.self_interference == tax.group_delay
    assert tax.transmission_delay == tax.reflection_delay
    assert tax.transition == tax.group_delay
    # dwell = absorption + group - self_interference closes exactly
    assert tax.dwell - (tax.absorption + tax.group_delay - tax.self_interference) == 0.0


def test_delay_requires_scattering_regime():
    with pytest.raises(DomainError):
        group_delays(ModelParams(energy=0.0, potential=1.0, coupling=1.0))
    with pytest.raises(DegenerateCouplingError):
        group_delays(ModelParams(energy=0.5, potential=1.0, coupling=0.0))
    with pytest.raises(DegenerateCouplingError):
        transition_time(ReducedParams(0.5, 1.0, 0.0))


def test_extremal_coupling_reference_values():
    star, tau_star = extremal_coupling(0.75, 1.0)
    assert star == pytest.approx(SQRT3, rel=1e-14)
    assert tau_star == pytest.approx(2.0 / 3.0, rel=1e-14)
    star_lo, tau_lo = extremal_coupling(0.25, 1.0)
    assert star_lo == star
    assert tau_lo == -tau_star


def test_extremal_coupling_scales_inversely_with_potential():
    _, tau_star = extremal_coupling(0.75, 2.0)
    assert tau_star == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_extremal_coupling_is_a_true_extremum():
    star, tau_star = extremal_coupling(0.75, 1.0)
    at_star = transition_time(ReducedParams(0.75, 1.0, math.sqrt(star)))
    assert at_star == pytest.approx(tau_star, rel=1e-13)
    for factor in (0.9, 1.1):
        near = transition_time(ReducedParams(0.75, 1.0, math.sqrt(star * factor)))
        assert abs(near) < abs(tau_star)


def test_extremal_coupling_rejects_degenerate_input():
    with pytest.raises(ValueError):
        extremal_coupling(0.5, 1.0)


@pytest.mark.parametrize(
    ("epsilon", "potential", "message"),
    [
        (1.2, 1.0, "epsilon must lie in (0, 1), got 1.2"),
        (0.25, 0.0, "potential must be positive, got 0.0"),
        (math.nan, 1.0, "epsilon must be finite, got nan"),
        (0.25, math.inf, "potential must be finite, got inf"),
    ],
)
def test_extremal_coupling_names_the_bad_field(epsilon, potential, message):
    with pytest.raises(DomainError) as info:
        extremal_coupling(epsilon, potential)
    assert str(info.value) == message


@pytest.mark.parametrize(
    ("potential", "quantity"), [(1e-320, "tau_star = -inf"), (1e308, "k0_sq_star = inf")]
)
def test_extremal_coupling_outside_float_range(potential, quantity):
    with pytest.raises(DomainError, match=f"{quantity} .* <= 1.798e\\+308"):
        extremal_coupling(0.25, potential)


def test_group_delay_where_the_denominator_product_overflows():
    # sqrt(E) sqrt(V - E) (4 hbar**4 E (V - E) + k0**4 m**2) overflows at the
    # second point, so the quotient is taken in two steps there; the plain
    # point keeps its bits (pinned before the two-step quotient existed)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        e, v, k0, m = map(mp.mpf, (0.25, 4.49423283715579e307, 1.0, 2.0))
        exact = float(m * k0**2 * (2 * e - v)
                      / (mp.sqrt(e) * mp.sqrt(v - e) * (4 * e * (v - e) + k0**4 * m**2)))
    p = ModelParams(0.25, 4.49423283715579e307, 1.0, mass=2.0)
    pair = ModelParams(np.array([0.25, 0.25]), np.array([1.0, 4.49423283715579e307]), 1.0,
                       mass=np.array([0.5, 2.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        delays = group_delays(p)
        arrays = group_delays(pair)
    assert delays[0] < 0.0 and abs(delays[0] - exact) <= 2 * math.ulp(exact)
    assert delays[0] == delays[1] == delays[2]  # |T|**2 = 1 there
    assert [float(d[1]) for d in arrays] == list(delays)
    assert [float(d[0]).hex() for d in arrays] == [
        "-0x1.279a74590331dp-1", "-0x1.279a74590331dp-1", "-0x1.279a74590331bp-1"]
