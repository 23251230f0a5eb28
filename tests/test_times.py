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
    # second point, which is mended; the plain point keeps its bits (pinned
    # before any point was mended)
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
    assert delays[0] < 0.0 and delays[0] == exact  # correctly rounded
    assert delays[0] == delays[1] == delays[2]  # |T|**2 = 1 there
    assert [float(d[1]) for d in arrays] == list(delays)
    assert [float(d[0]).hex() for d in arrays] == [
        "-0x1.279a74590331dp-1", "-0x1.279a74590331dp-1", "-0x1.279a74590331bp-1"]


def _both(fields: dict):
    """The same point as float parameters and as a two-point array."""
    return (ModelParams(**fields),
            ModelParams(**{name: np.array([value, value]) for name, value in fields.items()}))


@pytest.mark.parametrize("fields, want", [
    # numerator and denominator both underflow to 0; the exact tau_gt is -1.3e-495
    (dict(energy=6.110217636905391e-64, potential=5.901476869729932e-63,
          coupling=2.211353215042252e-270, mass=3.9638958482868515e-180,
          hbar=2.9720066382313664e-99), -0.0),
    # both overflow; the exact tau_gt is 9e-487
    (dict(energy=3.3881176012719845e277, potential=6.413762747233867e277,
          coupling=3.928387707325421e26, mass=2.0673576620345306e17), 0.0),
])
def test_delay_where_the_plain_quotient_is_lost(fields, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in _both(fields):
            for tau in group_delays(p):
                assert np.all(tau == want) and np.all(np.signbit(tau) == np.signbit(want))


def test_delay_where_a_partial_product_underflows():
    # m hbar**3 and 4 hbar**4 E underflow to 0, yet the exact quotient is
    # normal: the plain form gave -0.0, mpmath gives -4.3024e-217
    mp = pytest.importorskip("mpmath")
    fields = dict(energy=1.4788088077279265e-113, potential=4.00310257123262e-113,
                  coupling=2.359953873367474e57, mass=1.747366556589846e-120,
                  hbar=1.977902126335489e-74)
    with mp.workdps(60):
        e, v, k0, m, h = (mp.mpf(fields[name]) for name in
                          ("energy", "potential", "coupling", "mass", "hbar"))
        exact = float(m * h**3 * k0**2 * (2 * e - v) / (
            mp.sqrt(e) * mp.sqrt(v - e) * (4 * h**4 * e * (v - e) + k0**4 * m**2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in _both(fields):
            assert np.all(group_delays(p)[0] == exact)


def test_transition_time_where_v_squared_underflows():
    # V**2 = 1e-340 underflows to 0, so the plain tau overflowed; the exact
    # tau is finite
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        eps, v, k0 = mp.mpf(1e-4), mp.mpf(1e-170), mp.mpf(1e-154)
        exact = float(2 * (2 * eps - 1) / (mp.sqrt(eps * (1 - eps))
                                           * (k0**2 + 16 * eps * (1 - eps) * v**2 / k0**2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tau = transition_time(ReducedParams(1e-4, 1e-170, 1e-154))
        taus = transition_time(ReducedParams(np.array([1e-4, 0.25]), 1e-170, 1e-154))
    assert tau == exact and f"{tau:.5g}" == "-1.2499e+37"
    assert taus[0] == tau


def test_mended_delays_are_correctly_rounded():
    # points over the whole float range where the plain quotient is inf or
    # NaN: the mended tau_gt is within half an ulp of mpmath's, or a
    # DomainError where mpmath's is beyond the float range
    mp = pytest.importorskip("mpmath")
    from twostate import times

    rng = np.random.default_rng(5)
    mended = 0
    for fields in 10.0 ** rng.uniform(-300, 300, size=(3000, 5)):
        eps, potential, coupling, mass, hbar = map(float, fields)
        energy = potential * eps / 1e300  # E / V in (1e-300, 1)
        if energy == 0.0:
            continue
        try:
            p = ModelParams(energy, potential, coupling, mass=mass, hbar=hbar)
            with np.errstate(all="ignore"):
                if math.isfinite(times._plain_delay(p)):
                    continue
        except DomainError:
            continue
        mended += 1
        with mp.workdps(60):
            e, v, k0, m, h = map(mp.mpf, (energy, potential, coupling, mass, hbar))
            exact = (m * h**3 * k0**2 * (2 * e - v)
                     / (mp.sqrt(e) * mp.sqrt(v - e) * (4 * h**4 * e * (v - e) + k0**4 * m**2)))
            if abs(exact) > mp.mpf(1.7976931348623157e308):
                with pytest.raises(DomainError, match="^the group delay overflows at"):
                    group_delays(p)
                continue
            try:
                tau = group_delays(p)[0]
            except DomainError:  # the amplitudes' own range errors
                continue
            ulp = math.ulp(tau) if tau else 5e-324
            assert abs(mp.mpf(tau) - exact) <= mp.mpf(ulp) / 2, (p, tau, exact)
    assert mended > 100
