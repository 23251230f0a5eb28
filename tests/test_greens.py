import math
import warnings

import numpy as np
import pytest

from twostate import (
    DomainError,
    ModelParams,
    effective_strength,
    greens_constant,
    group_delays,
    solve_amplitudes,
    wave_numbers,
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


@pytest.mark.parametrize("make", [float, lambda x: np.array([x, x])], ids=["float", "array"])
def test_diagonal_is_finite_where_kappa_overflows(make):
    # 2 m (V - E) overflows, yet kappa = 2 sqrt(V - E) is finite, and so is
    # G(xc, xc) = -sqrt(m / (2 hbar**2 (V - E))): the exponent -kappa |x1 - x2|
    # is exactly 0
    p = ModelParams(make(0.25), 4.49423283715579e307, 1.0, mass=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(wave_numbers(p).kappa == 2.0 * math.sqrt(4.49423283715579e307))
        diagonal = greens_constant(0.0, 0.0, p)
        amps = solve_amplitudes(p)
        delays = group_delays(p)
        assert np.all(greens_constant(0.0, 1.0, p) == 0.0)  # exp(-1.3e154)
    exact = -math.sqrt(2.0 / 2.0) / math.sqrt(4.49423283715579e307 - 0.25)
    assert np.all(diagonal == exact)
    assert np.all(effective_strength(p) == -exact)
    for value in (*vars(amps).values(), *delays):
        assert np.all(np.isfinite(value))
    assert np.all(amps.transmission_prob == 1.0)


@pytest.mark.parametrize(
    "coupling", [1e150, np.array([1.0, 1e150])], ids=["float", "array"]
)
def test_effective_strength_overflow_is_a_domain_error(coupling):
    # k0**2 = 1e300 is finite, and so is G = -sqrt(0.5 / (2e-300 * 0.5)), but
    # their product is not
    p = ModelParams(energy=0.5, potential=1.0, coupling=coupling, hbar=1e-150)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as info:
            effective_strength(p)
    assert str(info.value) == (
        "effective strength k0**2 |G| overflows at coupling=1e+150, hbar=1e-150, "
        "mass=0.5, energy=0.5, potential=1.0; k0**2 sqrt(m / (2 hbar**2 (V - E))) "
        "must stay below about 1.8e308"
    )


@pytest.mark.parametrize("make", [float, lambda x: np.array([1.0, x])], ids=["float", "array"])
def test_greens_overflow_is_a_domain_error(make):
    # sqrt(m / (2 hbar**2)) = 5e153 over sqrt(V - E) = 2.2e-162
    p = ModelParams(energy=0.0, potential=make(5e-324), coupling=1.0, hbar=1e-154)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"^the Green's function overflows at "
                           r"energy=0.0, potential=5e-324, hbar=1e-154, mass=0.5;"):
            greens_constant(0.0, 0.0, p)



def _exact_greens(x1, x2, energy, potential, mass, hbar):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        m, h, gap = mp.mpf(mass), mp.mpf(hbar), mp.mpf(potential) - mp.mpf(energy)
        kappa = mp.sqrt(2 * m * gap) / h
        decay = mp.exp(-kappa * abs(mp.mpf(x1) - mp.mpf(x2)))
        return float(-mp.sqrt(m / (2 * h**2)) * decay / mp.sqrt(gap))


@pytest.mark.parametrize(
    ("x1", "x2", "energy", "potential", "mass", "hbar"),
    [
        # |x1 - x2| overflows while kappa underflows to 0 and m / (2 hbar**2)
        # to 0: the plain form gave NaN
        (1e308, -1e308, 0.0, 1e-30, 1e-300, 1e154),
        # 2 m (V - E) overflows though kappa = 1.34e154 is finite: the plain
        # form gave -0.0
        (0.0, 1e-300, 0.25, 4.49423283715579e307, 2.0, 1.0),
        # 2 m overflows: the plain form gave -0.0, and warned on arrays
        (0.0, 1e-160, 0.25, 1.0, 1.7e308, 1.0),
        # every intermediate is normal, but exp(-748.45) underflows before
        # the prefactor 3.9e157 brings G back: the plain form gave -0.0
        (-3.2780224470475803e34, 1.8350593078047765e-237, 0.0, 2.974439175266286e-190,
         0.9448854617480593, 1.0383795248566614e-63),
    ],
    ids=["distance-overflows", "kappa-product-overflows", "twice-mass-overflows",
         "decay-underflows"],
)
def test_extreme_exponents_match_mpmath(x1, x2, energy, potential, mass, hbar):
    exact = _exact_greens(x1, x2, energy, potential, mass, hbar)
    assert exact < 0.0 and math.isfinite(exact)
    p = ModelParams(energy, potential, 1.0, mass=mass, hbar=hbar)
    pair = ModelParams(*(np.array([v, v]) for v in (energy, potential, 1.0, mass, hbar)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = greens_constant(x1, x2, p)
        values = greens_constant(x1, x2, pair)
    assert type(value) is float
    assert value == exact  # correctly rounded
    assert np.all(values == value)


def test_points_beside_a_mended_one_keep_their_bits():
    # the second point is mended; the first keeps the bits the plain form
    # gives it alone (pinned before any point was mended)
    p = ModelParams(np.array([0.25, 0.25]), np.array([1.0, 4.49423283715579e307]), 1.0,
                    mass=np.array([0.5, 2.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = greens_constant(0.0, 1e-300, p)
        unit = greens_constant(0.0, 1.0, p)
    alone = ModelParams(0.25, 1.0, 1.0)
    assert values[0] == greens_constant(0.0, 1e-300, alone)
    assert values[1] == greens_constant(0.0, 1e-300, ModelParams(0.25, 4.49423283715579e307,
                                                                 1.0, mass=2.0))
    assert float(unit[0]).hex() == greens_constant(0.0, 1.0, alone).hex() == "-0x1.f158c399cb320p-3"
    assert unit[1] == 0.0  # exp(-1.3e154)
