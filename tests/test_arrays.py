"""Array-valued parameters: one validated object and one numpy call per grid.

The array results must agree with a scalar call at every point of the grids
the verification checks use, to 1e-15 relative; array validation must raise
the scalar path's error at the first bad point; and scalar calls must still
return Python floats.
"""

import math
import pickle
import warnings

import numpy as np
import pytest
from closed_form_draws import _rel, assert_passed, model_failures, reduced_failures

from twostate import (
    ConventionError,
    DegenerateCouplingError,
    DomainError,
    ModelParams,
    ReducedParams,
    effective_strength,
    expand_reduced,
    greens_constant,
    group_delays,
    make_reduced,
    scattering_phases,
    solve_amplitudes,
    time_taxonomy,
    transition_time,
    transmission_probability,
    wave_numbers,
)

STRUCTURAL = np.linspace(1e-4, 1.0 - 1e-4, 999)

# (epsilon, coupling_sq, potentials) of the three vectorised verify checks
GRIDS = {
    "unitarity_grid": (
        np.linspace(0.01, 0.99, 50), np.linspace(0.01, 10.0, 67), (0.5, 1.0, 2.0)
    ),
    "closed_form_consistency": (
        np.linspace(0.05, 0.95, 19), np.array([0.25, 0.5, 1.0, 2.0, 4.0]), (0.5, 1.0, 2.0)
    ),
    "structural_laws": (
        np.concatenate([STRUCTURAL, 1.0 - STRUCTURAL]), np.array([1.0]), (1.0,)
    ),
}

AMPLITUDE_FIELDS = (
    "reflection", "transmission", "transmission_prob", "reflection_prob",
    "transmission_phase", "reflection_phase",
)
TAXONOMY_FIELDS = (
    "group_delay", "self_interference", "transmission_delay", "reflection_delay",
    "transition",
)


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_array_results_match_scalar_calls(grid):
    eps, ksq, pots = GRIDS[grid]
    r = ReducedParams(
        epsilon=eps,
        potential=np.array(pots)[:, None, None],
        coupling=np.sqrt(ksq)[:, None],
    )
    p = expand_reduced(r)
    amps = solve_amplitudes(p)
    delays = group_delays(p)
    tax = time_taxonomy(p)
    tau = transition_time(r)
    t2 = transmission_probability(r)
    shape = (len(pots), ksq.size, eps.size)
    assert tau.shape == shape and amps.transmission.shape == shape
    worst = 0.0
    worst_unitarity = 0.0
    for i, pot in enumerate(pots):
        for j, k0 in enumerate(np.sqrt(ksq)):
            for n, e in enumerate(eps):
                at = (i, j, n)
                rs = ReducedParams(float(e), pot, float(k0))
                ps = expand_reduced(rs)
                one = solve_amplitudes(ps)
                for name in AMPLITUDE_FIELDS:
                    worst = max(worst, _rel(getattr(amps, name)[at], getattr(one, name)))
                worst_unitarity = max(worst_unitarity, abs(
                    (amps.transmission_prob[at] + amps.reflection_prob[at])
                    - (one.transmission_prob + one.reflection_prob)
                ))
                for got, want in zip(delays, group_delays(ps)):
                    worst = max(worst, _rel(got[at], want))
                one_tax = time_taxonomy(ps)
                for name in TAXONOMY_FIELDS:
                    worst = max(worst, _rel(getattr(tax, name)[at], getattr(one_tax, name)))
                worst = max(worst, _rel(tau[at], transition_time(rs)))
                worst = max(worst, _rel(t2[at], transmission_probability(rs)))
    assert worst <= 1e-15
    assert worst_unitarity <= 1e-15
    assert tax.dwell == 0.0 and tax.absorption == 0.0


@pytest.mark.parametrize(
    "fields",
    [
        # uncoupled points, whose reflection phase is NaN
        dict(energy=np.array([0.2, 0.6]), coupling=np.array([[0.0], [1.0]])),
        # only the coupling position varies
        dict(energy=0.3, coupling=1.0, center=np.array([[0.0], [1.0], [-2.5]])),
        # every field varies, including the units
        dict(energy=np.array([0.2, 0.6]), coupling=np.array([[0.5], [2.0]]),
             mass=np.array([[[1.0]], [[0.5]]]), hbar=np.array([1.0, 2.0]),
             center=np.array([[0.0], [0.7]])),
        # a k0 = 0 row off the origin and in other units
        dict(energy=np.array([0.05, 0.5, 0.9]), coupling=np.array([[0.0], [1.0]]),
             mass=1.3, hbar=0.7, center=np.array([[[0.0]], [[-1.5]], [[0.7]]])),
    ],
)
def test_amplitudes_match_scalar_calls_pointwise(fields):
    p = ModelParams(potential=1.0, **fields)
    amps = solve_amplitudes(p)
    assert amps.transmission.shape == p.shape
    for at in np.ndindex(p.shape):
        point = {name: float(np.broadcast_to(value, p.shape)[at])
                 for name, value in fields.items()}
        one = solve_amplitudes(ModelParams(potential=1.0, **point))
        for name in AMPLITUDE_FIELDS:
            got, want = getattr(amps, name)[at], getattr(one, name)
            if math.isnan(abs(want)):
                assert math.isnan(got), name
            elif point["coupling"] == 0.0:  # both paths give the exact values
                assert got == want, name
            else:
                assert _rel(got, want) <= 1e-15, name


@pytest.mark.parametrize("make", [np.array, lambda x: np.array([x]), lambda x: np.array([[x]])])
def test_small_arrays_take_the_array_path(make):
    # a 0-d or size-1 array is an array, whatever float(array) does in numpy
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = ReducedParams(make(0.25), 1.0, 1.0)
        p = ModelParams(make(0.25), 1.0, 1.0)
        tau = transition_time(r)
        amps = solve_amplitudes(p)
        delays = group_delays(p)
    shape = np.shape(make(0.25))
    assert r.is_array and p.is_array and r.shape == p.shape == shape
    assert np.shape(tau) == shape and np.shape(amps.transmission) == shape
    assert all(np.shape(t) == shape for t in delays)
    assert _rel(np.ravel(tau)[0], transition_time(ReducedParams(0.25, 1.0, 1.0))) <= 1e-15
    with pytest.raises(DomainError, match="epsilon must lie in"):
        ReducedParams(make(1.5), 1.0, 1.0)
    with pytest.raises(DomainError, match=r"^energy must be finite, got nan$"):
        ModelParams(make(math.nan), 1.0, 1.0)


def test_greens_and_wave_numbers_match_scalar_calls():
    energy = np.linspace(0.05, 0.95, 7)
    coupling = np.array([[0.0], [0.5], [2.0]])
    p = ModelParams(energy, 1.0, coupling, center=0.4)
    kn = wave_numbers(p)
    g = greens_constant(-0.3, 0.9, p)
    alpha = effective_strength(p)
    for at in np.ndindex(p.shape):
        one = ModelParams(float(energy[at[1]]), 1.0, float(coupling[at[0], 0]), center=0.4)
        one_kn = wave_numbers(one)
        assert _rel(kn.k[at[1]], one_kn.k) <= 1e-15
        assert _rel(kn.kappa[at[1]], one_kn.kappa) <= 1e-15
        assert _rel(g[at[1]], greens_constant(-0.3, 0.9, one)) <= 1e-15
        assert _rel(alpha[at], effective_strength(one)) <= 1e-15
    assert np.all(alpha[0] == 0.0)
    with pytest.raises(DomainError, match="requires energy > 0"):
        wave_numbers(ModelParams(np.array([0.3, 0.0]), 1.0, 1.0))


def test_scalar_calls_return_python_floats():
    p = ModelParams(0.25, 1.0, 1.0)
    r = ReducedParams(0.25, 1.0, 1.0)
    uncoupled = ModelParams(0.25, 1.0, 0.0, center=-1.5)
    for amps in (solve_amplitudes(p), solve_amplitudes(uncoupled)):
        assert type(amps.transmission) is complex and type(amps.reflection) is complex
        for name in AMPLITUDE_FIELDS[2:]:
            assert type(getattr(amps, name)) is float, name
    assert type(effective_strength(uncoupled)) is float
    assert type(greens_constant(0.0, 0.0, p)) is float
    assert all(type(t) is float for t in group_delays(p))
    tax = time_taxonomy(p)
    assert all(type(getattr(tax, name)) is float for name in TAXONOMY_FIELDS)
    assert type(transition_time(r)) is float
    assert not p.is_array and not r.is_array


def _message(cls, **kwargs) -> str:
    with pytest.raises(DomainError) as info:
        cls(**kwargs)
    return str(info.value)


@pytest.mark.parametrize(
    ("cls", "field", "good", "bad", "fixed"),
    [
        (ReducedParams, "epsilon", 0.3, math.nan, dict(potential=1.0, coupling=1.0)),
        (ReducedParams, "epsilon", 0.3, 1.2, dict(potential=1.0, coupling=1.0)),
        (ReducedParams, "epsilon", 0.3, 0.0, dict(potential=1.0, coupling=1.0)),
        (ReducedParams, "coupling", 1.0, -0.5, dict(epsilon=0.3, potential=1.0)),
        (ReducedParams, "potential", 1.0, math.inf, dict(epsilon=0.3, coupling=1.0)),
        (ModelParams, "energy", 0.3, math.nan, dict(potential=1.0, coupling=1.0)),
        (ModelParams, "energy", 0.3, 1.0, dict(potential=1.0, coupling=1.0)),
        (ModelParams, "potential", 1.0, 0.2, dict(energy=0.3, coupling=1.0)),
        (ModelParams, "coupling", 1.0, -0.5, dict(energy=0.3, potential=1.0)),
        (ModelParams, "center", 0.0, math.inf, dict(energy=0.3, potential=1.0, coupling=1.0)),
    ],
)
def test_array_validation_raises_the_scalar_error(cls, field, good, bad, fixed):
    want = _message(cls, **{field: bad}, **fixed)
    assert field in want
    values = np.array([good, good, bad, bad])
    assert _message(cls, **{field: values}, **fixed) == want


def test_array_validation_reports_the_first_bad_point():
    eps = np.array([[0.3, 1.5], [2.5, 0.4]])
    msg = _message(ReducedParams, epsilon=eps, potential=1.0, coupling=1.0)
    assert msg == "epsilon must lie in (0, 1), got 1.5"


def test_mismatched_shapes_raise_value_error():
    with pytest.raises(ValueError, match="do not broadcast") as info:
        ReducedParams(np.linspace(0.1, 0.9, 3), 1.0, np.ones(4))
    assert not isinstance(info.value, DomainError)
    with pytest.raises(ValueError, match="do not broadcast"):
        ModelParams(np.array([0.1, 0.2]), np.array([1.0, 2.0, 3.0]), 1.0)


def test_non_numeric_fields_raise_type_error():
    with pytest.raises(TypeError):
        ModelParams("0.5", 1.0, 1.0)
    with pytest.raises(TypeError, match="potential"):
        ModelParams(np.array([0.1, 0.2]), "1.0", 1.0)
    with pytest.raises(TypeError):
        ReducedParams([0.1, 0.2], 1.0, 1.0)


def test_degenerate_arrays_raise_typed_errors():
    with pytest.raises(DegenerateCouplingError):
        transition_time(ReducedParams(0.3, 1.0, np.array([1.0, 0.0])))
    zero_coupling = ModelParams(0.3, 1.0, np.array([1.0, 0.0]))
    with pytest.raises(DegenerateCouplingError):
        group_delays(zero_coupling)
    with pytest.raises(DegenerateCouplingError):
        time_taxonomy(zero_coupling)
    zero_energy = ModelParams(np.array([0.3, 0.0]), 1.0, 1.0)
    with pytest.raises(DomainError, match=r"^propagating open channel requires energy > 0$"):
        solve_amplitudes(zero_energy)
    with pytest.raises(DomainError, match=r"^propagating open channel requires energy > 0$"):
        group_delays(zero_energy)
    # m k0**2 G overflows before the division; the typed error comes with no
    # warning first (pytest makes a RuntimeWarning an error)
    heavy = ModelParams(0.25, 1.0, 1.0, mass=np.array([0.5, 1e300]))
    with pytest.raises(DomainError, match=r"^m k0\*\*2 G / \(hbar\*\*2 k\) overflows"):
        solve_amplitudes(heavy)


@pytest.mark.parametrize(
    ("closed_form", "k0", "message"),
    [
        # k0**4 overflows: no warning and no -0.0 cell on the array path
        (group_delays, 1e80,
         "coupling**4 overflows at coupling=1e+80; coupling must be at most 1.158e+77"),
        # k0**2 overflows: no warning and no inf cell on the array path
        (effective_strength, 1e200,
         "coupling**2 overflows at coupling=1e+200; coupling must be at most 1.341e+154"),
    ],
    ids=["group_delays", "effective_strength"],
)
def test_overflowing_powers_raise_the_scalar_error_on_arrays(closed_form, k0, message):
    for coupling in (k0, np.array([1.0, k0])):
        p = ModelParams(0.25, 1.0, coupling)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as info:
                closed_form(p)
        assert str(info.value) == message


def test_reduction_and_phases_match_scalar_calls():
    energy = np.array([0.2, 0.3, 0.7])
    coupling = np.array([[0.5], [1.0]])
    p = ModelParams(energy, 1.5, coupling)
    r = make_reduced(p)
    phases = scattering_phases(p)
    assert r.is_array and r.shape == p.shape
    assert all(phase.shape == p.shape for phase in phases)
    for at in np.ndindex(p.shape):
        one = ModelParams(float(energy[at[1]]), 1.5, float(coupling[at[0], 0]))
        one_r = make_reduced(one)
        for name in ("epsilon", "potential", "coupling"):
            assert np.broadcast_to(getattr(r, name), r.shape)[at] == getattr(one_r, name)
        for got, want in zip(phases, scattering_phases(one)):
            assert _rel(got[at], want) <= 1e-15


def test_reduction_and_phases_raise_typed_errors_on_arrays():
    with pytest.raises(DegenerateCouplingError):
        scattering_phases(ModelParams(0.3, 1.0, np.array([1.0, 0.0])))
    zero_energy = ModelParams(np.array([0.3, 0.0]), 1.0, 1.0)
    with pytest.raises(DomainError, match="reduced form requires energy > 0"):
        make_reduced(zero_energy)
    with pytest.raises(DomainError, match=r"^propagating open channel requires energy > 0$"):
        scattering_phases(zero_energy)
    with pytest.raises(ConventionError):
        make_reduced(ModelParams(0.3, 1.0, 1.0, hbar=np.array([1.0, 2.0])))


@pytest.mark.parametrize("k0", [1e-170, 1e-200])
def test_tiny_coupling_agrees_with_the_array_path(k0):
    # k0**2 * G underflows to -0.0, so 1 / ratio is -inf on both paths
    one = ModelParams(0.25, 1.0, k0)
    many = ModelParams(0.25, 1.0, np.array([k0]))
    amps, amps_array = solve_amplitudes(one), solve_amplitudes(many)
    for name in AMPLITUDE_FIELDS:
        assert getattr(amps_array, name)[0] == getattr(amps, name), name
    assert amps.reflection_phase == -math.pi / 2
    assert scattering_phases(one) == tuple(x[0] for x in scattering_phases(many))
    assert group_delays(one) == tuple(t[0] for t in group_delays(many))
    tax, tax_array = time_taxonomy(one), time_taxonomy(many)
    for name in TAXONOMY_FIELDS:
        assert getattr(tax_array, name)[0] == getattr(tax, name), name


def test_array_params_survive_pickling():
    # the numpy functions are stored on an array instance, so they travel with it
    p = ModelParams(np.array([0.2, 0.3]), 1.0, np.array([[0.0], [1.0]]))
    q = pickle.loads(pickle.dumps(p))
    assert q.is_array and q.shape == p.shape
    got, want = solve_amplitudes(q), solve_amplitudes(p)
    for name in AMPLITUDE_FIELDS:
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def test_empty_arrays_give_empty_results():
    r = ReducedParams(np.empty(0), 1.0, 1.0)
    assert transition_time(r).shape == (0,)
    assert solve_amplitudes(expand_reduced(r)).transmission.shape == (0,)


def test_array_mask_agrees_with_scalar_checks():
    # an array raises the scalar error of its first bad point, so a later
    # point failing an earlier rule does not change the message; checked on
    # every example of the shared closed-form draws
    assert_passed(model_failures(), "constructor")
    assert_passed(reduced_failures(), "constructor")
