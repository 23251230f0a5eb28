import math

import numpy as np
import pytest

from twostate import (
    DomainError,
    ModelParams,
    ReducedParams,
    convergence_study,
    dwell_time_regularized,
    dwell_time_window,
    expand_reduced,
    extremal_coupling,
    extremum_search,
    fd_group_delay,
    greens_constant,
    greens_grid,
    greens_grid_extrapolated,
    group_delays,
    solve_amplitudes,
    solve_regularized,
    wave_numbers,
)


@pytest.mark.parametrize(
    ("eps", "ksq", "pot"), [(0.25, 1.0, 1.0), (0.5, 2.0, 1.0), (0.7, 0.5, 2.0)]
)
def test_fd_delay_matches_analytic(eps, ksq, pot):
    p = expand_reduced(ReducedParams(eps, pot, math.sqrt(ksq)))
    assert abs(fd_group_delay(p) - group_delays(p)[0]) <= 1e-6


def test_fd_delay_second_order_convergence():
    p = expand_reduced(ReducedParams(0.25, 1.0, 1.0))
    analytic = group_delays(p)[0]
    coarse = abs(fd_group_delay(p, 1e-3) - analytic)
    fine = abs(fd_group_delay(p, 5e-4) - analytic)
    assert 3.5 <= coarse / fine <= 4.5


@pytest.mark.parametrize("eps", [1e-9, 1.0 - 1e-9])
def test_fd_delay_default_step_near_threshold(eps):
    # the default step shrinks with min(E, V - E), so it stays inside (0, V)
    p = expand_reduced(ReducedParams(eps, 1.0, 1.0))
    assert fd_group_delay(p) == pytest.approx(group_delays(p)[0], rel=1e-4)


def test_fd_delay_step_validation():
    p = expand_reduced(ReducedParams(0.25, 1.0, 1.0))
    with pytest.raises(ValueError):
        fd_group_delay(p, 0.1)  # would step past E = 0
    with pytest.raises(ValueError):
        fd_group_delay(p, -1e-6)
    free = ModelParams(energy=0.25, potential=1.0, coupling=0.0)
    with pytest.raises(DomainError):
        fd_group_delay(free)


@pytest.mark.parametrize(
    ("energy", "potential", "mass", "hbar"),
    [(0.5, 1.0, 0.5, 1.0), (0.25, 1.0, 0.5, 1.0), (1.0, 3.0, 1.0, 2.0)],
)
def test_grid_resolvent_matches_closed_form(energy, potential, mass, hbar):
    p = ModelParams(
        energy=energy, potential=potential, coupling=1.0, mass=mass, hbar=hbar
    )
    exact = greens_constant(p.center, p.center, p).value
    assert abs(greens_grid_extrapolated(p) - exact) <= 1e-8 * abs(exact)


def test_grid_resolvent_extrapolation_helps():
    p = ModelParams(energy=0.5, potential=1.0, coupling=1.0)
    exact = greens_constant(0.0, 0.0, p).value
    raw = abs(greens_grid(p) - exact)
    extrapolated = abs(greens_grid_extrapolated(p) - exact)
    assert extrapolated < raw / 10.0


def test_grid_resolvent_rejects_bad_spacing():
    p = ModelParams(energy=0.5, potential=1.0, coupling=1.0)
    with pytest.raises(ValueError):
        greens_grid(p, spacing=0.0)


def test_regularized_solution_is_consistent():
    p = expand_reduced(ReducedParams(0.5, 1.0, 1.0))
    sol = solve_regularized(p, 1e-3)
    assert sol.residual <= 1e-10
    flux = abs(sol.reflection) ** 2 + abs(sol.transmission) ** 2
    assert abs(flux - 1.0) <= 1e-10
    exact = solve_amplitudes(p)
    assert abs(sol.transmission - exact.transmission) <= 2e-3
    assert abs(sol.reflection - exact.reflection) <= 2e-3


def test_regularized_wavefunction_continuity():
    p = expand_reduced(ReducedParams(0.5, 1.0, 1.0))
    width = 1e-2
    sol = solve_regularized(p, width)
    for edge in (-width / 2.0, width / 2.0):
        inner = sol.wavefunction(edge - math.copysign(1e-10, edge))
        outer = sol.wavefunction(edge + math.copysign(1e-10, edge))
        for a, b in zip(inner, outer):
            assert abs(a[0] - b[0]) <= 1e-6


def test_regularized_wavefunction_asymptotics():
    p = expand_reduced(ReducedParams(0.5, 1.0, 1.0))
    sol = solve_regularized(p, 1e-3)
    kn = wave_numbers(p)
    x = 7.3
    phi1, phi2 = sol.wavefunction(x)
    expected = sol.transmission * np.exp(1j * kn.k * x)
    assert abs(phi1[0] - expected) <= 1e-12
    # closed channel decays over a few 1/kappa
    assert abs(phi2[0]) <= abs(sol.evanescent_right) * math.exp(-kn.kappa * 6.0)


def test_regularized_solver_validation():
    p = expand_reduced(ReducedParams(0.5, 1.0, 1.0))
    with pytest.raises(ValueError):
        solve_regularized(p, 0.0)
    threshold = ModelParams(energy=0.0, potential=1.0, coupling=1.0)
    with pytest.raises(DomainError):
        solve_regularized(threshold, 1e-3)


def test_convergence_study_first_order():
    p = expand_reduced(ReducedParams(0.5, 1.0, 1.0))
    report = convergence_study(p)
    assert report.widths == (1e-1, 1e-2, 1e-3)
    assert all(a > b for a, b in zip(report.errors, report.errors[1:]))
    assert 0.8 <= report.observed_order <= 1.2


def test_convergence_study_uncoupled_is_exact():
    p = ModelParams(energy=0.5, potential=1.0, coupling=0.0)
    report = convergence_study(p)
    assert report.observed_order == math.inf
    assert max(report.errors) < 1e-12


def test_convergence_study_validation():
    p = expand_reduced(ReducedParams(0.5, 1.0, 1.0))
    with pytest.raises(ValueError):
        convergence_study(p, widths=(1e-1, 1e-2))
    with pytest.raises(ValueError):
        convergence_study(p, widths=(1e-3, 1e-2, 1e-1))
    with pytest.raises(ValueError):
        convergence_study(p, widths=(1e-1, 0.0, -1e-3))


def test_dwell_time_collapses_with_width():
    p = expand_reduced(ReducedParams(0.5, 1.0, 1.0))
    dwell = [dwell_time_regularized(p, w) for w in (1e-1, 1e-2, 1e-3)]
    assert dwell[0] > dwell[1] > dwell[2] > 0.0
    assert dwell[2] <= 1e-2
    # collapse is linear in the width, so a decade shrinks it ~10x
    assert dwell[1] / dwell[2] >= 5.0


def test_dwell_time_uncoupled_value():
    p = ModelParams(energy=0.5, potential=1.0, coupling=0.0)
    kn = wave_numbers(p)
    w = 1e-2
    expected = w * p.mass / (p.hbar * kn.k)
    assert dwell_time_regularized(p, w) == pytest.approx(expected, rel=1e-9)


def test_window_dwell_does_not_collapse():
    p = expand_reduced(ReducedParams(0.5, 1.0, 1.0))
    window = dwell_time_window(p, 1e-3, 0.5)
    strip = dwell_time_regularized(p, 1e-3)
    assert window > 10.0 * strip
    with pytest.raises(ValueError):
        dwell_time_window(p, 1e-2, 1e-3)


@pytest.mark.parametrize("eps", [0.25, 0.75])
def test_extremum_search_matches_closed_form(eps):
    ksq_num, tau_num = extremum_search(eps, 1.0)
    ksq_ref, tau_ref = extremal_coupling(eps, 1.0)
    assert abs(ksq_num - ksq_ref) <= 1e-6
    assert abs(abs(tau_num) - abs(tau_ref)) <= 1e-9
