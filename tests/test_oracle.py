import cmath
import math
import random
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import solve_banded

from twostate import (
    DegenerateCouplingError,
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
    oracle,
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
    with pytest.raises(DegenerateCouplingError):  # as every closed form at k0 = 0
        fd_group_delay(free)


@pytest.mark.parametrize("step", [None, 1e-6])
def test_fd_delay_at_zero_energy_names_the_open_channel(step):
    # E = 0 leaves no valid step; the error is the closed forms' one there
    p = ModelParams(energy=0.0, potential=1.0, coupling=1.0)
    with pytest.raises(DomainError, match=r"^propagating open channel requires energy > 0$"):
        fd_group_delay(p, step)


@pytest.mark.parametrize(
    ("energy", "potential", "mass", "hbar"),
    [(0.5, 1.0, 0.5, 1.0), (0.25, 1.0, 0.5, 1.0), (1.0, 3.0, 1.0, 2.0)],
)
def test_grid_resolvent_matches_closed_form(energy, potential, mass, hbar):
    p = ModelParams(
        energy=energy, potential=potential, coupling=1.0, mass=mass, hbar=hbar
    )
    exact = greens_constant(p.center, p.center, p)
    assert abs(greens_grid_extrapolated(p) - exact) <= 1e-8 * abs(exact)


def test_grid_resolvent_extrapolation_helps():
    p = ModelParams(energy=0.5, potential=1.0, coupling=1.0)
    exact = greens_constant(0.0, 0.0, p)
    raw = abs(greens_grid(p) - exact)
    extrapolated = abs(greens_grid_extrapolated(p) - exact)
    assert extrapolated < raw / 10.0


def test_grid_resolvent_rejects_bad_spacing():
    p = ModelParams(energy=0.5, potential=1.0, coupling=1.0)
    with pytest.raises(ValueError):
        greens_grid(p, spacing=0.0)


def test_grid_spacing_floor():
    # kappa = 1 here, so the floor is eps**0.25 itself
    p = ModelParams(energy=0.5, potential=1.5, coupling=1.0)
    floor = float(np.finfo(float).eps) ** 0.25
    exact = greens_constant(0.0, 0.0, p)
    assert abs(greens_grid(p, floor) - exact) <= 1e-6 * abs(exact)
    with pytest.raises(ValueError, match="rounding floor"):
        greens_grid(p, math.nextafter(floor, 0.0))
    # the extrapolated form also solves on h / 2
    greens_grid_extrapolated(p, 2.0 * floor)
    with pytest.raises(ValueError, match=repr(2.0 * floor)):
        greens_grid_extrapolated(p, 1.5 * floor)


def _banded_grid(p, spacing):
    """Reference for greens_grid: solve_banded on the assembled system."""
    half, h = oracle._grid_scales(p, spacing)
    n = max(4, int(math.ceil(half / h)))
    h = half / n
    size = 2 * n - 1
    t = p.hbar**2 / (2.0 * p.mass * h**2)
    ab = np.zeros((3, size))
    ab[0, 1:] = t
    ab[1, :] = (p.energy - p.potential) - 2.0 * t
    ab[2, :-1] = t
    rhs = np.zeros(size)
    rhs[n - 1] = 1.0 / h
    return float(solve_banded((1, 1), ab, rhs)[n - 1])


def _battery(count=16, seed=8):
    """Seeded (E, V, k0) points on both sides of eps = 1/2."""
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        v = rng.uniform(0.5, 2.0)
        eps = rng.choice((rng.uniform(0.1, 0.45), rng.uniform(0.55, 0.9)))
        points.append(ModelParams(energy=eps * v, potential=v, coupling=rng.uniform(0.5, 2.0)))
    return points


@pytest.mark.parametrize("p", _battery())
def test_grid_matches_banded_solve(p):
    _, h = oracle._grid_scales(p, None)
    coarse, fine = _banded_grid(p, h), _banded_grid(p, h / 2.0)
    for got, want in (
        (greens_grid(p), coarse),
        (greens_grid(p, h / 2.0), fine),
        (greens_grid_extrapolated(p), (4.0 * fine - coarse) / 3.0),
    ):
        assert abs(got - want) <= 2e-11 * abs(want)


def test_regularized_solution_is_consistent():
    p = expand_reduced(ReducedParams(0.5, 1.0, 1.0))
    sol = solve_regularized(p, 1e-3)
    assert sol.residual <= 1e-10
    flux = abs(sol.reflection) ** 2 + abs(sol.transmission) ** 2
    assert abs(flux - 1.0) <= 1e-10
    exact = solve_amplitudes(p)
    assert abs(sol.transmission - exact.transmission) <= 2e-3
    assert abs(sol.reflection - exact.reflection) <= 2e-3


# float.hex of each field that no BLAS or LAPACK kernel rounds, made before
# the matching system was built in one loop over the strip edges
REGULARIZED_PINS = [
    (ModelParams(0.3, 1.0, 0.0), 1e-2, {  # k0 = 0
        "width": ("0x1.47ae147ae147bp-7",),
        "k": ("0x1.186f174f88472p-1",),
        "kappa": ("0x1.ac5eb3f7ab2f8p-1",),
        "modes": ("0x1.186f174f88472p-1", "0x0.0p+0", "0x0.0p+0", "0x1.ac5eb3f7ab2f8p-1"),
        "eigenvectors": ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0",
                         "0x1.0000000000000p+0"),
        "center": ("0x0.0p+0",),
    }),
    (ModelParams(0.7, 1.3, 0.8, mass=0.9, hbar=1.4, center=0.3), 1e-3, {
        "width": ("0x1.0624dd2f1a9fcp-10",),
        "k": ("0x1.9a8365810363fp-1",),
        "kappa": ("0x1.7c0fba294d401p-1",),
        "modes": ("0x1.b1b289f1ec3bfp+4", "0x0.0p+0", "0x0.0p+0", "0x1.b1ab9993948d1p+4"),
        "eigenvectors": ("-0x1.6a2f8b5d06235p-1", "0x1.69e43d886ee94p-1",
                         "0x1.69e43d886ee94p-1", "0x1.6a2f8b5d06235p-1"),
        "center": ("0x1.3333333333333p-2",),
    }),
    (ModelParams(0.25, 1.0, 1.0), 1e-4, {
        "width": ("0x1.a36e2eb1c432dp-14",),
        "k": ("0x1.0000000000000p-1",),
        "kappa": ("0x1.bb67ae8584caap-1",),
        "modes": ("0x1.8ffeb855970e5p+6", "0x0.0p+0", "0x0.0p+0", "0x1.900147b1bffe0p+6"),
        "eigenvectors": ("-0x1.6a0c3790142e3p-1", "0x1.6a07953c07744p-1",
                         "0x1.6a07953c07744p-1", "0x1.6a0c3790142e3p-1"),
        "center": ("0x0.0p+0",),
    }),
]


def _hexes(value) -> tuple[str, ...]:
    a = np.asarray(value)
    if np.iscomplexobj(a):
        a = np.stack([a.real, a.imag], axis=-1)
    return tuple(float(x).hex() for x in a.ravel())


def _entrywise_solve(sol):
    """Solution and residual of the matching system written out entry by
    entry, each product in the order of the one-loop build."""
    k, kappa, modes, w_eig, width = sol.k, sol.kappa, sol.modes, sol.eigenvectors, sol.width
    xm, xp = -width / 2.0, width / 2.0
    fin, fref = cmath.exp(1j * k * xm), cmath.exp(-1j * k * xm)
    fout, dec = cmath.exp(1j * k * xp), math.exp(-kappa * width / 2.0)
    mat = np.zeros((8, 8), dtype=complex)
    for j in range(2):
        va, vb, q = w_eig[0, j], w_eig[1, j], modes[j]
        em, emi = np.exp(1j * q * xm), np.exp(-1j * q * xm)
        ep, epi = np.exp(1j * q * xp), np.exp(-1j * q * xp)
        ca, cb = 4 + 2 * j, 5 + 2 * j
        mat[0, ca], mat[0, cb] = va * em, va * emi
        mat[1, ca], mat[1, cb] = va * 1j * q * em, -va * 1j * q * emi
        mat[2, ca], mat[2, cb] = vb * em, vb * emi
        mat[3, ca], mat[3, cb] = vb * 1j * q * em, -vb * 1j * q * emi
        mat[4, ca], mat[4, cb] = va * ep, va * epi
        mat[5, ca], mat[5, cb] = va * 1j * q * ep, -va * 1j * q * epi
        mat[6, ca], mat[6, cb] = vb * ep, vb * epi
        mat[7, ca], mat[7, cb] = vb * 1j * q * ep, -vb * 1j * q * epi
    mat[0, 0], mat[1, 0], mat[2, 2], mat[3, 2] = -fref, 1j * k * fref, -dec, -kappa * dec
    mat[4, 1], mat[5, 1], mat[6, 3], mat[7, 3] = -fout, -1j * k * fout, -dec, kappa * dec
    rhs = np.zeros(8, dtype=complex)
    rhs[0], rhs[1] = fin, 1j * k * fin
    x = np.linalg.solve(mat, rhs)
    return x, float(np.max(np.abs(mat @ x - rhs)))


@pytest.mark.parametrize(
    ("p", "width", "pins"), REGULARIZED_PINS, ids=["k0=0", "mass-hbar-center", "w=1e-4"]
)
def test_regularized_solution_is_bit_identical(p, width, pins):
    # the solved fields depend on how LAPACK rounds (OpenBLAS's kernels for
    # different CPUs differ in the last bits), so they are compared with the
    # same system solved here rather than with pins
    sol = solve_regularized(p, width)
    for field, want in pins.items():
        assert _hexes(getattr(sol, field)) == want, field
    x, residual = _entrywise_solve(sol)
    solved = {
        "reflection": complex(x[0]) * cmath.exp(2j * sol.k * p.center),
        "transmission": x[1],
        "evanescent_left": x[2],
        "evanescent_right": x[3],
        "interior": x[4:8],
        "residual": residual,
    }
    for field, want in solved.items():
        assert _hexes(getattr(sol, field)) == _hexes(want), field


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


def _quad_dwell(p, width, half_window=None):
    """Reference for both dwell forms: adaptive quad on unit sub-intervals."""
    sol = solve_regularized(p, width)

    def density(y):
        phi1, phi2 = sol.wavefunction(y + p.center)
        return float(abs(phi1[0]) ** 2 + abs(phi2[0]) ** 2)

    half = width / 2.0
    pieces = [(-half, half)]
    if half_window is not None:
        pieces += [(-half_window, -half), (half, half_window)]
    total = 0.0
    for a, b in pieces:
        edges = np.linspace(a, b, max(1, math.ceil(b - a)) + 1)
        total += sum(
            integrate.quad(density, lo, hi, epsabs=1e-13, epsrel=1e-11)[0]
            for lo, hi in zip(edges[:-1], edges[1:])
        )
    return total * p.mass / (p.hbar * wave_numbers(p).k)


@pytest.mark.parametrize("width", [1e-1, 1e-2, 1e-3])
def test_dwell_matches_quad(width):
    p = expand_reduced(ReducedParams(0.25, 1.0, 1.0))
    want = _quad_dwell(p, width)
    assert abs(dwell_time_regularized(p, width) - want) <= 1e-13 * want
    for half_window in (0.5, 5.0, 500.0):
        want = _quad_dwell(p, width, half_window)
        got = dwell_time_window(p, width, half_window)
        assert abs(got - want) <= 1e-13 * want


def test_window_dwell_sizes_exterior_panels_by_k_and_kappa(monkeypatch):
    # |q_j| = 31.6 inside a 1e-3 strip; outside it only k = kappa = 0.707
    # set the panel length, 20 / 0.707, so each exterior piece of length
    # ~500 needs 18 panels and the strip one: 37 panels of 64 nodes
    p = expand_reduced(ReducedParams(0.5, 1.0, 1.0))
    nodes = []
    real = oracle.RegularizedSolution.wavefunction

    def counted(self, x):
        nodes.append(np.size(x))
        return real(self, x)

    monkeypatch.setattr(oracle.RegularizedSolution, "wavefunction", counted)
    dwell_time_window(p, 1e-3, 500.0)
    assert sum(nodes) == 37 * 64


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


@pytest.mark.parametrize(
    ("eps", "pot"),
    [(0.25, 1.0), (0.75, 1.0), (0.1, 0.5), (0.9, 2.0), (0.4, 1.7), (0.02, 1.0), (0.98, 1.0)],
)
def test_extremum_search_accuracy(eps, pot):
    # |tau| is flat at its maximum, so k0*^2 is found to about sqrt(eps_mach)
    # while |tau*| itself is found to rounding
    ksq_num, tau_num = extremum_search(eps, pot)
    ksq_ref, tau_ref = extremal_coupling(eps, pot)
    assert abs(ksq_num - ksq_ref) <= 1e-7 * ksq_ref
    assert abs(abs(tau_num) - abs(tau_ref)) <= 1e-15 * abs(tau_ref)


P_HALF = expand_reduced(ReducedParams(0.5, 1.0, 1.0))


@pytest.mark.parametrize(
    ("call", "names"),
    [
        (lambda: solve_regularized(P_HALF, math.nan), "width"),
        (lambda: solve_regularized(P_HALF, math.inf), "width"),
        (lambda: dwell_time_regularized(P_HALF, math.nan), "width"),
        (lambda: dwell_time_regularized(P_HALF, math.inf), "width"),
        (lambda: dwell_time_window(P_HALF, math.nan, 0.5), "width"),
        (lambda: dwell_time_window(P_HALF, 1e-3, math.nan), "half_window"),
        (lambda: dwell_time_window(P_HALF, 1e-3, math.inf), "half_window"),
        (lambda: greens_grid(P_HALF, math.nan), "grid spacing"),
        (lambda: greens_grid(P_HALF, math.inf), "grid spacing"),
        (lambda: greens_grid_extrapolated(P_HALF, math.inf), "grid spacing"),
        (lambda: extremum_search(0.25, 1.0, (0.0, 50.0)), "bracket"),
        (lambda: extremum_search(0.25, 1.0, (2.0, 1.0)), "bracket"),
        (lambda: extremum_search(0.25, 1.0, (1e-6, math.inf)), "bracket"),
        (lambda: extremum_search(0.25, 1.0, (math.nan, 1.0)), "bracket"),
    ],
)
def test_nonfinite_oracle_inputs_raise_typed_errors(call, names):
    # the error names the argument, comes before any warning, and is typed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=names):
            call()
