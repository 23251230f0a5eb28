"""The grid, wavefunction and dwell kernels of ``twostate.oracle`` give the
values of the plain computations they replace, and every oracle keeps the
library contract over the float range.

``greens_grid`` evaluates its Dirichlet lattice resolvent in closed form;
the reference below eliminates the same tridiagonal system, the plain pivot
recurrence, in 40-digit mpmath.  ``RegularizedSolution.wavefunction``
skips the regions that hold no points; the reference evaluates every
region, and the kernels must give its bits.  Numpy and mpmath alone: this
module runs where scipy is not installed.
"""

import cmath
import functools
import math
import random
import warnings

import numpy as np
import pytest
from contract_draw import _bits

from twostate import DomainError, ModelParams, oracle


def _battery(count=16, seed=8):
    """Seeded (E, V, k0) points on both sides of eps = 1/2."""
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        v = rng.uniform(0.5, 2.0)
        eps = rng.choice((rng.uniform(0.1, 0.45), rng.uniform(0.55, 0.9)))
        points.append(ModelParams(energy=eps * v, potential=v, coupling=rng.uniform(0.5, 2.0)))
    return points


# ---------------------------------------------------------------------------
# greens_grid
# ---------------------------------------------------------------------------

@functools.cache
def _elimination(p, spacing):
    """greens_grid's lattice, eliminated as a tridiagonal system in 40-digit
    mpmath: the pivot recurrence d <- a - t^2 / d over n - 2 steps, then
    the centre row.  h, n, V - E and t = hbar^2 / (2 m h^2) are formed
    exactly from the float fields and the float spacing."""
    mp = pytest.importorskip("mpmath")
    p, half, h = oracle._grid_scales(p, spacing)
    n = max(4, math.ceil(half / h))
    h = half / n
    with mp.workdps(40):
        t = mp.mpf(p.hbar) ** 2 / (2 * mp.mpf(p.mass) * mp.mpf(h) ** 2)
        a, tsq = (mp.mpf(p.energy) - mp.mpf(p.potential)) - 2 * t, t * t
        d = a
        for _ in range(n - 2):
            d = a - tsq / d
        return (1 / mp.mpf(h)) / (a - 2 * tsq / d)


# Measured: greens_grid is within 2.04 * 2**-52 relative of the elimination
# at every point below, and the extrapolation within 1.87 * 2**-52 of the
# elimination's own (4 G(h/2) - G(h)) / 3 on the battery; at the 6,066
# finite values of a 20,000-point float-range draw, greens_grid was within
# 2.08 * 2**-52 of its closed form evaluated in 50-digit mpmath
GRID_BOUND = 3 * 2.0**-52


def assert_is_the_elimination(got, want):
    assert abs(got - want) <= GRID_BOUND * abs(want), (got, float(want))


@pytest.mark.parametrize("p", _battery())
def test_grid_is_the_plain_recurrence_on_the_battery(p):
    _, _, h = oracle._grid_scales(p, None)
    coarse, fine = _elimination(p, h), _elimination(p, h / 2.0)
    assert_is_the_elimination(oracle.greens_grid(p), coarse)
    assert_is_the_elimination(oracle.greens_grid(p, h / 2.0), fine)
    assert_is_the_elimination(oracle.greens_grid_extrapolated(p), (4 * fine - coarse) / 3)


# kappa = 1 here, so the grid has n = ceil(20 / spacing) points a side
P_UNIT = ModelParams(energy=0.5, potential=1.5, coupling=1.0)


@pytest.mark.parametrize("n", [4, 5, 65, 66, 67, 75, 130, 131, 154, 1000])
def test_grid_is_the_plain_recurrence_at_every_grid_size(n):
    spacing = 20.0 / (n - 0.5)
    assert_is_the_elimination(oracle.greens_grid(P_UNIT, spacing), _elimination(P_UNIT, spacing))


def test_grid_is_the_plain_recurrence_at_the_rounding_floor():
    # n = 163,840 steps a side, the finest grid greens_grid accepts here
    floor = float(np.finfo(float).eps) ** 0.25
    assert math.ceil(20.0 / floor) == 163_840
    assert_is_the_elimination(oracle.greens_grid(P_UNIT, floor), _elimination(P_UNIT, floor))


@pytest.mark.parametrize(
    "p",
    [
        ModelParams(0.7, 1.3, 0.8, mass=0.9, hbar=1.4, center=0.3),
        ModelParams(1e-9, 1.0, 1.0),
        ModelParams(1.0 - 1e-9, 1.0, 1.0),
        ModelParams(3e-5, 2e-4, 1.0, mass=40.0, hbar=0.01),
    ],
)
@pytest.mark.parametrize("scale", [1.0, 0.5, 7.3, 1000.0])
def test_grid_is_the_plain_recurrence_off_the_battery(p, scale):
    _, _, h = oracle._grid_scales(p, None)
    assert_is_the_elimination(oracle.greens_grid(p, scale * h), _elimination(p, scale * h))


# ---------------------------------------------------------------------------
# wavefunction and the dwell quadrature
# ---------------------------------------------------------------------------

def _plain_wavefunction(sol, x):
    """RegularizedSolution.wavefunction evaluating every region, empty or
    not, on its masked points."""
    y = np.atleast_1d(np.asarray(x, dtype=float)) - sol.center
    phi1 = np.empty(y.shape, dtype=complex)
    phi2 = np.empty(y.shape, dtype=complex)
    half = sol.width / 2.0
    refl0 = sol.reflection * cmath.exp(-2j * sol.k * sol.center)
    left = y < -half
    right = y > half
    mid = ~(left | right)
    phi1[left] = np.exp(1j * sol.k * y[left]) + refl0 * np.exp(-1j * sol.k * y[left])
    phi2[left] = sol.evanescent_left * np.exp(sol.kappa * y[left])
    phi1[right] = sol.transmission * np.exp(1j * sol.k * y[right])
    phi2[right] = sol.evanescent_right * np.exp(-sol.kappa * y[right])
    a1, b1, a2, b2 = sol.interior
    phi1[mid] = 0.0
    phi2[mid] = 0.0
    for j, (a, b) in enumerate(((a1, b1), (a2, b2))):
        comp = a * np.exp(1j * sol.modes[j] * y[mid]) + b * np.exp(-1j * sol.modes[j] * y[mid])
        phi1[mid] += sol.eigenvectors[0, j] * comp
        phi2[mid] += sol.eigenvectors[1, j] * comp
    phase = cmath.exp(1j * sol.k * sol.center)
    return phi1 * phase, phi2 * phase


def _plain_dwell(p, width, pieces):
    """The dwell quadrature over ``pieces`` through _plain_wavefunction."""
    sol = oracle.solve_regularized(p, width)
    nodes, weights = oracle._gauss_legendre()
    half = width / 2.0
    outside = 20.0 / max(sol.k, sol.kappa)
    inside = 20.0 / max(sol.k, sol.kappa, *np.abs(sol.modes))
    total = 0.0
    for a, b in pieces:
        if b <= a:
            continue
        longest = inside if -half <= a and b <= half else outside
        panels = math.ceil((b - a) / longest)
        rad = 0.5 * (b - a) / panels
        for first in range(0, panels, 256):
            count = min(256, panels - first)
            mids = a + rad * (2.0 * np.arange(first, first + count) + 1.0)
            y = (mids[:, None] + rad * nodes).ravel()
            phi1, phi2 = _plain_wavefunction(sol, y + p.center)
            density = (np.abs(phi1) ** 2 + np.abs(phi2) ** 2).reshape(count, -1)
            total += rad * float((density @ weights).sum())
    return total * p.mass / (p.hbar * sol.k)


SOLUTION_CASES = [
    (ModelParams(0.3, 1.0, 0.0), 1e-2),  # k0 = 0: an eigenvector entry is 0
    (ModelParams(0.7, 1.3, 0.8, mass=0.9, hbar=1.4, center=0.3), 1e-3),
    (ModelParams(0.25, 1.0, 1.0), 1e-4),
    (ModelParams(0.5, 1.0, 1.0, center=-2.5), 1e-1),
] + [(p, w) for p, w in zip(_battery(4, seed=11), (1e-1, 1e-2, 1e-3, 1e-4))]


def _positions(width, center):
    """Lab positions: each region alone, the three mixed, both edges, the
    middle, NaN and nothing."""
    half = width / 2.0
    nodes = oracle._gauss_legendre()[0]
    rng = np.random.default_rng(35)
    strip = half * nodes
    return {
        "left": -3.0 + nodes + center,
        "right": 3.0 + 0.5 * nodes + center,
        "strip": strip + center,
        "mixed": np.concatenate([rng.uniform(-4 * half, 4 * half, 61), [-half, half, 0.0]]) + center,
        "mixed-2d": rng.uniform(-3 * half, 3 * half, (4, 8)) + center,
        "strip-2d": strip.reshape(8, 8) + center,
        "nan": np.array([np.nan, -2.0 * half, 0.0]) + center,
        "empty": np.array([]),
        "scalar-left": center - 0.7,
        "scalar-strip": center + 0.25 * half,
        "scalar-right": center + 7.3,
    }


@pytest.mark.parametrize(("p", "width"), SOLUTION_CASES)
def test_wavefunction_is_the_plain_formula(p, width):
    sol = oracle.solve_regularized(p, width)
    for name, x in _positions(width, p.center).items():
        got, want = sol.wavefunction(x), _plain_wavefunction(sol, x)
        assert _bits(got) == _bits(want), name


@pytest.mark.parametrize(("p", "width"), SOLUTION_CASES)
def test_dwell_is_the_plain_quadrature(p, width):
    half = width / 2.0
    assert _bits(oracle.dwell_time_regularized(p, width)) == _bits(
        _plain_dwell(p, width, ((-half, half),))
    )
    # 1e4 needs more than 256 exterior panels, so two calls a side
    for half_window in (half, 0.5, 30.0, 1e4):
        want = _plain_dwell(p, width, ((-half_window, -half), (-half, half), (half, half_window)))
        assert _bits(oracle.dwell_time_window(p, width, half_window)) == _bits(want), half_window


@pytest.mark.parametrize("p", _battery())
def test_battery_dwell_is_the_plain_quadrature(p):
    for width in (1e-2, 1e-3):
        assert _bits(oracle.dwell_time_regularized(p, width)) == _bits(
            _plain_dwell(p, width, ((-width / 2.0, width / 2.0),))
        )
    half = 5e-4
    assert _bits(oracle.dwell_time_window(p, 1e-3, 0.5)) == _bits(
        _plain_dwell(p, 1e-3, ((-0.5, -half), (-half, half), (half, 0.5)))
    )


# ---------------------------------------------------------------------------
# refusals where the matching system leaves the floats
# ---------------------------------------------------------------------------

# Measured at m = 1/2, hbar = 1: exp(|q| w/2) of the evanescent strip mode
# overflows (2.1e9) or exp(-kappa w/2) underflows to 0 (V = 1e20 and 1e14),
# and k0 / w itself overflows (1e300) or 2 m |E - mu| does (1e305 at m = 2).
# Before the refusal, the first wrote a RuntimeWarning to stderr and LAPACK
# lines to stdout, then raised an untyped RuntimeError; the next three
# raised LinAlgError.
BEYOND_THE_FLOATS = [
    (ModelParams(0.3, 1.0, 2.1e9), 1e-3, r"strip mode's .*coupling=2100000000\.0, width=0\.001"),
    (ModelParams(3e19, 1e20, 1.0), 1e-3, r"strip mode's .*coupling=1\.0, width=0\.001"),
    (ModelParams(3e13, 1e14, 1.0), 0.1, r"strip mode's .*coupling=1\.0, width=0\.1 "),
    (ModelParams(0.3, 1.0, 1e300), 1e-10, r"^coupling / width overflows at coupling=1e\+300, "),
    (ModelParams(0.3, 1.0, 1e305, mass=2.0), 1e-3, r"strip mode's .*coupling=1e\+305, "),
    # k and kappa near 1e-140: LAPACK meets an exactly zero pivot, and
    # raised an untyped LinAlgError
    (ModelParams(6.871852481047208e-207, 1.2437421223018618e-205, 4.00703786649744e24,
                 mass=1.8209167431104816e-53, hbar=133530882881.53922,
                 center=0.035798949381097955),
     1e-3, r"^matching system singular at coupling=4\.00703786649744e\+24, width=0\.001$"),
]


@pytest.mark.parametrize(("p", "width", "match"), BEYOND_THE_FLOATS)
def test_regularized_oracles_refuse_what_the_floats_cannot_hold(p, width, match, capfd):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (oracle.solve_regularized, oracle.dwell_time_regularized,
                     lambda p, width: oracle.dwell_time_window(p, width, 30.0)):
            with pytest.raises(DomainError, match=match):
                call(p, width)
        with pytest.raises(DomainError):
            oracle.convergence_study(p)
    assert capfd.readouterr() == ("", "")


def test_regularized_oracle_solves_just_inside_the_floats(capfd):
    # |q| w/2 = 689 against the bound ln(1 / (|q| tiny)) = 694.3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = oracle.solve_regularized(ModelParams(0.3, 1.0, 1.9e9), 1e-3)
    assert sol.residual <= 1e-15
    assert capfd.readouterr() == ("", "")


def test_regularized_residual_bound_scales_with_k(capfd):
    # k = 5.5e7: the residual 1.05e-8 is 2e-16 of the slope rows' k, and was
    # refused by the absolute bound 1e-8 with an untyped RuntimeError
    p = ModelParams(3e15, 1e16, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = oracle.solve_regularized(p, 1e-5)
    assert 1e-8 < sol.residual <= 1e-8 * sol.k
    assert abs(abs(sol.transmission) ** 2 + abs(sol.reflection) ** 2 - 1.0) <= 1e-10
    assert capfd.readouterr() == ("", "")


def test_an_inexact_regularized_solve_is_a_domain_error(monkeypatch, capfd):
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda mat, rhs: solve(mat, rhs) * (1.0 + 1e-6))
    message = (r"^matching system ill-conditioned at coupling=1\.0, width=0\.001: "
               r"residual=\S+ exceeds its bound 1e-8 \* max\(1, k\) = 1\.000e-08$")
    with pytest.raises(DomainError, match=message):
        oracle.solve_regularized(ModelParams(0.25, 1.0, 1.0), 1e-3)
    assert capfd.readouterr() == ("", "")


# ---------------------------------------------------------------------------
# the library contract over the float range
# ---------------------------------------------------------------------------

# Each gave an untyped or wrong result before it was refused: -inf, since
# hbar (phi(E + h) - phi(E - h)) = -1e74 over 2 h = 2.3e-272 overflows; a
# plain ValueError for a kappa near 8.7e-153; G 99.5% below the closed form
# from the subnormal (hbar / h)**2 = 1.03e-312 (seed 1 of the wide draw);
# and G = -inf, the Richardson value NaN, where h sqrt((V - E)(V - E + 4t))
# underflows to 0.
@pytest.mark.parametrize(("call", "p", "match"), [
    (oracle.fd_group_delay,
     ModelParams(1.9938566446344077e-267, 1.1635931281259978e-266, 1.7969363436169433e-57,
                 mass=1.3400223185866949e22, hbar=2.199492000287222e95,
                 center=4.397275449138082),
     r"^the finite-difference group delay overflows at energy=1\.99\d+e-267, .*step="),
    (oracle.greens_grid, ModelParams(0.25, 1.0, 1.0, hbar=1e152),
     r"^the grid oracle needs kappa in \[1e-150, 1e150\], got "),
    (oracle.greens_grid_extrapolated,
     ModelParams(0.2965088687873769 * 5.579463500701536e-285, 5.579463500701536e-285,
                 1.166597697463218e-216, mass=3.285935479686115e-33,
                 hbar=3.280143807022181e-13, center=-2.0238218559312005),
     r"^the grid oracle's hopping t = \(hbar / h\)\*\*2 / \(2 m\) leaves the normal floats "
     r"at h=3\.229\d+e\+143: \(hbar / h\)\*\*2 = 1\.0318\d+e-312, t = 1\.57"),
    (oracle.greens_grid_extrapolated, ModelParams(1e-310, 2e-310, 1.0, mass=1e300, hbar=1e-154),
     r"^the grid oracle's G = -tanh\(n theta\) / \(h sqrt\(\(V - E\) \(V - E \+ 4t\)\)\) "
     r"= -inf is not a normal float at h="),
])
def test_oracles_refuse_what_the_floats_cannot_hold(call, p, match, capfd):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=match):
            call(p)
    assert capfd.readouterr() == ("", "")

