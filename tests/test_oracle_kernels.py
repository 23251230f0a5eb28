"""The grid, wavefunction and dwell kernels of ``twostate.oracle`` give the
same bits as the plain formulas they replaced.

``greens_grid`` stops its pivot recurrence at a floating-point fixed point,
and ``RegularizedSolution.wavefunction`` skips the regions that hold no
points; the references below run every step and every region.  Numpy
alone: this module runs where scipy is not installed.
"""

import cmath
import math
import random
import warnings

import numpy as np
import pytest

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


def _bits(*values) -> list[str]:
    return [float(v).hex() for v in values]


# ---------------------------------------------------------------------------
# greens_grid
# ---------------------------------------------------------------------------

def _plain_grid(p, spacing=None):
    """greens_grid with all n - 2 steps of its pivot recurrence."""
    half, h = oracle._grid_scales(p, spacing)
    n = max(4, int(math.ceil(half / h)))
    h = half / n
    scale = 2.0 * p.mass * h**2
    t = p._power("hbar", 2) / scale if scale else math.inf
    tsq = t * t
    a = (p.energy - p.potential) - 2.0 * t
    d = a
    for _ in range(n - 2):
        d = a - tsq / d
    return (1.0 / h) / (a - 2.0 * tsq / d)


def _steps(p, spacing):
    """n - 2, the recurrence's length, and the step after which d is a
    fixed point (None if it never is)."""
    half, h = oracle._grid_scales(p, spacing)
    n = max(4, int(math.ceil(half / h)))
    h = half / n
    t = p._power("hbar", 2) / (2.0 * p.mass * h**2)
    tsq, a = t * t, (p.energy - p.potential) - 2.0 * t
    d = a
    for step in range(1, n - 1):
        d = a - tsq / d
        if a - tsq / d == d:
            return n - 2, step
    return n - 2, None


@pytest.mark.parametrize("p", _battery())
def test_grid_is_the_plain_recurrence_on_the_battery(p):
    _, h = oracle._grid_scales(p, None)
    coarse, fine = _plain_grid(p, h), _plain_grid(p, h / 2.0)
    assert _bits(oracle.greens_grid(p), oracle.greens_grid(p, h / 2.0)) == _bits(coarse, fine)
    assert _bits(oracle.greens_grid_extrapolated(p)) == _bits((4.0 * fine - coarse) / 3.0)


# kappa = 1 here, so the grid has n = ceil(20 / spacing) points a side
P_UNIT = ModelParams(energy=0.5, potential=1.5, coupling=1.0)


@pytest.mark.parametrize(
    ("n", "fixed_point"),
    [
        (4, None),  # the smallest grid: two steps, no chunk
        (5, None),
        (65, 57),  # 63 steps, shorter than a chunk
        (66, 59),  # one chunk, no rest
        (67, 59),
        (75, 66),  # the only check comes before the fixed point: every step runs
        (130, 112),  # two chunks, found by the second check
        (131, 112),  # found by the second check, the last step skipped
        (154, 129),  # neither check finds it: every step runs
        (1000, 759),
    ],
)
def test_grid_is_the_plain_recurrence_at_chunk_edges(n, fixed_point):
    spacing = 20.0 / (n - 0.5)
    assert _steps(P_UNIT, spacing) == (n - 2, fixed_point)
    assert _bits(oracle.greens_grid(P_UNIT, spacing)) == _bits(_plain_grid(P_UNIT, spacing))


def test_grid_is_the_plain_recurrence_at_the_rounding_floor():
    # about 164k steps, the longest recurrence greens_grid accepts here
    floor = float(np.finfo(float).eps) ** 0.25
    steps, fixed_point = _steps(P_UNIT, floor)
    assert steps == 163_838 and fixed_point < steps
    assert _bits(oracle.greens_grid(P_UNIT, floor)) == _bits(_plain_grid(P_UNIT, floor))


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
    _, h = oracle._grid_scales(p, None)
    assert _bits(oracle.greens_grid(p, scale * h)) == _bits(_plain_grid(p, scale * h))


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


def _complex_bits(a) -> tuple:
    a = np.asarray(a, dtype=complex)
    return a.shape, np.stack([a.real, a.imag], axis=-1).tobytes()


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
        assert [_complex_bits(v) for v in got] == [_complex_bits(v) for v in want], name


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
