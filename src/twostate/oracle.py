"""Independent numerical oracles for the closed-form results.

Nothing in this module reuses the closed forms it is meant to check, and
everything here runs on numpy alone:

* ``fd_group_delay`` differentiates the transmission phase by central
  differences, converging to the analytic group delay at O(h^2).
* ``greens_grid`` solves (E - H2) G = delta on a finite-difference grid
  with Dirichlet ends, eliminating the tridiagonal system from both ends
  to the centre row; ``greens_grid_extrapolated`` Richardson-combines
  spacings h and h/2.
* ``solve_regularized`` replaces the point coupling by a square coupling
  of width w and height k0/w and solves the genuine two-channel matching
  problem (8 unknowns); its w -> 0 limit recovers the point-coupling
  amplitudes at first order in w.
* ``dwell_time_regularized`` integrates the two-channel density over the
  coupling strip by panelled 64-node Gauss-Legendre quadrature,
  exhibiting the dwell-time collapse tau_d -> 0.
* ``extremum_search`` locates the coupling that maximizes |tau| by a
  golden-section search, without using the closed-form extremum.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import scatter, times
from .params import ModelParams, ReducedParams, wave_numbers

__all__ = [
    "ConvergenceReport",
    "RegularizedSolution",
    "convergence_study",
    "dwell_time_regularized",
    "dwell_time_window",
    "extremum_search",
    "fd_group_delay",
    "greens_grid",
    "greens_grid_extrapolated",
    "solve_regularized",
]


# ---------------------------------------------------------------------------
# finite-difference phase derivative
# ---------------------------------------------------------------------------

def fd_group_delay(p: ModelParams, step: float | None = None) -> float:
    """Group delay hbar * d(phi_t)/dE by symmetric differencing.

    ``step`` must stay below min(E, V - E) / 10 so that both probe
    energies remain strictly inside (0, V).  It defaults to
    min(1e-6 * V, 1e-3 * min(E, V - E)), which is 1e-6 * V wherever
    1e-3 <= E / V <= 1 - 1e-3 and shrinks with the distance to the
    nearer end of (0, V) outside that range, so it is always valid.
    """
    gap = min(p.energy, p.potential - p.energy)
    h = min(1e-6 * p.potential, 1e-3 * gap) if step is None else step
    limit = gap / 10.0
    if not 0.0 < h < limit:
        wave_numbers(p)  # at E = 0 the error is the open channel's, not the step's
        raise ValueError(
            f"finite-difference step must lie in (0, {limit!r}), got {h!r}"
        )
    up = scatter.scattering_phases(replace(p, energy=p.energy + h))[0]
    down = scatter.scattering_phases(replace(p, energy=p.energy - h))[0]
    return p.hbar * (up - down) / (2.0 * h)


# ---------------------------------------------------------------------------
# grid solve of the closed-channel resolvent
# ---------------------------------------------------------------------------

# Below kappa*h = eps**(1/4) the rounding error eps / (kappa h)^2 of the
# difference quotient outgrows its truncation error (kappa h)^2, so no finer
# grid is more accurate.
_KH_FLOOR = float(np.finfo(float).eps) ** 0.25


def _grid_scales(
    p: ModelParams, spacing: float | None, refine: int = 1
) -> tuple[float, float]:
    """Grid half-width 20 / kappa and spacing (0.005 / kappa by default).

    Rejects a kappa outside [1e-150, 1e150], where h**2 leaves the float
    range, and a spacing that is not finite or whose ``refine``-th part is
    below the rounding floor eps**(1/4) / kappa.
    """
    kappa = math.sqrt(2.0 * p.mass * (p.potential - p.energy)) / p.hbar
    if not 1e-150 <= kappa <= 1e150:
        raise ValueError(f"the grid oracle needs kappa in [1e-150, 1e150], got {kappa!r}")
    h = 0.005 / kappa if spacing is None else spacing
    floor = refine * _KH_FLOOR / kappa
    if not floor <= h < math.inf:
        raise ValueError(
            f"grid spacing must be finite and at least {floor!r} "
            f"(kappa*h >= eps**0.25, the rounding floor), got {h!r}"
        )
    return 20.0 / kappa, h


def greens_grid(p: ModelParams, spacing: float | None = None) -> float:
    """Diagonal value G(xc, xc) from a Dirichlet finite-difference solve.

    Second-order central differences on [-L, L] around the coupling with
    L = 20 / kappa, so the truncated tails are ~exp(-40) and invisible at
    the tolerances of interest.  The symmetric tridiagonal system (diagonal
    a, off-diagonal t) is eliminated from both ends to the centre row, and
    only the pivot recurrence d <- a - t^2 / d is needed for that row.
    ``spacing`` must be finite and at least eps**(1/4) / kappa, where the
    rounding error of the grid overtakes its truncation error.
    """
    half, h = _grid_scales(p, spacing)
    n = max(4, int(math.ceil(half / h)))
    h = half / n
    # interior points -n+1 .. n-1 relative to the coupling; n - 1 rows on
    # each side of the centre row
    scale = 2.0 * p.mass * h**2
    t = p._power("hbar", 2) / scale if scale else math.inf
    tsq = t * t
    if tsq == math.inf:
        raise ValueError(f"the grid oracle's t = hbar**2 / (2 m h**2) = {t!r} squares to inf")
    a = (p.energy - p.potential) - 2.0 * t
    d = a
    for _ in range(n - 2):
        d = a - tsq / d
    return (1.0 / h) / (a - 2.0 * tsq / d)


def greens_grid_extrapolated(p: ModelParams, spacing: float | None = None) -> float:
    """Richardson combination (4 G(h/2) - G(h)) / 3 of two grid solves."""
    _, h = _grid_scales(p, spacing, refine=2)
    coarse = greens_grid(p, h)
    fine = greens_grid(p, h / 2.0)
    return (4.0 * fine - coarse) / 3.0


# ---------------------------------------------------------------------------
# square-regularized two-channel solve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegularizedSolution:
    """Exact solution of the square-coupling two-channel problem.

    The coupling block of the channel potential matrix is k0 / width on
    [center - width/2, center + width/2] and zero elsewhere.  reflection /
    transmission are the open-channel amplitudes (reflection carries the
    exp(2 i k center) translation phase); evanescent_left / _right are the
    closed-channel amplitudes of exp(+kappa y) and exp(-kappa y) in the
    frame of the strip.  interior holds the four eigenchannel coefficients
    (a1, b1, a2, b2) of exp(+- i q_j y).  residual is the largest absolute
    defect of the eight matching conditions.
    """

    width: float
    reflection: complex
    transmission: complex
    evanescent_left: complex
    evanescent_right: complex
    interior: np.ndarray
    residual: float
    k: float
    kappa: float
    modes: np.ndarray
    eigenvectors: np.ndarray
    center: float

    def wavefunction(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Both channel amplitudes at lab position(s) x."""
        y = np.atleast_1d(np.asarray(x, dtype=float)) - self.center
        phi1 = np.empty(y.shape, dtype=complex)
        phi2 = np.empty(y.shape, dtype=complex)
        half = self.width / 2.0
        refl0 = self.reflection * cmath.exp(-2j * self.k * self.center)

        left = y < -half
        right = y > half
        mid = ~(left | right)

        phi1[left] = np.exp(1j * self.k * y[left]) + refl0 * np.exp(
            -1j * self.k * y[left]
        )
        phi2[left] = self.evanescent_left * np.exp(self.kappa * y[left])
        phi1[right] = self.transmission * np.exp(1j * self.k * y[right])
        phi2[right] = self.evanescent_right * np.exp(-self.kappa * y[right])

        a1, b1, a2, b2 = self.interior
        phi1[mid] = 0.0
        phi2[mid] = 0.0
        for j, (a, b) in enumerate(((a1, b1), (a2, b2))):
            comp = a * np.exp(1j * self.modes[j] * y[mid]) + b * np.exp(
                -1j * self.modes[j] * y[mid]
            )
            phi1[mid] += self.eigenvectors[0, j] * comp
            phi2[mid] += self.eigenvectors[1, j] * comp

        phase = cmath.exp(1j * self.k * self.center)
        return phi1 * phase, phi2 * phase


def _check_width(width: float) -> None:
    if not 0.0 < width < math.inf:
        raise ValueError(f"width must lie in (0, inf), got {width!r}")


def solve_regularized(p: ModelParams, width: float) -> RegularizedSolution:
    """Solve the two-channel problem with a square coupling of width w.

    Interior potential matrix [[0, g], [g, V]], g = k0 / w, diagonalized
    into one propagating and one evanescent eigenchannel; plane-wave and
    exponential pieces on either side are matched by value and slope at
    both strip edges (8 linear conditions).
    """
    _check_width(width)
    kn = wave_numbers(p)
    k, kappa = kn.k, kn.kappa
    g = p.coupling / width
    umat = np.array([[0.0, g], [g, p.potential]])
    mu, w_eig = np.linalg.eigh(umat)
    modes = np.sqrt(
        (2.0 * p.mass * (p.energy - mu)).astype(complex)
    ) / p.hbar

    xm, xp = -width / 2.0, width / 2.0
    fin = cmath.exp(1j * k * xm)
    fref = cmath.exp(-1j * k * xm)
    fout = cmath.exp(1j * k * xp)
    dec = math.exp(-kappa * width / 2.0)

    # unknowns: [B, C, D_left, D_right, a1, b1, a2, b2].  At each strip edge
    # y, rows r, r + 1 match channel 1's value and slope and rows r + 2, r + 3
    # channel 2's.  The outside waves sit on the left-hand side: the open one
    # in column c1 (value f1, slope s1), the evanescent one in column c2
    # (slope s2); mode q with eigenvector (v1, v2) fills columns ca, ca + 1.
    mat = np.zeros((8, 8), dtype=complex)
    for r, y, c1, f1, s1, c2, s2 in (
        (0, xm, 0, -fref, 1j * k * fref, 2, -kappa * dec),
        (4, xp, 1, -fout, -1j * k * fout, 3, kappa * dec),
    ):
        mat[r, c1], mat[r + 1, c1] = f1, s1
        mat[r + 2, c2], mat[r + 3, c2] = -dec, s2
        for ca, q, v1, v2 in zip((4, 6), modes, *w_eig):
            up, down = np.exp(1j * q * y), np.exp(-1j * q * y)
            cb = ca + 1
            for row, v in ((r, v1), (r + 2, v2)):
                mat[row, ca], mat[row, cb] = v * up, v * down
                mat[row + 1, ca], mat[row + 1, cb] = v * 1j * q * up, -v * 1j * q * down
    rhs = np.zeros(8, dtype=complex)
    rhs[0], rhs[1] = fin, 1j * k * fin

    sol = np.linalg.solve(mat, rhs)
    residual = float(np.max(np.abs(mat @ sol - rhs)))
    if not math.isfinite(residual) or residual > 1e-8:
        cond = float(np.linalg.cond(mat))
        raise RuntimeError(
            f"matching system ill-conditioned: residual={residual:.3e}, "
            f"cond={cond:.3e}"
        )

    refl = complex(sol[0]) * cmath.exp(2j * k * p.center)
    return RegularizedSolution(
        width=width,
        reflection=refl,
        transmission=complex(sol[1]),
        evanescent_left=complex(sol[2]),
        evanescent_right=complex(sol[3]),
        interior=sol[4:8].copy(),
        residual=residual,
        k=k,
        kappa=kappa,
        modes=modes,
        eigenvectors=w_eig,
        center=p.center,
    )


@dataclass(frozen=True)
class ConvergenceReport:
    """Amplitude error of the square regularization versus its width."""

    widths: tuple[float, ...]
    errors: tuple[float, ...]
    observed_order: float


def convergence_study(
    p: ModelParams, widths: tuple[float, ...] = (1e-1, 1e-2, 1e-3)
) -> ConvergenceReport:
    """Error |B_w - B| + |C_w - C| for each width, plus the log-log slope.

    Widths must be strictly decreasing and at least three.  When every
    error sits at rounding level (the uncoupled case) the order is
    reported as +inf rather than a meaningless slope.
    """
    if len(widths) < 3:
        raise ValueError("need at least three widths for an order estimate")
    if any(w <= 0.0 for w in widths):
        raise ValueError("widths must be positive")
    if not all(a > b for a, b in zip(widths, widths[1:])):
        raise ValueError("widths must be strictly decreasing")

    exact = scatter.solve_amplitudes(p)
    errors = []
    for w in widths:
        approx = solve_regularized(p, w)
        errors.append(
            abs(approx.reflection - exact.reflection)
            + abs(approx.transmission - exact.transmission)
        )
    if max(errors) < 1e-12:
        order = math.inf
    else:
        slope = np.polyfit(np.log(np.asarray(widths)), np.log(errors), 1)[0]
        order = float(slope)
    return ConvergenceReport(
        widths=tuple(widths), errors=tuple(errors), observed_order=order
    )


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """64-node Gauss-Legendre rule on [-1, 1], built on first use.

    64 nodes integrate a panel spanning 20 / max(k, kappa, |q_j|) of the
    strip, or 20 / max(k, kappa) outside it, to rounding.
    """
    return np.polynomial.legendre.leggauss(64)


# panels per wavefunction call, so memory stays bounded on wide windows
_PANELS_PER_CALL = 256


def _strip_dwell(p: ModelParams, width: float, pieces: tuple) -> float:
    """Dwell integral of the regularized solution over the given pieces.

    (m / hbar k) times the integral of |phi1|^2 + |phi2|^2 over each
    nonempty (a, b) in ``pieces``, y measured from the coupling center.
    Each piece is cut into equal panels and each panel gets the 64-node
    Gauss-Legendre rule.  Panels inside the strip are no longer than
    20 / max(k, kappa, |q_j|); outside it the solution holds only
    exp(+-i k y) and exp(-kappa |y|), so there they may span
    20 / max(k, kappa), however fast the strip modes q_j oscillate.
    """
    sol = solve_regularized(p, width)
    nodes, weights = _gauss_legendre()
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
        for first in range(0, panels, _PANELS_PER_CALL):
            count = min(_PANELS_PER_CALL, panels - first)
            mids = a + rad * (2.0 * np.arange(first, first + count) + 1.0)
            y = (mids[:, None] + rad * nodes).ravel()
            phi1, phi2 = sol.wavefunction(y + p.center)
            density = (np.abs(phi1) ** 2 + np.abs(phi2) ** 2).reshape(count, -1)
            total += rad * float((density @ weights).sum())
    return total * p.mass / (p.hbar * sol.k)


def dwell_time_regularized(p: ModelParams, width: float) -> float:
    """Dwell time over the coupling strip for the regularized solution.

    tau_d(w) = (1 / j_inc) * integral of |phi1|^2 + |phi2|^2 over the
    strip, j_inc = hbar k / m.  Decays linearly as the strip shrinks; the
    uncoupled value is exactly w * m / (hbar k).
    """
    half = width / 2.0
    return _strip_dwell(p, width, ((-half, half),))


def dwell_time_window(p: ModelParams, width: float, half_window: float) -> float:
    """Diagnostic variant integrating over a fixed window around the strip.

    Unlike dwell_time_regularized this picks up the closed-channel
    evanescent tails outside the strip, so it does not collapse with the
    strip width.  Reported by the verification suite, never asserted.
    """
    _check_width(width)
    half = width / 2.0
    if not half <= half_window < math.inf:
        raise ValueError(
            f"half_window must be finite and at least width / 2 = {half!r} "
            f"so the window contains the coupling strip, got {half_window!r}"
        )
    return _strip_dwell(
        p, width, ((-half_window, -half), (-half, half), (half, half_window))
    )


# ---------------------------------------------------------------------------
# extremum search
# ---------------------------------------------------------------------------

# golden-section shrink factor 1 / phi
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def extremum_search(
    epsilon: float, potential: float, bracket: tuple[float, float] = (1e-6, 50.0)
) -> tuple[float, float]:
    """Numerically maximize |tau| over k0^2 at fixed (epsilon, V).

    Golden-section search over ``bracket`` = (lo, hi), 0 < lo < hi < inf,
    until the bracket is 1e-10 wide.  Returns (k0_sq_at_max, tau_at_max).
    Independent of the closed-form extremum, which it is used to verify.
    """
    lo, hi = bracket
    if not 0.0 < lo < hi < math.inf:
        raise ValueError(
            f"bracket must satisfy 0 < lo < hi < inf, got {bracket!r}"
        )

    def tau(ksq: float) -> float:
        r = ReducedParams(epsilon=epsilon, potential=potential, coupling=math.sqrt(ksq))
        return times.transition_time(r)

    # each step keeps the sub-bracket holding the larger |tau| and shrinks
    # the bracket by 1 / phi; the step count is fixed up front, so a
    # bracket that rounding cannot narrow to 1e-10 still ends
    steps = math.ceil(math.log((hi - lo) / 1e-10) / -math.log(_INV_PHI))
    c, d = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    fc, fd = abs(tau(c)), abs(tau(d))
    for _ in range(steps):
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = abs(tau(c))
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = abs(tau(d))
    ksq = 0.5 * (lo + hi)
    return ksq, tau(ksq)
