"""Independent numerical oracles for the closed-form results.

Nothing in this module reuses the closed forms it is meant to check, and
everything here runs on numpy alone:

* ``fd_group_delay`` differentiates the transmission phase by central
  differences, converging to the analytic group delay at O(h^2).
* ``greens_grid`` solves (E - H2) G = delta on a finite-difference grid
  with Dirichlet ends, eliminating the tridiagonal system from both ends
  to the centre row; ``greens_grid_extrapolated`` Richardson-combines the
  default spacing h and h/2.  The pivot recurrence stops once it reaches
  an exact floating-point fixed point, which every later step would
  return unchanged, so G has the bits of the full recurrence.
* ``solve_regularized`` replaces the point coupling by a square coupling
  of width w and height k0/w and solves the genuine two-channel matching
  problem (8 unknowns); its w -> 0 limit recovers the point-coupling
  amplitudes at first order in w.
* ``dwell_time_regularized`` integrates the two-channel density over the
  coupling strip by panelled 64-node Gauss-Legendre quadrature,
  exhibiting the dwell-time collapse tau_d -> 0.
* ``extremum_search`` locates the coupling that maximizes |tau| by a
  golden-section search over k0^2 in [1e-6, 50], without using the
  closed-form extremum, and refuses a maximum at or beyond either end.

Each oracle that takes ``ModelParams`` measures one configuration:
parameter arrays of any shape but () raise DomainError naming the shape
before any solve, and 0-d arrays give the float call's values.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import scatter, times
from .params import DomainError, ModelParams, ReducedParams, wave_numbers

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
    nearer end of (0, V) outside that range, so it is always valid.  A
    quotient beyond the float range raises DomainError.
    """
    p._one_configuration("fd_group_delay")
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
    delay = p.hbar * (up - down) / (2.0 * h)
    if abs(delay) == math.inf:
        raise DomainError(
            f"the finite-difference group delay overflows at energy={p.energy}, "
            f"potential={p.potential}, coupling={p.coupling}, mass={p.mass}, hbar={p.hbar}, "
            f"step={h!r}; hbar |phi_t(E + h) - phi_t(E - h)| / (2 h) must stay below "
            f"about 1.8e308"
        )
    return delay


# ---------------------------------------------------------------------------
# grid solve of the closed-channel resolvent
# ---------------------------------------------------------------------------

# Below kappa*h = eps**(1/4) the rounding error eps / (kappa h)^2 of the
# difference quotient outgrows its truncation error (kappa h)^2, so no finer
# grid is more accurate.
_KH_FLOOR = float(np.finfo(float).eps) ** 0.25


def _grid_scales(p: ModelParams, spacing: float | None) -> tuple[float, float]:
    """Grid half-width 20 / kappa and spacing (0.005 / kappa by default).

    Raises DomainError for a kappa outside [1e-150, 1e150], where h**2
    leaves the float range, and ValueError for a spacing that is not finite
    or is below the rounding floor eps**(1/4) / kappa.
    """
    p._one_configuration("the grid oracle")
    kappa = math.sqrt(2.0 * p.mass * (p.potential - p.energy)) / p.hbar
    if not 1e-150 <= kappa <= 1e150:
        raise DomainError(f"the grid oracle needs kappa in [1e-150, 1e150], got {kappa!r}")
    h = 0.005 / kappa if spacing is None else spacing
    floor = _KH_FLOOR / kappa
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

    The recurrence runs in unrolled 64-step chunks and stops after the
    first chunk whose d it maps to d itself.  The map is deterministic, so
    every later step would return the same d, and G keeps the bits of the
    full n - 2 steps (a zero d maps to an infinity or NaN, so == never
    meets two zeros of opposite sign and compares bits).  The default
    grids reach such a fixed point after about 70% of their steps; a run
    that never does, a 2-cycle or a NaN, still takes every step.
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
        raise DomainError(f"the grid oracle's t = hbar**2 / (2 m h**2) = {t!r} squares to inf")
    a = (p.energy - p.potential) - 2.0 * t
    d = a
    chunks, rest = divmod(n - 2, 64)
    for _ in range(chunks):
        for _ in range(8):
            d = a - tsq / d
            d = a - tsq / d
            d = a - tsq / d
            d = a - tsq / d
            d = a - tsq / d
            d = a - tsq / d
            d = a - tsq / d
            d = a - tsq / d
        if a - tsq / d == d:  # a fixed point: every later step returns d
            rest = 0
            break
    for _ in range(rest):
        d = a - tsq / d
    return (1.0 / h) / (a - 2.0 * tsq / d)


def greens_grid_extrapolated(p: ModelParams) -> float:
    """Richardson combination (4 G(h/2) - G(h)) / 3 of two grid solves at
    the default spacing h = 0.005 / kappa."""
    _, h = _grid_scales(p, None)
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
        """Both channel amplitudes at lab position(s) x.

        Each region's formula is elementwise, so it runs on that region's
        points alone (on all of y when every point is in it) and not at
        all when the region holds none, with the values of a call that
        evaluates every region.
        """
        y = np.atleast_1d(np.asarray(x, dtype=float)) - self.center
        phi1 = np.empty(y.shape, dtype=complex)
        phi2 = np.empty(y.shape, dtype=complex)
        half = self.width / 2.0
        left = y < -half
        right = y > half
        for mask, region in ((left, self._left), (right, self._right),
                             (~(left | right), self._strip)):
            count = np.count_nonzero(mask)
            if count == y.size:
                phi1, phi2 = region(y)
            elif count:
                phi1[mask], phi2[mask] = region(y[mask])
        phase = cmath.exp(1j * self.k * self.center)
        return phi1 * phase, phi2 * phase

    def _left(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        refl0 = self.reflection * cmath.exp(-2j * self.k * self.center)
        return (np.exp(1j * self.k * y) + refl0 * np.exp(-1j * self.k * y),
                self.evanescent_left * np.exp(self.kappa * y))

    def _right(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (self.transmission * np.exp(1j * self.k * y),
                self.evanescent_right * np.exp(-self.kappa * y))

    def _strip(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        q1, q2 = self.modes.tolist()
        waves = np.exp(np.multiply.outer([1j * q1, -1j * q1, 1j * q2, -1j * q2], y.ravel()))
        amp = self.interior[:, None] * waves  # a_j exp(i q_j y) and b_j exp(-i q_j y)
        terms = self.eigenvectors[:, :, None] * (amp[0::2] + amp[1::2])
        # each sum starts from +0.0, which turns a -0.0 first term into +0.0
        return tuple((0.0 + terms[c, 0] + terms[c, 1]).reshape(y.shape) for c in (0, 1))


# ln(1 / the smallest normal float), 708.4: beyond it exp(-x) is subnormal
_LOG_HUGE = -math.log(np.finfo(float).tiny)


def _check_width(width: float) -> None:
    if not 0.0 < width < math.inf:
        raise ValueError(f"width must lie in (0, inf), got {width!r}")


def solve_regularized(p: ModelParams, width: float) -> RegularizedSolution:
    """Solve the two-channel problem with a square coupling of width w.

    Interior potential matrix [[0, g], [g, V]], g = k0 / w, diagonalized
    into one propagating and one evanescent eigenchannel; plane-wave and
    exponential pieces on either side are matched by value and slope at
    both strip edges (8 linear conditions).

    The evanescent strip mode q (|q| >= kappa) puts |q| exp(|q| w/2) into
    the system and amplitudes of about its reciprocal into the solution.
    Where that reciprocal is not a normal float, that is where |q| w/2
    reaches ln(1 / (|q| tiny)) (|q| taken as at least 1, tiny the smallest
    normal float), DomainError is raised before the system is built; so it
    is where k0 / w overflows.  The solve is accepted where the largest
    absolute defect of the eight conditions (``residual``) is at most
    1e-8 * max(1, k), 1e-8 times the largest |right-hand side| entry, since
    the slope rows carry k; beyond that, where it is NaN, or where LAPACK
    finds the system exactly singular, DomainError.
    """
    _check_width(width)
    p._one_configuration("the regularized oracle")
    kn = wave_numbers(p)
    k, kappa = kn.k, kn.kappa
    g = p.coupling / width
    if g == math.inf:
        raise DomainError(f"coupling / width overflows at coupling={p.coupling}, width={width}")
    umat = np.array([[0.0, g], [g, p.potential]])
    mu, w_eig = np.linalg.eigh(umat)
    # mu[-1] >= V > E: the evanescent mode; float arithmetic, inf on overflow
    q = math.sqrt(2.0 * p.mass * (float(mu[-1]) - p.energy)) / p.hbar
    exponent, bound = q * width / 2.0, _LOG_HUGE - math.log(max(q, 1.0))
    if not exponent < bound:
        raise DomainError(
            f"the evanescent strip mode's |q| exp(|q| w/2) leaves the floats at "
            f"coupling={p.coupling}, width={width} (energy={p.energy}, potential="
            f"{p.potential}): |q| w/2 = {exponent:.6g} must stay below "
            f"ln(1 / (|q| tiny)) = {bound:.6g}, tiny the smallest normal float"
        )
    modes = np.sqrt(
        (2.0 * p.mass * (p.energy - mu)).astype(complex)
    ) / p.hbar

    xm, xp = -width / 2.0, width / 2.0
    fin = cmath.exp(1j * k * xm)
    fref = cmath.exp(-1j * k * xm)
    fout = cmath.exp(1j * k * xp)
    dec = math.exp(-kappa * width / 2.0)

    # unknowns: [B, C, D_left, D_right, a1, b1, a2, b2].  At each strip edge
    # y, two rows match channel 1's value and slope and two channel 2's.  The
    # channel's outside wave sits on the left-hand side in column c (value f,
    # slope s): the open one in column 0 or 1, the evanescent one in 2 or 3.
    # Mode q_j, whose eigenvector component in the channel is v, fills
    # columns 4 + 2j and 5 + 2j with v exp(+-i q_j y) and the slopes
    # +-v i q_j exp(+-i q_j y).  The entries are Python complex and float
    # values, which round as numpy scalars do; one np.exp takes every
    # exp(+-i q y), so an overflow gives inf, not an OverflowError.
    qs = modes.tolist()
    # per channel and mode: v, v i q and -v i q
    coefs = [[(v, v * 1j * q, -v * 1j * q) for v, q in zip(row, qs)] for row in w_eig.tolist()]
    waves = np.exp([s * q * y for y in (xm, xp) for q in qs for s in (1j, -1j)]).tolist()
    rows = []
    for (up1, down1, up2, down2), outside in (
        (waves[:4], ((0, -fref, 1j * k * fref), (2, -dec, -kappa * dec))),
        (waves[4:], ((1, -fout, -1j * k * fout), (3, -dec, kappa * dec))),
    ):
        for (c, f, s), ((v1, p1, m1), (v2, p2, m2)) in zip(outside, coefs):
            value, slope = [0j] * 4, [0j] * 4
            value[c], slope[c] = f, s
            rows += [value + [v1 * up1, v1 * down1, v2 * up2, v2 * down2],
                     slope + [p1 * up1, m1 * down1, p2 * up2, m2 * down2]]
    mat = np.array(rows, dtype=complex)
    rhs = np.array([fin, 1j * k * fin, 0j, 0j, 0j, 0j, 0j, 0j])

    try:
        sol = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError:  # an exactly singular pivot: no solve to bound
        raise DomainError(
            f"matching system singular at coupling={p.coupling}, width={width}"
        ) from None
    residual = float(np.abs(mat @ sol - rhs).max())
    bound = 1e-8 * max(1.0, k)  # the slope rows carry k: max |rhs| is max(1, k)
    if not residual <= bound:
        raise DomainError(
            f"matching system ill-conditioned at coupling={p.coupling}, width={width}: "
            f"residual={residual:.3e} exceeds its bound 1e-8 * max(1, k) = {bound:.3e}"
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


def convergence_study(p: ModelParams) -> ConvergenceReport:
    """Error |B_w - B| + |C_w - C| at widths 1e-1, 1e-2 and 1e-3, plus the
    log-log slope.

    When every error sits at rounding level (the uncoupled case) the order
    is reported as +inf rather than a meaningless slope.
    """
    p._one_configuration("convergence_study")
    widths = (1e-1, 1e-2, 1e-3)
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
    return ConvergenceReport(widths=widths, errors=tuple(errors), observed_order=order)


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
            mids = a + rad * np.arange(2.0 * first + 1.0, 2.0 * (first + count), 2.0)
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


def extremum_search(epsilon: float, potential: float) -> tuple[float, float]:
    """Numerically maximize |tau| over k0^2 at fixed (epsilon, V).

    Golden-section search over k0^2 in [1e-6, 50] until the bracket is
    1e-10 wide.  Returns (k0_sq_at_max, tau_at_max).  Independent of the
    closed-form extremum, which it is used to verify.  Raises DomainError
    when an end of the bracket never moved: the maximum then lies at or
    beyond that end (or |tau| is flat, as at epsilon = 1/2), and the end
    is no maximizer.
    """
    bracket = (1e-6, 50.0)
    lo, hi = bracket

    def tau(ksq: float) -> float:
        r = ReducedParams(epsilon=epsilon, potential=potential, coupling=math.sqrt(ksq))
        return times.transition_time(r)

    # each step keeps the sub-bracket holding the larger |tau| and shrinks
    # the bracket by 1 / phi
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
    for name, end, now in (("lower", bracket[0], lo), ("upper", bracket[1], hi)):
        if now == end:
            raise DomainError(
                f"|tau| has no maximum inside the search bracket k0^2 in "
                f"[{bracket[0]!r}, {bracket[1]!r}] at epsilon={epsilon!r}, "
                f"V={potential!r}: its {name} end never moved"
            )
    ksq = 0.5 * (lo + hi)
    return ksq, tau(ksq)
