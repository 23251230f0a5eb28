"""Named verification checks behind the `verify` CLI subcommand.

Each check compares an independent computation path against the closed
forms and reports a pass/fail with the measured figure of merit.  The
collaborators are looked up through their modules on every call, so a
fault injected into e.g. ``times.group_delays`` or
``scatter.solve_amplitudes`` is guaranteed to surface in the matching
check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracle, scatter, times
from .params import ReducedParams, expand_reduced

__all__ = ["CheckResult", "run_verification"]

_TAU_TARGET = -0.5773502691896258  # closed-form value at (0.25, 1, 1)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_unitarity_grid() -> CheckResult:
    """|T|^2 + |R|^2 = 1 to 1e-12 over >= 1e4 parameter triples."""
    eps = np.linspace(0.01, 0.99, 50)
    k0 = np.sqrt(np.linspace(0.01, 10.0, 67))
    maxima = []
    count = 0
    # whole-array calls on blocks of <= 1,700 points keep the temporaries
    # under about 0.3 MB
    for pot in (0.5, 1.0, 2.0):
        for rows in np.array_split(k0, 2):
            p = expand_reduced(
                ReducedParams(epsilon=eps, potential=pot, coupling=rows[:, None])
            )
            amps = scatter.solve_amplitudes(p)
            defect = np.abs(amps.transmission_prob + amps.reflection_prob - 1.0)
            maxima.append(defect.max())
            count += defect.size
    worst = float(np.max(maxima))  # NaN propagates and fails the check
    return CheckResult(
        name="unitarity_grid",
        passed=worst <= 1e-12,
        detail=f"max |T2+R2-1| = {worst:.3e} over {count} triples (tol 1e-12)",
    )


def check_closed_form_consistency() -> CheckResult:
    """Full-unit delay, taxonomy value and reduced form agree to 1e-12."""
    r = ReducedParams(
        epsilon=np.linspace(0.05, 0.95, 19),
        potential=np.array([0.5, 1.0, 2.0])[:, None, None],
        coupling=np.sqrt([0.25, 0.5, 1.0, 2.0, 4.0])[:, None],
    )
    p = expand_reduced(r)
    full = times.group_delays(p)[0]
    taxonomy = times.time_taxonomy(p).transition
    reduced = times.transition_time(r)
    # tau vanishes at eps = 1/2, where a relative spread means nothing; a
    # NaN is kept, so it fails the check
    keep = ~(np.abs(reduced) <= 1e-9)
    dev = np.maximum(np.abs(full - reduced), np.abs(taxonomy - reduced)) / np.abs(reduced)
    worst = float(np.max(dev[keep], initial=0.0))
    return CheckResult(
        name="closed_form_consistency",
        passed=worst <= 1e-12,
        detail=f"max relative spread of the three forms = {worst:.3e} (tol 1e-12)",
    )


def check_phase_derivative_oracle() -> CheckResult:
    """Central-difference phase derivative converges at O(h^2) to tau."""
    r = ReducedParams(epsilon=0.25, potential=1.0, coupling=1.0)
    p = expand_reduced(r)
    analytic = times.group_delays(p)[0]
    err_coarse = abs(oracle.fd_group_delay(p, 1e-3 * p.potential) - analytic)
    err_fine = abs(oracle.fd_group_delay(p, 5e-4 * p.potential) - analytic)
    ratio = err_coarse / err_fine if err_fine > 0.0 else math.inf
    tight = oracle.fd_group_delay(p, 1e-6 * p.potential)
    gap_analytic = abs(tight - analytic)
    gap_target = abs(tight - _TAU_TARGET)
    ok = 3.5 <= ratio <= 4.5 and gap_analytic <= 1e-6 and gap_target <= 1e-6
    return CheckResult(
        name="phase_derivative_oracle",
        passed=ok,
        detail=(
            f"halving ratio = {ratio:.3f} (want [3.5, 4.5]); "
            f"|fd - analytic| = {gap_analytic:.3e}, "
            f"|fd - target| = {gap_target:.3e} at h = 1e-6 (tol 1e-6)"
        ),
    )


def check_structural_laws() -> CheckResult:
    """Zero at eps = 1/2, sign law, antisymmetry, endpoint divergence."""
    zero = times.transition_time(
        ReducedParams(epsilon=0.5, potential=1.0, coupling=1.0)
    )
    grid = np.linspace(1e-4, 1.0 - 1e-4, 999)
    tau, mirror = times.transition_time(
        ReducedParams(epsilon=np.stack([grid, 1.0 - grid]), potential=1.0, coupling=1.0)
    )
    side = 2.0 * grid - 1.0
    sign_ok = bool(np.all(
        (np.signbit(tau) == np.signbit(side)) | ((tau == 0.0) & (side == 0.0))
    ))
    anti_worst = float(np.max(np.abs(tau + mirror) / np.maximum(1.0, np.abs(tau))))
    edge_low = times.transition_time(
        ReducedParams(epsilon=1e-6, potential=1.0, coupling=1.0)
    )
    edge_high = times.transition_time(
        ReducedParams(epsilon=1.0 - 1e-6, potential=1.0, coupling=1.0)
    )
    diverges = abs(edge_low) > 1e2 and abs(edge_high) > 1e2
    ok = zero == 0.0 and sign_ok and anti_worst <= 1e-12 and diverges
    return CheckResult(
        name="structural_laws",
        passed=ok,
        detail=(
            f"tau(1/2) = {zero!r}; sign law {'holds' if sign_ok else 'broken'}; "
            f"max antisymmetry defect = {anti_worst:.3e} (tol 1e-12); "
            f"|tau| at eps = 1e-6 / 1-1e-6: {abs(edge_low):.1f} / "
            f"{abs(edge_high):.1f} (want > 1e2)"
        ),
    )


def check_extremum_law() -> CheckResult:
    """Numerical |tau| maximization reproduces the closed-form extremum."""
    found = np.array([oracle.extremum_search(eps, 1.0) for eps in (0.25, 0.75)])
    ref = np.array([times.extremal_coupling(eps, 1.0) for eps in (0.25, 0.75)])
    # np.max, unlike max(0.0, gap), keeps a NaN gap, so it fails the check
    worst_k = float(np.max(np.abs(found[:, 0] - ref[:, 0])))
    worst_t = float(np.max(np.abs(np.abs(found[:, 1]) - np.abs(ref[:, 1]))))
    ok = worst_k <= 1e-6 and worst_t <= 1e-9
    return CheckResult(
        name="extremum_law",
        passed=ok,
        detail=(
            f"max |k0_sq - closed form| = {worst_k:.3e} (tol 1e-6); "
            f"max ||tau*| - closed form| = {worst_t:.3e} (tol 1e-9)"
        ),
    )


def check_reduction_chain() -> CheckResult:
    """Square-regularized amplitudes converge to the closed forms."""
    p = expand_reduced(ReducedParams(epsilon=0.5, potential=1.0, coupling=1.0))
    widths = (1e-1, 1e-2, 1e-3)
    report = oracle.convergence_study(p, widths)
    sols = [oracle.solve_regularized(p, w) for w in widths]
    residual = float(np.max([sol.residual for sol in sols]))
    flux_defect = float(np.max([
        abs(abs(sol.reflection) ** 2 + abs(sol.transmission) ** 2 - 1.0)
        for sol in sols
    ]))
    decreasing = all(
        a > b for a, b in zip(report.errors, report.errors[1:])
    )
    ok = (
        report.observed_order >= 0.8
        and report.errors[-1] <= 2e-3
        and residual <= 1e-10
        and flux_defect <= 1e-10
        and decreasing
    )
    return CheckResult(
        name="reduction_chain",
        passed=ok,
        detail=(
            f"observed order = {report.observed_order:.3f} (want >= 0.8); "
            f"error at w=1e-3 = {report.errors[-1]:.3e} (tol 2e-3); "
            f"max residual = {residual:.3e} (tol 1e-10); "
            f"max flux defect = {flux_defect:.3e} (tol 1e-10)"
        ),
    )


def check_dwell_limit() -> CheckResult:
    """Dwell time over the strip collapses linearly with the width."""
    p = expand_reduced(ReducedParams(epsilon=0.5, potential=1.0, coupling=1.0))
    widths = (1e-1, 1e-2, 1e-3)
    dwell = [oracle.dwell_time_regularized(p, w) for w in widths]
    window = oracle.dwell_time_window(p, 1e-3, 0.5)
    decreasing = all(a > b for a, b in zip(dwell, dwell[1:]))
    ratio = dwell[1] / dwell[2] if dwell[2] > 0.0 else math.inf
    ok = decreasing and dwell[-1] <= 1e-2 and ratio >= 5.0
    return CheckResult(
        name="dwell_limit",
        passed=ok,
        detail=(
            f"dwell at widths {widths} = "
            f"({dwell[0]:.3e}, {dwell[1]:.3e}, {dwell[2]:.3e}), "
            f"decade ratio = {ratio:.2f} (want >= 5); "
            f"fixed-window diagnostic (half-window 0.5) = {window:.3e}"
        ),
    )


def check_taxonomy_identities() -> CheckResult:
    """Dwell/absorption vanish and the taxonomy identity closes exactly."""
    tax = times.time_taxonomy(expand_reduced(ReducedParams(
        epsilon=np.array([0.2, 0.5, 0.8]),
        potential=1.0,
        coupling=np.sqrt([0.5, 2.0])[:, None],
    )))
    zeros_ok = tax.dwell == 0.0 and tax.absorption == 0.0
    # a NaN delay propagates into both figures and fails the check
    identity = tax.dwell - (tax.absorption + tax.group_delay - tax.self_interference)
    worst_identity = float(np.max(np.abs(identity)))
    worst_spread = float(np.max(np.maximum(
        np.abs(tax.transition - tax.transmission_delay)
        / np.maximum(1.0, np.abs(tax.transition)),
        np.abs(tax.transmission_delay - tax.reflection_delay),
    )))
    ok = zeros_ok and worst_identity == 0.0 and worst_spread <= 1e-12
    return CheckResult(
        name="taxonomy_identities",
        passed=ok,
        detail=(
            f"identity defect = {worst_identity!r} (want 0 exactly); "
            f"delay spread = {worst_spread:.3e} (tol 1e-12); "
            f"dwell/absorption zero: {zeros_ok}"
        ),
    )


def run_verification() -> list[CheckResult]:
    """Run every named check in a stable order."""
    return [
        check_unitarity_grid(),
        check_closed_form_consistency(),
        check_phase_derivative_oracle(),
        check_structural_laws(),
        check_extremum_law(),
        check_reduction_chain(),
        check_dwell_limit(),
        check_taxonomy_identities(),
    ]
