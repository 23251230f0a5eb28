"""Named verification checks behind the `verify` CLI subcommand.

Each check compares an independent computation path against the closed
forms and reports a pass/fail with the measured figures of merit.  A check
computes its figures and hands them to ``_result``, which derives both the
verdict and the printed text from that one list, so every figure that
decides ``passed`` is printed beside its bound.  The collaborators are
looked up through their modules on every call, so a fault injected into
e.g. ``times.group_delays`` or ``scatter.solve_amplitudes`` is guaranteed
to surface in the matching check.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import oracle, scatter, times
from .params import ReducedParams, expand_reduced

__all__ = ["CheckResult", "run_verification"]

_TAU_TARGET = -0.5773502691896258  # closed-form value at (0.25, 1, 1)

# rule -> test of a figure against its bound; a NaN meets none of them
_RULES = {
    "<=": operator.le,
    ">=": operator.ge,
    ">": operator.gt,
    "==": operator.eq,
    "in": lambda value, bound: bound[0] <= value <= bound[1],
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, *figures: tuple) -> CheckResult:
    """The result of check ``name`` from its figures.

    Each figure is ``(label, value, rule, bound)``, with ``rule`` a key of
    ``_RULES`` (``bound`` a (low, high) pair for ``in``), or ``(label,
    value)`` for a figure that is reported and never asserted.  The check
    passes when every asserted figure meets its bound; ``detail`` prints
    every figure, floats to 4 significant digits, each with its bound.
    """
    passed, parts = True, []
    for label, value, *test in figures:
        part = f"{label} = {value:.4g}" if isinstance(value, float) else f"{label} = {value}"
        if test:
            rule, bound = test
            passed = _RULES[rule](value, bound) and passed
            shown = f"[{bound[0]:g}, {bound[1]:g}]" if rule == "in" else f"{bound:g}"
            part += f" ({rule} {shown})"
        parts.append(part)
    return CheckResult(name=name, passed=bool(passed), detail="; ".join(parts))


def _not_falling(values) -> int:
    """How many consecutive values fail to fall; a NaN counts."""
    return sum(not a > b for a, b in zip(values, values[1:]))


def check_unitarity_grid() -> CheckResult:
    """|T|^2 + |R|^2 = 1 over about 1e4 parameter triples."""
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
    return _result("unitarity_grid", ("max |T2+R2-1|", worst, "<=", 1e-12),
                   ("triples", count))


def check_closed_form_consistency() -> CheckResult:
    """Full-unit delay, taxonomy value and reduced form agree."""
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
    return _result("closed_form_consistency",
                   ("max relative spread of the three forms", worst, "<=", 1e-12))


def check_phase_derivative_oracle() -> CheckResult:
    """Central-difference phase derivative converges at O(h^2) to tau."""
    r = ReducedParams(epsilon=0.25, potential=1.0, coupling=1.0)
    p = expand_reduced(r)
    analytic = times.group_delays(p)[0]
    err_coarse = abs(oracle.fd_group_delay(p, 1e-3 * p.potential) - analytic)
    err_fine = abs(oracle.fd_group_delay(p, 5e-4 * p.potential) - analytic)
    ratio = err_coarse / err_fine if err_fine > 0.0 else math.inf
    tight = oracle.fd_group_delay(p, 1e-6 * p.potential)
    return _result(
        "phase_derivative_oracle",
        ("halving ratio", ratio, "in", (3.5, 4.5)),
        *((f"|fd - {label}| at h=1e-6", abs(tight - ref), "<=", 1e-6)
          for label, ref in (("analytic", analytic), ("target", _TAU_TARGET))),
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
    off = np.count_nonzero(
        (np.signbit(tau) != np.signbit(side)) & ~((tau == 0.0) & (side == 0.0))
    )
    anti_worst = float(np.max(np.abs(tau + mirror) / np.maximum(1.0, np.abs(tau))))
    return _result(
        "structural_laws",
        ("tau(1/2)", zero, "==", 0.0),
        ("points off the sign law", off, "==", 0),
        ("max antisymmetry defect", anti_worst, "<=", 1e-12),
        *((f"|tau| at eps={eps:g}", abs(times.transition_time(
            ReducedParams(epsilon=eps, potential=1.0, coupling=1.0))), ">", 1e2)
          for eps in (1e-6, 1.0 - 1e-6)),
    )


def check_extremum_law() -> CheckResult:
    """Numerical |tau| maximization reproduces the closed-form extremum."""
    found = np.array([oracle.extremum_search(eps, 1.0) for eps in (0.25, 0.75)])
    ref = np.array([times.extremal_coupling(eps, 1.0) for eps in (0.25, 0.75)])
    # np.max, unlike max(0.0, gap), keeps a NaN gap, so it fails the check
    return _result(
        "extremum_law",
        ("max |k0_sq - closed form|", float(np.max(np.abs(found[:, 0] - ref[:, 0]))),
         "<=", 1e-6),
        ("max ||tau*| - closed form|",
         float(np.max(np.abs(np.abs(found[:, 1]) - np.abs(ref[:, 1])))), "<=", 1e-9),
    )


def check_reduction_chain() -> CheckResult:
    """Square-regularized amplitudes converge to the closed forms."""
    p = expand_reduced(ReducedParams(epsilon=0.5, potential=1.0, coupling=1.0))
    widths = (1e-1, 1e-2, 1e-3)
    report = oracle.convergence_study(p, widths)
    sols = [oracle.solve_regularized(p, w) for w in widths]
    return _result(
        "reduction_chain",
        ("observed order", report.observed_order, ">=", 0.8),
        ("error at w=1e-3", report.errors[-1], "<=", 2e-3),
        ("width steps where the error does not fall", _not_falling(report.errors), "==", 0),
        ("max residual", float(np.max([sol.residual for sol in sols])), "<=", 1e-10),
        ("max flux defect", float(np.max([
            abs(abs(sol.reflection) ** 2 + abs(sol.transmission) ** 2 - 1.0)
            for sol in sols
        ])), "<=", 1e-10),
    )


def check_dwell_limit() -> CheckResult:
    """Dwell time over the strip collapses linearly with the width."""
    p = expand_reduced(ReducedParams(epsilon=0.5, potential=1.0, coupling=1.0))
    dwell = [oracle.dwell_time_regularized(p, w) for w in (1e-1, 1e-2, 1e-3)]
    return _result(
        "dwell_limit",
        ("dwell at w=1e-1", dwell[0]),
        ("dwell at w=1e-2", dwell[1]),
        ("dwell at w=1e-3", dwell[2], "<=", 1e-2),
        ("width steps where the dwell does not fall", _not_falling(dwell), "==", 0),
        ("decade ratio", dwell[1] / dwell[2] if dwell[2] > 0.0 else math.inf, ">=", 5.0),
        ("fixed-window dwell (half-window 0.5)", oracle.dwell_time_window(p, 1e-3, 0.5)),
    )


def check_taxonomy_identities() -> CheckResult:
    """Dwell/absorption vanish and the taxonomy identity closes exactly."""
    tax = times.time_taxonomy(expand_reduced(ReducedParams(
        epsilon=np.array([0.2, 0.5, 0.8]),
        potential=1.0,
        coupling=np.sqrt([0.5, 2.0])[:, None],
    )))
    # a NaN delay propagates into both figures and fails the check
    identity = tax.dwell - (tax.absorption + tax.group_delay - tax.self_interference)
    spread = np.maximum(
        np.abs(tax.transition - tax.transmission_delay)
        / np.maximum(1.0, np.abs(tax.transition)),
        np.abs(tax.transmission_delay - tax.reflection_delay),
    )
    return _result(
        "taxonomy_identities",
        ("identity defect", float(np.max(np.abs(identity))), "==", 0.0),
        ("delay spread", float(np.max(spread)), "<=", 1e-12),
        ("nonzero dwell/absorption", np.count_nonzero([tax.dwell, tax.absorption]), "==", 0),
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
