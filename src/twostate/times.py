"""Tunneling-time taxonomy and the closed-form transition time.

A point coupling has zero spatial support, so the dwell time and the
absorption time vanish identically and the self-interference delay equals
the group delay:

    tau_dwell = tau_absorption = 0,     tau_self = tau_group.

The group delay is the energy derivative of the transmission phase,

    tau_gt = hbar * d(phi_t)/dE
           = m hbar^3 k0^2 (2E - V)
             / (sqrt(E) sqrt(V - E) (4 hbar^4 E (V - E) + k0^4 m^2)),

identical for transmission and reflection because the effective potential
is real and symmetric.  In the reduced convention (hbar = 1, m = 1/2,
eps = E/V) the same quantity reads

    tau = 2 (2 eps - 1) / (sqrt(eps) sqrt(1 - eps)
          * (k0^2 + 16 eps (1 - eps) V^2 / k0^2)),

negative below eps = 1/2 (transmission speeds up), zero at eps = 1/2,
positive above, and antisymmetric under eps -> 1 - eps.  At fixed eps the
magnitude is extremal at k0^2 = 4 V sqrt(eps (1 - eps)) where it equals
(2 eps - 1) / (4 V eps (1 - eps)).  Negative values are physical and are
never clamped.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from . import scatter
from .params import (
    DegenerateCouplingError,
    DomainError,
    ModelParams,
    ReducedParams,
)

__all__ = [
    "TimeTaxonomy",
    "extremal_coupling",
    "group_delays",
    "time_taxonomy",
    "transition_time",
]


@dataclass(frozen=True)
class TimeTaxonomy:
    """All characteristic times of one scattering configuration.

    The delays are arrays when the parameters are; dwell and absorption
    stay the scalar 0.0.
    """

    dwell: float
    absorption: float
    group_delay: float
    self_interference: float
    transmission_delay: float
    reflection_delay: float
    transition: float


def group_delays(p: ModelParams) -> tuple[float, float, float]:
    """(tau_gt, tau_gr, tau_g): transmission, reflection and mean group delay.

    tau_gt comes from the closed-form phase derivative above, tau_gr equals
    it, and tau_g is the probability-weighted combination
    T2 * tau_gt + R2 * tau_gr, numerically indistinguishable from tau_gt.
    """
    e, v, m, power = p.energy, p.potential, p.mass, p._power
    amps = scatter.solve_amplitudes(p)
    if p.ops.any(p.coupling == 0.0):
        raise DegenerateCouplingError("delays are degenerate at zero coupling")
    sqrt = p.ops.sqrt
    numer = m * power("hbar", 3) * power("coupling", 2) * (2.0 * e - v)
    quartic = 4.0 * power("hbar", 4) * e * (v - e) + power("coupling", 4) * power("mass", 2)
    root = sqrt(e) * sqrt(v - e)
    # the denominator may overflow to inf, unwarned on arrays as on floats;
    # only there is the quotient taken in two steps, so no other bit moves
    denominator = p.ops.muldiv(root, quartic, 1.0)
    tau_gt = numer / denominator
    if p.ops.any(denominator == math.inf):
        tau_gt = p.ops.where(denominator == math.inf,
                             p.ops.muldiv(numer, 1.0, root) / quartic, tau_gt)
    tau_gr = tau_gt
    tau_g = amps.transmission_prob * tau_gt + amps.reflection_prob * tau_gr
    return tau_gt, tau_gr, tau_g


def time_taxonomy(p: ModelParams) -> TimeTaxonomy:
    """Full taxonomy; dwell and absorption are exactly zero by construction."""
    tau_gt, tau_gr, tau_g = group_delays(p)
    return TimeTaxonomy(
        dwell=0.0,
        absorption=0.0,
        group_delay=tau_g,
        self_interference=tau_g,
        transmission_delay=tau_gt,
        reflection_delay=tau_gr,
        transition=tau_g,
    )


def transition_time(r: ReducedParams) -> float:
    """Closed-form reduced transition time tau(eps, V, k0); an array when
    the parameters are.

    Rejects k0 = 0, a k0**2 that underflows to 0, and a power or a tau that
    overflows in float arithmetic.
    """
    ops, eps, k0 = r.ops, r.epsilon, r.coupling
    if ops.any(k0 == 0.0):
        raise DegenerateCouplingError(
            "transition time is degenerate at zero coupling"
        )
    ksq = r._power("coupling", 2)
    if ops.any(ksq == 0.0):
        r._raise_at(ksq == 0.0, "coupling={coupling} is too small: k0**2 "
                    "underflows to 0, so tau is undefined in floats; k0 must be "
                    "above about 1.6e-162")
    rest = 1.0 - eps
    vsq_term = ops.muldiv(16.0 * eps * rest, r._power("potential", 2), ksq)
    tau = ops.muldiv(2.0, 2.0 * eps - 1.0, ops.sqrt(eps) * ops.sqrt(rest) * (ksq + vsq_term))
    if ops.any(abs(tau) == math.inf):
        r._raise_at(abs(tau) == math.inf, "transition time overflows at "
                    "epsilon={epsilon}, potential={potential}, coupling={coupling}: "
                    "in floats, sqrt(eps (1 - eps)) (k0**2 + 16 eps (1 - eps) V**2 "
                    "/ k0**2) is below 2 |2 eps - 1| / 1.8e308")
    return tau


def extremal_coupling(epsilon: float, potential: float) -> tuple[float, float]:
    """Coupling k0^2 that extremizes |tau| at fixed epsilon, and tau there.

    Returns (k0_sq_star, tau_star) with k0_sq_star = 4 V sqrt(eps (1-eps))
    and tau_star = (2 eps - 1) / (4 V eps (1 - eps)).  epsilon = 1/2 is
    degenerate (tau vanishes for every coupling) and is rejected.
    """
    ReducedParams(epsilon, potential, 0.0)  # raises the DomainError naming the field
    if epsilon == 0.5:
        raise ValueError(
            "transition time vanishes identically at epsilon = 1/2; "
            "no extremal coupling exists"
        )
    k0_sq_star = 4.0 * potential * math.sqrt(epsilon * (1.0 - epsilon))
    tau_star = (2.0 * epsilon - 1.0) / (
        4.0 * potential * epsilon * (1.0 - epsilon)
    )
    for name, value in (("k0_sq_star", k0_sq_star), ("tau_star", tau_star)):
        if not 0.0 < abs(value) <= sys.float_info.max:
            raise DomainError(
                f"{name} = {value!r} at epsilon={epsilon}, potential={potential} "
                f"is not a nonzero float of magnitude <= {sys.float_info.max:.4g}"
            )
    return k0_sq_star, tau_star
