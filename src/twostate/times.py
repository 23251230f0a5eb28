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

import numpy as np

from . import scatter
from .params import _TINY, DegenerateCouplingError, DomainError, ModelParams, ReducedParams

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
    Where ``_plain_delay`` is NaN or inf, tau_gt is ``_mend``'s, or
    DomainError at the first point where that is beyond the floats.
    Elsewhere tau_gt takes 14 roundings, a backward error of about one ulp
    in the inputs; it is not held to a bound, and 4.79 ulp is recorded at
    ModelParams(6.932208552663656e-38, 1.6263741016363882e181,
    1.0101862344431459e-13, mass=1.9796989689154578e89,
    hbar=2.106569659926916e-39).
    """
    amps = scatter.solve_amplitudes(p)
    if p.ops.any(p.coupling == 0.0):
        raise DegenerateCouplingError("delays are degenerate at zero coupling")
    if p.is_array:
        with np.errstate(all="ignore"):  # inf and NaN, as floats give them, mended below
            tau_gt = _plain_delay(p)
    else:
        tau_gt = _plain_delay(p)
    lost = (abs(tau_gt) == math.inf) | (tau_gt != tau_gt)  # inf or NaN
    if p.ops.any(lost):
        tau_gt = p._mend(lost, tau_gt, _exact_delay, "the group delay overflows at energy="
                         "{energy}, potential={potential}, coupling={coupling}, mass={mass}, "
                         "hbar={hbar}; |tau_gt| must stay below about 1.8e308")
    tau_gr = tau_gt
    tau_g = amps.transmission_prob * tau_gt + amps.reflection_prob * tau_gr
    return tau_gt, tau_gr, tau_g


def _plain_delay(p: ModelParams):
    """tau_gt from the closed form above; NaN wherever a power or a partial
    product of its numerator or denominator is not a normal float, so that
    its rounding error may be unbounded, and inf or NaN where the quotient
    leaves the float range."""
    e, v, m, power = p.energy, p.potential, p.mass, p._power
    hbar_cube, hbar_quartic = power("hbar", 3), power("hbar", 4)
    k0_sq, k0_quartic, m_sq = power("coupling", 2), power("coupling", 4), power("mass", 2)
    m_hbar, scaled_e, mass_term = m * hbar_cube, 4.0 * hbar_quartic * e, k0_quartic * m_sq
    coupled, band = m_hbar * k0_sq, scaled_e * (v - e)
    numer = coupled * (2.0 * e - v)  # exactly 0 at 2 E = V
    root = p.ops.sqrt(e) * p.ops.sqrt(v - e)
    denominator = p.ops.muldiv(root, band + mass_term, 1.0)
    tau_gt = p.ops.muldiv(numer, 1.0, denominator)  # ±inf or NaN where it is 0
    # a partial product that overflows or is NaN makes the numerator or the
    # denominator inf or NaN, and so tau_gt inf, NaN or (the denominator inf) 0
    normal = ((p.ops.least(hbar_cube, hbar_quartic, k0_sq, k0_quartic, m_sq, m_hbar, coupled,
                           scaled_e, band, mass_term, root, denominator) >= _TINY)
              & ((abs(numer) >= _TINY) | (2.0 * e == v)) & (denominator <= sys.float_info.max))
    return p.ops.where(normal, tau_gt, math.nan)


def _exact_delay(f):
    """tau_gt at one point from the closed form above, on Decimals."""
    gap = f.potential - f.energy
    quartic = 4 * f.hbar**4 * f.energy * gap + f.coupling**4 * f.mass**2
    return (f.mass * f.hbar**3 * f.coupling**2 * (2 * f.energy - f.potential)
            / ((f.energy * gap).sqrt() * quartic))


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

    Rejects k0 = 0 and a power that overflows.  Where a partial product of
    the denominator is not a normal float or tau overflows, tau is
    ``_mend``'s, or DomainError at the first point where that is inf.
    Elsewhere tau is within 4 ulp of the exact value.
    """
    ops, eps, k0 = r.ops, r.epsilon, r.coupling
    if ops.any(k0 == 0.0):
        raise DegenerateCouplingError(
            "transition time is degenerate at zero coupling"
        )
    ksq, vsq = r._power("coupling", 2), r._power("potential", 2)
    rest = 1.0 - eps
    weighted = ops.muldiv(16.0 * eps * rest, vsq, 1.0)
    vsq_term = ops.muldiv(weighted, 1.0, ksq)  # inf or NaN where k0**2 is 0
    denominator = ops.sqrt(eps) * ops.sqrt(rest) * (ksq + vsq_term)
    tau = ops.muldiv(2.0, 2.0 * eps - 1.0, denominator)
    lost = ((ops.least(ksq, vsq, weighted, vsq_term, denominator) < _TINY)
            | (denominator == math.inf) | (abs(tau) == math.inf))
    if ops.any(lost):
        tau = r._mend(lost, tau, lambda f: 2 * (2 * f.epsilon - 1) / (
            (f.epsilon * (1 - f.epsilon)).sqrt()
            * (f.coupling**2 + 16 * f.epsilon * (1 - f.epsilon) * f.potential**2 / f.coupling**2)),
            "transition time overflows at epsilon={epsilon}, potential={potential}, "
            "coupling={coupling}; |tau| must stay below about 1.8e308")
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
