"""Stationary scattering amplitudes for the point-coupled open channel.

After the closed channel is eliminated the open channel sees an energy
dependent point potential lambda(E) = k0^2 G(xc, xc) < 0.  Matching a unit
incident wave exp(i k x) against the jump condition

    phi'(xc+) - phi'(xc-) = (2 m / hbar^2) lambda phi(xc)

gives, for a coupling at the origin,

    transmission C = 1 / (1 + i m lambda / (hbar^2 k)),   reflection B = C - 1.

A coupling at xc /= 0 only multiplies the reflection amplitude by
exp(2 i k xc); probabilities and phases are unchanged.  The transmission
and reflection phases are reported on the principal arctan branch:

    phi_t = arctan(-m lambda / (hbar^2 k))   in (0, pi/2),
    phi_r = arctan(hbar^2 k / (m lambda))    in (-pi/2, 0),

so tan(phi_t) * tan(phi_r) = -1 identically.  Note phi_r differs from
arg(B) by a constant pi; energy derivatives are unaffected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .greens import greens_constant
from .params import (
    DegenerateCouplingError,
    ModelParams,
    ReducedParams,
    _wave_number,
)

__all__ = [
    "Amplitudes",
    "scattering_phases",
    "solve_amplitudes",
    "transmission_probability",
]


@dataclass(frozen=True)
class Amplitudes:
    """Complex amplitudes and derived observables of a scattering solution.

    reflection multiplies exp(-i k x) on the incident side, transmission
    multiplies exp(+i k x) on the far side.  reflection_phase is NaN in the
    degenerate uncoupled case k0 = 0 (no reflected wave to carry a phase).
    Each field is an array when the parameters are.
    """

    reflection: complex
    transmission: complex
    transmission_prob: float
    reflection_prob: float
    transmission_phase: float
    reflection_phase: float


def solve_amplitudes(p: ModelParams) -> Amplitudes:
    """Solve the matching problem for a unit wave incident from the left.

    Array-valued parameters give array-valued amplitudes from the same
    formulas in numpy.  Uncoupled points come out of the general formulas
    too, except the reflection phase, which is set to NaN.
    """
    ops = p.ops
    k = _wave_number(p, closed=False)
    # every field enters through G(xc, xc), so ratio has the full shape;
    # k0**2, lam and hbar**2 k overflow to inf with no warning on arrays, as
    # on floats, and ratio is NaN where k0**2 G and hbar**2 k underflow to 0
    ksq = ops.muldiv(p.coupling, p.coupling, 1.0)
    lam = ops.muldiv(ksq, greens_constant(p.center, p.center, p), 1.0)
    ratio = ops.muldiv(p.mass, lam, ops.muldiv(p._power("hbar", 2), k, 1.0))  # negative in-regime
    p._raise_at(ratio != ratio, "m k0**2 G / (hbar**2 k) is 0 / 0 in floats at "
                "hbar={hbar}, mass={mass}, energy={energy}, coupling={coupling}")
    p._raise_at(ratio == -math.inf, "m k0**2 G / (hbar**2 k) overflows at "
                "hbar={hbar}, mass={mass}, coupling={coupling}; the amplitudes "
                "need m k0**2 / (2 hbar**2 sqrt(E (V - E))) below about 1.8e308")
    phase = ops.muldiv(ops.muldiv(2.0, k, 1.0), p.center, 1.0)  # 2 k xc, inf on overflow
    p._raise_at(abs(phase) == math.inf, "2 k xc overflows at center={center}, energy="
                "{energy}, mass={mass}, hbar={hbar}, so the reflection phase "
                "exp(2 i k xc) is undefined in floats")
    transmission = 1.0 / (1.0 + 1j * ratio)
    reflection0 = transmission - 1.0
    reflection = reflection0 * ops.cexp(1j * phase)
    return Amplitudes(
        reflection=reflection,
        transmission=transmission,
        transmission_prob=ops.modulus(transmission) ** 2,
        reflection_prob=ops.modulus(reflection0) ** 2,
        transmission_phase=ops.atan(-ratio),
        reflection_phase=ops.atan(ops.inverse(ratio, p.coupling == 0.0)),
    )


def transmission_probability(r: ReducedParams) -> float:
    """Dimensionless transmission probability in the reduced convention.

    |T|^2 = 1 / (1 + k0^4 / (16 V^2 eps (1 - eps))); agrees with
    solve_amplitudes on the expanded parameters to rounding, and is an
    array when the parameters are.  Rejects a spread that underflows to 0
    and a V**2 or k0**4 that overflows; a spread that overflows (V from about
    3.4e153 to 1.3e154) gives |T|^2 = 1 with no warning on either path.
    """
    ops, eps = r.ops, r.epsilon
    spread = ops.muldiv(16.0, r._power("potential", 2), 1.0) * eps * (1.0 - eps)
    r._raise_at(spread == 0.0, "potential={potential} is too small: 16 V**2 "
                "eps (1 - eps) underflows to 0, so |T|^2 is undefined; V must "
                "be above about 1.6e-162, more with eps near 0 or 1")
    return 1.0 / (1.0 + ops.muldiv(r._power("coupling", 4), 1.0, spread))


def scattering_phases(p: ModelParams) -> tuple[float, float]:
    """Principal-branch transmission and reflection phases (phi_t, phi_r);
    arrays when the parameters are."""
    if p.ops.any(p.coupling == 0.0):
        raise DegenerateCouplingError(
            "reflection phase is undefined at zero coupling"
        )
    amps = solve_amplitudes(p)
    return amps.transmission_phase, amps.reflection_phase
