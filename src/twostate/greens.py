"""Energy-domain Green's function of the uncoupled closed channel.

For a constant channel potential V above the incident energy E the
resolvent kernel of the closed channel is real, negative and symmetric:

    G(x1, x2) = -sqrt(m / (2 hbar^2)) * exp(-kappa |x1 - x2|) / sqrt(V - E)

with kappa = sqrt(2 m (V - E)) / hbar.  Eliminating the closed channel
replaces the point coupling of strength k0 by an effective attractive
well in the open channel whose strength is

    alpha(E) = -k0^2 * G(xc, xc) >= 0.

alpha grows monotonically with E and diverges at the threshold E -> V.
"""

from __future__ import annotations

import math

from .params import _TINY, ModelParams

__all__ = ["effective_strength", "greens_constant"]


def greens_constant(x1: float, x2: float, p: ModelParams) -> float:
    """Closed-channel Green's function at (x1, x2) for energy p.energy.

    Valid for any E < V including E = 0; the value is strictly negative
    and symmetric under x1 <-> x2 (it depends only on |x1 - x2|).  It is
    an array when the parameters are.  Where the plain form may have lost
    bits, G is ``_mend``'s, or DomainError where that is beyond the floats.
    Elsewhere G is within 2 (1 + kappa |x1 - x2|) ulp of the exact value:
    exp(-y) turns the rounding of y = kappa |x1 - x2| into about y ulp, a
    backward error of about one ulp in the inputs.
    """
    ops = p.ops
    hbar_sq = p._power("hbar", 2)
    # inf where hbar**2 underflows to 0 or is small enough to overflow it;
    # 0 where 2 hbar**2 overflows
    scale = ops.muldiv(p.mass, 1.0, ops.muldiv(2.0, hbar_sq, 1.0))
    p._raise_at(scale == math.inf, "mass / (2 hbar**2) overflows at hbar={hbar}, "
                "mass={mass}; the Green's function needs hbar above about "
                "3.73e-155 at mass 1/2")
    gap = p.potential - p.energy
    # 2 m (V - E), inf where 2 m or the product overflows, unwarned on arrays
    product = ops.muldiv(ops.muldiv(2.0, p.mass, 1.0), gap, 1.0)
    kappa = ops.sqrt(product) / p.hbar
    distance = ops.distance(x1, x2)  # inf where x1 - x2 overflows
    # kappa |x1 - x2| may overflow: exp(-inf) = 0 is then mended below
    decay = ops.exp(-ops.muldiv(kappa, distance, 1.0))  # NaN only where kappa is inf
    scaled = -ops.sqrt(scale) * decay  # at most 1.34e154
    value = ops.muldiv(scaled, 1.0, ops.sqrt(gap))
    # where an intermediate is not a normal float, or G is -inf, the plain
    # form may have lost bits or left the float range
    lost = ((ops.least(hbar_sq, scale, product, kappa, decay, -scaled, -value) < _TINY)
            | (kappa == math.inf) | (distance == math.inf) | (value == -math.inf))
    if ops.any(lost):
        value = p._mend(lost, value, _exact, "the Green's function overflows at energy="
                        "{energy}, potential={potential}, hbar={hbar}, mass={mass}; "
                        "sqrt(m / (2 hbar**2 (V - E))) must stay below about 1.8e308", x1, x2)
    return value


def _exact(f, x1, x2):
    """G at one point from the closed form above, on Decimals."""
    gap = f.potential - f.energy
    decay = (-(2 * f.mass * gap).sqrt() * abs(x1 - x2) / f.hbar).exp()
    return -(f.mass / (2 * gap)).sqrt() / f.hbar * decay


def effective_strength(p: ModelParams) -> float:
    """Strength alpha = -k0^2 G(xc, xc) of the effective open-channel well.

    Returns 0 exactly when the coupling vanishes, positive otherwise; an
    array when the parameters are.  Raises DomainError at the first point
    where alpha overflows.
    """
    alpha = p.ops.muldiv(-p._power("coupling", 2), greens_constant(p.center, p.center, p), 1.0)
    p._raise_at(alpha == math.inf, "effective strength k0**2 |G| overflows at "
                "coupling={coupling}, hbar={hbar}, mass={mass}, energy={energy}, "
                "potential={potential}; k0**2 sqrt(m / (2 hbar**2 (V - E))) must "
                "stay below about 1.8e308")
    return alpha
