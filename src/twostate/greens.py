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
import sys

import numpy as np

from .params import ModelParams

__all__ = ["effective_strength", "greens_constant"]

_TINY = sys.float_info.min  # the smallest normal float


def greens_constant(x1: float, x2: float, p: ModelParams) -> float:
    """Closed-channel Green's function at (x1, x2) for energy p.energy.

    Valid for any E < V including E = 0; the value is strictly negative
    and symmetric under x1 <-> x2 (it depends only on |x1 - x2|).  It is
    an array when the parameters are.
    """
    ops = p.ops
    hbar_sq = p._power("hbar", 2)
    # inf where hbar**2 underflows to 0 or is small enough to overflow it;
    # 0 where 2 hbar**2 overflows
    scale = ops.muldiv(p.mass, 1.0, ops.muldiv(2.0, hbar_sq, 1.0))
    if ops.any(scale == math.inf):
        p._raise_at(scale == math.inf, "mass / (2 hbar**2) overflows at hbar={hbar}, "
                    "mass={mass}; the Green's function needs hbar above about "
                    "3.73e-155 at mass 1/2")
    gap = p.potential - p.energy
    # 2 m (V - E), inf where 2 m or the product overflows, unwarned on arrays
    product = ops.muldiv(ops.muldiv(2.0, p.mass, 1.0), gap, 1.0)
    kappa = ops.sqrt(product) / p.hbar
    distance = ops.distance(x1, x2)  # inf where x1 - x2 overflows
    lossy = (hbar_sq < _TINY) | (scale < _TINY)  # the prefactor lost bits
    suspect = (lossy | (product < _TINY) | (kappa < _TINY) | (kappa == math.inf)
               | (distance == math.inf))
    if ops.any(suspect):
        value = _rescaled(x1, x2, p, scale, kappa, suspect, lossy)
    else:  # kappa |x1 - x2| may overflow, and exp(-inf) = 0 is right there
        value = ops.muldiv(-ops.sqrt(scale), ops.exp(-ops.muldiv(kappa, distance, 1.0)),
                           ops.sqrt(gap))
    if ops.any(value == -math.inf):
        p._raise_at(value == -math.inf, "the Green's function overflows at energy="
                    "{energy}, potential={potential}, hbar={hbar}, mass={mass}; "
                    "sqrt(m / (2 hbar**2 (V - E))) must stay below about 1.8e308")
    return value


def _rescaled(x1, x2, p: ModelParams, scale, kappa, suspect, lossy):
    """G at the points where ``suspect``: where an intermediate of the plain
    form (hbar**2, m / (2 hbar**2), 2 m (V - E), kappa or |x1 - x2|) is not
    a normal float, so its exponent, or where ``lossy`` its prefactor, may
    have lost bits or left the float range.

    There the exponent sqrt(2 m (V - E)) |x1 - x2| / hbar and, where
    ``lossy``, the prefactor sqrt(m / (2 (V - E))) / hbar are formed as a
    mantissa near 1 times a power of 2, from the frexp parts of m, hbar,
    V - E and |x1 - x2| (taken in halves where it overflows).  Every other
    point, and the prefactor where it is not lossy, keeps the plain form's
    bits.
    """
    gap = p.potential - p.energy
    fm, em = np.frexp(p.mass)
    fh, eh = np.frexp(p.hbar)
    fg, eg = np.frexp(gap)
    with np.errstate(all="ignore"):  # the plain form's inf and NaN are not kept
        distance = np.abs(np.subtract(x1, x2))
        halves = np.abs(np.subtract(np.divide(x1, 2.0), np.divide(x2, 2.0)))
        fd, ed = np.frexp(np.where(distance < np.inf, distance, halves))
        ed = ed + (distance == np.inf)
        odd = (em + eg) % 2  # an even power of 2 under each square root
        exponent = np.where(suspect, np.ldexp(np.sqrt(2.0 * fm * fg * (1 + odd)) * fd / fh,
                                              (em + eg - odd) // 2 + ed - eh),
                            kappa * distance)
        decay = np.exp(-exponent)
        odd = (em - eg) % 2
        exact = -np.ldexp(np.sqrt(fm * (1 + odd) / (2.0 * fg)) / fh * decay,
                          (em - eg - odd) // 2 - eh)
        value = np.where(lossy, exact, -np.sqrt(scale) * decay / np.sqrt(gap))
    return value if p.is_array else float(value)


def effective_strength(p: ModelParams) -> float:
    """Strength alpha = -k0^2 G(xc, xc) of the effective open-channel well.

    Returns 0 exactly when the coupling vanishes, positive otherwise; an
    array when the parameters are.  Raises DomainError at the first point
    where alpha overflows.
    """
    alpha = p.ops.muldiv(-p._power("coupling", 2), greens_constant(p.center, p.center, p), 1.0)
    if p.ops.any(alpha == math.inf):
        p._raise_at(alpha == math.inf, "effective strength k0**2 |G| overflows at "
                    "coupling={coupling}, hbar={hbar}, mass={mass}, energy={energy}, "
                    "potential={potential}; k0**2 sqrt(m / (2 hbar**2 (V - E))) must "
                    "stay below about 1.8e308")
    return alpha
