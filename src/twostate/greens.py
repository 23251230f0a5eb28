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
import numbers

import numpy as np

from .params import _TINY, DomainError, ModelParams, _as_float

__all__ = ["effective_strength", "greens_constant"]


def greens_constant(x1: float, x2: float, p: ModelParams) -> float:
    """Closed-channel Green's function at (x1, x2) for energy p.energy.

    Valid for any E < V including E = 0; the value is negative and
    symmetric under x1 <-> x2 (it depends only on |x1 - x2|), and -0.0
    only where exp(-kappa |x1 - x2|) takes it below the smallest subnormal.
    It is an array when the parameters or the positions are: positions
    with axes broadcast with the parameters, float ones included.  A
    position that is not finite raises DomainError naming it.  Where the
    plain form may have lost bits, G is ``_mend``'s, or DomainError where
    that is beyond the floats: above them, or below them already at x1 = x2.
    Elsewhere G is within 2 (1 + kappa |x1 - x2|) ulp of the exact value:
    exp(-y) turns the rounding of y = kappa |x1 - x2| into about y ulp, a
    backward error of about one ulp in the inputs.
    """
    if not (type(x1) is type(x2) is float and math.isfinite(x1) and math.isfinite(x2)):
        p = _for_positions(p, x1, x2)  # the scalar call skips it, kept fast
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
        # G rounds to 0 past the smallest subnormal: exp(-kappa |x1 - x2|)'s
        # tail, but beyond the floats where G(x, x) itself does
        zero = value == 0.0
        scale = p._mend(zero, value, _diagonal, "")
        p._raise_at(zero & (scale == 0.0), "the Green's function underflows at energy="
                    "{energy}, potential={potential}, hbar={hbar}, mass={mass}; "
                    "sqrt(m / (2 hbar**2 (V - E))) must stay above about 2.5e-324")
    return value


def _for_positions(p: ModelParams, x1, x2) -> ModelParams:
    """``p``, with 0-d array fields if it has float ones and a position has
    axes; DomainError naming a position with a value that is not finite,
    an int beyond the floats included.  A real scalar position is checked
    as the CLI checks it, by ``params._as_float``."""
    axes = 0
    for name, x in (("x1", x1), ("x2", x2)):
        if isinstance(x, numbers.Real):
            _as_float(name, x)
            continue
        try:
            values = np.asarray(x, dtype=float)
        except OverflowError:  # an int beyond the floats, named as a scalar one is
            for value in np.asarray(x, dtype=object).flat:
                _as_float(name, value)
            raise
        bad = values[~np.isfinite(values)]
        if bad.size:
            raise DomainError(f"{name} must be finite, got {float(bad.flat[0])!r}")
        axes += values.ndim
    if axes and not p.is_array:
        p = type(p)(*(np.asarray(getattr(p, name)) for name in p.__match_args__))
    return p


def _exact(f, x1, x2):
    """G at one point from the closed form above, on Decimals."""
    gap = f.potential - f.energy
    decay = (-(2 * f.mass * gap).sqrt() * abs(x1 - x2) / f.hbar).exp()
    return -(f.mass / (2 * gap)).sqrt() / f.hbar * decay


def _diagonal(f):
    """|G(x, x)| at one point on Decimals, capped at 1 so it never overflows."""
    return min((f.mass / (2 * (f.potential - f.energy))).sqrt() / f.hbar, 1)


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
