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

from .params import ModelParams

__all__ = ["effective_strength", "greens_constant"]


def greens_constant(x1: float, x2: float, p: ModelParams) -> float:
    """Closed-channel Green's function at (x1, x2) for energy p.energy.

    Valid for any E < V including E = 0; the value is strictly negative
    and symmetric under x1 <-> x2 (it depends only on |x1 - x2|).  It is
    an array when the parameters are.
    """
    sqrt, exp = p.ops.sqrt, p.ops.exp
    # inf where hbar**2 underflows to 0 or is small enough to overflow it
    scale = p.ops.muldiv(p.mass, 1.0, 2.0 * p._power("hbar", 2))
    if p.ops.any(scale == math.inf):
        p._raise_at(scale == math.inf, "mass / (2 hbar**2) overflows at hbar={hbar}, "
                    "mass={mass}; the Green's function needs hbar above about "
                    "3.73e-155 at mass 1/2")
    gap = p.potential - p.energy
    kappa = sqrt(2.0 * p.mass * gap) / p.hbar
    return -sqrt(scale) * exp(-kappa * abs(x1 - x2)) / sqrt(gap)


def effective_strength(p: ModelParams) -> float:
    """Strength alpha = -k0^2 G(xc, xc) of the effective open-channel well.

    Returns 0 exactly when the coupling vanishes, positive otherwise; an
    array when the parameters are.
    """
    return -p._power("coupling", 2) * greens_constant(p.center, p.center, p)
