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

from .params import ModelParams

__all__ = ["effective_strength", "greens_constant"]


def greens_constant(x1: float, x2: float, p: ModelParams) -> float:
    """Closed-channel Green's function at (x1, x2) for energy p.energy.

    Valid for any E < V including E = 0; the value is strictly negative
    and symmetric under x1 <-> x2 (it depends only on |x1 - x2|).  It is
    an array when the parameters are.
    """
    sqrt, exp = p.ops.sqrt, p.ops.exp
    gap = p.potential - p.energy
    kappa = sqrt(2.0 * p.mass * gap) / p.hbar
    return (
        -sqrt(p.mass / (2.0 * p.hbar**2))
        * exp(-kappa * abs(x1 - x2))
        / sqrt(gap)
    )


def effective_strength(p: ModelParams) -> float:
    """Strength alpha = -k0^2 G(xc, xc) of the effective open-channel well.

    Returns 0 exactly when the coupling vanishes, positive otherwise; an
    array when the parameters are.
    """
    return -(p.coupling**2) * greens_constant(p.center, p.center, p)
