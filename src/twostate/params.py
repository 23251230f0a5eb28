"""Parameter types, unit conventions and validation shared by all modules.

The model is a particle scattering on two coupled one-dimensional channels:
an open channel at zero background potential and a closed channel at a
constant potential above the incident energy.  The channels talk to each
other only through a point coupling of strength ``coupling`` located at
``center``.

Everything downstream assumes the sub-threshold regime 0 < E < V.  The
reduced convention used for the dimensionless results is hbar = 1 and
m = 1/2, so that hbar**2 / (2 m) = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ConventionError",
    "DegenerateCouplingError",
    "DomainError",
    "ModelParams",
    "ReducedParams",
    "RunGuardError",
    "WaveNumbers",
    "expand_reduced",
    "make_reduced",
    "wave_numbers",
]


class DomainError(ValueError):
    """Parameters outside the sub-threshold scattering regime."""


class RunGuardError(RuntimeError):
    """A numerical run stopped because one of its guards tripped.

    Raised by the wave-packet experiment; defined here so that callers
    can catch it without importing the solver.
    """


class ConventionError(ValueError):
    """Operation requires the reduced unit convention hbar = 1, m = 1/2."""


class DegenerateCouplingError(ValueError):
    """Requested quantity is undefined at zero coupling strength."""


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the coupled two-channel model.

    Attributes
    ----------
    energy:
        Incident energy E.  Must satisfy 0 <= E < potential; E = 0 is
        accepted only by the closed-channel Green's function, every
        propagating-wave operation requires E > 0.
    potential:
        Constant closed-channel potential V, strictly above ``energy``.
    coupling:
        Point-coupling strength k0 >= 0 (units of energy times length).
    mass:
        Particle mass, default 1/2 so that 2 m = 1.
    hbar:
        Reduced Planck constant, default 1.
    center:
        Position of the point coupling, default 0.
    """

    energy: float
    potential: float
    coupling: float
    mass: float = 0.5
    hbar: float = 1.0
    center: float = 0.0

    def __post_init__(self) -> None:
        for name in ("energy", "potential", "coupling", "mass", "hbar", "center"):
            _require_finite(name, getattr(self, name))
        if self.energy < 0.0:
            raise DomainError(f"energy must be non-negative, got {self.energy}")
        if self.potential <= self.energy:
            raise DomainError(
                "closed channel requires potential > energy, got "
                f"energy={self.energy}, potential={self.potential}"
            )
        if self.coupling < 0.0:
            raise DomainError(f"coupling must be >= 0, got {self.coupling}")
        if self.mass <= 0.0:
            raise DomainError(f"mass must be positive, got {self.mass}")
        if self.hbar <= 0.0:
            raise DomainError(f"hbar must be positive, got {self.hbar}")


@dataclass(frozen=True)
class ReducedParams:
    """Dimensionless parameters in the hbar = 1, m = 1/2 convention.

    ``epsilon`` is the energy fraction E / V, restricted to the open
    interval (0, 1) by the sub-threshold requirement.
    """

    epsilon: float
    potential: float
    coupling: float

    def __post_init__(self) -> None:
        for name in ("epsilon", "potential", "coupling"):
            _require_finite(name, getattr(self, name))
        if not 0.0 < self.epsilon < 1.0:
            raise DomainError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.potential <= 0.0:
            raise DomainError(f"potential must be positive, got {self.potential}")
        if self.coupling < 0.0:
            raise DomainError(f"coupling must be >= 0, got {self.coupling}")


@dataclass(frozen=True)
class WaveNumbers:
    """Propagating and evanescent wave numbers of the two channels.

    ``k`` is the open-channel wave number sqrt(2 m E) / hbar and ``kappa``
    the closed-channel decay constant sqrt(2 m (V - E)) / hbar.  They obey
    k**2 + kappa**2 = 2 m V / hbar**2.
    """

    k: float
    kappa: float


def make_reduced(p: ModelParams) -> ReducedParams:
    """Project full parameters onto the reduced convention.

    Raises ConventionError unless p.hbar == 1 and p.mass == 1/2 exactly,
    because the dimensionless closed forms are derived in that convention.
    """
    if p.hbar != 1.0 or p.mass != 0.5:
        raise ConventionError(
            "reduced form requires hbar = 1 and mass = 1/2, got "
            f"hbar={p.hbar}, mass={p.mass}"
        )
    if p.energy <= 0.0:
        raise DomainError("reduced form requires energy > 0")
    return ReducedParams(
        epsilon=p.energy / p.potential,
        potential=p.potential,
        coupling=p.coupling,
    )


def expand_reduced(r: ReducedParams) -> ModelParams:
    """Inverse of make_reduced: rebuild full parameters with E = epsilon * V."""
    return ModelParams(
        energy=r.epsilon * r.potential,
        potential=r.potential,
        coupling=r.coupling,
        mass=0.5,
        hbar=1.0,
        center=0.0,
    )


def wave_numbers(p: ModelParams) -> WaveNumbers:
    """Open-channel k and closed-channel kappa for validated parameters."""
    if p.energy <= 0.0:
        raise DomainError("propagating open channel requires energy > 0")
    k = math.sqrt(2.0 * p.mass * p.energy) / p.hbar
    kappa = math.sqrt(2.0 * p.mass * (p.potential - p.energy)) / p.hbar
    return WaveNumbers(k=k, kappa=kappa)
