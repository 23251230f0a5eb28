"""Parameter types, unit conventions and validation shared by all modules.

The model is a particle scattering on two coupled one-dimensional channels:
an open channel at zero background potential and a closed channel at a
constant potential above the incident energy.  The channels talk to each
other only through a point coupling of strength ``coupling`` located at
``center``.

Everything downstream assumes the sub-threshold regime 0 < E < V.  The
reduced convention used for the dimensionless results is hbar = 1 and
m = 1/2, so that hbar**2 / (2 m) = 1.

The fields of ``ModelParams`` and ``ReducedParams`` are floats, or numpy
arrays that broadcast together.  An array-valued instance describes a whole
grid of points in one object: it is validated once, and the closed forms
that accept it (every one but ``extremal_coupling``) evaluate every point
in one numpy call.  The closed forms call the functions the parameter type
carries as ``ops``, ``math`` and ``cmath`` for floats and numpy for arrays.
"""

from __future__ import annotations

import cmath
import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

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


class DegenerateCouplingError(DomainError):
    """Requested quantity is undefined at zero coupling strength."""


# bound once: the scalar check runs in every constructor call
_isfinite = math.isfinite
_ndarray = np.ndarray


def _finite_or_array(params, names: tuple[str, ...]) -> bool:
    """True if one of the fields is a numpy array; else check the scalars.

    A non-finite scalar met before any array raises DomainError, and a
    field that is not a number the TypeError of math.isfinite.  The array
    test is on the type, not on math.isfinite failing: numpy 1.25 to 2.2
    at least converts a size-1 array to a float with only a warning.
    """
    for name in names:
        value = getattr(params, name)
        if value.__class__ is _ndarray:
            return True
        if not _isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")
    return False


def _adopt_arrays(params, in_domain) -> None:
    """Validate a parameter object whose fields include numpy arrays.

    Every field becomes a float array (0-d for a scalar); the fields must
    broadcast together, else ValueError.  ``in_domain`` maps the instance to
    an elementwise mask of the scalar checks, reduced by one ``np.all``; at
    the first point outside the domain the scalar constructor is run, so the
    error is the one the scalar path raises there.
    """
    names = [f.name for f in fields(params)]
    values = [getattr(params, name) for name in names]
    for name, value in zip(names, values):
        if not isinstance(value, (np.ndarray, numbers.Real)):
            raise TypeError(
                f"{name} must be a real number or a float array, "
                f"got {type(value).__name__}"
            )
    arrays = [np.asarray(v, dtype=float) for v in values]
    try:
        shape = np.broadcast_shapes(*(a.shape for a in arrays))
    except ValueError:
        shapes = ", ".join(f"{n}={a.shape}" for n, a in zip(names, arrays))
        raise ValueError(f"parameter arrays do not broadcast together: {shapes}") from None
    for name, array in zip(names, arrays):
        object.__setattr__(params, name, array)
    object.__setattr__(params, "is_array", True)
    object.__setattr__(params, "shape", shape)
    object.__setattr__(params, "ops", _ARRAY_OPS)
    ok = in_domain(params)
    if not np.all(ok):
        first = int(np.argmin(np.broadcast_to(ok, shape)))
        type(params)(**{
            n: float(np.broadcast_to(a, shape).flat[first]) for n, a in zip(names, arrays)
        })
        raise AssertionError("array domain mask disagrees with the scalar checks")


# Functions of one parameter type (floats or float arrays).  any(mask) is
# True if the test holds at some point, so one test covers every point;
# inverse(x, undefined) is 1 / x (±inf at ±0), NaN where undefined.
_Ops = namedtuple("_Ops", "sqrt exp cexp atan modulus any inverse")


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| of a complex array, rounded as abs(complex) rounds it (np.abs is not)."""
    return np.hypot(z.real, z.imag)


def _float_inverse(x: float, undefined: bool) -> float:
    if undefined:
        return math.nan
    return 1.0 / x if x else math.copysign(math.inf, x)


def _array_inverse(x: np.ndarray, undefined: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.where(undefined, np.nan, 1.0 / x)


_FLOAT_OPS = _Ops(
    sqrt=math.sqrt, exp=math.exp, cexp=cmath.exp, atan=math.atan, modulus=abs,
    any=bool, inverse=_float_inverse,
)
_ARRAY_OPS = _Ops(
    sqrt=np.sqrt, exp=np.exp, cexp=np.exp, atan=np.arctan, modulus=_modulus,
    any=np.any, inverse=_array_inverse,
)


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
    # set by validation when the fields are arrays
    is_array: ClassVar[bool] = False
    shape: ClassVar[tuple[int, ...]] = ()
    ops: ClassVar[_Ops] = _FLOAT_OPS

    def __post_init__(self) -> None:
        try:
            is_array = _finite_or_array(
                self, ("energy", "potential", "coupling", "mass", "hbar", "center")
            )
        except TypeError:  # not a number: _adopt_arrays names the field
            is_array = True
        if is_array:
            _adopt_arrays(self, _model_in_domain)
            return
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
    # set by validation when the fields are arrays
    is_array: ClassVar[bool] = False
    shape: ClassVar[tuple[int, ...]] = ()
    ops: ClassVar[_Ops] = _FLOAT_OPS

    def __post_init__(self) -> None:
        try:
            is_array = _finite_or_array(self, ("epsilon", "potential", "coupling"))
        except TypeError:  # not a number: _adopt_arrays names the field
            is_array = True
        if is_array:
            _adopt_arrays(self, _reduced_in_domain)
            return
        if not 0.0 < self.epsilon < 1.0:
            raise DomainError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.potential <= 0.0:
            raise DomainError(f"potential must be positive, got {self.potential}")
        if self.coupling < 0.0:
            raise DomainError(f"coupling must be >= 0, got {self.coupling}")


def _model_in_domain(p: ModelParams) -> np.ndarray:
    """Elementwise ModelParams checks; comparisons with NaN are False."""
    return (
        (0.0 <= p.energy) & (p.energy < p.potential) & (p.potential < math.inf)
        & (0.0 <= p.coupling) & (p.coupling < math.inf)
        & (0.0 < p.mass) & (p.mass < math.inf)
        & (0.0 < p.hbar) & (p.hbar < math.inf)
        & (np.abs(p.center) < math.inf)
    )


def _reduced_in_domain(r: ReducedParams) -> np.ndarray:
    """Elementwise ReducedParams checks; comparisons with NaN are False."""
    return (
        (0.0 < r.epsilon) & (r.epsilon < 1.0)
        & (0.0 < r.potential) & (r.potential < math.inf)
        & (0.0 <= r.coupling) & (r.coupling < math.inf)
    )


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
    The result is array-valued when the parameters are.
    """
    ops = p.ops
    if ops.any(p.hbar != 1.0) or ops.any(p.mass != 0.5):
        raise ConventionError(
            "reduced form requires hbar = 1 and mass = 1/2, got "
            f"hbar={p.hbar}, mass={p.mass}"
        )
    if ops.any(p.energy <= 0.0):
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
    """Open-channel k and closed-channel kappa for validated parameters;
    arrays when the parameters are."""
    sqrt = p.ops.sqrt
    if p.ops.any(p.energy <= 0.0):
        raise DomainError("propagating open channel requires energy > 0")
    k = sqrt(2.0 * p.mass * p.energy) / p.hbar
    kappa = sqrt(2.0 * p.mass * (p.potential - p.energy)) / p.hbar
    return WaveNumbers(k=k, kappa=kappa)
