"""Parameter types, unit conventions and validation shared by all modules.

The model is a particle scattering on two coupled one-dimensional channels:
an open channel at zero background potential and a closed channel at a
constant potential above the incident energy.  The channels talk to each
other only through a point coupling of strength ``coupling`` located at
``center``.

Everything downstream assumes the sub-threshold regime 0 < E < V.  The
reduced convention used for the dimensionless results is hbar = 1 and
m = 1/2, so that hbar**2 / (2 m) = 1.

Each parameter type states its domain once, as a table of conditions with
a message each; the same table checks a float and every point of an array.
The fields of ``ModelParams`` and ``ReducedParams`` are floats, or numpy
arrays that broadcast together.  An array-valued instance describes a whole
grid of points in one object: it is validated once, and the closed forms
that accept it (every one but ``extremal_coupling``) evaluate every point
in one numpy call.  The closed forms call the functions the parameter type
carries as ``ops``, ``math`` and ``cmath`` for floats and numpy for arrays.
Its ``_power`` calls libm ``pow`` on both paths, so the closed forms give
the same bits, and the same DomainError where a power overflows, on both.
Its ``_mend``, the one exact fallback, evaluates a closed form again in
``decimal`` where a float intermediate of it is not normal, and rounds once.
Its ``_raise_at(mask, message)``, the one refusal, raises DomainError at the
first point where ``mask`` holds, if any; ``_mend`` ends with it where the
exact value is beyond the floats, so a closed form states each mask once.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
import operator
import sys
from collections import namedtuple
from dataclasses import dataclass
from types import SimpleNamespace
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


# Functions of one parameter type (floats or float arrays).  any(mask) is
# True if the test holds at some point, so one test covers every point;
# muldiv(a, b, c) is a * b / c as numpy's a * b / c gives it: ±inf where it
# overflows, and at a ±0 divisor ±inf with the sign of a * b / c, or NaN
# where a * b is 0 or NaN; with no warning, for a caller that tests for the
# inf or NaN and raises its own error;
# pow(x, n) is x**n rounded as float ** rounds it (both call libm pow); where
# it overflows, float ** raises OverflowError and arrays give inf, unwarned;
# where(test, a, b) is a where the test holds and b elsewhere; distance(a, b)
# is |a - b|, inf where a - b overflows, with no warning; least(*xs) is the
# smallest of xs that is not NaN, the first never NaN, as min() needs;
# complex(re, im) joins real and imaginary parts exactly.
_Ops = namedtuple("_Ops", "sqrt exp cexp atan modulus any muldiv pow where distance least "
                  "complex")


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| of a complex array, rounded as abs(complex) rounds it (np.abs is not)."""
    return np.hypot(z.real, z.imag)


def _float_muldiv(a: float, b: float, c: float) -> float:
    if c:
        return a * b / c
    product = a * b
    return product * math.copysign(math.inf, c) if product else math.nan


def _array_muldiv(a, b, c) -> np.ndarray:
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return a * b / c


def _float_where(test: bool, a: float, b: float) -> float:
    return a if test else b


def _float_distance(a: float, b: float) -> float:
    return abs(a - b)


def _array_distance(a, b) -> np.ndarray:
    with np.errstate(over="ignore"):
        return np.abs(np.subtract(a, b))


def _array_least(*xs) -> np.ndarray:
    return functools.reduce(np.fmin, xs)


def _array_complex(re, im) -> np.ndarray:
    z = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), dtype=complex)
    z.real, z.imag = re, im
    return z


def _array_pow(x, n: int) -> np.ndarray:
    with np.errstate(over="ignore"):  # np.power and x**2 round differently
        return np.float_power(x, n)


_FLOAT_OPS = _Ops(
    sqrt=math.sqrt, exp=math.exp, cexp=cmath.exp, atan=math.atan, modulus=abs,
    any=bool, muldiv=_float_muldiv, pow=pow, where=_float_where,
    distance=_float_distance, least=min, complex=complex,
)
_ARRAY_OPS = _Ops(
    sqrt=np.sqrt, exp=np.exp, cexp=np.exp, atan=np.arctan, modulus=_modulus,
    any=np.any, muldiv=_array_muldiv, pow=_array_pow,
    where=np.where, distance=_array_distance, least=_array_least, complex=_array_complex,
)

# the most float64 values one numpy array can hold: point, step and sweep
# counts above it are refused before numpy sees them (np.linspace fails
# with an IndexError at np.iinfo(np.intp).max, larger arrays with a ValueError)
_MAX_FLOATS = np.iinfo(np.intp).max // 8

# bound once: the scalar checks run in every constructor call
_isfinite = math.isfinite
_ndarray = np.ndarray

_TINY = sys.float_info.min  # the smallest normal float


def _as_float(name: str, value, kinds: str = "a real number", finite: bool = True) -> float:
    """A real scalar as a finite Python float: a bool and a non-real raise
    TypeError (naming ``kinds``, what ``name`` may be), a NaN or an
    infinity (unless not ``finite``) and an int or a fraction beyond the
    float range a DomainError naming ``name``."""
    if not isinstance(value, numbers.Real) or type(value) is bool:
        raise TypeError(f"{name} must be {kinds}, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:
        raise DomainError(f"{name} must be finite, got {value!r:.24}...") from None
    if finite and not _isfinite(number):
        raise DomainError(f"{name} must be finite, got {number!r}")
    return number


def _as_count(name: str, value, least: int) -> int:
    """A count from ``least`` to ``_MAX_FLOATS`` as a Python int: a bool, a
    float or another non-integer raises TypeError, a count out of range
    ValueError."""
    if type(value) is bool or not hasattr(type(value), "__index__"):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    count = operator.index(value)
    if count < least:
        raise ValueError(f"{name} must be at least {least}, got {count}")
    if count > _MAX_FLOATS:
        raise ValueError(f"{name} must be at most {_MAX_FLOATS}, got {count}")
    return count


class _Validated:
    """Validation shared by the parameter types, driven by one rule table.

    ``_conditions`` returns the domain conditions, plain comparisons that
    hold on floats and float arrays alike, and ``_MESSAGES`` holds the
    message of each, in the same order.  Scalar fields become Python floats
    (a bool or a non-real is refused with TypeError) and must be finite, and
    the first condition that fails raises DomainError.  With a numpy array
    among the fields, every field becomes a float array (0-d for a scalar,
    which ``_as_float`` converts first, so a scalar that is no real number
    or an int beyond the floats is named before any array point) and the
    fields must broadcast together, else ValueError; np.isfinite and the
    conditions are ANDed over the grid, and at the first point outside the
    domain the scalar constructor runs, so the error is the one a scalar
    call at that point raises, a scalar field's NaN or infinity included.
    """

    # set by validation when the fields are arrays
    is_array: ClassVar[bool] = False
    shape: ClassVar[tuple[int, ...]] = ()
    ops: ClassVar[_Ops] = _FLOAT_OPS

    def __post_init__(self) -> None:
        for name in self.__match_args__:  # the field names, in order
            value = getattr(self, name)
            if type(value) is not float:
                # a type test, not math.isfinite failing: numpy 1.25 to 2.2 at
                # least convert a size-1 array to a float with only a warning
                if isinstance(value, _ndarray):
                    break
                value = self._store_float(name, value)
            if not _isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
        else:
            conditions = self._conditions()
            if all(conditions):
                return
            message = self._MESSAGES[conditions.index(False)]
            raise DomainError(message.format(**vars(self)))
        self._adopt_arrays()

    def _store_float(self, name: str, value, finite: bool = True) -> float:
        """Store a real scalar field as a Python float (see ``_as_float``)."""
        value = _as_float(name, value, "a real number or a float array", finite)
        object.__setattr__(self, name, value)
        return value

    def _adopt_arrays(self) -> None:
        names = self.__match_args__
        values = [getattr(self, name) for name in names]
        arrays = [np.asarray(v if isinstance(v, _ndarray) else self._store_float(n, v, False),
                             dtype=float) for n, v in zip(names, values)]
        try:
            shape = np.broadcast_shapes(*(a.shape for a in arrays))
        except ValueError:
            shapes = ", ".join(f"{n}={a.shape}" for n, a in zip(names, arrays))
            raise ValueError(f"parameter arrays do not broadcast together: {shapes}") from None
        for name, array in zip(names, arrays):
            object.__setattr__(self, name, array)
        object.__setattr__(self, "is_array", True)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "ops", _ARRAY_OPS)
        ok = True
        for mask in (*map(np.isfinite, arrays), *self._conditions()):
            ok = ok & mask
        if not np.all(ok):
            # the scalar constructor raises the error of the first bad point
            type(self)(*self._first_point(~ok))

    def _one_configuration(self, entry: str) -> _Validated:
        """The parameters with Python-float fields, so ``entry`` computes as
        the float call does; DomainError naming the shape unless the fields
        are scalars or 0-d arrays: ``entry`` measures one configuration, not
        a grid of them."""
        if not self.is_array:
            return self
        if self.shape != ():
            raise DomainError(f"{entry} measures one configuration, but the parameters "
                              f"have shape {self.shape}; pass scalars or 0-d arrays")
        return type(self)(*(float(getattr(self, name)) for name in self.__match_args__))

    def _broadcast(self, *arrays):
        """The shape of the fields broadcast with ``arrays``, which may add
        axes (``greens_constant``'s x1 and x2, or a mask built from them),
        and the fields broadcast to it."""
        shape = np.broadcast_shapes(self.shape, *map(np.shape, arrays))
        return shape, [np.broadcast_to(getattr(self, n), shape) for n in self.__match_args__]

    def _first_point(self, mask) -> tuple[float, ...]:
        """The fields as floats at the first point where ``mask`` holds."""
        shape, fields = self._broadcast(mask)
        first = int(np.argmax(np.broadcast_to(mask, shape)))
        return tuple(float(field.flat[first]) for field in fields)

    def _raise_at(self, mask, message: str) -> None:
        """DomainError(message), ``{field}`` the first point's where ``mask`` holds, if any."""
        if self.ops.any(mask):
            point = zip(self.__match_args__, self._first_point(mask))
            raise DomainError(message.format(**dict(point)))

    def _mend(self, mask, value, exact, overflow: str, *extra):
        """``value`` with each point where ``mask`` holds replaced by
        ``exact(fields, *extra)``: the fields there, by name, and the
        ``extra`` arrays that broadcast with them, as exact Decimals, in one
        60-digit context with no exponent limit, the result rounded once to
        a float; a float for float parameters.  Where that is inf, it raises
        ``_raise_at``'s DomainError(overflow) instead."""
        from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext

        names = self.__match_args__
        shape, fields = self._broadcast(mask, *extra)
        value = np.array(np.broadcast_to(value, shape))
        extra = [np.broadcast_to(np.asarray(x, dtype=float), shape) for x in extra]
        with localcontext(Context(prec=60, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[])):
            for at in np.flatnonzero(np.broadcast_to(mask, shape)):
                f = SimpleNamespace(**{n: Decimal(a.flat[at]) for n, a in zip(names, fields)})
                value.flat[at] = float(exact(f, *(Decimal(x.flat[at]) for x in extra)))
        self._raise_at(np.isinf(value), overflow)
        return value if self.is_array else float(value)

    def _power(self, name: str, n: int):
        """Field ``name`` to the n-th power through ``ops.pow``; where that
        overflows, DomainError at the first point, on floats and arrays alike."""
        try:
            y = self.ops.pow(getattr(self, name), n)
        except OverflowError:  # float **; the array path gives inf
            y = math.inf
        else:
            if not (self.is_array and np.isinf(y).any()):
                return y
        self._raise_at(y == math.inf, f"{name}**{n} overflows at {name}={{{name}}}; "
                       f"{name} must be at most {np.finfo(float).max ** (1 / n):.4g}")


@dataclass(frozen=True)
class ModelParams(_Validated):
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

    def _conditions(self) -> tuple:
        return (
            self.energy >= 0.0,
            self.potential > self.energy,
            self.coupling >= 0.0,
            self.mass > 0.0,
            self.hbar > 0.0,
        )

    _MESSAGES: ClassVar[tuple[str, ...]] = (
        "energy must be non-negative, got {energy}",
        "closed channel requires potential > energy, got "
        "energy={energy}, potential={potential}",
        "coupling must be >= 0, got {coupling}",
        "mass must be positive, got {mass}",
        "hbar must be positive, got {hbar}",
    )


@dataclass(frozen=True)
class ReducedParams(_Validated):
    """Dimensionless parameters in the hbar = 1, m = 1/2 convention.

    ``epsilon`` is the energy fraction E / V, restricted to the open
    interval (0, 1) by the sub-threshold requirement.
    """

    epsilon: float
    potential: float
    coupling: float

    def _conditions(self) -> tuple:
        return (
            (0.0 < self.epsilon) & (self.epsilon < 1.0),
            self.potential > 0.0,
            self.coupling >= 0.0,
        )

    _MESSAGES: ClassVar[tuple[str, ...]] = (
        "epsilon must lie in (0, 1), got {epsilon}",
        "potential must be positive, got {potential}",
        "coupling must be >= 0, got {coupling}",
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
    return WaveNumbers(k=_wave_number(p, closed=False), kappa=_wave_number(p, closed=True))


def _wave_number(p: ModelParams, closed: bool):
    """k = sqrt(2 m E) / hbar, which needs E > 0, or kappa = sqrt(2 m (V - E))
    / hbar if ``closed``.

    Where 2 m x is not a normal float or the value is 0 or inf, the value
    is ``_mend``'s, or DomainError at the first point where that is inf;
    every other point keeps the plain form's bits.
    """
    ops = p.ops
    if not closed and ops.any(p.energy <= 0.0):
        raise DomainError("propagating open channel requires energy > 0")
    x = p.potential - p.energy if closed else p.energy
    # 2 m x, inf where 2 m or the product overflows, unwarned on arrays as on floats
    square = ops.muldiv(ops.muldiv(2.0, p.mass, 1.0), x, 1.0)
    value = ops.muldiv(ops.sqrt(square), 1.0, p.hbar)
    lost = (square < _TINY) | (value == 0.0) | (value == math.inf)  # x > 0: neither is exact
    if ops.any(lost):
        formula = "kappa = sqrt(2 m (V - E))" if closed else "k = sqrt(2 m E)"
        value = p._mend(lost, value, lambda f: (
            2 * f.mass * (f.potential - f.energy if closed else f.energy)).sqrt() / f.hbar,
            f"{formula} / hbar overflows at energy={{energy}}, potential={{potential}}, "
            "mass={mass}, hbar={hbar}; it must stay below about 1.8e308")
    return value
