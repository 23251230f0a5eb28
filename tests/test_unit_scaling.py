"""Exact unit scalings of the closed forms and of the scalar oracles.

A change of units by a power of two makes every float product, quotient
and square root exact, so each result scales bit for bit wherever no other
rounding enters.  The relations, with every time scaling by m L**2 / hbar:

* length x s: lengths (center, x1, x2, width) x s, E and V x 1/s**2,
  k0 x 1/s;
* mass x 4: E, V and k0 x 1/4;
* hbar x 2: E, V and k0 x 4.

They need no second implementation, so they check the powers of m and
hbar that every ``verify`` point (m = 1/2, hbar = 1) leaves unseen.  Where a
relation holds only to rounding, the test pins the bound measured on its
draw and names the rounding that breaks it.  ``group_delays`` is checked in
test_times and ``propagate`` in test_wavepacket.  Numpy alone: this module
runs where scipy is not installed.
"""

import dataclasses
import math
import random
import warnings
from typing import NamedTuple

import pytest
from contract_draw import _bits

from twostate import (
    ModelParams,
    ReducedParams,
    effective_strength,
    greens_constant,
    oracle,
    solve_amplitudes,
    time_taxonomy,
    transition_time,
    transmission_probability,
    wave_numbers,
)


class Units(NamedTuple):
    """A change of units: lengths x ``length``, m x ``mass``, hbar x ``hbar``."""

    length: float
    mass: float
    hbar: float

    @property
    def energy(self) -> float:
        return self.hbar**2 / (self.mass * self.length**2)

    @property
    def coupling(self) -> float:  # energy times length
        return self.energy * self.length

    @property
    def time(self) -> float:
        return self.mass * self.length**2 / self.hbar

    @property
    def greens(self) -> float:  # G = -sqrt(m / (2 hbar**2 (V - E))) at x1 = x2
        return self.mass * self.length / self.hbar**2

    def model(self, p: ModelParams) -> ModelParams:
        return ModelParams(p.energy * self.energy, p.potential * self.energy,
                           p.coupling * self.coupling, p.mass * self.mass,
                           p.hbar * self.hbar, p.center * self.length)


UNITS = {
    "length x4": Units(4.0, 1.0, 1.0),
    "length x1/4": Units(0.25, 1.0, 1.0),
    "mass x4": Units(1.0, 4.0, 1.0),
    "hbar x2": Units(1.0, 1.0, 2.0),
}
LENGTHS = ("length x4", "length x1/4")  # the reduced convention fixes m and hbar


def _draw(count: int, seed: int):
    """Seeded points (p, x1, x2): E / V in [0.05, 0.95], V and k0
    log-uniform in [0.1, 10], m in [0.1, 2], hbar in [0.3, 3], the center
    in [-5, 5], x1 and x2 in [-3, 3]."""
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        v = 10 ** rng.uniform(-1.0, 1.0)
        p = ModelParams(rng.uniform(0.05, 0.95) * v, v, 10 ** rng.uniform(-1.0, 1.0),
                        mass=rng.uniform(0.1, 2.0), hbar=rng.uniform(0.3, 3.0),
                        center=rng.uniform(-5.0, 5.0))
        points.append((p, rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)))
    return points


POINTS = _draw(200, seed=37)
ORACLE_POINTS = _draw(120, seed=38)


def _check(form, scale_inputs, factor, points):
    """The points where ``form`` on the scaled inputs is not ``factor``
    times its value, bit for bit."""
    misses = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for point in points:
            want = [factor * v for v in form(*point)]
            got = form(*scale_inputs(*point))
            if _bits(tuple(got)) != _bits(tuple(want)):
                misses.append(point)
    return misses


@pytest.mark.parametrize("name", UNITS)
def test_amplitudes_do_not_change(name):
    units = UNITS[name]
    form = lambda p, *_: dataclasses.astuple(solve_amplitudes(p))  # noqa: E731
    assert _check(form, lambda p, *_: (units.model(p),), 1.0, POINTS) == []


@pytest.mark.parametrize("name", UNITS)
def test_time_taxonomy_scales_as_a_time(name):
    units = UNITS[name]
    form = lambda p, *_: dataclasses.astuple(time_taxonomy(p))  # noqa: E731
    assert _check(form, lambda p, *_: (units.model(p),), units.time, POINTS) == []


@pytest.mark.parametrize("name", UNITS)
def test_greens_constant_scales_as_m_length_over_hbar_squared(name):
    units = UNITS[name]
    form = lambda p, x1, x2: (greens_constant(x1, x2, p),)  # noqa: E731
    scale = lambda p, x1, x2: (units.model(p), x1 * units.length, x2 * units.length)  # noqa: E731
    assert _check(form, scale, units.greens, POINTS) == []


@pytest.mark.parametrize("name", UNITS)
def test_effective_strength_scales_as_the_coupling(name):
    units = UNITS[name]
    form = lambda p, *_: (effective_strength(p),)  # noqa: E731
    assert _check(form, lambda p, *_: (units.model(p),), units.coupling, POINTS) == []


@pytest.mark.parametrize("name", UNITS)
def test_wave_numbers_scale_as_an_inverse_length(name):
    units = UNITS[name]
    form = lambda p, *_: dataclasses.astuple(wave_numbers(p))  # noqa: E731
    assert _check(form, lambda p, *_: (units.model(p),), 1.0 / units.length, POINTS) == []


REDUCED = [(ReducedParams(p.energy / p.potential, p.potential, p.coupling),) for p, _, _ in POINTS]


@pytest.mark.parametrize("name", LENGTHS)
def test_reduced_forms_scale_with_length(name):
    units = UNITS[name]
    scale = lambda r: (ReducedParams(r.epsilon, r.potential * units.energy,  # noqa: E731
                                     r.coupling * units.coupling),)
    assert _check(lambda r: (transition_time(r),), scale, units.time, REDUCED) == []
    # within one ulp: libm pow, which _power calls, does not scale exactly.
    # Measured: 200 of 200 bit for bit at length x4, 199 at x1/4, where
    # pow(16 V, 2) is one ulp from 256 pow(V, 2) (V = 0.8487973771986727)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in REDUCED:
            want = transmission_probability(*r)
            assert abs(transmission_probability(*scale(*r)) - want) <= math.ulp(want), r


WIDTH = 1e-2  # the regularized oracles' strip width, scaled with length
# each oracle at (p, length), the strip width's scale, and its factor
ORACLES = {
    "fd_group_delay": (lambda p, length: oracle.fd_group_delay(p), lambda units: units.time),
    "greens_grid_extrapolated": (lambda p, length: oracle.greens_grid_extrapolated(p),
                                 lambda units: units.greens),
    "solve_regularized |T|": (
        lambda p, length: abs(oracle.solve_regularized(p, WIDTH * length).transmission),
        lambda units: 1.0),
    "dwell_time_regularized": (
        lambda p, length: oracle.dwell_time_regularized(p, WIDTH * length),
        lambda units: units.time),
}
# Bit for bit on this draw but where a bound is named here.  Under length
# x4 and x1/4 the largest relative gaps measured were 3.7e-14 for |T| and
# 3.1e-15 for the dwell time (exact at 48-76 of 120 points): LAPACK's eigh
# of the strip's potential matrix does not scale exactly with its entries.
# Under mass x4 and hbar x2 both were exact at 120 of 120.  The grid
# oracle forms (hbar / h)**2 as r * r, not with libm pow, so its every step
# scales exactly where its intermediates are normal floats.
LENGTH_BOUNDS = {"solve_regularized |T|": 1e-13, "dwell_time_regularized": 1e-14}


@pytest.mark.parametrize("name", UNITS)
@pytest.mark.parametrize("oracle_name", ORACLES)
def test_oracles_scale_with_the_units(oracle_name, name):
    units = UNITS[name]
    value, factor = ORACLES[oracle_name]
    scale = lambda p, length: (units.model(p), length * units.length)  # noqa: E731
    points = [(p, 1.0) for p, _, _ in ORACLE_POINTS]
    bound = LENGTH_BOUNDS.get(oracle_name) if name in LENGTHS else None
    if bound is None:
        form = lambda p, length: (value(p, length),)  # noqa: E731
        assert _check(form, scale, factor(units), points) == []
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for point in points:
            want = factor(units) * value(*point)
            assert abs(value(*scale(*point)) - want) <= bound * abs(want), point
