"""Every point a closed form mends is correctly rounded.

Each test draws parameters log-uniformly over the whole float range from a
fixed seed and records, through a wrapper around ``_Validated._mend``,
which calls mended a point.  At each mended point the value must be within
half an ulp of mpmath's at 60 digits, as a float call and as the first
point of a two-point array whose second point is an ordinary one, which
keeps the bits it has in an array of its own.  Where the exact value is
beyond the float range the call must raise the form's overflow
DomainError instead.  Where no point is mended, k, kappa and tau must be
within a few ulp of a normal exact value (measured: 1.5, 1.5 and 2.6),
and G within 2 (1 + kappa |x1 - x2|) ulp, as exp turns the rounding of its
exponent into that many ulp (measured: at most 1.72 (1 + kappa |x1 - x2|),
180 ulp at worst), so a point whose plain form lost bits and is not
mended fails too.  numpy's RuntimeWarnings are errors here.
"""

import math
import sys
import warnings

import numpy as np
import pytest

from twostate import greens, params, times
from twostate.params import DomainError, ModelParams, ReducedParams

mp = pytest.importorskip("mpmath")

FLOAT_MAX = mp.mpf(1.7976931348623157e308)


@pytest.fixture
def mended(monkeypatch):
    """The number of points each ``_mend`` call since the last clear mended."""
    calls = []
    real = params._Validated._mend

    def spy(self, mask, value, exact, *extra):
        calls.append(int(np.count_nonzero(mask)))
        return real(self, mask, value, exact, *extra)

    monkeypatch.setattr(params._Validated, "_mend", spy)
    return calls


def _draws(seed: int, count: int, columns: int) -> list[list[float]]:
    """Rows of Python floats, log-uniform in (1e-300, 1e300)."""
    return (10.0 ** np.random.default_rng(seed).uniform(-300, 300, size=(count, columns))).tolist()


def _assert_nearest(value: float, exact, where) -> None:
    ulp = math.ulp(value) if value else 5e-324
    assert abs(mp.mpf(value) - exact) <= mp.mpf(ulp) / 2, (where, value, exact)


def _check(form, point, ordinary, exact, overflow: str, mended: list, plain_ulps=None) -> bool:
    """Whether ``form`` mends ``point``; if so, the value is checked on floats
    and as a two-point array beside ``ordinary``, and if not and
    ``plain_ulps`` is given, the float value is within that many ulp of a
    normal exact value."""
    cls, fields = type(point), list(zip(vars(point).values(), vars(ordinary).values()))
    pair = cls(*(np.array([a, b]) for a, b in fields))
    alone = cls(*(np.array([b]) for a, b in fields))
    mended.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = form(point)
        except DomainError as error:
            if not str(error).startswith(overflow):
                return False
            assert abs(exact()) > FLOAT_MAX, (point, str(error))
            with pytest.raises(DomainError, match=f"^{overflow}"):
                form(pair)
            return True
        if not mended:
            if plain_ulps is not None:
                want = exact()
                if sys.float_info.min <= abs(want) <= FLOAT_MAX:
                    err = float(abs(mp.mpf(value) - want) / math.ulp(float(want)))
                    assert err <= plain_ulps, (point, value, want)
            return False
        values = form(pair)
    _assert_nearest(value, exact(), point)
    assert float(values[0]) == value
    assert values[1] == form(alone)[0]  # numpy's bits, which may not be libm's
    return True


@pytest.mark.parametrize("closed", [False, True], ids=["k", "kappa"])
def test_mended_wave_numbers_are_correctly_rounded(closed, mended):
    count = 0
    for eps, potential, mass, hbar in _draws(11, 3000, 4):
        energy = potential * (eps / 1e300)  # E / V in (1e-300, 1)
        if energy == 0.0:
            continue
        point = ModelParams(energy, potential, 1.0, mass=mass, hbar=hbar)

        def exact():
            with mp.workdps(60):
                e, v, m, h = map(mp.mpf, (energy, potential, mass, hbar))
                return mp.sqrt(2 * m * (v - e if closed else e)) / h

        overflow = "kappa = sqrt" if closed else "k = sqrt"
        count += _check(lambda p: params._wave_number(p, closed), point,
                        ModelParams(0.25, 1.0, 1.0), exact, overflow, mended, plain_ulps=2)
    assert count > 100


def test_mended_greens_values_are_correctly_rounded(mended):
    count = 0
    draws = _draws(12, 3000, 6)
    signs = np.random.default_rng(13).choice([-1.0, 1.0], size=(len(draws), 2)).tolist()
    for (eps, potential, mass, hbar, x1, x2), (s1, s2) in zip(draws, signs):
        energy = potential * (eps / 1e300)
        x1, x2 = s1 * x1, s2 * x2
        try:
            point = ModelParams(energy, potential, 1.0, mass=mass, hbar=hbar)
        except DomainError:
            continue

        with mp.workdps(60):
            e, v, m, h = map(mp.mpf, (energy, potential, mass, hbar))
            exponent = mp.sqrt(2 * m * (v - e)) / h * abs(mp.mpf(x1) - mp.mpf(x2))

        def exact():
            with mp.workdps(60):
                return -mp.sqrt(m / (2 * h**2)) * mp.exp(-exponent) / mp.sqrt(v - e)

        # exp turns the rounding of kappa |x1 - x2| into that many ulp of G
        count += _check(lambda p: greens.greens_constant(x1, x2, p), point,
                        ModelParams(0.25, 1.0, 1.0), exact, "the Green's function overflows",
                        mended, plain_ulps=2 * (1 + float(exponent)))
    assert count > 100


def test_mended_transition_times_are_correctly_rounded(mended):
    count = 0
    for eps, potential, coupling in _draws(14, 3000, 3):
        if eps / 1e300 == 0.0:
            continue
        point = ReducedParams(eps / 1e300, potential, coupling)  # epsilon in (1e-300, 1)

        def exact():
            with mp.workdps(60):
                e, v, k0 = map(mp.mpf, (point.epsilon, potential, coupling))
                spread = e * (1 - e)
                return 2 * (2 * e - 1) / (mp.sqrt(spread) * (k0**2 + 16 * spread * v**2 / k0**2))

        count += _check(times.transition_time, point, ReducedParams(0.25, 1.0, 1.0), exact,
                        "transition time overflows", mended, plain_ulps=4)
    assert count > 100
