"""Exact ``'%.15g' % v`` text for whole float arrays, byte for byte.

For a finite v != 0, ``'%.15g'`` prints the sign of v and the decimal
that is correctly rounded to 15 significant digits of |v| (Gay, "Correctly
rounded binary-decimal conversions", 1990): the exponent X and the mantissa
M = round(|v| 10**(14 - X)) in [1e14, 1e15).  ``Fields`` computes both for
a whole array:

- X starts as floor(log10 |v|), and 10**(14 - X) comes from a table of pairs
  h + l, h the double nearest 10**j and l the double nearest the rest,
  built once by Python integer arithmetic;
- y = |v| 10**(14 - X) is |v| h taken exactly by Dekker's (1971) product
  of split halves, plus |v| l.  Its error is below 1e-15, so M is
  floor(y), plus 1 where y's fractional part exceeds 1/2, and M = 1e15
  carries into X;
- M's 15 digits are 4-byte groups read from a table of "0000" to "9999",
  and each value's field is gathered from its sign, digit, exponent and
  punctuation bytes by one layout per sign, notation (fixed with X in
  -4..14, scientific with a 2- or 3-digit exponent, or zero) and count of
  significant digits; a negative value's layout starts with "-".  Unused
  bytes of a field are NUL.

A value whose fast text could be wrong is formatted by ``'%.15g' %``
itself.  ``Fields`` returns each value's kind, which names the reason:
``TIE`` (y's fractional part within 1e-6 of 1/2), ``ESTIMATE`` (the log10
estimate of X off by one), ``OUTSIDE`` (14 - X outside the table) or
``SPECIAL`` (-0.0, an infinity or NaN).
"""

from __future__ import annotations

import functools
import math
from types import SimpleNamespace

import numpy as np

__all__ = ["ESTIMATE", "OUTSIDE", "SPECIAL", "TIE", "WIDTH", "Fields"]

WIDTH = 23  # the widest field, "-1.23456789012345e-308", and its separator

# a value's source bytes: "0" and M's 15 digits, X's sign and 3 digits, and
# the punctuation; _NUL is never written
_EXPONENT, _POINT, _ZERO, _E, _SEPARATOR, _NUL, _MINUS, _ROW = 16, 20, 21, 22, 23, 24, 25, 28

# kinds: fixed notation with X = -4..14 is X + 4, then these
_SCI2, _SCI3, _ZERO_KIND, TIE, ESTIMATE, OUTSIDE, SPECIAL = range(19, 26)
_NEGATIVE = (SPECIAL + 1) * 16  # a negative value's layouts follow the positive ones

_HIGH = 280  # the table's powers 10**j, |j| <= _HIGH; v 10**j stays finite for every split
_LOW = -_HIGH
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter
_X = 400  # exponent tables cover X in [-_X, _X)


@functools.cache
def _tables() -> SimpleNamespace:
    """The power table, the digit groups and their trailing zeros, the
    exponent bytes and notation of each X, and the layouts; built on first
    use (about 1.5 ms), never at import.  Only Python ints, floats and
    bytes build them: a numpy loop run here alone would keep its code pages
    resident for the rest of the process."""
    positive, negative = [], []  # (h, l) of 10**k and of 10**-k
    p = 1  # 10**k
    for k in range(_HIGH + 1):
        nearest = float(p)  # int to float is correctly rounded
        positive.append((nearest, float(p - int(nearest))))
        nearest = 1 / p  # and so is int / int
        a, b = nearest.as_integer_ratio()  # b = 2**e, so ldexp is exact
        negative.append((nearest, math.ldexp((b - a * p) / p, 1 - b.bit_length())))
        p *= 10
    h, l = zip(*negative[:0:-1], *positive)  # j = _LOW.._HIGH
    high = [(c := v * _SPLIT) - (c - v) for v in h]  # Veltkamp's split
    groups = bytearray(4 * 10000)  # "0000" to "9999"
    for i, scale in enumerate((1000, 100, 10, 1)):
        groups[i::4] = b"".join(bytes([c]) * scale for c in b"0123456789") * (1000 // scale)
    trailing = bytearray(10000)  # the groups' trailing zeros
    for k in range(1, 5):
        trailing[:: 10**k] = bytes([k]) * 10 ** (4 - k)
    xs = range(-_X, _X)
    kinds = [x + 4 if -4 <= x <= 14 else _SCI2 if abs(x) < 100 else _SCI3 for x in xs]

    def layout(kind: int, s: int) -> bytes:  # the text's source bytes, then its separator
        digits = list(range(1, s + 1))
        if 4 <= kind <= 18:  # fixed, X >= 0
            whole = kind - 3
            text = list(range(1, whole + 1)) + ([_POINT] + digits[whole:] if s > whole else [])
        elif kind <= 18:  # fixed, 0.000d...
            text = [_ZERO, _POINT] + [_ZERO] * (3 - kind) + digits
        elif kind <= _SCI3:
            exponent = [18, 19] if kind == _SCI2 else [17, 18, 19]
            text = [1] + ([_POINT] + digits[1:] if s > 1 else []) + [_E, _EXPONENT] + exponent
        elif kind == _ZERO_KIND:
            text = [_ZERO]
        else:
            return b""  # a fallback's text is written by %
        return bytes(text + [_SEPARATOR])

    rows = [layout(kind, max(s, 1)) for kind in range(SPECIAL + 1) for s in range(16)]
    minus, nul = bytes([_MINUS]), bytes([_NUL])
    rows += [row and minus + row for row in rows]  # from _NEGATIVE on
    layouts = b"".join([row.ljust(WIDTH, nul) for row in rows])
    return SimpleNamespace(
        h=np.array(h), l=np.array(l), high=np.array(high),
        low=np.array([v - c for v, c in zip(h, high)]),
        groups=np.frombuffer(groups, dtype=np.uint32), trailing=np.frombuffer(trailing, np.uint8),
        exponents=np.frombuffer("".join(["%+04d" % x for x in xs]).encode(), dtype=np.uint32),
        kinds=np.array(kinds, dtype=np.int16),
        layouts=np.frombuffer(layouts, dtype=np.uint8).reshape(-1, WIDTH),
    )


def _decimal(w: np.ndarray, t: SimpleNamespace):
    """X and M of each w > 0, and the masks of the values whose M could be
    wrong: ``tie``, ``estimate`` and ``outside``.  Its intermediates go when
    it returns, so a call of ``Fields`` holds fewer arrays at once."""
    with np.errstate(all="ignore"):  # a w far outside the table overflows, and falls back
        x = np.floor(np.log10(w))
        y = 14.0 - x
        outside = (y < _LOW) | (y > _HIGH)
        j = np.minimum(np.maximum(y, _LOW), _HIGH).astype(np.intp) - _LOW
        p = w * t.h[j]
        c = w * _SPLIT
        w_high = c - (c - w)
        w_low = w - w_high
        high, low = t.high[j], t.low[j]
        rest = ((w_high * high - p) + w_high * low + w_low * high) + w_low * low + w * t.l[j]
        whole = np.floor(p)
        part = (p - whole) + rest
        carried = np.floor(part)
        part -= carried
        m = whole + carried  # floor(y)
        estimate = (m < 1e14) | (m >= 1e15)
        tie = np.abs(part - 0.5) < 1e-6
        m += np.floor(part + 0.5)  # M; a half rounds up, but ties fall back
        carry = m == 1e15
        x[carry] += 1.0
        m[carry | estimate | outside] = 1e14  # the carry's M, the others' placeholder
    return x, m, tie, estimate, outside


class Fields:
    """``'%.15g'`` fields for up to ``size`` values at a time.

    Calling it with a float array ``values`` and a uint8 array ``out`` of
    shape ``values.shape + (WIDTH,)`` writes each value's text followed by
    its separator, ``separators`` repeated over the values in order, into
    its row of ``out``, NUL-padded; dropping the NUL bytes leaves the bytes
    of ``'%.15g' % v`` and the separators.  It returns each value's kind.
    Its buffers are reused from call to call.
    """

    def __init__(self, size: int, separators: bytes):
        self._t = _tables()
        self._src = np.zeros((size, _ROW), dtype=np.uint8)
        for at, char in ((_POINT, "."), (_ZERO, "0"), (_E, "e"), (_MINUS, "-")):
            self._src[:, at] = ord(char)
        self._src[:, _SEPARATOR] = np.resize(np.frombuffer(separators, dtype=np.uint8), size)
        self._quads = np.empty((4, size))
        self._layout = np.empty((size, WIDTH), dtype=np.uint8)
        self._index = np.empty((size, WIDTH), dtype=np.intp)
        self._base = np.arange(0, size * _ROW, _ROW)[:, None]  # each value's source row

    def __call__(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        # the arithmetic stays in float64, with bool masks only to select: a
        # loop on another dtype, or on floats mixed with bools, would page in
        # numpy code (64 KB of RSS each) that nothing else in a sweep runs
        t, v, size = self._t, values.ravel(), values.size
        src, q = self._src[:size], self._quads[:, :size]
        w = np.abs(v)
        nonzero = (w > 0.0) & (w < np.inf)
        w[~nonzero] = 1.0  # zero, inf and NaN: their text is not computed
        x, m, tie, estimate, outside = _decimal(w, t)
        # M's four digit groups, floor(M / 10**j) mod 1e4 for j = 12, 8, 4, 0:
        # as M < 1e15, each quotient M / 10**j and q / 1e4 that is not an
        # integer lies at least 5 ulps from the next one, so each floor is exact
        np.floor(m / [[1e12], [1e8], [1e4], [1.0]], out=q)
        q -= 1e4 * np.floor(q / 1e4)
        quads = q.astype(np.intp)
        words = src.view(np.uint32)
        words[:, :4] = t.groups.take(quads).T
        xi = x.astype(np.intp) + _X
        words[:, 4] = t.exponents.take(xi)
        z = t.trailing.take(quads)
        zeros = z[0]  # M's trailing zeros, counted up from group 0
        for k in (1, 2, 3):
            zeros = z[k] + np.where(q[k] == 0.0, zeros, 0.0)
        kind = t.kinds.take(xi)
        negative = np.signbit(v)
        special = ~nonzero & (negative | (v != 0.0))  # -0.0, the infinities and NaN
        # -0.0 takes _ZERO_KIND, then SPECIAL
        for mask, reason in ((tie, TIE), (estimate, ESTIMATE), (outside, OUTSIDE),
                             (v == 0.0, _ZERO_KIND), (special, SPECIAL)):
            kind[mask] = reason
        layout, index = self._layout[:size], self._index[:size]
        row = kind * 16.0 + np.where(negative, _NEGATIVE + 15.0, 15.0) - zeros
        t.layouts.take(row.astype(np.intp), axis=0, out=layout)
        np.add(layout, self._base[:size], out=index)
        # every index is in range; "clip" writes straight into a strided out
        np.take(self._src.ravel(), index.reshape(out.shape), out=out, mode="clip")
        for i in np.flatnonzero(tie | estimate | outside | special).tolist():
            text = ("%.15g" % v[i]).encode() + src[i, _SEPARATOR].tobytes()
            out[np.unravel_index(i, values.shape)][: len(text)] = np.frombuffer(text, np.uint8)
        return kind.reshape(values.shape)
