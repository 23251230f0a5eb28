"""Exact ``'%.15g' % v`` text for whole float arrays, byte for byte.

For a finite v > 0, ``'%.15g'`` prints the decimal that is correctly
rounded to 15 significant digits (Gay, "Correctly rounded binary-decimal
conversions", 1990): the exponent X and the mantissa
M = round(v 10**(14 - X)) in [1e14, 1e15).  ``Fields`` computes both for a
whole array:

- X starts as floor(log10 v), and 10**(14 - X) comes from a table of pairs
  h + l, h the double nearest 10**j and l the double nearest the rest,
  built once by Python integer arithmetic;
- y = v 10**(14 - X) is v h taken exactly by Dekker's (1971) product of
  split halves, plus v l.  Its error is below 1e-15, so M is floor(y), plus
  1 where y's fractional part exceeds 1/2, and M = 1e15 carries into X;
- M's 15 digits are 4-byte groups read from a table of "0000" to "9999",
  and each value's field is gathered from its digit, exponent and
  punctuation bytes by one layout per notation (fixed with X in -4..14,
  scientific with a 2- or 3-digit exponent, or zero) and count of
  significant digits.  Unused bytes of a field are NUL.

A value whose fast text could be wrong is formatted by ``'%.15g' %``
itself.  ``Fields`` returns each value's kind, which names the reason:
``TIE`` (y's fractional part within 1e-6 of 1/2), ``ESTIMATE`` (the log10
estimate of X off by one), ``OUTSIDE`` (14 - X outside the table) or
``NOT_POSITIVE`` (negative, -0.0 or not finite).
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

__all__ = ["ESTIMATE", "NOT_POSITIVE", "OUTSIDE", "TIE", "WIDTH", "Fields"]

WIDTH = 23  # the widest field, "-1.23456789012345e-308", and its separator

# a value's source bytes: "0" and M's 15 digits, X's sign and 3 digits, and
# the punctuation; _NUL is never written
_EXPONENT, _POINT, _ZERO, _E, _SEPARATOR, _NUL, _ROW = 16, 20, 21, 22, 23, 24, 28

# kinds: fixed notation with X = -4..14 is X + 4, then these
_SCI2, _SCI3, _ZERO_KIND, TIE, ESTIMATE, OUTSIDE, NOT_POSITIVE = range(19, 26)

_LOW, _HIGH = -280, 280  # the table's powers 10**j; v 10**j stays finite for every split
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter
_X = 400  # exponent tables cover X in [-_X, _X)


def _words(first: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """4-byte words: the character ``first``, then ``rest``'s last three
    decimal digits."""
    chars = [first] + [rest // scale % 10 + ord("0") for scale in (100, 10, 1)]
    return np.stack(chars, axis=1).astype(np.uint8).view(np.uint32).ravel()


@functools.cache
def _tables() -> SimpleNamespace:
    """The power table, the digit groups and their trailing zeros, the
    exponent bytes and notation of each X, and the layouts; built on first
    use (3-4 ms), never at import."""
    h, l = [], []
    for j in range(_LOW, _HIGH + 1):
        num, den = (10**j, 1) if j >= 0 else (1, 10**-j)
        nearest = num / den  # int / int is correctly rounded
        a, b = nearest.as_integer_ratio()
        h.append(nearest)
        l.append((num * b - a * den) / (den * b))
    h = np.array(h)
    c = h * _SPLIT
    high = c - (c - h)
    d, xs = np.arange(10000), np.arange(-_X, _X)
    groups = _words(d // 1000 + ord("0"), d)  # "0000" to "9999"
    exponents = _words(np.where(xs < 0, ord("-"), ord("+")), np.abs(xs))  # "-400" to "+399"
    kinds = np.where((xs >= -4) & (xs <= 14), xs + 4, np.where(np.abs(xs) < 100, _SCI2, _SCI3))

    def layout(kind: int, s: int) -> list[int]:
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
            return [_NUL] * WIDTH
        return text + [_SEPARATOR] + [_NUL] * (WIDTH - len(text) - 1)

    layouts = [layout(kind, max(s, 1)) for kind in range(NOT_POSITIVE + 1) for s in range(16)]
    return SimpleNamespace(
        h=h, l=np.array(l), high=high, low=h - high,
        groups=groups, trailing=sum(d % 10**k == 0 for k in range(1, 5)),
        exponents=exponents, kinds=kinds,
        layouts=np.array(layouts, dtype=np.uint8),
    )


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
        for at, char in ((_POINT, "."), (_ZERO, "0"), (_E, "e")):
            self._src[:, at] = ord(char)
        self._src[:, _SEPARATOR] = np.resize(np.frombuffer(separators, dtype=np.uint8), size)
        self._quads = np.empty((4, size))
        self._layout = np.empty((size, WIDTH), dtype=np.uint8)
        self._index = np.empty((size, WIDTH), dtype=np.intp)
        self._base = np.repeat(np.arange(0, size * _ROW, _ROW), WIDTH).reshape(size, WIDTH)

    def __call__(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        t, v, size = self._t, values.ravel(), values.size
        src, q = self._src[:size], self._quads[:, :size]
        with np.errstate(all="ignore"):  # the values that fall back compute garbage
            positive = (v > 0.0) & (v < np.inf)
            w = np.where(positive, v, 1.0)
            x = np.floor(np.log10(w))
            j = (14.0 - x).astype(np.intp) - _LOW
            outside = (j < 0) | (j > _HIGH - _LOW)
            np.minimum(np.maximum(j, 0, out=j), _HIGH - _LOW, out=j)
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
            m += part > 0.5
            carry = m == 1e15
            x += carry
            m[carry | estimate | outside] = 1e14  # the carry's M, the others' placeholder
        # M's four digit groups; each quotient is exact enough to floor
        upper = np.floor(m / 1e8)
        lower = m - upper * 1e8
        np.floor(upper / 1e4, out=q[0])
        np.subtract(upper, q[0] * 1e4, out=q[1])
        np.floor(lower / 1e4, out=q[2])
        np.subtract(lower, q[2] * 1e4, out=q[3])
        quads = q.astype(np.intp)
        words = src.view(np.uint32)
        words[:, :4] = t.groups.take(quads).T
        xi = x.astype(np.intp) + _X
        words[:, 4] = t.exponents.take(xi)
        z = t.trailing.take(quads)
        zeros = z[3] + (quads[3] == 0) * (z[2] + (quads[2] == 0) * (z[1] + (quads[1] == 0) * z[0]))
        kind = t.kinds.take(xi)
        for mask, reason in ((tie, TIE), (estimate, ESTIMATE), (outside, OUTSIDE),
                             (~positive, NOT_POSITIVE), ((v == 0.0) & ~np.signbit(v), _ZERO_KIND)):
            kind[mask] = reason
        layout, index = self._layout[:size], self._index[:size]
        t.layouts.take(kind * 16 + 15 - zeros, axis=0, out=layout)
        np.add(layout, self._base[:size], out=index)
        # every index is in range; "clip" writes straight into a strided out
        np.take(self._src.ravel(), index.reshape(out.shape), out=out, mode="clip")
        for i in np.flatnonzero(kind >= TIE).tolist():
            text = ("%.15g" % v[i]).encode() + src[i, _SEPARATOR].tobytes()
            out[np.unravel_index(i, values.shape)][: len(text)] = np.frombuffer(text, np.uint8)
        return kind.reshape(values.shape)
