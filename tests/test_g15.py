"""The array-wide ``%.15g`` of the sweep and snapshot writers against
``'%.15g' %``.

Numpy alone: the draws come from seeded numpy generators, and the frame
writer is checked against ``np.savetxt`` without running a wave packet, so
this module runs where scipy is not installed, and on numpy's baseline
(libm) ``log10`` as well as its SIMD one.
"""

import io

import numpy as np
import pytest

from twostate import g15, wavepacket

CHUNK = 4096


def _fields(values: np.ndarray, separators: bytes = b"\n"):
    """The bytes ``g15.Fields`` writes for ``values``, NULs dropped, and
    each value's kind; formatted CHUNK values at a time."""
    fields = g15.Fields(CHUNK, separators)
    text, kinds = [], []
    for start in range(0, values.size, CHUNK):
        chunk = values[start : start + CHUNK]
        out = np.zeros(chunk.shape + (g15.WIDTH,), dtype=np.uint8)
        kinds.append(fields(chunk, out))
        text.append(out[out != 0].tobytes())
    return b"".join(text), np.concatenate(kinds)


def _expected(values: np.ndarray, separators: bytes = b"\n") -> bytes:
    seps = separators.decode() * (values.size // len(separators) + 1)
    return "".join("%.15g%s" % (v, s) for v, s in zip(values.tolist(), seps)).encode()


def _draws() -> np.ndarray:
    """Seeded positive draws, then the same values negated."""
    rng = np.random.default_rng(20201031)
    bits = rng.integers(0, 2**64, size=210_000, dtype=np.uint64, endpoint=False)
    patterns = np.abs(bits.view(np.float64))
    patterns = patterns[np.isfinite(patterns)][:200_000]
    log_uniform = 10.0 ** rng.uniform(-320.0, 300.0, size=200_000)
    powers = 10.0 ** np.arange(-300, 300)
    edges = np.concatenate([np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)])
    special = np.array([
        0.0, 5e-324, 1e-323, 2.5e-320, 1e-310, 2.2250738585072009e-308,
        2.2250738585072014e-308, 1e-5, 9.9999999999999995e-5, 1e-4, 1e14,
        99999999999999.95, 999999999999999.5, 999999999999999.4, 1e15,
        123456789012345.5, 1234567890123455.0, 0.5, 1.0 / 3.0, 2.0 / 3.0,
        1.7976931348623157e308, -1.0, -0.0, -5e-324, np.inf, -np.inf, np.nan,
    ])
    assert patterns.size == 200_000
    draws = np.concatenate([patterns, log_uniform, edges, special])
    return np.concatenate([draws, -draws])


DRAWS = _draws()
RANDOM = 400_000  # the bit patterns and the log-uniform draws open each half
HALF = DRAWS.size // 2


def test_fields_are_the_bytes_of_percent_format():
    got, kinds = _fields(DRAWS)
    want = _expected(DRAWS)
    if got != want:  # name the first value that differs
        lines = zip(DRAWS.tolist(), got.split(b"\n"), want.split(b"\n"))
        value, mine, theirs = next(row for row in lines if row[1] != row[2])
        pytest.fail(f"{value!r}: {mine!r} against '%.15g' % v = {theirs!r}")
    reasons = [g15.TIE, g15.ESTIMATE, g15.OUTSIDE, g15.SPECIAL]
    for half in (kinds[:HALF], kinds[HALF:]):  # the positive and the negative draws
        assert set(reasons) <= set(np.unique(half).tolist())
    # the fast path settles the random draws of either sign inside the
    # power table, except in 1e11..1e18, where |v| 10**(14 - X) can be an
    # exact half-integer (a tie % rounds to even) and some draws are
    for start in (0, HALF):
        random = np.abs(DRAWS[start : start + RANDOM])
        inside = (random > 1e-260) & (random < 1e290) & ~((random > 1e11) & (random < 1e18))
        fallback = np.isin(kinds[start : start + RANDOM], reasons)
        assert np.count_nonzero(fallback & inside) <= 5


@pytest.mark.parametrize(
    "value, reason",
    [
        (123456789012345.5, g15.TIE),  # an exact tie, rounded to even by %
        (1234567890123455.0, g15.TIE),
        (-123456789012345.5, g15.TIE),
        (5e-324, g15.OUTSIDE),
        (1e-300, g15.OUTSIDE),
        (2e-267, g15.OUTSIDE),  # X = -267, 14 - X one past the table
        (2e295, g15.OUTSIDE),
        (1e299, g15.OUTSIDE),
        (-1e299, g15.OUTSIDE),
        (-0.0, g15.SPECIAL),
        (np.nan, g15.SPECIAL),
        (np.inf, g15.SPECIAL),
        (-np.inf, g15.SPECIAL),
    ],
)
def test_each_fallback_reason_gives_the_percent_bytes(value, reason):
    # log10's rounding decides which values near a power of ten ESTIMATE
    # catches, so that reason is counted over the draws alone
    values = np.array([value, 0.25])
    got, kinds = _fields(values)
    assert got == _expected(values)
    assert kinds[0] == reason and kinds[1] < g15.TIE  # 0.25 takes the fast path


@pytest.mark.parametrize("value", [2e-266, -2e-266, 2e294, -2e294])
def test_the_ends_of_the_power_table_take_the_fast_path(value):
    values = np.array([value])
    got, kinds = _fields(values)
    assert got == _expected(values) and kinds[0] < g15.TIE


def test_two_columns_take_their_own_separators():
    values = np.array([[1e-5, 0.0], [9.9999999999999995e-5, 1e15], [-1.5, 7.0]])
    out = np.zeros(values.shape + (g15.WIDTH,), dtype=np.uint8)
    kinds = g15.Fields(8, b",\n")(values, out)
    assert out[out != 0].tobytes() == b"1e-05,0\n0.0001,1e+15\n-1.5,7\n"
    assert kinds.shape == values.shape and kinds[2, 0] < g15.TIE


@pytest.mark.parametrize(
    "value, text",
    [(-1.2345678901234567e-200, b"-1.23456789012346e-200"), (-1e-5, b"-1e-05"),
     (-1e-4, b"-0.0001"), (-0.000123456789012345, b"-0.000123456789012345"),
     (-12345678901234.5, b"-12345678901234.5"), (-123456789012345.0, b"-123456789012345"),
     (-9.999999999999998, b"-10"), (-0.09999999999999996, b"-0.1"), (-1e100, b"-1e+100"),
     (-2.5, b"-2.5")],
)
def test_a_negative_value_is_its_magnitude_after_a_minus(value, text):
    # the widest field the table reaches, each notation and a carry into X,
    # on the fast path
    values = np.array([value, -value])
    got, kinds = _fields(values)
    assert got == b"%s\n%s\n" % (text, text[1:]) == _expected(values)
    assert (kinds < g15.TIE).all() and kinds[0] == kinds[1]


# a double just below a power of ten, where log10 may round up to the
# power and the value take ESTIMATE; 999999999999999e-15 is not one
_BELOW_A_POWER = {(10**15 - 1, 0), (10**15 - 1, -20), (10**15 - 1, 20), (10**14, -20),
                  (10**14, 20)}


@pytest.mark.parametrize("exponent", [0, -15, -20, 20])
@pytest.mark.parametrize(
    "m", [10**14, 10**15 - 1] + [10**14 + 10**k + d for k in (4, 8, 12) for d in (-1, 0)])
def test_digit_group_edges_give_the_percent_bytes(m, exponent):
    # M at both ends of its range and on either side of each digit group's
    # carry, in fixed and scientific notation and of both signs
    value = float(f"{m}e{exponent}")
    values = np.array([value, -value])
    got, kinds = _fields(values)
    assert got == _expected(values) and kinds[0] == kinds[1]
    assert kinds[0] < g15.TIE or (m, exponent) in _BELOW_A_POWER


BLOCK = wavepacket._FRAME_BLOCK


@pytest.mark.parametrize("chans", [1, 2])
@pytest.mark.parametrize("rows", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_frame_writer_blocks_match_savetxt(rows, chans):
    # every block and the short last one, as savetxt writes the frame whole;
    # exact zeros, subnormals, 1e-300, negative and signed-zero x, and t,
    # formatted once per frame, in exponent forms too
    rng = np.random.default_rng(rows * chans)
    x = np.linspace(-720.0, 720.0, rows)
    x[:8] = -720.0, -0.17578125, -0.0, 0.0, 1e-300, 5e-324, 3.5, 720.0
    dens = np.zeros((rows, 2))  # a run's table; column 1 is 0 when uncoupled
    dens[:, :chans] = rng.random((rows, chans)) ** 12
    dens[::97] = 0.0
    dens[5::89, :chans] = 10.0 ** rng.uniform(-320.0, -290.0, size=dens[5::89, :chans].shape)
    dens[:8, :chans] = np.array([
        [0.0, 1e-300], [5e-324, 0.0], [1e-300, 4.9e-322], [2.2250738585072014e-308, 1e-310],
        [0.1, 2.0 / 3.0], [1.0 / 3.0, 0.0], [1.0, 123456789.123456789], [0.0, 1e-17],
    ])[:, :chans]
    times = (0.0, 0.5, 12.5, 1e-7, 689.5, 1e16, 5e-324, 1380.5)
    got = io.BytesIO()
    write = wavepacket._frame_writer(got, x)
    for t in times:
        write(t, dens)
    want = io.BytesIO()
    want.write(b"t,x,density1,density2\n")
    for t in times:
        block = np.column_stack((np.full(x.size, t), x, dens))
        np.savetxt(want, block, fmt="%.15g", delimiter=",")
    assert got.getvalue() == want.getvalue()
