"""Time-dependent arrival-delay measurement with narrow-band packets.

A Gaussian packet in the open channel is propagated through the square
regularized coupling with an implicit Crank-Nicolson step.  On one
uniform grid the Hamiltonian is the model's 2x2 block matrix
[[T, G], [G, T + V]]: T the tridiagonal kinetic block, G the diagonal cell
average of the coupling (which represents strips far narrower than the
grid spacing).  The Cayley step (1 + lam H)^-1 (1 - lam H),
lam = i dt / 2 hbar, is unitary, so the norm is conserved to rounding
(well below 1e-8 per step in the free case).  It is applied in place,
as 2 (1 + lam H)^-1 psi - psi, an exact identity, in one fused update.

The closed channel's block T + V is diagonal in the orthonormal sine
(DST-I) basis S, so the state is stored as psi = [phi1; S phi2]: channel 1
on the grid, channel 2 by its sine coefficients.  S is orthogonal, so the
norm is that of the stacked vector; channel 2's edge values are two dot
products with rows of S, and its density on the grid is computed, by one
batched real FFT, only for snapshot frames.  Each step solves channel 1 by
the two bidiagonal sweeps over the LU factors of one pivot-free LAPACK
factorization, each unrolled by two: a BLAS recurrence over every other
row and a vectorized pass for the rows between.  An exact rank-r Woodbury
correction follows for the r coupled cells; channel 2 costs one pass and
a dot and an axpy per coupled cell.
Channel 2 is carried only when some cell is coupled, so the free run, the
r = 0 case of the same step, solves the open channel alone.  The per-step
norm, edge and centroid sums also run in scipy's BLAS, never numpy's.

The arrival time is the instant the centroid of the transmitted density
(open channel restricted to the far side of the strip) crosses the
detector plane at half the domain radius.  A free run with the coupling
switched off on the same grid supplies the reference; the reported delay
is the difference and converges to the analytic group delay in the
narrow-band limit, with a finite-bandwidth bias well inside 25%.  The free
run reads neither V, k0 nor the width, so its crossing time is kept in a
small bounded cache and reused by every call on the same packet and grid.
"""

from __future__ import annotations

import functools
import math
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .params import DomainError, ModelParams, RunGuardError, _as_count, _as_float

__all__ = [
    "BoundaryContaminationError",
    "DelayResult",
    "GridSpec",
    "NoCrossingError",
    "NormDriftError",
    "PacketSpec",
    "propagate",
]

_EDGE_TOL = 1e-8
_DRIFT_TOL = 1e-6
_MASS_FLOOR = 1e-3
_FRAME_BLOCK = 1024


class BoundaryContaminationError(RunGuardError):
    """Probability density reached the grid edge above tolerance."""


class NormDriftError(RunGuardError):
    """Total norm drifted beyond tolerance during the run."""


class NoCrossingError(RunGuardError):
    """The transmitted centroid never reached the detector plane."""


@dataclass(frozen=True)
class PacketSpec:
    """Gaussian open-channel packet exp(-(x-center)^2/(4 sigma^2) + i kbar x).

    center must sit on the incident side (negative) at least five widths
    from the coupling so the initial overlap with the strip is negligible.
    The fields are stored as Python floats (``params._as_float``: a bool is
    refused, a field that is not finite raises DomainError naming it).
    """

    center: float
    wavenumber: float
    sigma: float

    def __post_init__(self) -> None:
        for name in ("center", "wavenumber", "sigma"):
            object.__setattr__(self, name, _as_float(name, getattr(self, name)))
        if not (self.sigma > 0.0 and self.sigma * self.sigma > 0.0):  # the envelope divides by it
            raise ValueError(f"sigma must be positive, its square too, got {self.sigma}")
        if self.wavenumber <= 0.0:
            raise ValueError(
                f"wavenumber must be positive, got {self.wavenumber}"
            )
        if self.center >= 0.0:
            raise ValueError("packet must start on the incident side (center < 0)")
        if abs(self.center) < 5.0 * self.sigma:
            raise ValueError("packet must start at least 5 sigma from the coupling")

    @classmethod
    def for_energy(
        cls, energy: float, p: ModelParams, sigma: float, center: float
    ) -> "PacketSpec":
        """Packet whose carrier wavenumber matches a target central energy,
        converted like the fields (``params._as_float``); parameter arrays
        of any shape but () raise DomainError."""
        p = p._one_configuration("PacketSpec.for_energy")
        energy = _as_float("energy", energy)
        if energy <= 0.0:
            raise DomainError("packet energy must be positive")
        kbar = math.sqrt(2.0 * p.mass * energy) / p.hbar
        return cls(center=center, wavenumber=kbar, sigma=sigma)

    def central_energy(self, p: ModelParams) -> float:
        """(hbar k)**2 / (2 m); parameter arrays of any shape but () raise
        DomainError."""
        p = p._one_configuration("PacketSpec.central_energy")
        try:
            return (p.hbar * self.wavenumber) ** 2 / (2.0 * p.mass)
        except OverflowError:  # float **, where hbar k is within an ulp of 1.34e154
            raise DomainError(f"(hbar k)**2 overflows at hbar={p.hbar}, "
                              f"k={self.wavenumber}") from None


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid [-half_length, half_length] with fixed step count.

    Like ``PacketSpec``, it stores its fields as finite Python floats and
    ints, so that equal specs mean bit-identical runs.
    """

    half_length: float
    points: int
    dt: float
    steps: int

    def __post_init__(self) -> None:
        for name in ("half_length", "dt"):
            object.__setattr__(self, name, _as_float(name, getattr(self, name)))
        for name, least in (("points", 128), ("steps", 1)):
            object.__setattr__(self, name, _as_count(name, getattr(self, name), least))
        if self.half_length <= 0.0:
            raise ValueError("half_length must be positive")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")


@dataclass(frozen=True)
class DelayResult:
    """Measured arrival times and their difference."""

    t_arrival: float
    t_free: float
    delay: float
    norm_drift: float
    transmitted_fraction: float


def _coupling_cells(x: np.ndarray, dx: float, p: ModelParams, width: float):
    """Cell-averaged square coupling; integral over the grid equals k0."""
    if p.coupling / width == math.inf:
        raise ValueError(f"coupling / width overflows at coupling={p.coupling}, width={width}")
    lo = p.center - width / 2.0
    hi = p.center + width / 2.0
    left = x - dx / 2.0
    right = x + dx / 2.0
    overlap = np.clip(np.minimum(right, hi) - np.maximum(left, lo), 0.0, None)
    return (p.coupling / width) * overlap / dx


def _sine_rows(n: int, rows) -> np.ndarray:
    """Rows ``rows`` of the orthonormal DST-I matrix S of order n.

    S[j, m] = sqrt(2/(n+1)) sin(pi (j+1)(m+1)/(n+1)) is symmetric and its
    own inverse, and it diagonalizes every Dirichlet tridiagonal Toeplitz
    matrix.  The integer (j+1)(m+1) is reduced mod 2(n+1) before the sine,
    so no argument exceeds 2 pi.
    """
    k = (np.asarray(rows)[:, None] + 1) * np.arange(1, n + 1) % (2 * (n + 1))
    return math.sqrt(2.0 / (n + 1)) * np.sin(np.pi * k / (n + 1))


def _dst(c: np.ndarray) -> np.ndarray:
    """S @ c for a complex vector c: one batched real FFT of the odd
    extensions of its real and imaginary parts."""
    n = c.size
    ext = np.zeros((2, 2 * (n + 1)))
    ext[:, 1 : n + 1] = c.real, c.imag
    ext[:, n + 2 :] = -ext[:, n:0:-1]
    sines = np.fft.rfft(ext)[:, 1 : n + 1].imag * -math.sqrt(0.5 / (n + 1))
    return sines[0] + 1j * sines[1]


def splu(t: float, potential: float, gvec: np.ndarray, lam: complex):
    """Factor the Crank-Nicolson step for the state [phi1; c], c = S phi2;
    bench/tracing.py hooks it.

    Channel 1's block A1 = 1 + lam T is tridiagonal and strictly diagonally
    dominant (|1 + 2 lam t| > 2 |lam t| for imaginary lam), so zgttrf
    factors it once with no row swaps: A1 = L D U, L unit lower and U unit
    upper bidiagonal, and A1^-1 = U^-1 (D^-1 L D)^-1 D^-1.  Each of the two
    unit-bidiagonal sweeps is unrolled by two (recursive doubling): from
    x[i] = b[i] + a[i] x[i-1] follows x[i] = (b[i] + a[i] b[i-1]) +
    a[i] a[i-1] x[i-2], so one ztbsv runs over every other row with the
    two-step coefficients, and one vectorized pass fills the rows between.
    The forward sweep solves the even rows, the backward one the rows of
    n - 1's parity.  The step's 2 D^-1, its right-hand side at the coupled
    cells and its final - phi1 are folded into those passes, which write
    into buffers made here, with no division.  Channel 2's block
    1 + lam (T + V) is diagonal in the sine basis,
    Lam2 = 1 + lam (2t + V - 2t cos(pi m/(n+1))), so channel 2 is
    eliminated exactly.  With P = S[cells, :] and K = lam g on the r
    coupled cells, (1 + lam H)^-1 [b1; b2] is [y + W1 s; Lam2^-1 b2 + W2 s]:
    y = A1^-1 (b1 - E K P Lam2^-1 b2), s = y[cells], and W = [W1; W2] is
    the exact Woodbury correction built from Z = A1^-1 E and
    M = K P Lam2^-1 P^T K.

    ``solve(psi)`` overwrites psi with one whole step,
    (1 + lam H)^-1 (1 - lam H) psi = 2 (1 + lam H)^-1 psi - psi, and
    returns it: with b = 2 psi, phi1 <- y + W1 s - phi1 and
    c <- u c + W2 s, u = 2 Lam2^-1 - 1 being each sine mode's Cayley
    factor.  That is one A1 solve, one multiply of c by u, and a zdotu and
    a zaxpy per coupled cell.  With no coupled cell channel 2 is not
    carried, and the step is 2 A1^-1 phi1 - phi1; ``size`` is the state's
    length, 2n or n.  scipy is imported here, when called, and by ``_run``
    when handed the step, so every other name imports on numpy alone.
    """
    from scipy.linalg.blas import zaxpy, zdotu, ztbsv
    from scipy.linalg.lapack import zgttrf

    n = gvec.size
    off = np.full(n - 1, -lam * t)
    dl, d, du, du2, ipiv, info = zgttrf(off, np.full(n, 1.0 + lam * (2.0 * t)), off)
    if info or du2.any() or np.any(ipiv != np.arange(1, n + 1)):
        raise DomainError(
            f"the channel-1 step matrix 1 + lam T needed row swaps at "
            f"lam t = {lam * t}; use a smaller dt or fewer grid points"
        )
    inv_d = 1.0 / d
    # x[i] = b[i] + low[i] x[i-1] rising, then x[i] += up[i] x[i+1] falling,
    # is A1^-1 D b; band holds both sweeps' two-step coefficients.
    low, up = np.pad(-dl * d[:-1] / d[1:], (1, 0)), np.pad(-du / d[:-1], (0, 1))
    m, q = (n + 1) // 2, (n - 1) % 2
    even, odd = np.empty(m, dtype=complex), np.empty(n // 2, dtype=complex)
    half = (even, odd)  # x[0::2], x[1::2]
    band = np.zeros((2, m), dtype=complex, order="F")
    band[1, :-1] = -low[2::2] * low[1::2][: m - 1]
    band[0, 1:] = -up[q::2][:-1] * up[q + 1 :: 2][: m - 1]
    tmp = np.empty(m, dtype=complex)

    def fold(target, coef, source):
        """The pass target += coef * source, through tmp."""
        return target, coef.copy(), source, tmp[: target.size]

    back, between = half[q], half[1 - q]  # the backward sweep's rows, and the rest
    stages = (  # (two-step right-hand side, solved rows, lower, rows between)
        (fold(even[1:], low[2::2], odd[: m - 1]), even, 1,
         fold(odd, low[1::2], even[: n // 2])),
        (fold(back[:-1], up[q:-1:2], between[q : q + m - 1]), back, 0,
         fold(between, up[1 - q :: 2], back[1 - q :])),
    )
    twice_inv_d = (2.0 * inv_d[0::2], 2.0 * inv_d[1::2])

    def sweeps(phi1: np.ndarray, kicks) -> list:
        """phi1 <- A1^-1 (2 phi1 + D e kicks) - phi1 in place, e the
        coupled cells' columns of the identity; returns A1^-1 (...) at the
        cells."""
        for i in (0, 1):
            np.multiply(phi1[i::2], twice_inv_d[i], out=half[i])
        for (i, j), kick in zip(spots, kicks):
            half[i][j] += kick
        for (target, coef, source, out), solved, lower, after in stages:
            np.multiply(coef, source, out=out)
            np.add(target, out, out=target)
            ztbsv(1, band, solved, lower=lower, diag=1, overwrite_x=1)
            target, coef, source, out = after
            np.multiply(coef, source, out=out)
            np.add(target, out, out=target)
        s = [half[i][j] for i, j in spots]
        for i in (0, 1):
            np.subtract(half[i], phi1[i::2], out=phi1[i::2])
        return s

    cells = np.flatnonzero(gvec)
    spots = [(site % 2, site // 2) for site in cells.tolist()]
    r = cells.size
    n2 = n if r else 0  # channel 2's order: carried only when a cell is coupled
    kg = lam * gvec[cells]
    modes = np.cos(np.pi * np.arange(1, n2 + 1) / (n2 + 1))
    inv2 = 1.0 / (1.0 + lam * (2.0 * t + potential - 2.0 * t * modes))
    u = 2.0 * inv2 - 1.0
    p = _sine_rows(n2, cells)
    pl = p * inv2  # P Lam2^-1, one contiguous row per cell
    z = np.zeros((n, r), dtype=complex, order="F")
    for column, kicks in zip(z.T, np.diag(inv_d[cells])):
        sweeps(column, kicks)  # A1^-1 e_cell
    zc = z[cells]
    couple = kg[:, None] * (pl @ p.T) * kg
    gain = np.linalg.solve(np.eye(r) - couple @ zc, couple)
    w = np.empty((n + n2, r), dtype=complex, order="F")
    w[:n] = z @ gain
    w[n:] = -pl.T @ (kg[:, None] * (np.eye(r) + zc @ gain))
    # W's subnormal tails carry no significant bits but slow products 100x
    w[np.abs(w) < np.finfo(float).tiny] = 0.0
    gains = (-2.0 * kg * inv_d[cells]).tolist()
    rows, columns = list(pl), list(w.T)

    def solve(psi: np.ndarray) -> np.ndarray:
        c = psi[n:]
        s = sweeps(psi[:n], [gain * zdotu(row, c) for gain, row in zip(gains, rows)])
        c *= u
        for column, y in zip(columns, s):
            zaxpy(column, psi, a=y)
        return psi

    return SimpleNamespace(solve=solve, size=n + n2)


def _frame_writer(handle, x: np.ndarray):
    """Write the CSV header to the binary ``handle``; ``write(t, dens)``
    then writes one frame of the (n, 2) density table ``dens``.

    A frame has rows (t, x, dens[:, 0], dens[:, 1]), byte for byte the
    output of np.savetxt(fmt="%.15g", delimiter=",").  Blocks of at most
    _FRAME_BLOCK rows, so that the buffers stay under a megabyte, are
    formatted into one (block, 4, WIDTH) row buffer made once per run: t's
    field by ``%``, once per frame; x's fields, once per run, and the
    densities by ``g15.Fields``, an exact array-wide ``%.15g`` that hands
    each value it cannot settle exactly (about one in 460,000 in the CLI's
    default run) to ``%`` itself.
    """
    from .g15 import WIDTH, Fields  # its tables are built on the first frame writer

    handle.write(b"t,x,density1,density2\n")
    n = x.size
    block = min(n, _FRAME_BLOCK)
    xs = np.empty((n, WIDTH), dtype=np.uint8)  # NUL-padded "x," fields
    fields = Fields(block, b",")
    for start in range(0, n, block):
        fields(x[start : start + block], xs[start : start + block])
    fields = Fields(2 * block, b",\n")
    rows = np.empty((block, 4, WIDTH), dtype=np.uint8)

    def write(t: float, dens: np.ndarray) -> None:
        rows[:, 0] = np.frombuffer((b"%.15g," % t).ljust(WIDTH, b"\0"), dtype=np.uint8)
        for start in range(0, n, block):
            m = min(block, n - start)
            rows[:m, 1] = xs[start : start + m]
            fields(dens[start : start + m], rows[:m, 2:])
            handle.write(rows[:m].tobytes().translate(None, b"\0"))

    return write


def _run(psi0: np.ndarray, x: np.ndarray, dx: float, step, grid: GridSpec,
         start: int, snapshot_path: str | Path | None = None, stride: int = 1):
    """Propagate psi0 by ``splu``'s ``step``, whose ``solve`` advances a
    state of ``size`` in place, channel 2 carried when that exceeds n;
    return (t_arrival, norm_drift, transmitted_mass), t_arrival when the
    centroid over x[start:] arrives.

    The step comes factored, so the snapshot file opens only after the
    factorization; it is removed if the run raises, a NoCrossingError
    included (unless it is not a regular file or could not be opened), so
    a run that does not arrive leaves no file behind.  A snapshot writes
    |phi1|^2 and |S phi2|^2 in place into one (n, 2) table, which the
    frame writer formats as it stands.
    """
    n = x.size
    carried = step.size > n  # channel 2, only when a cell is coupled
    from scipy.linalg.blas import ddot, dgemv, zdotu  # loaded by splu

    # [phi1; S phi2]: the norm is the stacked vector's (S is orthogonal).
    # flat and tail view psi as interleaved (re, im) floats.  Every sum
    # runs in scipy's BLAS, the OpenBLAS of the solves: numpy's BLAS is a
    # second library whose thread pool, once woken, competes with scipy's
    # for the cores during the next solve.
    psi = np.pad(psi0, (0, step.size - n))
    flat = psi.view(float)
    tail = flat[2 * start : 2 * n]
    tail_dens = np.empty_like(tail)
    moments = np.ones((tail.size, 2), order="F")  # columns [1, x] of the tail
    moments[:, 1] = np.repeat(x[start:], 2)
    sines = psi[n:]
    first_row, last_row = _sine_rows(n, [0, n - 1]).astype(complex)
    times_out = grid.dt * np.arange(grid.steps + 1)
    cents = np.full(grid.steps + 1, np.nan)
    dens = np.zeros((n, 2))  # |phi1|^2, |S phi2|^2 (0 if uncoupled) of a snapshot
    drift = mass = 0.0

    def observe(k: int) -> None:
        nonlocal drift, mass
        t = times_out[k]
        err = abs(ddot(flat, flat) * dx - 1.0)
        if not err <= _DRIFT_TOL:
            raise NormDriftError(
                f"norm drifted by {err:.3e} at t={t} (tolerance {_DRIFT_TOL})"
            )
        drift = max(drift, err)
        left, right = abs(psi[0]) ** 2, abs(psi[n - 1]) ** 2
        if carried:
            left += abs(zdotu(first_row, sines)) ** 2
            right += abs(zdotu(last_row, sines)) ** 2
        edge = max(left, right)
        if edge > _EDGE_TOL:
            raise BoundaryContaminationError(
                f"edge density {edge:.3e} exceeds {_EDGE_TOL} at t={t}; "
                "enlarge the domain or shorten the run"
            )
        np.multiply(tail, tail, out=tail_dens)
        total, moment = dgemv(1.0, moments, tail_dens, trans=1)
        mass = total * dx
        if mass > _MASS_FLOOR:
            cents[k] = moment / total
        if write is not None and k % stride == 0:
            np.abs(psi[:n], out=dens[:, 0])
            if carried:
                np.abs(_dst(sines), out=dens[:, 1])
            np.square(dens, out=dens)
            write(t, dens)

    handle = nullcontext() if snapshot_path is None else open(snapshot_path, "wb")
    try:
        with handle:
            write = None if snapshot_path is None else _frame_writer(handle, x)
            observe(0)
            for k in range(1, grid.steps + 1):
                step.solve(psi)
                observe(k)
        return _crossing_time(times_out, cents, grid.half_length / 2.0), float(drift), float(mass)
    except BaseException:  # a device or pipe such as /dev/null is kept
        if snapshot_path is not None and Path(snapshot_path).is_file():
            Path(snapshot_path).unlink(missing_ok=True)
        raise


def _crossing_time(ts: np.ndarray, cs: np.ndarray, plane: float) -> float:
    """First linear-interpolated crossing of the detector plane; a NaN
    centroid (too little transmitted mass) fails both comparisons."""
    crossings = np.flatnonzero((cs[:-1] < plane) & (plane <= cs[1:]))
    if not crossings.size:
        raise NoCrossingError(
            "transmitted centroid never crossed the detector plane; "
            "increase grid.steps or enlarge the domain"
        )
    i = crossings[0]
    frac = (plane - cs[i]) / (cs[i + 1] - cs[i])
    return float(ts[i] + frac * (ts[i + 1] - ts[i]))


def propagate(
    packet: PacketSpec,
    p: ModelParams,
    width: float,
    grid: GridSpec,
    snapshot_path: str | Path | None = None,
    snapshot_stride: int = 50,
) -> DelayResult:
    """Measure the coupling-induced arrival delay at the detector plane.

    Runs the coupled configuration, then a free reference on the same grid
    (none if the coupled run raises, as when it never arrives), and returns
    the centroid-crossing delay, the worst norm drift of the coupled run
    and the transmitted fraction at the end of the run.  The hopping
    t = hbar**2 / (2 m dx**2) and the Cayley factor lam = i dt / (2 hbar)
    are computed once, here; the free reference (``_free_arrival``) runs
    once per packet, grid, t, lam and strip edge and is reused by later
    calls that share them.  When ``snapshot_path`` is given, rows (t, x,
    |phi1|^2, |phi2|^2) of the coupled run are dumped every
    ``snapshot_stride`` steps, a count from 1 (``params._as_count``: a
    float or a bool raises TypeError).  Parameter arrays of any shape but
    () are refused with DomainError before any run.
    """
    p = p._one_configuration("propagate")
    if not 0.0 < width <= 1e-2:
        raise ValueError(
            f"regularization width must lie in (0, 1e-2], got {width!r}"
        )
    e0 = packet.central_energy(p)
    if e0 >= p.potential:
        raise DomainError(
            f"packet central energy {e0} must stay below the threshold "
            f"{p.potential}"
        )
    spread = p.ops.muldiv(p._power("hbar", 2), packet.wavenumber, p.mass * packet.sigma)
    budget = 0.1 * min(e0, p.potential - e0)
    if spread > budget:
        raise ValueError(
            f"packet too broadband: energy spread {spread:.3e} exceeds "
            f"0.1 * min(E0, V - E0) = {budget:.3e}; widen sigma"
        )
    stride = _as_count("snapshot_stride", snapshot_stride, 1)

    x, dx, psi0 = _initial_state(packet, grid)
    if not 2.0 * p.mass * dx**2 > 0.0:
        raise ValueError(f"2 m dx**2 underflows to 0 at mass={p.mass}, dx={dx}")
    hop = p._power("hbar", 2) / (2.0 * p.mass * dx**2)
    lam = 1j * grid.dt / (2.0 * p.hbar)
    start = int(np.searchsorted(x, p.center + width / 2.0, side="right"))

    step = splu(hop, p.potential, _coupling_cells(x, dx, p, width), lam)
    t_arrival, drift, transmitted = _run(psi0, x, dx, step, grid, start, snapshot_path, stride)
    t_free = _free_arrival(packet, grid, hop, lam, start)
    return DelayResult(
        t_arrival=t_arrival,
        t_free=t_free,
        delay=t_arrival - t_free,
        norm_drift=drift,
        transmitted_fraction=transmitted,
    )


def _initial_state(packet: PacketSpec, grid: GridSpec):
    """The grid x, its spacing dx and the packet psi0 on it, normalized."""
    reach = grid.half_length - packet.center  # the largest |x - x0| on the grid
    if not (reach * reach < math.inf and packet.wavenumber * reach < math.inf):
        raise ValueError(f"(half-domain - x0)**2 or k (half-domain - x0) overflows at half-"
                         f"domain {grid.half_length}, x0={packet.center}, k={packet.wavenumber}")
    x = np.linspace(-grid.half_length, grid.half_length, grid.points)
    dx = float(x[1] - x[0])
    with np.errstate(over="ignore"):  # exp(-inf) = 0 is the Gaussian's value there
        envelope = np.exp(-((x - packet.center) ** 2) / (4.0 * packet.sigma**2))
    psi0 = envelope * np.exp(1j * packet.wavenumber * x)
    norm = float(np.sum(np.abs(psi0) ** 2)) * dx
    if not 0.0 < norm < math.inf:
        raise ValueError(
            f"packet at x0={packet.center}, sigma={packet.sigma} has norm {norm} "
            f"on the grid of half-domain {grid.half_length}; move x0 inside it"
        )
    psi0 /= math.sqrt(norm)
    return x, dx, psi0


@functools.lru_cache(maxsize=16)
def _free_arrival(packet: PacketSpec, grid: GridSpec, hop: float, lam: complex,
                  start: int) -> float:
    """Crossing time of the free reference run: the coupling off, on the grid.

    It factors the r = 0 step, which reads no V, and reads nothing but
    these arguments (``hop`` the hopping t, ``lam`` the Cayley factor,
    ``start`` the first grid index past the strip), so they are its cache
    key: calls that share them, such as sweeps of V, k0 or the width at one
    packet and grid, share one run.  A run that raises caches nothing.  The
    specs store their fields as Python floats and ints, so equal keys mean
    bit-identical runs.
    """
    x, dx, psi0 = _initial_state(packet, grid)
    return _run(psi0, x, dx, splu(hop, 0.0, np.zeros_like(x), lam), grid, start)[0]
