"""Time-dependent arrival-delay measurement with narrow-band packets.

A Gaussian packet in the open channel is propagated through the square
regularized coupling with an implicit Crank-Nicolson step.  On one
uniform grid the Hamiltonian is the model's 2x2 block matrix
[[T, G], [G, T + V]]: T the tridiagonal kinetic block, G the diagonal cell
average of the coupling (which represents strips far narrower than the
grid spacing).  The Cayley step (1 + lam H)^-1 (1 - lam H),
lam = i dt / 2 hbar, is unitary, so the norm is conserved to rounding
(well below 1e-8 per step in the free case).  It is applied as
2 (1 + lam H)^-1 psi - psi, an exact identity.

The closed channel's block T + V is diagonal in the orthonormal sine
(DST-I) basis S, so the state is stored as psi = [phi1; S phi2]: channel 1
on the grid, channel 2 by its sine coefficients.  S is orthogonal, so the
norm is that of the stacked vector; channel 2's edge values are two dot
products with rows of S, and its density on the grid is computed, by one
FFT, only for snapshot frames.  Each step solves channel 1 by two
bidiagonal BLAS sweeps over the LU factors of one pivot-free LAPACK
factorization, plus an exact rank-r Woodbury correction for the r coupled
cells; channel 2 costs O(r n).  Channel 2 is carried only when some cell
is coupled, so the free run solves the open channel alone.  The per-step
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
        converted like the fields (``params._as_float``)."""
        energy = _as_float("energy", energy)
        if energy <= 0.0:
            raise DomainError("packet energy must be positive")
        kbar = math.sqrt(2.0 * p.mass * energy) / p.hbar
        return cls(center=center, wavenumber=kbar, sigma=sigma)

    def central_energy(self, p: ModelParams) -> float:
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
    """S @ c for a complex vector c: one FFT of its odd extension."""
    n = c.size
    ext = np.zeros(2 * (n + 1), dtype=complex)
    ext[1 : n + 1] = c
    ext[n + 2 :] = -c[::-1]
    return np.fft.fft(ext)[1 : n + 1] * (0.5j * math.sqrt(2.0 / (n + 1)))


def splu(t: float, potential: float, gvec: np.ndarray, lam: complex):
    """Factor 1 + lam H for the state [phi1; S phi2]; bench/tracing.py hooks it.

    Channel 1's block A1 = 1 + lam T is tridiagonal and strictly diagonally
    dominant (|1 + 2 lam t| > 2 |lam t| for imaginary lam), so zgttrf
    factors it once with no row swaps: A1 = L D U, L unit lower and U unit
    upper bidiagonal.  Both are kept in one 2 x n band array next to 1/D,
    so each A1^-1 is two in-place ztbsv sweeps around one multiply, with
    no division.  Channel 2's block 1 + lam (T + V) is diagonal in the
    sine basis, Lam2 = 1 + lam (2t + V - 2t cos(pi m/(n+1))), so channel 2
    is carried as S phi2 and eliminated exactly.  With P = S[cells, :] and
    K = lam g on the r coupled cells, channel 1 then solves
    (A1 - E M E^T) phi1 = b1 - E K P Lam2^-1 b2, M = K P Lam2^-1 P^T K,
    by Woodbury with Z = A1^-1 E precomputed, and
    S phi2 = Lam2^-1 (b2 - P^T K phi1[cells]).  ``solve(b)`` overwrites
    the complex vector b with (1 + lam H)^-1 b and returns it: one A1
    solve plus O(r n) work.  Without coupled cells the state is phi1 alone
    and the solve is the A1 solve.  scipy is imported here, when called,
    and by ``_run`` once this has returned, so every other name imports on
    numpy alone.
    """
    from scipy.linalg.blas import zgemv, ztbsv
    from scipy.linalg.lapack import zgttrf

    n = gvec.size
    off = np.full(n - 1, -lam * t)
    dl, d, du, du2, ipiv, info = zgttrf(off, np.full(n, 1.0 + lam * (2.0 * t)), off)
    if info or du2.any() or np.any(ipiv != np.arange(1, n + 1)):
        raise DomainError(
            f"the channel-1 step matrix 1 + lam T needed row swaps at "
            f"lam t = {lam * t}; use a smaller dt or fewer grid points"
        )
    band = np.zeros((2, n), dtype=complex, order="F")
    band[1, :-1] = dl  # L below its unit diagonal
    band[0, 1:] = du / d[:-1]  # U above its unit diagonal
    inv_d = 1.0 / d

    def solve1(b: np.ndarray) -> np.ndarray:
        ztbsv(1, band, b, lower=1, diag=1, overwrite_x=1)
        b *= inv_d
        ztbsv(1, band, b, diag=1, overwrite_x=1)
        return b

    if not gvec.any():
        return SimpleNamespace(solve=solve1)
    cells = np.flatnonzero(gvec)
    r = cells.size
    kg = lam * gvec[cells]
    modes = np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
    inv2 = 1.0 / (1.0 + lam * (2.0 * t + potential - 2.0 * t * modes))
    p = _sine_rows(n, cells)
    q = (inv2 * p).T  # Lam2^-1 P^T
    z = np.zeros((n, r), dtype=complex, order="F")
    z[cells, np.arange(r)] = 1.0
    for column in z.T:
        solve1(column)
    zc = z[cells]
    couple = kg[:, None] * (p @ q) * kg
    gain = np.linalg.solve(np.eye(r) - couple @ zc, couple)
    # both channels' corrections are linear in y[cells], y = A1^-1 (b1 - ...)
    w = np.empty((2 * n, r), dtype=complex, order="F")
    w[:n] = z @ gain
    w[n:] = -q @ (kg[:, None] * (np.eye(r) + zc @ gain))
    # W's subnormal tails carry no significant bits but slow products 100x
    w[np.abs(w) < np.finfo(float).tiny] = 0.0
    pt = np.asfortranarray(p.T, dtype=complex)

    def solve(b: np.ndarray) -> np.ndarray:
        b1, b2 = b[:n], b[n:]
        b2 *= inv2
        b1[cells] -= kg * zgemv(1.0, pt, b2, trans=1)
        solve1(b1)
        return zgemv(1.0, w, b1[cells], beta=1.0, y=b, overwrite_y=1)

    return SimpleNamespace(solve=solve)


def _frame_writer(handle, x: np.ndarray):
    """Write the CSV header; ``write(t, dens)`` then writes one frame.

    A frame, rows (t, x, dens[0], dens[1] or 0), is one ``%`` call over the
    densities.  x is formatted once per run into a template whose t fields
    hold a sentinel, and t once per frame replaces it: the bytes of
    np.savetxt(fmt="%.15g", delimiter=",").
    """
    handle.write("t,x,density1,density2\n")
    template = "".join("\0,%.15g,%%.15g,%%.15g\n" % v for v in x.tolist())
    rows = np.zeros((x.size, 2))

    def write(t: float, dens: np.ndarray) -> None:
        rows[:, : len(dens)] = dens.T
        frame = template.replace("\0", "%.15g" % t)
        handle.write(frame % tuple(rows.ravel().tolist()))

    return write


def _run(psi0: np.ndarray, x: np.ndarray, dx: float, gvec: np.ndarray,
         p: ModelParams, grid: GridSpec, start: int,
         snapshot_path: str | Path | None = None, stride: int = 1):
    """Propagate one configuration, recording the centroid over x[start:].

    The snapshot file is opened only once the step operator is factored,
    so a run that cannot start leaves no file behind.
    """
    n = x.size
    chans = 2 if gvec.any() else 1
    t = p._power("hbar", 2) / (2.0 * p.mass * dx**2)
    lam = 1j * grid.dt / (2.0 * p.hbar)
    backward = splu(t, p.potential, gvec, lam)
    from scipy.linalg.blas import ddot, dgemv, zdotu  # loaded by splu

    # [phi1; S phi2]: the norm is the stacked vector's (S is orthogonal).
    # flat and tail view psi as interleaved (re, im) floats.  Every sum
    # runs in scipy's BLAS, the OpenBLAS of the solves: numpy's BLAS is a
    # second library whose thread pool, once woken, competes with scipy's
    # for the cores during the next solve.
    psi = np.pad(psi0, (0, (chans - 1) * n))
    half = np.empty_like(psi)
    flat = psi.view(float)
    tail = flat[2 * start : 2 * n]
    tail_dens = np.empty_like(tail)
    moments = np.ones((tail.size, 2), order="F")  # columns [1, x] of the tail
    moments[:, 1] = np.repeat(x[start:], 2)
    sines = psi[n:]
    first_row, last_row = _sine_rows(n, [0, n - 1]).astype(complex)
    times_out = grid.dt * np.arange(grid.steps + 1)
    cents = np.full(grid.steps + 1, np.nan)
    drift = mass = 0.0

    def densities() -> np.ndarray:
        dens = [np.abs(psi[:n]) ** 2]
        if chans == 2:
            dens.append(np.abs(_dst(sines)) ** 2)
        return np.array(dens)

    def observe(step: int) -> None:
        nonlocal drift, mass
        t = times_out[step]
        err = abs(ddot(flat, flat) * dx - 1.0)
        if not err <= _DRIFT_TOL:
            raise NormDriftError(
                f"norm drifted by {err:.3e} at t={t} (tolerance {_DRIFT_TOL})"
            )
        drift = max(drift, err)
        left, right = abs(psi[0]) ** 2, abs(psi[n - 1]) ** 2
        if chans == 2:
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
            cents[step] = moment / total
        if write is not None and step % stride == 0:
            write(t, densities())

    with (nullcontext() if snapshot_path is None else
          open(snapshot_path, "w", encoding="utf-8", newline="\n")) as handle:
        write = None if handle is None else _frame_writer(handle, x)
        observe(0)
        for step in range(1, grid.steps + 1):
            np.multiply(psi, 2.0, out=half)
            backward.solve(half)
            np.subtract(half, psi, out=psi)
            observe(step)

    return times_out, cents, float(drift), float(mass)


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

    Runs the coupled configuration and a free reference on the same grid
    and returns the centroid-crossing delay, the worst norm drift of the
    coupled run and the transmitted fraction at the end of the run.  The
    free reference runs once per packet, grid, hbar, mass and strip edge
    and is reused by later calls that share them (``_free_arrival``).  When
    ``snapshot_path`` is given, rows (t, x, |phi1|^2, |phi2|^2) of the
    coupled run are dumped every ``snapshot_stride`` steps, a count from 1
    (``params._as_count``: a float or a bool raises TypeError).
    """
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
    if not 2.0 * p.mass * dx**2 > 0.0:  # the hopping hbar**2 / (2 m dx**2)
        raise ValueError(f"2 m dx**2 underflows to 0 at mass={p.mass}, dx={dx}")
    start = int(np.searchsorted(x, p.center + width / 2.0, side="right"))

    gvec = _coupling_cells(x, dx, p, width)
    ts, cs, drift, transmitted = _run(
        psi0, x, dx, gvec, p, grid, start, snapshot_path, stride
    )
    # float(): a 0-d array field is unhashable, and the key must be exact
    t_free = _free_arrival(packet, grid, float(p.hbar), float(p.mass), start)
    t_arrival = _crossing_time(ts, cs, grid.half_length / 2.0)
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
def _free_arrival(packet: PacketSpec, grid: GridSpec, hbar: float, mass: float,
                  start: int) -> float:
    """Crossing time of the free reference run: the coupling off, on the grid.

    The free run reads nothing but these arguments (``start`` is the first
    grid index past the strip), so calls that share them, such as sweeps of
    V, k0 or the width at one packet and grid, share one run.  A run that
    raises caches nothing.  The specs store their fields as Python floats
    and ints, so equal keys mean bit-identical runs.
    """
    x, dx, psi0 = _initial_state(packet, grid)
    free = ModelParams(0.0, 1.0, 0.0, mass=mass, hbar=hbar)  # E, V, k0 unread at k0 = 0
    ts, cs, _, _ = _run(psi0, x, dx, np.zeros_like(x), free, grid, start)
    return _crossing_time(ts, cs, grid.half_length / 2.0)
