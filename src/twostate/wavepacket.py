"""Time-dependent arrival-delay measurement with narrow-band packets.

A Gaussian packet in the open channel is propagated through the square
regularized coupling with an implicit Crank-Nicolson step.  On one
uniform grid the Hamiltonian is the model's 2x2 block matrix
[[T, G], [G, T + V]]: T the tridiagonal kinetic block, G the diagonal cell
average of the coupling (which represents strips far narrower than the
grid spacing).  The Cayley step (1 + lam H)^-1 (1 - lam H),
lam = i dt / 2 hbar, is unitary, so the norm is conserved to rounding
(well below 1e-8 per step in the free case).

Both blocks T and T + V are diagonal in the orthonormal sine (DST-I)
basis S, so the state is stored as its sine coefficients
c = [S phi1; S phi2], and the step is one multiply per mode followed by
an exact Woodbury correction of rank 2r for the r coupled cells.  S is
orthogonal, so the norm is that of c, and the edge values are dot
products with S's first and last rows.  Channel 1 on the grid, one batched
real FFT, is computed only where the centroid or a snapshot frame reads
it.  Channel 2 is carried only when some cell is coupled, so the free run,
the r = 0 case of the same step, carries the open channel alone.  The
package needs numpy and the standard library only.

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
_OBSERVE_STRIDE = 50  # steps between the centroid's observations
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
    """The Crank-Nicolson step on the sine coefficients c = [S phi1; S phi2].

    The name is that of the sparse LU factor the step once was, kept
    because bench/tracing.py hooks ``wavepacket.splu`` to time the step's
    set-up and count its ``solve`` calls.

    In the sine basis H is D + U C U^T.  D is diagonal: channel 1's mode
    energies 4t sin^2(theta / 2), theta = pi m / (n+1), m = 1..n, and
    channel 2's, the same shifted by V.  (The equal form 2t - 2t cos(theta)
    loses up to 2 eps / theta^2 of relative accuracy at the lowest modes.)
    U = blockdiag(P^T, P^T) with P = S[cells, :], and C = [[0, g], [g, 0]]
    holds the r coupled cells' couplings g.  By the Woodbury identity the
    whole step 2 (1 + lam H)^-1 - 1 is exactly c <- u c - W K W^T c, with
    u = 2 (1 + lam D)^-1 - 1 each mode's Cayley factor,
    W = (1 + lam D)^-1 U and K = 2 (I + lam C U^T W)^-1 lam C, all built
    here once.  Each column of W touches one channel only, so a step is
    one multiply by u and, per column, a dot and an axpy of length n.

    ``solve(c)`` overwrites c with one step and returns it.  With no
    coupled cell channel 2 is not carried and the step is c <- u c;
    ``size`` is the state's length, 2n or n.
    """
    n = gvec.size
    cells = np.flatnonzero(gvec)
    r = cells.size
    channels = 2 if r else 1
    theta = np.pi * np.arange(1, n + 1) / (n + 1)
    energies = 4.0 * t * np.sin(theta / 2) ** 2 + potential * np.arange(channels)[:, None]
    inv = 1.0 / (1.0 + lam * energies)  # (1 + lam D)^-1, one row per channel
    u = (2.0 * inv - 1.0).ravel()
    p = _sine_rows(n, cells)
    w = inv[:, None, :] * p  # W's columns, each on its channel's n modes
    utw = np.zeros((channels * r, channels * r), dtype=complex)
    for i, block in enumerate(w @ p.T):  # U^T W is block diagonal
        utw[i * r : (i + 1) * r, i * r : (i + 1) * r] = block
    lam_c = lam * np.kron(1.0 - np.eye(channels), np.diag(gvec[cells]))
    k = 2.0 * np.linalg.solve(np.eye(channels * r) + lam_c @ utw, lam_c)
    columns = [(i, column) for i, block in enumerate(w) for column in block]

    def solve(c: np.ndarray) -> np.ndarray:
        parts = c.reshape(channels, n)
        y = k @ [column @ parts[i] for i, column in columns]
        c *= u
        for (i, column), yj in zip(columns, y.tolist()):
            parts[i] -= yj * column
        return c

    return SimpleNamespace(solve=solve, size=channels * n)


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
    """Propagate psi0 by ``splu``'s ``step``, whose ``solve`` advances the
    sine coefficients [S phi1; S phi2] in place (S phi1 alone when its
    ``size`` is n); return (t_arrival, norm_drift, transmitted_mass),
    t_arrival when the centroid over x[start:] arrives.

    The norm, ||c||^2 dx, and the edge densities, dot products with S's
    first and last rows in each channel, are checked at every step.  The
    centroid needs channel 1 on the grid, one ``_dst``, so it is observed
    every _OBSERVE_STRIDE steps and at the last step, whose transmitted
    mass is returned.  Where an observed centroid is at or past the
    detector plane and the one before was not, that bracket is replayed
    from a copy of the state at its start, with the centroid at every
    step, and ``_crossing_time`` finds the crossing in it.  This assumes
    that the centroid does not cross the plane and come back within one
    stride.

    The step comes ready, so the snapshot file opens only after it is
    built; it is removed if the run raises, a NoCrossingError included
    (unless it is not a regular file or could not be opened), so a run
    that does not arrive leaves no file behind.  A frame writes |phi1|^2
    and |phi2|^2 in place into one (n, 2) table, which the frame writer
    formats as it stands; on an observed step it reuses channel 1 on the
    grid.
    """
    n = x.size
    c = np.zeros(step.size, dtype=complex)
    c[:n] = _dst(psi0)
    parts = c.reshape(-1, n)  # S phi1, and S phi2 when carried
    edge_rows = _sine_rows(n, [0, n - 1]).astype(complex)  # not cast at every dot
    times_out = grid.dt * np.arange(grid.steps + 1)
    cents = np.full(grid.steps + 1, np.nan)
    plane = grid.half_length / 2.0
    dens = np.zeros((n, 2))  # |phi1|^2, |phi2|^2 (0 if uncoupled) of a frame
    drift = 0.0

    def guard(k: int) -> None:
        nonlocal drift
        t = times_out[k]
        # per channel: one dot over all 2n values runs threaded in OpenBLAS
        err = abs(sum(np.vdot(part, part).real for part in parts) * dx - 1.0)
        if not err <= _DRIFT_TOL:
            raise NormDriftError(
                f"norm drifted by {err:.3e} at t={t} (tolerance {_DRIFT_TOL})"
            )
        drift = max(drift, err)
        edge = max(sum(abs(row @ part) ** 2 for part in parts) for row in edge_rows)
        if edge > _EDGE_TOL:
            raise BoundaryContaminationError(
                f"edge density {edge:.3e} exceeds {_EDGE_TOL} at t={t}; "
                "enlarge the domain or shorten the run"
            )

    def centroid(state: np.ndarray, k: int):
        """Channel 1 of ``state`` on the grid and its transmitted mass;
        cents[k] is set where the mass exceeds _MASS_FLOOR."""
        phi1 = _dst(state[:n])
        tail = phi1[start:]
        tail_dens = tail.real**2 + tail.imag**2
        total = tail_dens.sum()
        if total * dx > _MASS_FLOOR:
            cents[k] = x[start:] @ tail_dens / total
        return phi1, total * dx

    handle = nullcontext() if snapshot_path is None else open(snapshot_path, "wb")
    try:
        with handle:
            write = None if snapshot_path is None else _frame_writer(handle, x)
            saved, since = c.copy(), 0  # the state at the last observed step
            for k in range(grid.steps + 1):
                if k:
                    step.solve(c)
                guard(k)
                phi1 = None
                if k % _OBSERVE_STRIDE == 0 or k == grid.steps:
                    phi1, mass = centroid(c, k)
                    if cents[k] >= plane and not cents[since] >= plane:
                        for j in range(since + 1, k):
                            centroid(step.solve(saved), j)
                    saved[:] = c
                    since = k
                if write is not None and k % stride == 0:
                    np.abs(_dst(c[:n]) if phi1 is None else phi1, out=dens[:, 0])
                    if len(parts) > 1:
                        np.abs(_dst(parts[1]), out=dens[:, 1])
                    np.square(dens, out=dens)
                    write(times_out[k], dens)
        return _crossing_time(times_out, cents, plane), float(drift), float(mass)
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

    It builds the r = 0 step, which reads no V, and reads nothing but
    these arguments (``hop`` the hopping t, ``lam`` the Cayley factor,
    ``start`` the first grid index past the strip), so they are its cache
    key: calls that share them, such as sweeps of V, k0 or the width at one
    packet and grid, share one run.  A run that raises caches nothing.  The
    specs store their fields as Python floats and ints, so equal keys mean
    bit-identical runs.
    """
    x, dx, psi0 = _initial_state(packet, grid)
    return _run(psi0, x, dx, splu(hop, 0.0, np.zeros_like(x), lam), grid, start)[0]
