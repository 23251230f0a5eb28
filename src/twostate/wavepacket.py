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
FFT, only for snapshot frames.  Each step is one tridiagonal LAPACK solve
of channel 1 plus an exact rank-r Woodbury correction for the r coupled
cells; channel 2 costs O(r n).  Channel 2 is carried only when some cell
is coupled, so the free run solves the open channel alone.

The arrival time is the instant the centroid of the transmitted density
(open channel restricted to the far side of the strip) crosses the
detector plane at half the domain radius.  A free run with the coupling
switched off on the same grid supplies the reference; the reported delay
is the difference and converges to the analytic group delay in the
narrow-band limit, with a finite-bandwidth bias well inside 25%.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .params import DomainError, ModelParams, RunGuardError

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
    """

    center: float
    wavenumber: float
    sigma: float

    def __post_init__(self) -> None:
        if not all(
            math.isfinite(v) for v in (self.center, self.wavenumber, self.sigma)
        ):
            raise ValueError("packet parameters must be finite")
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
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
        """Packet whose carrier wavenumber matches a target central energy."""
        if energy <= 0.0:
            raise DomainError("packet energy must be positive")
        kbar = math.sqrt(2.0 * p.mass * energy) / p.hbar
        return cls(center=center, wavenumber=kbar, sigma=sigma)

    def central_energy(self, p: ModelParams) -> float:
        return (p.hbar * self.wavenumber) ** 2 / (2.0 * p.mass)


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid [-half_length, half_length] with fixed step count."""

    half_length: float
    points: int = 2048
    dt: float = 0.25
    steps: int = 2000

    def __post_init__(self) -> None:
        if not (math.isfinite(self.half_length) and math.isfinite(self.dt)):
            raise ValueError(
                f"half_length and dt must be finite, got {self.half_length} "
                f"and {self.dt}"
            )
        if self.half_length <= 0.0:
            raise ValueError("half_length must be positive")
        if self.points < 128:
            raise ValueError("need at least 128 grid points")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")


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

    Channel 1's block A1 = 1 + lam T is tridiagonal and factored once by
    zgttrf.  Channel 2's block 1 + lam (T + V) is diagonal in the sine
    basis, Lam2 = 1 + lam (2t + V - 2t cos(pi m/(n+1))), so channel 2 is
    carried as S phi2 and eliminated exactly.  With P = S[cells, :] and
    K = lam g on the r coupled cells, channel 1 then solves
    (A1 - E M E^T) phi1 = b1 - E K P Lam2^-1 b2, M = K P Lam2^-1 P^T K,
    by Woodbury with Z = A1^-1 E precomputed, and
    S phi2 = Lam2^-1 (b2 - P^T K phi1[cells]).  ``solve(b)`` overwrites
    the complex vector b with (1 + lam H)^-1 b and returns it: one n-row
    zgttrs plus O(r n) work.  Without coupled cells the state is phi1
    alone and the solve is the zgttrs.  scipy is imported here, when
    called, and nowhere else in the package, so every other name imports
    on numpy alone.
    """
    from scipy.linalg.blas import zgemv
    from scipy.linalg.lapack import zgttrf, zgttrs

    n = gvec.size
    off = np.full(n - 1, -lam * t)
    lu = zgttrf(off, np.full(n, 1.0 + lam * (2.0 * t)), off)[:5]
    if not gvec.any():
        return SimpleNamespace(solve=lambda b: zgttrs(*lu, b, overwrite_b=1)[0])
    cells = np.flatnonzero(gvec)
    r = cells.size
    kg = lam * gvec[cells]
    modes = np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
    inv2 = 1.0 / (1.0 + lam * (2.0 * t + potential - 2.0 * t * modes))
    p = _sine_rows(n, cells)
    q = (inv2 * p).T  # Lam2^-1 P^T
    z = np.zeros((n, r), dtype=complex, order="F")
    z[cells, np.arange(r)] = 1.0
    z = zgttrs(*lu, z, overwrite_b=1)[0]
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
        zgttrs(*lu, b1, overwrite_b=1)
        return zgemv(1.0, w, b1[cells], beta=1.0, y=b, overwrite_y=1)

    return SimpleNamespace(solve=solve)


def _frame_writer(handle, x: np.ndarray):
    """Write the CSV header; ``write(t, dens)`` then writes one frame.

    A frame, rows (t, x, dens[0], dens[1] or 0), is one ``%`` call with x
    formatted once per run: the bytes of np.savetxt(fmt="%.15g", delimiter=",").
    """
    handle.write("t,x,density1,density2\n")
    template = "".join("%%.15g,%.15g,%%.15g,%%.15g\n" % v for v in x.tolist())
    rows = np.zeros((x.size, 3))

    def write(t: float, dens: np.ndarray) -> None:
        rows[:, 0] = t
        rows[:, 1 : 1 + len(dens)] = dens.T
        handle.write(template % tuple(rows.ravel().tolist()))

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
    t = p.hbar**2 / (2.0 * p.mass * dx**2)
    lam = 1j * grid.dt / (2.0 * p.hbar)
    backward = splu(t, p.potential, gvec, lam)

    # [phi1; S phi2]: the norm is the stacked vector's (S is orthogonal).
    # flat and tail view psi as interleaved (re, im) floats.  Sums run in
    # einsum, not BLAS: numpy's BLAS thread pool, once woken, competes
    # with scipy's for the cores during the next solve.
    psi = np.pad(psi0, (0, (chans - 1) * n))
    half = np.empty_like(psi)
    flat = psi.view(float)
    tail = flat[2 * start : 2 * n]
    xm = np.repeat(x[start:], 2)
    edge_rows = _sine_rows(n, [0, n - 1]).astype(complex)
    times_out = grid.dt * np.arange(grid.steps + 1)
    cents = np.full(grid.steps + 1, np.nan)
    drift = mass = 0.0

    def densities() -> np.ndarray:
        dens = [np.abs(psi[:n]) ** 2]
        if chans == 2:
            dens.append(np.abs(_dst(psi[n:])) ** 2)
        return np.array(dens)

    def observe(step: int) -> None:
        nonlocal drift, mass
        t = times_out[step]
        err = abs(np.einsum("i,i->", flat, flat) * dx - 1.0)
        if not err <= _DRIFT_TOL:
            raise NormDriftError(
                f"norm drifted by {err:.3e} at t={t} (tolerance {_DRIFT_TOL})"
            )
        drift = max(drift, err)
        ends = np.abs(psi[[0, n - 1]]) ** 2
        if chans == 2:
            ends += np.abs(np.einsum("ij,j->i", edge_rows, psi[n:])) ** 2
        edge = ends.max()
        if edge > _EDGE_TOL:
            raise BoundaryContaminationError(
                f"edge density {edge:.3e} exceeds {_EDGE_TOL} at t={t}; "
                "enlarge the domain or shorten the run"
            )
        mass = np.einsum("i,i->", tail, tail) * dx
        if mass > _MASS_FLOOR:
            cents[step] = np.einsum("i,i,i->", xm, tail, tail) * dx / mass
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
    """First linear-interpolated crossing of the detector plane."""
    valid = np.isfinite(cs)
    for i in range(1, ts.size):
        if not (valid[i - 1] and valid[i]):
            continue
        if cs[i - 1] < plane <= cs[i]:
            frac = (plane - cs[i - 1]) / (cs[i] - cs[i - 1])
            return float(ts[i - 1] + frac * (ts[i] - ts[i - 1]))
    raise NoCrossingError(
        "transmitted centroid never crossed the detector plane; "
        "increase grid.steps or enlarge the domain"
    )


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
    coupled run and the transmitted fraction at the end of the run.  When
    ``snapshot_path`` is given, rows (t, x, |phi1|^2, |phi2|^2) of the
    coupled run are dumped every ``snapshot_stride`` steps.
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
    spread = p.hbar**2 * packet.wavenumber / (p.mass * packet.sigma)
    budget = 0.1 * min(e0, p.potential - e0)
    if spread > budget:
        raise ValueError(
            f"packet too broadband: energy spread {spread:.3e} exceeds "
            f"0.1 * min(E0, V - E0) = {budget:.3e}; widen sigma"
        )
    if snapshot_stride < 1:
        raise ValueError("snapshot stride must be >= 1")

    x = np.linspace(-grid.half_length, grid.half_length, grid.points)
    dx = float(x[1] - x[0])
    start = int(np.searchsorted(x, p.center + width / 2.0, side="right"))
    plane = grid.half_length / 2.0

    envelope = np.exp(-((x - packet.center) ** 2) / (4.0 * packet.sigma**2))
    psi0 = envelope * np.exp(1j * packet.wavenumber * x)
    norm = float(np.sum(np.abs(psi0) ** 2)) * dx
    if not 0.0 < norm < math.inf:
        raise ValueError(
            f"packet at x0={packet.center}, sigma={packet.sigma} has norm {norm} "
            f"on the grid of half-domain {grid.half_length}; move x0 inside it"
        )
    psi0 /= math.sqrt(norm)

    gvec = _coupling_cells(x, dx, p, width)
    ts, cs, drift, transmitted = _run(
        psi0, x, dx, gvec, p, grid, start, snapshot_path, snapshot_stride
    )
    ts_free, cs_free, _, _ = _run(psi0, x, dx, np.zeros_like(gvec), p, grid, start)

    t_arrival = _crossing_time(ts, cs, plane)
    t_free = _crossing_time(ts_free, cs_free, plane)
    return DelayResult(
        t_arrival=t_arrival,
        t_free=t_free,
        delay=t_arrival - t_free,
        norm_drift=drift,
        transmitted_fraction=transmitted,
    )
