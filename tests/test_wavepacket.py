import ast
import dataclasses
import inspect
import math
import os
import re
import stat
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import contract_draw as draw
import numpy as np
import pytest
from needs_scipy import needs_scipy

try:
    import scipy.linalg.lapack
    from scipy import sparse
    from scipy.fft import dst
    from scipy.sparse.linalg import splu as superlu
except ModuleNotFoundError:  # a numpy-only install: the tests marked needs_scipy skip
    pass

from twostate import (
    BoundaryContaminationError,
    DelayResult,
    DomainError,
    GridSpec,
    ModelParams,
    NoCrossingError,
    NormDriftError,
    PacketSpec,
    ReducedParams,
    RunGuardError,
    propagate,
    transmission_probability,
    wavepacket,
)
from twostate.cli import _OPTIONS

# symmetric-point configuration: cheap grid, zero analytic delay
P_COUPLED = ModelParams(energy=1.0, potential=2.0, coupling=1.0)
P_FREE = ModelParams(energy=1.0, potential=2.0, coupling=0.0)
PACKET = PacketSpec.for_energy(1.0, P_COUPLED, sigma=20.0, center=-100.0)
GRID = GridSpec(half_length=300.0, points=3001, dt=0.4, steps=370)
GRID_EVEN = dataclasses.replace(GRID, points=3000)


@pytest.fixture
def fresh_reference():
    """An empty free-run cache before and after the test, for a test that
    substitutes ``splu``, ``_run`` or a tolerance: it must neither read a
    cached t_free nor leave one behind."""
    wavepacket._free_arrival.cache_clear()
    yield
    wavepacket._free_arrival.cache_clear()


@pytest.fixture(scope="module")
def coupled_result():
    return propagate(PACKET, P_COUPLED, width=1e-3, grid=GRID)


@pytest.fixture(scope="module")
def even_result():
    """The coupled run on an even grid, whose strip straddles two cells."""
    return propagate(PACKET, P_COUPLED, width=1e-3, grid=GRID_EVEN)


@pytest.fixture(scope="module")
def free_result():
    return propagate(PACKET, P_FREE, width=1e-3, grid=GRID)


def test_free_run_has_exactly_zero_delay(free_result):
    # coupled and reference propagations coincide bit for bit at k0 = 0
    assert free_result.delay == 0.0
    assert free_result.t_arrival == free_result.t_free
    assert abs(free_result.transmitted_fraction - 1.0) <= 1e-9
    assert free_result.norm_drift <= 1e-8


def test_symmetric_point_delay_is_small(coupled_result):
    # analytic transition time vanishes at the band center
    assert abs(coupled_result.delay) <= 0.05
    assert coupled_result.t_arrival > 0.0
    assert coupled_result.t_free > 0.0


def test_transmitted_fraction_matches_closed_form(coupled_result):
    t2 = transmission_probability(ReducedParams(0.5, 2.0, 1.0))
    assert abs(coupled_result.transmitted_fraction - t2) / t2 <= 1e-2


def test_norm_is_conserved(coupled_result):
    assert coupled_result.norm_drift <= 1e-8


def test_golden_delay_result(coupled_result):
    # pinned to 1e-10 relative; the delay is a difference of two arrival
    # times, so its bound is absolute in units of t_free
    t_free = 130.86787583962737
    assert coupled_result.t_arrival == pytest.approx(130.87009431264295, rel=1e-10)
    assert coupled_result.t_free == pytest.approx(t_free, rel=1e-10)
    assert coupled_result.transmitted_fraction == pytest.approx(
        0.9410359204761304, rel=1e-10
    )
    assert abs(coupled_result.delay - 0.002218473015574318) <= 1e-10 * t_free
    assert coupled_result.norm_drift <= 1e-11


def _length_scaled(s, grid=GRID):
    """The coupled test configuration on ``grid`` with every length times s:
    E and V scale by 1/s**2, k0 by 1/s and dt by s**2, so times scale by s**2."""
    p = dataclasses.replace(P_COUPLED, energy=P_COUPLED.energy / s**2,
                            potential=P_COUPLED.potential / s**2,
                            coupling=P_COUPLED.coupling / s, center=P_COUPLED.center * s)
    packet = PacketSpec(PACKET.center * s, PACKET.wavenumber / s, PACKET.sigma * s)
    grid = dataclasses.replace(grid, half_length=grid.half_length * s, dt=grid.dt * s**2)
    return packet, p, 1e-3 * s, grid, s**2


def _mass_or_hbar_scaled(mass, hbar):
    """The coupled test configuration with m times ``mass`` and hbar times
    ``hbar``: E, V and k0 scale by hbar**2 / mass, so the packet's
    wavenumber keeps its value, and dt, like every time, by mass / hbar."""
    energy, time = hbar**2 / mass, mass / hbar
    p = dataclasses.replace(P_COUPLED, energy=P_COUPLED.energy * energy,
                            potential=P_COUPLED.potential * energy,
                            coupling=P_COUPLED.coupling * energy,
                            mass=P_COUPLED.mass * mass, hbar=P_COUPLED.hbar * hbar)
    return PACKET, p, 1e-3, dataclasses.replace(GRID, dt=GRID.dt * time), time


@pytest.mark.parametrize("configuration, unscaled", [
    pytest.param(lambda: _length_scaled(4.0), "coupled_result", id="length x4"),
    pytest.param(lambda: _length_scaled(0.25), "coupled_result", id="length x1/4"),
    pytest.param(lambda: _mass_or_hbar_scaled(4.0, 1.0), "coupled_result", id="mass x4"),
    pytest.param(lambda: _mass_or_hbar_scaled(1.0, 2.0), "coupled_result", id="hbar x2"),
    # an even grid: two coupled cells, the rank-4 Woodbury correction
    pytest.param(lambda: _length_scaled(4.0, GRID_EVEN), "even_result",
                 id="length x4, even points"),
])
def test_delay_result_scales_exactly_with_the_units(configuration, unscaled, request):
    # powers of two make every product and quotient of the run scale
    # exactly, so each field keeps its bits: times times the factor, the
    # drift and the transmitted fraction unchanged
    packet, p, width, grid, factor = configuration()
    got = propagate(packet, p, width=width, grid=grid)
    base = request.getfixturevalue(unscaled)
    for name, scale in (("t_arrival", factor), ("t_free", factor), ("delay", factor),
                        ("norm_drift", 1.0), ("transmitted_fraction", 1.0)):
        want = scale * getattr(base, name)
        assert getattr(got, name).hex() == want.hex(), name


def test_delay_result_fields_are_float(coupled_result, free_result):
    for result in (coupled_result, free_result):
        for field in dataclasses.fields(DelayResult):
            assert type(getattr(result, field.name)) is float, field.name


def _cayley(t, potential, gvec, lam):
    """The assembled Cayley step in real space: 1 - lam H as CSR and SuperLU's
    factors of 1 + lam H, H the hopping t of channel 1 alone where gvec is
    all 0, else of both channels, coupled by gvec, channel 2 at potential."""
    n = gvec.size
    kinetic = sparse.diags([-t, 2.0 * t, -t], offsets=[-1, 0, 1], shape=(n, n))
    ham = kinetic
    if gvec.any():
        g = sparse.diags(gvec)
        ham = sparse.bmat([[kinetic, g], [g, kinetic + potential * sparse.identity(n)]])
    one = sparse.identity(ham.shape[0])
    return (one - lam * ham).tocsr(), superlu((one + lam * ham).tocsc())


def _superlu_factor(t, potential, gvec, lam):
    """Reference for wavepacket.splu: a Cayley stepper by SuperLU on the
    assembled 1 + lam H.

    ``solve(c)`` overwrites c with (1 + lam H)^-1 (1 - lam H) c.  It steps
    in real space, [phi1; phi2], and maps each channel in and out of the
    sine basis that the package carries the state in.
    """
    n = gvec.size
    forward, lu = _cayley(t, potential, gvec, lam)

    def solve(c):
        real = dst(c.reshape(-1, n), type=1, norm="ortho").ravel()
        c[:] = dst(lu.solve(forward @ real).reshape(-1, n), type=1, norm="ortho").ravel()
        return c

    return SimpleNamespace(solve=solve, size=forward.shape[0])


def test_sine_transform_is_its_own_inverse_and_matches_dense_rows():
    n = 1025
    rng = np.random.default_rng(11)
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    idx = np.arange(1, n + 1)
    dense = math.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(idx, idx) / (n + 1))
    rows = wavepacket._sine_rows(n, np.arange(n))
    assert np.max(np.abs(rows - dense)) <= 1e-13
    assert np.array_equal(rows, rows.T)
    s_c = wavepacket._dst(c)
    assert np.linalg.norm(s_c - dense @ c) <= 1e-13 * np.linalg.norm(c)
    assert np.linalg.norm(wavepacket._dst(s_c) - c) <= 1e-14 * np.linalg.norm(c)
    edges = wavepacket._sine_rows(n, [0, n - 1]) @ c
    assert np.allclose(edges, s_c[[0, -1]], rtol=1e-13, atol=0.0)


@pytest.mark.parametrize(
    "n, chans, cells",
    [
        # free run: one channel, no Woodbury correction
        pytest.param(1025, 1, [], id="1-cells0"),
        pytest.param(1025, 2, [512], id="2-cells1"),  # one coupled cell, rank 2
        # five cells, rank 10, two at the edges
        pytest.param(1025, 2, [3, 511, 512, 513, 1020], id="2-cells2"),
        # even n, whose sine modes have no centre cell
        pytest.param(1024, 1, [], id="even-1-cells0"),
        # a coupled cell at an odd and one at an even index
        pytest.param(1024, 2, [511, 512], id="even-2-odd-and-even"),
        pytest.param(1024, 2, [0, 1023], id="even-2-first-and-last"),
    ],
)
@needs_scipy
def test_structured_solve_matches_superlu(n, chans, cells):
    dx = 1440.0 / 8192.0
    t, lam, potential = 1.0 / dx**2, 0.25j, 1.0
    gvec = np.zeros(n)
    gvec[cells] = np.linspace(1.0, 2.0, len(cells)) / dx
    rng = np.random.default_rng(7)
    b = rng.standard_normal(chans * n) + 1j * rng.standard_normal(chans * n)
    want = _superlu_factor(t, potential, gvec, lam).solve(b.copy())
    work = b.copy()
    got = wavepacket.splu(t, potential, gvec, lam).solve(work)
    assert got is work  # stepped in place
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def _step_matches_zgttrs(row):
    n, t, dt, seed = row
    # the free run's step, mapped into and out of the sine basis, against
    # 2 A1^-1 b - b solved on the grid by LAPACK's tridiagonal LU, A1 = 1 + lam T
    lam = 0.5j * dt
    off = np.full(n - 1, -lam * t)
    dl, d, du, du2, ipiv, info = scipy.linalg.lapack.zgttrf(
        off, np.full(n, 1.0 + lam * (2.0 * t)), off
    )
    assert info == 0
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    want = 2.0 * scipy.linalg.lapack.zgttrs(dl, d, du, du2, ipiv, b.copy())[0] - b
    work = dst(b, type=1, norm="ortho")
    stepped = wavepacket.splu(t, 1.0, np.zeros(n), lam).solve(work)
    assert stepped is work  # stepped in place
    got = dst(stepped, type=1, norm="ortho")
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@needs_scipy
def test_channel1_solve_matches_zgttrs():
    draw.first_breach(_step_matches_zgttrs, draw.step_draws())


def _closures(*funcs):
    """(owner.name, node) of every function and lambda nested in ``funcs``."""
    found = []
    for func in funcs:
        outer = ast.parse(inspect.getsource(func)).body[0]
        found += [(f"{func.__name__}.{getattr(node, 'name', '<lambda>')}", node)
                  for node in ast.walk(outer)
                  if isinstance(node, (ast.FunctionDef, ast.Lambda)) and node is not outer]
    return found


def test_per_step_closures_build_no_matrix():
    # a step is O(n r): the Woodbury kernel K, the sine rows and their
    # complex cast are built once, by splu and _run, never in the code that
    # runs at every step
    closures = _closures(wavepacket.splu, wavepacket._run)
    assert {"splu.solve", "_run.guard", "_run.centroid"} <= {
        name for name, _ in closures}
    banned = {"_sine_rows", "astype", "eye", "kron", "inv", "outer", "solve"}
    for name, node in closures:
        for sub in ast.walk(node):
            callee = sub.func if isinstance(sub, ast.Call) else None
            called = getattr(callee, "attr", getattr(callee, "id", None))
            assert called not in banned, f"{name} calls {called}"


@needs_scipy
def test_cli_default_delay_matches_superlu(monkeypatch, fresh_reference):
    o = {opt.name: opt.default for opt in _OPTIONS["wavepacket"]}
    p = ModelParams(
        energy=o["energy"], potential=o["potential"], coupling=o["coupling"],
        mass=o["mass"], hbar=o["hbar"],
    )
    packet = PacketSpec.for_energy(o["energy"], p, sigma=o["sigma"], center=o["x0"])
    grid = GridSpec(o["half_domain"], o["points"], o["dt"], o["steps"])
    got = propagate(packet, p, width=o["width"], grid=grid)
    couplings = []

    def factor(t, potential, gvec, lam):
        couplings.append(gvec.copy())
        return _superlu_factor(t, potential, gvec, lam)

    # SuperLU must run the free reference too, not reuse the t_free just cached
    wavepacket._free_arrival.cache_clear()
    monkeypatch.setattr(wavepacket, "splu", factor)
    want = propagate(packet, p, width=o["width"], grid=grid)
    wavepacket._free_arrival.cache_clear()
    assert [bool(g.any()) for g in couplings] == [True, False]
    for name in ("t_arrival", "t_free", "transmitted_fraction"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-10)
    assert abs(got.delay - want.delay) <= 1e-10 * want.t_free
    assert got.norm_drift <= 1e-6


def _reference_frames(packet, p, width, grid, stride):
    """|phi1|^2 and |phi2|^2 every ``stride`` steps of the real-space state
    [phi1; phi2], stepped as (1 + lam H)^-1 (1 - lam H) psi by SuperLU."""
    x = np.linspace(-grid.half_length, grid.half_length, grid.points)
    n, dx = x.size, x[1] - x[0]
    envelope = np.exp(-((x - packet.center) ** 2) / (4.0 * packet.sigma**2))
    psi = np.concatenate((envelope * np.exp(1j * packet.wavenumber * x), np.zeros(n)))
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * dx)
    t = p.hbar**2 / (2.0 * p.mass * dx**2)
    lam = 1j * grid.dt / (2.0 * p.hbar)
    forward, backward = _cayley(t, p.potential, wavepacket._coupling_cells(x, dx, p, width), lam)
    frames = []
    for step in range(grid.steps + 1):
        if step % stride == 0:
            frames.append(np.abs(psi.reshape(2, n).T) ** 2)
        psi = backward.solve(forward @ psi)
    return np.array(frames)


@needs_scipy
def test_snapshots_match_superlu(tmp_path):
    grid = GridSpec(half_length=300.0, points=1025, dt=0.4, steps=370)
    path = tmp_path / "frames.csv"
    propagate(PACKET, P_COUPLED, width=1e-3, grid=grid,
              snapshot_path=path, snapshot_stride=50)
    got = np.loadtxt(path, delimiter=",", skiprows=1).reshape(8, 1025, 4)[:, :, 2:]
    want = _reference_frames(PACKET, P_COUPLED, 1e-3, grid, 50)
    assert got.shape == want.shape
    for frame, ref in zip(got, want):
        assert np.max(np.abs(frame - ref)) <= 1e-12 * ref.max()


@needs_scipy
def test_two_coupled_cells_match_superlu(tmp_path, monkeypatch, fresh_reference):
    # a strip centred on a cell boundary couples two cells: the rank-4
    # Woodbury step, which the CLI defaults (one cell, rank 2) never take
    grid = GridSpec(half_length=300.0, points=1025, dt=0.4, steps=370)
    dx = 600.0 / 1024.0
    p = dataclasses.replace(P_COUPLED, center=dx / 2.0)
    x = np.linspace(-300.0, 300.0, 1025)
    assert np.count_nonzero(wavepacket._coupling_cells(x, dx, p, 1e-3)) == 2
    path = tmp_path / "frames.csv"
    got = propagate(PACKET, p, width=1e-3, grid=grid, snapshot_path=path,
                    snapshot_stride=50)
    frames = np.loadtxt(path, delimiter=",", skiprows=1).reshape(8, 1025, 4)[:, :, 2:]
    for frame, ref in zip(frames, _reference_frames(PACKET, p, 1e-3, grid, 50)):
        assert np.max(np.abs(frame - ref)) <= 1e-12 * ref.max()
    wavepacket._free_arrival.cache_clear()
    monkeypatch.setattr(wavepacket, "splu", _superlu_factor)
    want = propagate(PACKET, p, width=1e-3, grid=grid)
    for name in ("t_arrival", "t_free", "transmitted_fraction"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-10)
    assert abs(got.delay - want.delay) <= 1e-10 * want.t_free


@pytest.mark.parametrize(
    ("half_length", "steps", "error", "match"),
    [(180.0, 10, BoundaryContaminationError, "^edge density"),
     (300.0, 3000, BoundaryContaminationError, "^edge density"),
     (300.0, 30, NoCrossingError, "^transmitted centroid never crossed")],
    ids=["at-start", "mid-run", "no-crossing"],
)
def test_a_stopped_run_leaves_no_snapshot_file(half_length, steps, error, match, tmp_path):
    # the edge guard trips before any step or after frames were written, or
    # every step ran and wrote its frames but the packet never arrived
    grid = GridSpec(half_length=half_length, points=1025, dt=0.4, steps=steps)
    path = tmp_path / "frames.csv"
    with pytest.raises(error, match=match):
        propagate(PACKET, P_COUPLED, width=1e-3, grid=grid, snapshot_path=path,
                  snapshot_stride=10)
    assert not path.exists()


def test_a_snapshot_file_that_cannot_be_opened_is_kept(monkeypatch, tmp_path):
    # say a read-only file: the run did not create it, so it must not remove it
    path = tmp_path / "frames.csv"
    path.write_bytes(b"kept")

    def refused(*args):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(wavepacket, "open", refused, raising=False)
    with pytest.raises(PermissionError):
        propagate(PACKET, P_COUPLED, width=1e-3, grid=GRID, snapshot_path=path)
    assert path.read_bytes() == b"kept"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs POSIX named pipes")
def test_a_stopped_run_keeps_a_snapshot_target_that_is_no_regular_file(tmp_path):
    # frames written to a pipe (or to /dev/null) are not a file to clean up
    pipe = tmp_path / "frames.pipe"
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(target=lambda: received.append(pipe.read_bytes()),
                              daemon=True)
    reader.start()
    grid = GridSpec(half_length=180.0, points=1025, dt=0.4, steps=10)
    with pytest.raises(BoundaryContaminationError, match="^edge density"):
        propagate(PACKET, P_COUPLED, width=1e-3, grid=grid, snapshot_path=pipe)
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert received[0].startswith(b"t,x,density1,density2\n")
    assert stat.S_ISFIFO(pipe.stat().st_mode)


def test_snapshots_written(tmp_path):
    path = tmp_path / "frames.csv"
    grid = GridSpec(half_length=300.0, points=1025, dt=0.4, steps=370)
    propagate(
        PACKET, P_COUPLED, width=1e-3, grid=grid,
        snapshot_path=path, snapshot_stride=100,
    )
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "t,x,density1,density2"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (4 * 1025, 4)
    assert sorted(set(data[:, 0])) == [0.0, 40.0, 80.0, 120.0]
    assert np.all(data[:, 2] >= 0.0) and np.all(data[:, 3] >= 0.0)
    dx = 600.0 / 1024.0
    for t in (0.0, 40.0, 80.0, 120.0):
        block = data[data[:, 0] == t]
        norm = (block[:, 2].sum() + block[:, 3].sum()) * dx
        assert norm == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("edge", [0, -1])
def test_closed_channel_edge_density_is_guarded(edge, monkeypatch, fresh_reference):
    # channel 2 is carried as S phi2; a 1e-3 amplitude put on its first or
    # last grid point after the first step must trip the edge guard
    factor = wavepacket.splu

    def leaky(t, potential, gvec, lam):
        inner = factor(t, potential, gvec, lam)
        n = gvec.size
        if not gvec.any():
            return inner
        spike = [1e-3 * wavepacket._sine_rows(n, [edge % n])[0]]

        def solve(b):
            inner.solve(b)
            if spike:
                b[n:] += spike.pop()
            return b

        return SimpleNamespace(solve=solve, size=inner.size)

    monkeypatch.setattr(wavepacket, "splu", leaky)
    grid = GridSpec(half_length=300.0, points=1025, dt=0.4, steps=370)
    with pytest.raises(
        BoundaryContaminationError, match=r"^edge density 1\.000e-06 exceeds 1e-08 at t=0\.4;"
    ):
        propagate(PACKET, P_COUPLED, width=1e-3, grid=grid)


def test_detector_never_reached():
    grid = GridSpec(half_length=300.0, points=1025, dt=0.4, steps=30)
    with pytest.raises(RuntimeError, match="never crossed") as info:
        propagate(PACKET, P_COUPLED, width=1e-3, grid=grid)
    assert info.type is NoCrossingError


def _loop_crossing(ts, cs, plane):
    """The first crossing by a loop over the steps that skips NaN centroids,
    or None."""
    valid = np.isfinite(cs)
    for i in range(1, ts.size):
        if valid[i - 1] and valid[i] and cs[i - 1] < plane <= cs[i]:
            frac = (plane - cs[i - 1]) / (cs[i] - cs[i - 1])
            return float(ts[i - 1] + frac * (ts[i] - ts[i - 1]))
    return None


def test_crossing_time_equals_the_loop_over_steps():
    rng = np.random.default_rng(5)
    ts = 0.4 * np.arange(200)
    outcomes = set()
    for _ in range(300):
        cs = np.cumsum(rng.normal(0.2, 1.0, ts.size))
        cs[rng.random(ts.size) < 0.3] = np.nan  # too little transmitted mass
        plane = rng.uniform(-5.0, 40.0)
        want = _loop_crossing(ts, cs, plane)
        outcomes.add(want is None)
        if want is None:
            with pytest.raises(NoCrossingError, match="^transmitted centroid never crossed"):
                wavepacket._crossing_time(ts, cs, plane)
        else:
            assert float.hex(wavepacket._crossing_time(ts, cs, plane)) == float.hex(want)
    assert outcomes == {True, False}


# bench/setup_probe.py's small grid: the packet crosses the plane after
# step 500, in the last stride, which the run's final step cuts short
P_SMALL = ModelParams(energy=0.25, potential=1.0, coupling=1.0)
SMALL = (PacketSpec.for_energy(0.25, P_SMALL, sigma=45.0, center=-225.0), P_SMALL,
         GridSpec(half_length=580.0, points=2049, dt=1.0, steps=545))


@pytest.mark.parametrize("packet, p, grid", [
    (PACKET, P_COUPLED, GRID), (PACKET, P_COUPLED, GRID_EVEN), SMALL,
], ids=["golden", "even", "small"])
def test_the_observation_stride_changes_no_bit(packet, p, grid, monkeypatch, fresh_reference):
    # the run observes the centroid every _OBSERVE_STRIDE steps and bisects
    # the bracket it crosses the plane in, so every stride must give the
    # bits of observing every step; strides 2 and 3 put the crossing at
    # either end of a bracket, and stride 7 makes the bisection halve
    # brackets of odd length
    hexes = []
    for stride in (1, 2, 3, 7, wavepacket._OBSERVE_STRIDE):
        monkeypatch.setattr(wavepacket, "_OBSERVE_STRIDE", stride)
        wavepacket._free_arrival.cache_clear()
        result = propagate(packet, p, width=1e-3, grid=grid)
        hexes.append(_hexes(result))
    assert hexes[1:] == hexes[:1] * 4
    if grid is SMALL[2]:
        assert result.t_arrival > 500 * grid.dt


@pytest.mark.parametrize("packet, p, grid", [(PACKET, P_COUPLED, GRID), SMALL],
                         ids=["golden", "small"])
def test_the_crossing_is_found_in_a_few_transforms(packet, p, grid, monkeypatch,
                                                   fresh_reference):
    # a run takes one _dst for psi0, one per observed step and, to find the
    # crossing step in its bracket by bisection, one per halving: at most
    # ceil(log2 _OBSERVE_STRIDE), so a replay of the bracket with the
    # centroid at every step, up to a stride's worth, fails
    dst, run, counts = wavepacket._dst, wavepacket._run, []

    def counted_dst(c):
        counts[-1] += 1
        return dst(c)

    def counted_run(*args, **kwargs):
        counts.append(0)
        return run(*args, **kwargs)

    monkeypatch.setattr(wavepacket, "_dst", counted_dst)
    monkeypatch.setattr(wavepacket, "_run", counted_run)
    propagate(packet, p, width=1e-3, grid=grid)
    stride = wavepacket._OBSERVE_STRIDE
    observed = len(range(0, grid.steps + 1, stride)) + (grid.steps % stride > 0)
    assert len(counts) == 2  # the coupled run and its free reference
    for count in counts:
        assert 1 + observed < count <= 1 + observed + math.ceil(math.log2(stride))


def test_boundary_contamination_detected():
    grid = GridSpec(half_length=180.0, points=1025, dt=0.4, steps=10)
    with pytest.raises(BoundaryContaminationError, match="edge density"):
        propagate(PACKET, P_COUPLED, width=1e-3, grid=grid)


def test_norm_drift_beyond_tolerance_stops_the_run(monkeypatch, fresh_reference):
    # no drift, not even 0, is within a negative tolerance: the first
    # observation, before any step, raises
    monkeypatch.setattr(wavepacket, "_DRIFT_TOL", -1.0)
    grid = GridSpec(half_length=300.0, points=1025, dt=0.4, steps=30)
    with pytest.raises(NormDriftError, match=r"^norm drifted by \d\.\d{3}e[+-]\d+ at t=0\.0 "
                       r"\(tolerance -1\.0\)$"):
        propagate(PACKET, P_COUPLED, width=1e-3, grid=grid)


@pytest.mark.parametrize("field, value", [
    ("mass", np.array([0.5])),  # a TypeError in the free run's key before
    ("center", np.array([0.0])),  # a TypeError in the strip's grid index before
    ("coupling", np.array([1.0, 2.0])),  # numpy's ambiguous truth value before
    ("energy", np.array([1.0])),  # returned a result before
])
def test_parameter_arrays_are_refused_before_any_run(field, value, monkeypatch):
    def factor(*args):
        raise AssertionError("a parameter array reached the factorization")

    monkeypatch.setattr(wavepacket, "splu", factor)
    p = dataclasses.replace(P_COUPLED, **{field: value})
    shape = re.escape(str(value.shape))
    with pytest.raises(DomainError, match=rf"^propagate measures one configuration.*{shape}"):
        propagate(PACKET, p, width=1e-3, grid=GRID)


def test_a_0d_array_field_is_the_float_call():
    floats = propagate(PACKET, P_COUPLED, width=1e-3, grid=GRID)  # its free run is cached
    before = wavepacket._free_arrival.cache_info()
    p = dataclasses.replace(P_COUPLED, hbar=np.array(1.0))
    assert p.shape == () and isinstance(p.mass, np.ndarray)
    got = propagate(PACKET, p, width=1e-3, grid=GRID)
    after = wavepacket._free_arrival.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    for field in dataclasses.fields(DelayResult):
        assert getattr(got, field.name).hex() == getattr(floats, field.name).hex(), field.name


def test_a_hopping_denominator_that_underflows_is_refused_before_any_step(monkeypatch):
    # the CLI's packet and grid (dx = 0.17578125) at m = 5e-324, where
    # 2 m dx**2 rounds to 0
    def factor(*args):
        raise AssertionError("the run was factored")

    monkeypatch.setattr(wavepacket, "splu", factor)
    o = {opt.name: opt.default for opt in _OPTIONS["wavepacket"]}
    p = ModelParams(0.5, 1.0, 1.0, mass=5e-324, hbar=1e-170)
    packet = PacketSpec.for_energy(p.energy, p, sigma=o["sigma"], center=o["x0"])
    grid = GridSpec(o["half_domain"], o["points"], o["dt"], o["steps"])
    with pytest.raises(ValueError, match=r"^2 m dx\*\*2 underflows to 0 at mass=5e-324, "
                                         r"dx=0\.17578125$"):
        propagate(packet, p, width=o["width"], grid=grid)

def test_error_types():
    assert issubclass(BoundaryContaminationError, RuntimeError)
    assert issubclass(NormDriftError, RuntimeError)
    for guard in (BoundaryContaminationError, NormDriftError, NoCrossingError):
        assert issubclass(guard, RunGuardError)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(center=10.0, wavenumber=1.0, sigma=20.0),  # wrong side
        dict(center=-50.0, wavenumber=1.0, sigma=20.0),  # closer than 5 sigma
        dict(center=-100.0, wavenumber=0.0, sigma=20.0),
        dict(center=-100.0, wavenumber=-1.0, sigma=20.0),
        dict(center=-100.0, wavenumber=1.0, sigma=0.0),
        dict(center=-math.inf, wavenumber=1.0, sigma=20.0),
    ],
)
def test_packet_validation(kwargs):
    with pytest.raises(ValueError):
        PacketSpec(**kwargs)


def test_packet_for_energy():
    packet = PacketSpec.for_energy(1.0, P_COUPLED, sigma=20.0, center=-100.0)
    assert packet.wavenumber == pytest.approx(1.0, rel=1e-15)
    assert packet.central_energy(P_COUPLED) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(DomainError):
        PacketSpec.for_energy(0.0, P_COUPLED, sigma=20.0, center=-100.0)


@pytest.mark.parametrize(("energy", "error", "match"), [
    (True, TypeError, r"^energy must be a real number, got bool$"),
    (math.nan, DomainError, r"^energy must be finite, got nan$"),
], ids=["bool", "nan"])
def test_packet_energy_is_converted_like_the_fields(energy, error, match):
    # energy is refused under its own name, before the wavenumber is derived
    with pytest.raises(error, match=match):
        PacketSpec.for_energy(energy, P_COUPLED, sigma=20.0, center=-100.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(half_length=0.0),
        dict(half_length=300.0, points=64),
        dict(half_length=300.0, dt=0.0),
        dict(half_length=300.0, steps=0),
        dict(half_length=math.nan),
        dict(half_length=math.inf),
        dict(half_length=300.0, dt=math.nan),
        dict(half_length=300.0, dt=math.inf),
    ],
)
def test_grid_validation(kwargs):
    with pytest.raises(ValueError):
        dataclasses.replace(GRID, **kwargs)


@pytest.mark.parametrize("field", ["points", "steps"])
def test_grid_counts_beyond_any_array_are_refused(field):
    most = np.iinfo(np.intp).max // 8  # the most float64 values one array can hold
    with pytest.raises(ValueError, match=f"^{field} must be at most {most}, got {2**63}$"):
        dataclasses.replace(GRID, **{field: 2**63})


def test_propagate_validation():
    with pytest.raises(ValueError):
        propagate(PACKET, P_COUPLED, width=0.0, grid=GRID)
    with pytest.raises(ValueError):
        propagate(PACKET, P_COUPLED, width=0.02, grid=GRID)
    with pytest.raises(ValueError):
        propagate(PACKET, P_COUPLED, width=math.nan, grid=GRID)
    with pytest.raises(ValueError, match="^snapshot_stride must be at least 1, got 0$"):
        propagate(PACKET, P_COUPLED, width=1e-3, grid=GRID, snapshot_stride=0)
    hot = PacketSpec.for_energy(2.5, P_COUPLED, sigma=20.0, center=-100.0)
    with pytest.raises(DomainError):
        propagate(hot, P_COUPLED, width=1e-3, grid=GRID)
    broad = PacketSpec(center=-25.0, wavenumber=1.0, sigma=5.0)
    with pytest.raises(ValueError, match="broadband"):
        propagate(broad, P_COUPLED, width=1e-3, grid=GRID)


def test_packet_off_the_grid_is_rejected():
    # the envelope underflows to zero everywhere on the grid
    far = PacketSpec.for_energy(1.0, P_COUPLED, sigma=20.0, center=-100000.0)
    with pytest.raises(ValueError, match=r"x0=-100000\.0, sigma=20\.0 has norm 0\.0"):
        propagate(far, P_COUPLED, width=1e-3, grid=GRID)


def test_central_energy_overflow_is_a_domain_error():
    # hbar k rounds to just above sqrt(float max), so float ** overflows
    packet = PacketSpec(center=-10.0, wavenumber=1.3407807929942597e154, sigma=1.0)
    with pytest.raises(DomainError, match=r"^\(hbar k\)\*\*2 overflows at hbar=1.0, k=1.34"):
        packet.central_energy(ModelParams(0.25, 1.0, 1.0))


def _hexes(result):
    return [float.hex(getattr(result, f.name)) for f in dataclasses.fields(DelayResult)]


def test_reused_reference_is_bit_identical_to_a_fresh_process(fresh_reference):
    first = propagate(PACKET, P_COUPLED, width=1e-3, grid=GRID)
    again = propagate(PACKET, P_COUPLED, width=1e-3, grid=GRID)  # reads the cached t_free
    script = (
        "import dataclasses\n"
        "from twostate import DelayResult, GridSpec, ModelParams, PacketSpec, propagate\n"
        "p = ModelParams(energy=1.0, potential=2.0, coupling=1.0)\n"
        "packet = PacketSpec.for_energy(1.0, p, sigma=20.0, center=-100.0)\n"
        "grid = GridSpec(half_length=300.0, points=3001, dt=0.4, steps=370)\n"
        "r = propagate(packet, p, width=1e-3, grid=grid)\n"
        "print(*(float.hex(getattr(r, f.name)) for f in dataclasses.fields(DelayResult)))\n"
    )
    src = str(Path(wavepacket.__file__).resolve().parents[1])
    fresh = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           timeout=120, check=True, env={**os.environ, "PYTHONPATH": src})
    assert fresh.stdout.split() == _hexes(first) == _hexes(again)


def _counting_run(free_runs):
    """A stand-in for ``_run`` that counts the free runs (channel 2 not
    carried) and returns an arrival at t = 0.5, no drift and a transmitted
    mass 0.5."""

    def run(psi0, x, dx, step, grid, start, *rest):
        if step.size == x.size:
            free_runs.append(start)
        return 0.5, 0.0, 0.5

    return run



def test_free_reference_reruns_only_when_what_it_reads_changes(monkeypatch, fresh_reference):
    free_runs = []
    monkeypatch.setattr(wavepacket, "_run", _counting_run(free_runs))
    p = ModelParams(energy=1.0, potential=2.0, coupling=1.0)
    packet = PacketSpec(center=-125.0, wavenumber=1.0, sigma=25.0)
    replace = dataclasses.replace
    cases = [  # (packet, params, width, grid), and whether the free run repeats
        ((packet, p, 1e-3, GRID), True),
        ((packet, replace(p, potential=2.5), 1e-3, GRID), False),
        ((packet, replace(p, coupling=0.5), 1e-3, GRID), False),
        ((packet, p, 2e-3, GRID), False),  # the same start index
        ((packet, replace(p, hbar=1.05), 1e-3, GRID), True),
        ((packet, replace(p, mass=0.55), 1e-3, GRID), True),
        ((packet, p, 1e-3, replace(GRID, dt=0.5)), True),
        ((packet, p, 1e-3, replace(GRID, steps=371)), True),
        ((packet, p, 1e-3, replace(GRID, points=3003)), True),
        ((packet, p, 1e-3, replace(GRID, half_length=310.0)), True),
        ((replace(packet, center=-130.0), p, 1e-3, GRID), True),
        ((replace(packet, sigma=24.0), p, 1e-3, GRID), True),
        ((replace(packet, wavenumber=1.05), p, 1e-3, GRID), True),
        ((packet, replace(p, center=0.3), 1e-3, GRID), True),  # start moves by 1.5 cells
        ((packet, p, 1e-3, GRID), False),
    ]
    for (spec, params, width, grid), reruns in cases:
        free_runs.clear()
        result = propagate(spec, params, width=width, grid=grid)
        assert len(free_runs) == reruns, (spec, params, width, grid)
        assert result.delay == 0.0
    assert wavepacket._free_arrival.cache_info().currsize == 11


@pytest.mark.parametrize("stride", [2.5, 50.0, True])
def test_snapshot_stride_must_be_an_integer(stride):
    with pytest.raises(TypeError, match="^snapshot_stride must be an integer, got "):
        propagate(PACKET, P_COUPLED, width=1e-3, grid=GRID, snapshot_stride=stride)


def test_a_numpy_integer_stride_reaches_the_run_as_an_int(monkeypatch, fresh_reference):
    tails = []
    run = _counting_run([])

    def recording(*args):
        tails.append(args[6:])  # (snapshot_path, stride) of the coupled run
        return run(*args)

    monkeypatch.setattr(wavepacket, "_run", recording)
    propagate(PACKET, P_COUPLED, width=1e-3, grid=GRID, snapshot_stride=np.int64(50))
    assert tails == [(None, 50), ()] and type(tails[0][1]) is int


def test_a_free_run_that_raises_is_not_cached(monkeypatch, fresh_reference):
    free_runs = []
    run = _counting_run(free_runs)

    def stalled(psi0, x, dx, step, grid, start, *rest):
        arrival = run(psi0, x, dx, step, grid, start, *rest)
        if step.size == x.size:
            raise NoCrossingError("transmitted centroid never crossed the detector plane")
        return arrival

    monkeypatch.setattr(wavepacket, "_run", stalled)
    with pytest.raises(NoCrossingError):
        propagate(PACKET, P_COUPLED, width=1e-3, grid=GRID)
    monkeypatch.setattr(wavepacket, "_run", run)
    assert propagate(PACKET, P_COUPLED, width=1e-3, grid=GRID).delay == 0.0
    assert len(free_runs) == 2


def test_a_coupled_run_that_never_arrives_makes_no_free_run(monkeypatch, fresh_reference):
    # 30 steps end long before the packet reaches the detector plane, and
    # the coupled run raises that itself, so no free reference is started
    coupled = []
    real = wavepacket._run

    def recording(psi0, x, dx, step, grid, start, *rest):
        coupled.append(step.size > x.size)
        return real(psi0, x, dx, step, grid, start, *rest)

    monkeypatch.setattr(wavepacket, "_run", recording)
    grid = GridSpec(half_length=300.0, points=1025, dt=0.4, steps=30)
    with pytest.raises(NoCrossingError, match="^transmitted centroid never crossed"):
        propagate(PACKET, P_COUPLED, width=1e-3, grid=grid)
    assert coupled == [True]


@pytest.mark.parametrize(
    ("make", "error", "match"),
    [
        (lambda: PacketSpec(center=-10**400, wavenumber=1.0, sigma=1.0),
         DomainError, r"^center must be finite, got -1000"),
        (lambda: dataclasses.replace(GRID, half_length=10**400),
         DomainError, r"^half_length must be finite"),
        (lambda: PacketSpec(center=-100.0, wavenumber=1.0, sigma=math.nan),
         DomainError, r"^sigma must be finite, got nan$"),
        (lambda: dataclasses.replace(GRID, dt=math.inf), DomainError, r"^dt must be finite, got inf$"),
        (lambda: PacketSpec(center=-100.0, wavenumber=True, sigma=20.0),
         TypeError, r"^wavenumber must be a real number, got bool$"),
        (lambda: dataclasses.replace(GRID, half_length=True),
         TypeError, r"^half_length must be a real number"),
        (lambda: dataclasses.replace(GRID, points=2049.5),
         TypeError, r"^points must be an integer, got float$"),
        (lambda: dataclasses.replace(GRID, steps=700.5),
         TypeError, r"^steps must be an integer, got float$"),
        (lambda: dataclasses.replace(GRID, steps=True),
         TypeError, r"^steps must be an integer, got bool$"),
        (lambda: dataclasses.replace(GRID, points=127),
         ValueError, r"^points must be at least 128, got 127$"),
        (lambda: dataclasses.replace(GRID, steps=0),
         ValueError, r"^steps must be at least 1, got 0$"),
    ],
    ids=["huge-center", "huge-half-length", "nan-sigma", "inf-dt", "bool-wavenumber",
         "bool-half-length", "float-points", "float-steps", "bool-steps", "few-points",
         "no-steps"],
)
def test_spec_fields_of_the_wrong_type_are_refused(make, error, match):
    with pytest.raises(error, match=match):
        make()


def test_spec_fields_become_python_floats_and_ints():
    # the specs are the free-run cache key: an equal spec must be one that
    # computes the same bits, so every field is stored in one type
    packet = PacketSpec(center=-100, wavenumber=np.float32(0.5), sigma=Fraction(20))
    grid = GridSpec(half_length=np.float64(300.0), points=np.int64(3001),
                    dt=Fraction(2, 5), steps=np.int32(370))
    assert [type(v) for v in vars(packet).values()] == [float, float, float]
    assert [type(v) for v in vars(grid).values()] == [float, int, float, int]
    assert grid == GRID and hash(grid) == hash(GRID)
