import math

import numpy as np
import pytest

from twostate import (
    BoundaryContaminationError,
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
)

# symmetric-point configuration: cheap grid, zero analytic delay
P_COUPLED = ModelParams(energy=1.0, potential=2.0, coupling=1.0)
P_FREE = ModelParams(energy=1.0, potential=2.0, coupling=0.0)
PACKET = PacketSpec.for_energy(1.0, P_COUPLED, sigma=20.0, center=-100.0)
GRID = GridSpec(half_length=300.0, points=3001, dt=0.4, steps=370)


@pytest.fixture(scope="module")
def coupled_result():
    return propagate(PACKET, P_COUPLED, width=1e-3, grid=GRID)


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


def test_detector_never_reached():
    grid = GridSpec(half_length=300.0, points=1025, dt=0.4, steps=30)
    with pytest.raises(RuntimeError, match="never crossed") as info:
        propagate(PACKET, P_COUPLED, width=1e-3, grid=grid)
    assert info.type is NoCrossingError


def test_boundary_contamination_detected():
    grid = GridSpec(half_length=180.0, points=1025, dt=0.4, steps=10)
    with pytest.raises(BoundaryContaminationError, match="edge density"):
        propagate(PACKET, P_COUPLED, width=1e-3, grid=grid)


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
        GridSpec(**kwargs)


def test_propagate_validation():
    with pytest.raises(ValueError):
        propagate(PACKET, P_COUPLED, width=0.0, grid=GRID)
    with pytest.raises(ValueError):
        propagate(PACKET, P_COUPLED, width=0.02, grid=GRID)
    with pytest.raises(ValueError):
        propagate(PACKET, P_COUPLED, width=math.nan, grid=GRID)
    with pytest.raises(ValueError):
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
