"""Sweep CSV bytes against the per-row ``'%.15g' %`` they replaced.

``_reference`` is the former writer, kept here as the reference: the
header, then one ``%`` per row of the table.  ``run_sweep`` formats the
same table by ``g15.Fields`` in blocks of ``sweep._CSV_BLOCK`` values, so
the specs cover row counts on either side of a block, negative tau, and
coupling_sq and potentials far from 1, where cells reach the subnormal
range, exact zeros and the fallback to ``%``.  Numpy alone, so this module
runs where scipy is not installed, and on numpy's baseline (libm) ``log10``.
"""

import numpy as np

from twostate import g15, sweep
from twostate.sweep import QUANTITIES, QUANTITY_ROWS, SweepSpec, SweepVariable, run_sweep


def _reference(spec: SweepSpec) -> bytes:
    row = QUANTITY_ROWS[spec.quantity]
    series = spec.fixed[row.series]
    grid = sweep._clip_grid(spec)
    columns = sweep._evaluate(spec, row, grid, series)
    fmt = ",".join(["%.15g"] * (1 + len(columns)))
    lines = [",".join([spec.variable.name, *sweep._labels(row, series)])]
    lines.extend(fmt % tuple(cells.tolist()) for cells in np.column_stack([grid, *columns]))
    return ("\n".join(lines) + "\n").encode()


def _spec(rng: np.random.Generator, quantity: str, series: int, count: int, path) -> SweepSpec:
    """A seeded spec: potential log-uniform in [1e-100, 1e100] and
    coupling_sq in [1e-300, 1e150], or epsilon in (0, 1)."""
    row = QUANTITY_ROWS[quantity]
    if row.series == "coupling_sq":
        values = 10.0 ** rng.uniform(-300.0, 150.0, size=series)
        start, stop = rng.uniform(0.0, 0.3), rng.uniform(0.7, 1.0)
    else:
        values = rng.uniform(0.02, 0.98, size=series)
        start, stop = 10.0 ** rng.uniform(-4.0, 0.0), rng.uniform(2.0, 12.0)
    return SweepSpec(
        quantity=quantity,
        variable=SweepVariable(row.variable, start, stop, count),
        fixed={"potential": 10.0 ** rng.uniform(-100.0, 100.0), row.series: values.tolist()},
        output=path,
    )


def _rows_per_block(series: int) -> int:
    return sweep._CSV_BLOCK // (1 + series)


def test_seeded_sweeps_are_the_bytes_of_the_per_row_format(tmp_path):
    # every quantity with one to four series at every kind of row count,
    # three times over
    rng = np.random.default_rng(20261020)
    negative = fallback = 0
    for i in range(240):
        quantity = QUANTITIES[i % 4]
        series = (1, 4, 2, 3)[i // 4 % 4]
        block = _rows_per_block(series)
        count = (block - 1, block, block + 1, 2 * block + 1, int(rng.integers(2, 999)))[i // 16 % 5]
        spec = _spec(rng, quantity, series, count, tmp_path / f"{i}.csv")
        run_sweep(spec)
        assert spec.output.read_bytes() == _reference(spec), f"spec {i}: {spec}"
        cells = np.loadtxt(spec.output, delimiter=",", skiprows=1, ndmin=2)[:, 1:]
        negative += quantity.startswith("tau") and bool((cells < 0.0).any())
        fallback += bool(((np.abs(cells) < 1e-266) | (np.abs(cells) > 1e294)).any())
    # negative tau and cells beyond the power table, which % formats, occur
    assert negative >= 40 and fallback >= 5


def test_the_writer_formats_at_most_a_block_at_a_time(tmp_path, monkeypatch):
    # the block bounds the writer's memory whatever the count
    sizes = []
    fields = g15.Fields

    def recorded(size, separators):
        sizes.append(size)
        return fields(size, separators)

    monkeypatch.setattr(g15, "Fields", recorded)
    rng = np.random.default_rng(7)
    for series in (1, 2, 3, 4):
        spec = _spec(rng, "tau_vs_energy", series, 5 * _rows_per_block(series) + 3, tmp_path / "big.csv")
        run_sweep(spec)
        assert spec.output.read_bytes() == _reference(spec)
    assert sizes and max(sizes) <= sweep._CSV_BLOCK
