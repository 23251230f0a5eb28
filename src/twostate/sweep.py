"""Parameter sweeps emitted as deterministic CSV tables and SVG plots.

Four quantities are supported, mirroring the observables of the model:

* ``transmission``  |T|^2 against epsilon, one series per coupling
* ``phase``         transmission phase against epsilon
* ``tau_vs_energy`` transition time against epsilon
* ``tau_vs_coupling`` transition time against k0^2

Numbers are printed with 15 significant digits and LF line endings, so a
given spec always produces byte-identical files.  Open domain endpoints
are clipped by a configurable margin (default 1e-4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import scatter, times
from .params import ReducedParams, _as_count, expand_reduced

__all__ = ["SweepSpec", "SweepVariable", "run_sweep"]


@dataclass(frozen=True)
class QuantityRow:
    """How one quantity is swept, labelled, defaulted and evaluated.

    ``domain`` is the raw range of the swept variable, before the margin
    clips its open ends; ``default_series`` maps the potential V to the
    default values of the ``series`` key; ``evaluate`` is one closed-form
    call on the series' validated parameters, looked up through its module
    at call time.
    """

    variable: str
    series: str
    column: str
    domain: tuple[float, float]
    default_series: Callable[[float], tuple[float, ...]]
    evaluate: Callable[[ReducedParams], np.ndarray]


QUANTITY_ROWS = {
    "transmission": QuantityRow(
        "epsilon", "coupling_sq", "transmission", (0.0, 1.0),
        # k0^4 / V^2 in {0.4, 4, 40}
        lambda v: tuple(v * math.sqrt(q) for q in (0.4, 4.0, 40.0)),
        lambda r: scatter.transmission_probability(r),
    ),
    "phase": QuantityRow(
        "epsilon", "coupling_sq", "phase", (0.0, 1.0),
        lambda v: (4.0 * v,),  # k0^2 / (4 V) = 1
        lambda r: scatter.scattering_phases(expand_reduced(r))[0],
    ),
    "tau_vs_energy": QuantityRow(
        "epsilon", "coupling_sq", "tau", (0.0, 1.0),
        lambda v: (0.5, 1.0, 2.0),
        lambda r: times.transition_time(r),
    ),
    "tau_vs_coupling": QuantityRow(
        "coupling_sq", "epsilon", "tau", (0.0, 10.0),
        lambda v: (0.6, 0.7, 0.8, 0.9),
        lambda r: times.transition_time(r),
    ),
}
QUANTITIES = tuple(QUANTITY_ROWS)
DEFAULT_POTENTIAL = 1.0
DEFAULT_COUNT = 999

_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")


@dataclass(frozen=True)
class SweepVariable:
    """Linearly spaced sweep variable."""

    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "count", _as_count("count", self.count, 2))
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError("sweep bounds must be finite")


@dataclass(frozen=True)
class SweepSpec:
    """Complete description of one sweep artifact."""

    quantity: str
    variable: SweepVariable
    fixed: Mapping[str, float | Sequence[float]]
    output: Path
    format: str = "csv"
    margin: float = 1e-4


def _row(quantity: str) -> QuantityRow:
    if quantity not in QUANTITY_ROWS:
        raise ValueError(f"unknown quantity {quantity!r}; choose from {QUANTITIES}")
    return QUANTITY_ROWS[quantity]


def default_spec(quantity: str, output: Path, fmt: str = SweepSpec.format) -> SweepSpec:
    """Sweep specs reproducing the canonical figures of the model."""
    row = _row(quantity)
    return SweepSpec(
        quantity=quantity,
        variable=SweepVariable(row.variable, *row.domain, DEFAULT_COUNT),
        fixed={
            "potential": DEFAULT_POTENTIAL,
            row.series: row.default_series(DEFAULT_POTENTIAL),
        },
        output=Path(output),
        format=fmt,
    )


def _series_values(spec: SweepSpec, row: QuantityRow) -> tuple[float, ...]:
    raw = spec.fixed.get(row.series)
    if raw is None:
        raise ValueError(
            f"sweep over {spec.quantity!r} needs fixed {row.series!r} value(s)"
        )
    if isinstance(raw, (int, float)):
        return (float(raw),)
    vals = tuple(float(v) for v in raw)
    if not vals:
        raise ValueError("series parameter list is empty")
    return vals


def _clip_grid(spec: SweepSpec) -> np.ndarray:
    lo = max(spec.variable.start, spec.margin)
    hi = spec.variable.stop
    if spec.variable.name == "epsilon":
        hi = min(hi, 1.0 - spec.margin)
    if not lo < hi:
        raise ValueError(
            f"empty sweep range after clipping: [{lo}, {hi}] for "
            f"{spec.variable.name}"
        )
    return np.linspace(lo, hi, spec.variable.count)


def _evaluate(spec: SweepSpec, row: QuantityRow, grid: np.ndarray, series):
    """One column per series, each from one array call.

    The closed forms raise to a power with ``_power``, which rounds as
    the scalar path's float pow does, so each column equals the scalar
    closed form point by point.  Validating the series' ReducedParams, and
    the closed forms' own checks, raise the scalar path's error at its
    first bad point, so no cell is inf or NaN.
    """
    potential = float(spec.fixed.get("potential", DEFAULT_POTENTIAL))
    columns: list[np.ndarray] = []
    for s in series:
        if row.variable == "epsilon":
            eps, k0 = grid, math.sqrt(s)
        else:
            eps, k0 = s, np.sqrt(grid)
        r = ReducedParams(epsilon=eps, potential=potential, coupling=k0)
        columns.append(row.evaluate(r))
    return columns


def _labels(row: QuantityRow, series: tuple[float, ...]) -> list[str]:
    if len(series) == 1:
        return [row.column]
    return [f"{row.column}[{row.series}={v:.6g}]" for v in series]


def _csv_text(grid, columns, labels, varname) -> str:
    # one % per row, each row listed on its own: listing the whole table
    # first, or one % over all of it, raises the peak allocation
    row = ",".join(["%.15g"] * (1 + len(columns)))
    lines = [",".join([varname, *labels])]
    table = np.column_stack([grid, *columns])
    lines.extend(row % tuple(cells.tolist()) for cells in table)
    return "\n".join(lines) + "\n"


def _svg_text(grid, columns, labels, varname, colname) -> str:
    width, height = 800.0, 600.0
    left, right, top, bottom = 90.0, 770.0, 30.0, 540.0
    xmin, xmax = float(grid.min()), float(grid.max())
    ymin = min(float(c.min()) for c in columns)
    ymax = max(float(c.max()) for c in columns)
    if ymax == ymin:
        ymin -= 0.5
        ymax += 0.5

    def px(v: float) -> float:
        return left + (v - xmin) / (xmax - xmin) * (right - left)

    def py(v: float) -> float:
        return bottom - (v - ymin) / (ymax - ymin) * (bottom - top)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<line x1="{left:.1f}" y1="{bottom:.1f}" x2="{right:.1f}" '
        f'y2="{bottom:.1f}" stroke="black" stroke-width="1"/>',
        f'<line x1="{left:.1f}" y1="{bottom:.1f}" x2="{left:.1f}" '
        f'y2="{top:.1f}" stroke="black" stroke-width="1"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = xmin + frac * (xmax - xmin)
        yv = ymin + frac * (ymax - ymin)
        parts.append(
            f'<text x="{px(xv):.1f}" y="{bottom + 20.0:.1f}" font-size="12" '
            f'text-anchor="middle">{xv:.6g}</text>'
        )
        parts.append(
            f'<text x="{left - 8.0:.1f}" y="{py(yv) + 4.0:.1f}" font-size="12" '
            f'text-anchor="end">{yv:.6g}</text>'
        )
    parts.append(
        f'<text x="{(left + right) / 2.0:.1f}" y="{height - 14.0:.1f}" '
        f'font-size="14" text-anchor="middle">{varname}</text>'
    )
    parts.append(
        f'<text x="20" y="{(top + bottom) / 2.0:.1f}" font-size="14" '
        f'text-anchor="middle" transform="rotate(-90 20 '
        f'{(top + bottom) / 2.0:.1f})">{colname}</text>'
    )
    for idx, (col, label) in enumerate(zip(columns, labels)):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(
            f"{px(float(grid[i])):.2f},{py(float(col[i])):.2f}"
            for i in range(grid.size)
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{pts}"/>'
        )
        parts.append(
            f'<text x="{right - 6.0:.1f}" y="{top + 16.0 + 16.0 * idx:.1f}" '
            f'font-size="12" text-anchor="end" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def run_sweep(spec: SweepSpec) -> list[Path]:
    """Evaluate the sweep and write the requested artifact files."""
    row = _row(spec.quantity)
    if spec.variable.name != row.variable:
        raise ValueError(
            f"quantity {spec.quantity!r} sweeps {row.variable!r}, "
            f"got variable {spec.variable.name!r}"
        )
    if spec.format not in ("csv", "svg", "both"):
        raise ValueError(f"format must be csv, svg or both, got {spec.format!r}")
    if not 0.0 < spec.margin < 0.5:
        raise ValueError(f"margin must lie in (0, 0.5), got {spec.margin}")

    series = _series_values(spec, row)
    grid = _clip_grid(spec)
    columns = _evaluate(spec, row, grid, series)
    labels = _labels(row, series)

    out = Path(spec.output)
    written: list[Path] = []
    if spec.format in ("csv", "both"):
        path = out.with_suffix(".csv") if spec.format == "both" else out
        path.write_text(
            _csv_text(grid, columns, labels, spec.variable.name),
            encoding="utf-8",
            newline="\n",
        )
        written.append(path)
    if spec.format in ("svg", "both"):
        path = out.with_suffix(".svg") if spec.format == "both" else out
        path.write_text(
            _svg_text(grid, columns, labels, spec.variable.name, row.column),
            encoding="utf-8",
            newline="\n",
        )
        written.append(path)
    return written
