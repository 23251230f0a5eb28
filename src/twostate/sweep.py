"""Parameter sweeps emitted as deterministic CSV tables and SVG plots.

Four quantities are supported, mirroring the observables of the model:

* ``transmission``  |T|^2 against epsilon, one series per coupling
* ``phase``         transmission phase against epsilon
* ``tau_vs_energy`` transition time against epsilon
* ``tau_vs_coupling`` transition time against k0^2

CSV cells are the bytes of ``'%.15g' % v``, with LF line endings, so a
given spec always produces byte-identical files.  ``twostate.g15`` formats
the whole table array-wide, a block at a time; a value it cannot settle
exactly (near a rounding tie, with an off-by-one exponent estimate, with
|v| outside about 1e-266..1e295, -0.0, an infinity or NaN) is formatted
by ``'%.15g' %`` itself.  Open domain endpoints are clipped by a
configurable margin (default 1e-4).
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from . import scatter, times
from .params import DomainError, ReducedParams, _as_count, _as_float, expand_reduced

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
_CSV_BLOCK = 512  # values per g15 call, which holds about 0.35 MB of buffers and temporaries

_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")


@dataclass(frozen=True)
class SweepVariable:
    """Linearly spaced sweep variable, its bounds stored as finite floats
    and its count as an int (``params._as_float`` and ``_as_count``)."""

    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        for name in ("start", "stop"):
            object.__setattr__(self, name, _as_float(name, getattr(self, name)))
        object.__setattr__(self, "count", _as_count("count", self.count, 2))


@dataclass(frozen=True)
class SweepSpec:
    """Complete description of one sweep artifact, checked once.

    ``fixed`` takes ``potential`` (default ``DEFAULT_POTENTIAL``) and the
    quantity's series key, one real number or an iterable of them (default
    the row's series for the potential), each through ``params._as_float``;
    any other key and a negative ``coupling_sq`` raise.  It is stored as
    ``{"potential": float, series: tuple[float, ...]}``, so it round-trips.
    ``output`` is stored as a ``Path``.  The range clipped by the margin
    (``_clip_grid``) must not be empty.
    """

    quantity: str
    variable: SweepVariable
    fixed: Mapping[str, float | Iterable[float]]
    output: Path
    format: str = "csv"
    margin: float = 1e-4

    def __post_init__(self) -> None:
        row = _row(self.quantity)
        if self.variable.name != row.variable:
            raise ValueError(f"quantity {self.quantity!r} sweeps {row.variable!r}, "
                             f"got variable {self.variable.name!r}")
        if self.format not in ("csv", "svg", "both"):
            raise ValueError(f"format must be csv, svg or both, got {self.format!r}")
        margin = _as_float("margin", self.margin)
        if not 0.0 < margin < 0.5:
            raise ValueError(f"margin must lie in (0, 0.5), got {margin}")
        for key in self.fixed:
            if key not in ("potential", row.series):
                raise ValueError(f"sweep {self.quantity!r} takes fixed 'potential' "
                                 f"and {row.series!r}, not {key!r}")
        potential = _as_float("potential", self.fixed.get("potential", DEFAULT_POTENTIAL))
        given = row.series in self.fixed
        raw = self.fixed[row.series] if given else row.default_series(potential)
        name = row.series if given else f"default {row.series} at potential={potential}"
        series = tuple(_as_float(name, v) for v in (raw if isinstance(raw, Iterable) else (raw,)))
        if not series:
            raise ValueError(f"{name} needs at least one value")
        if row.series == "coupling_sq" and min(series) < 0.0:
            raise DomainError(f"{name} must be >= 0, got {min(series)}")
        try:
            output = Path(self.output)
        except TypeError:
            raise TypeError(f"output must be a path, got {type(self.output).__name__}") from None
        lo, hi = max(self.variable.start, margin), self.variable.stop
        if row.variable == "epsilon":
            hi = min(hi, 1.0 - margin)
        if not lo < hi:
            raise ValueError(f"empty sweep range after clipping: [{lo}, {hi}] for {row.variable}")
        object.__setattr__(self, "margin", margin)
        object.__setattr__(self, "fixed", {"potential": potential, row.series: series})
        object.__setattr__(self, "output", output)
        object.__setattr__(self, "_bounds", (lo, hi))


def _row(quantity: str) -> QuantityRow:
    if quantity not in QUANTITY_ROWS:
        raise ValueError(f"unknown quantity {quantity!r}; choose from {QUANTITIES}")
    return QUANTITY_ROWS[quantity]


def default_spec(quantity: str, output: Path) -> SweepSpec:
    """CSV sweep specs reproducing the canonical figures of the model."""
    row = _row(quantity)
    return SweepSpec(
        quantity=quantity,
        variable=SweepVariable(row.variable, *row.domain, DEFAULT_COUNT),
        fixed={},
        output=output,
    )


def _clip_grid(spec: SweepSpec) -> np.ndarray:  # over the bounds SweepSpec clipped
    return np.linspace(*spec._bounds, spec.variable.count)


def _evaluate(spec: SweepSpec, row: QuantityRow, grid: np.ndarray, series):
    """One column per series, each from one array call.

    The closed forms raise to a power with ``_power``, which rounds as
    the scalar path's float pow does, so each column equals the scalar
    closed form point by point.  Validating the series' ReducedParams, and
    the closed forms' own checks, raise the scalar path's error at its
    first bad point, so no cell is inf or NaN.
    """
    potential = spec.fixed["potential"]
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


def _write_csv(path: Path, table: np.ndarray, labels, varname) -> None:
    """The header, then ``table``'s rows as ``'%.15g'`` fields by
    ``g15.Fields``, whole rows of at most _CSV_BLOCK values at a time into
    one reused buffer, so that no more than a block is ever held as text."""
    from .g15 import WIDTH, Fields  # its tables are built on the first CSV

    rows, cols = table.shape
    block = max(1, _CSV_BLOCK // cols)
    fields = Fields(block * cols, b"," * (cols - 1) + b"\n")
    text = np.empty((block, cols, WIDTH), dtype=np.uint8)
    with open(path, "wb") as handle:
        handle.write((",".join([varname, *labels]) + "\n").encode())
        for start in range(0, rows, block):
            chunk = text[: min(block, rows - start)]
            fields(table[start : start + block], chunk)
            handle.write(chunk.tobytes().translate(None, b"\0"))


def _svg_text(grid, columns, labels, varname, colname) -> str:
    width, height = 800.0, 600.0
    left, right, top, bottom = 90.0, 770.0, 30.0, 540.0
    xmin, xmax = float(grid.min()), float(grid.max())
    ymin = min(float(c.min()) for c in columns)
    ymax = max(float(c.max()) for c in columns)
    if ymax == ymin:
        ymin -= 0.5
        ymax += 0.5
    # a y span past the float range is mapped through halves, which are
    # exact for normal floats; scale 1 leaves every other plot's bytes
    scale = 1.0 if ymax - ymin < math.inf else 0.5
    lo, span = scale * ymin, scale * ymax - scale * ymin

    def px(v: float) -> float:
        return left + (v - xmin) / (xmax - xmin) * (right - left)

    def py(v: float) -> float:
        return bottom - (scale * v - lo) / span * (bottom - top)

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
        yv = (lo + frac * span) / scale
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
    row = QUANTITY_ROWS[spec.quantity]
    series = spec.fixed[row.series]
    grid = _clip_grid(spec)
    columns = _evaluate(spec, row, grid, series)
    labels = _labels(row, series)

    written: list[Path] = []
    for kind in ("csv", "svg") if spec.format == "both" else (spec.format,):
        path = spec.output.with_suffix("." + kind) if spec.format == "both" else spec.output
        if kind == "csv":
            _write_csv(path, np.column_stack([grid, *columns]), labels, spec.variable.name)
        else:
            text = _svg_text(grid, columns, labels, spec.variable.name, row.column)
            path.write_text(text, encoding="utf-8", newline="\n")
        written.append(path)
    return written
