"""The sweep evaluates each series with one array call.

Each column must equal the scalar closed form called point by point: bit
for bit for transmission and the transition time, within 2 ulp for the
phase, whose numpy arctan may take a SIMD code path.  A spec the scalar
loop rejects must raise the same exception type and message, unless
SweepSpec refuses it when it is built, and a sweep makes one closed-form
call per series, not one per point.
"""

import math
import re
from pathlib import Path

import contract_draw as draw
import numpy as np
import pytest

from twostate import (
    DegenerateCouplingError,
    DomainError,
    ReducedParams,
    SweepSpec,
    SweepVariable,
    expand_reduced,
    run_sweep,
    scatter,
    scattering_phases,
    sweep,
    times,
    transition_time,
    transmission_probability,
)
from twostate.sweep import QUANTITIES, QUANTITY_ROWS, default_spec

SCALAR = {
    "transmission": transmission_probability,
    "phase": lambda r: scattering_phases(expand_reduced(r))[0],
    "tau_vs_energy": transition_time,
    "tau_vs_coupling": transition_time,
}


def _scalar_columns(spec):
    """The columns as the per-point loop computed them."""
    row = QUANTITY_ROWS[spec.quantity]
    grid = sweep._clip_grid(spec)
    potential = spec.fixed["potential"]
    columns = []
    for s in spec.fixed[row.series]:
        out = np.empty(grid.size)
        for i, x in enumerate(grid.tolist()):
            eps, ksq = (x, s) if row.variable == "epsilon" else (s, x)
            out[i] = SCALAR[spec.quantity](ReducedParams(eps, potential, math.sqrt(ksq)))
        columns.append(out)
    return columns


def _array_columns(spec):
    row = QUANTITY_ROWS[spec.quantity]
    grid = sweep._clip_grid(spec)
    return sweep._evaluate(spec, row, grid, spec.fixed[row.series])


def _spec(quantity, series, potential=1.0, start=0.0, stop=None, count=7, margin=1e-4):
    row = QUANTITY_ROWS[quantity]
    stop = row.domain[1] if stop is None else stop
    return SweepSpec(
        quantity=quantity,
        variable=SweepVariable(row.variable, start, stop, count),
        fixed={"potential": potential, row.series: series},
        output=Path("unused.csv"),
        margin=margin,
    )


@pytest.mark.parametrize("quantity", QUANTITIES)
def test_default_columns_equal_the_scalar_loop(quantity, tmp_path):
    spec = default_spec(quantity, tmp_path / "x.csv")
    for got, want in zip(_array_columns(spec), _scalar_columns(spec), strict=True):
        if quantity == "phase":
            assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))
        else:
            np.testing.assert_array_equal(got, want)


# (quantity, repr(series), repr(potential)) of the cases SweepSpec refuses
# as it converts ``fixed``, before any closed form runs, and its error
REFUSED_AT_CONSTRUCTION = {
    ("tau_vs_coupling", "(nan,)", "1.0"): (DomainError, "epsilon must be finite, got nan"),
    ("transmission", "(-1.0,)", "1.0"): (DomainError, "coupling_sq must be >= 0, got -1.0"),
    ("transmission", "(inf,)", "1.0"): (DomainError, "coupling_sq must be finite, got inf"),
    ("transmission", "(1.0,)", "nan"): (DomainError, "potential must be finite, got nan"),
    ("tau_vs_coupling", "(0.7,)", "inf"): (DomainError, "potential must be finite, got inf"),
}


@pytest.mark.parametrize(
    ("quantity", "series", "potential"),
    [
        ("tau_vs_coupling", (1.5,), 1.0),
        ("tau_vs_coupling", (0.0,), 1.0),
        ("tau_vs_coupling", (0.3, -0.2), 1.0),
        ("tau_vs_coupling", (math.nan,), 1.0),
        ("tau_vs_energy", (0.0,), 1.0),
        ("tau_vs_energy", (1.0, -0.0), 1.0),
        ("phase", (0.0,), 1.0),
        ("transmission", (-1.0,), 1.0),
        ("transmission", (math.inf,), 1.0),
        ("transmission", (1e200,), 1.0),
        ("tau_vs_energy", (1.0,), 0.0),
        ("phase", (1.0,), -2.0),
        ("transmission", (1.0,), math.nan),
        ("tau_vs_coupling", (0.7,), math.inf),
        ("tau_vs_energy", (1.0,), 1e200),
    ],
)
def test_rejected_specs_raise_the_scalar_error(quantity, series, potential):
    key = (quantity, repr(series), repr(potential))
    if key in REFUSED_AT_CONSTRUCTION:
        error, message = REFUSED_AT_CONSTRUCTION[key]
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            _spec(quantity, series, potential)
        return
    spec = _spec(quantity, series, potential)
    with pytest.raises(Exception) as scalar:
        _scalar_columns(spec)
    with pytest.raises(scalar.type) as array:
        run_sweep(spec)
    assert str(array.value) == str(scalar.value)
    assert isinstance(array.value, ValueError)


@pytest.mark.parametrize(
    "series", [(0.0,), (1.0,)], ids=["zero-over-zero", "k0-over-zero"]
)
def test_division_by_zero_raises_instead_of_writing_nan(series):
    # V**2 underflows to 0, so the spread 16 V^2 eps (1 - eps) is 0
    spec = _spec("transmission", series, 1e-170)
    want = re.escape(
        "potential=1e-170 is too small: 16 V**2 eps (1 - eps) underflows to 0, "
        "so |T|^2 is undefined; V must be above about 1.6e-162, more with eps "
        "near 0 or 1"
    )
    with pytest.raises(DomainError, match=f"^{want}$"):
        _scalar_columns(spec)
    with pytest.raises(DomainError, match=f"^{want}$"):
        run_sweep(spec)


def test_rejections_are_typed_where_the_closed_forms_type_them():
    with pytest.raises(DomainError, match=r"^epsilon must lie in \(0, 1\), got 1.5$"):
        run_sweep(_spec("tau_vs_coupling", (1.5,)))
    with pytest.raises(DegenerateCouplingError, match="^transition time is degenerate"):
        run_sweep(_spec("tau_vs_energy", (0.0,)))
    with pytest.raises(DomainError, match="^potential must be finite, got nan$"):
        run_sweep(_spec("transmission", (1.0,), math.nan))


def _equals_the_scalar_loop(row):
    spec = _spec(*row)
    for got, want in zip(_array_columns(spec), _scalar_columns(spec), strict=True):
        if spec.quantity == "phase":
            assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))
        else:
            np.testing.assert_array_equal(got, want)


def test_random_specs_equal_the_scalar_loop():
    draw.first_breach(_equals_the_scalar_loop, draw.sweep_specs())


def _counting(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("quantity", QUANTITIES)
def test_one_closed_form_call_per_series(quantity, monkeypatch, tmp_path):
    calls = []
    for module, name in [
        (scatter, "transmission_probability"), (scatter, "scattering_phases"),
        (times, "transition_time"),
    ]:
        _counting(monkeypatch, module, name, calls)
    spec = default_spec(quantity, tmp_path / "x.csv")
    run_sweep(spec)
    series = spec.fixed[QUANTITY_ROWS[quantity].series]
    assert spec.variable.count == 999
    assert len(calls) == len(series)
