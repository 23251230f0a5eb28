"""End-to-end acceptance gate.

One test per acceptance criterion, each printing a single pass/fail line
with the measured figures; run with -s (or read failure output) to see
the numbers.  The wave-packet criterion is diagnostic by construction:
its finite-bandwidth centroid bias is reported in the printed line and
asserted against the 25% envelope.
"""

import dataclasses
import math

import numpy as np

from twostate import (
    GridSpec,
    ModelParams,
    PacketSpec,
    ReducedParams,
    propagate,
    transition_time,
    transmission_probability,
)
from twostate import checks, cli, scatter, times
from twostate.sweep import default_spec, run_sweep


def _report(ok: bool, label: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_criterion_01_unitarity():
    r = checks.check_unitarity_grid()
    _report(r.passed, "criterion 1 unitarity", r.detail)


def test_criterion_02_closed_form_consistency():
    r = checks.check_closed_form_consistency()
    _report(r.passed, "criterion 2 closed-form consistency", r.detail)


def test_criterion_03_phase_derivative_oracle():
    r = checks.check_phase_derivative_oracle()
    _report(r.passed, "criterion 3 phase-derivative oracle", r.detail)


def test_criterion_04_structural_laws():
    r = checks.check_structural_laws()
    _report(r.passed, "criterion 4 structural laws", r.detail)


def test_criterion_05_extremum_law():
    r = checks.check_extremum_law()
    _report(r.passed, "criterion 5 extremum law", r.detail)


def test_criterion_06_reduction_chain():
    r = checks.check_reduction_chain()
    _report(r.passed, "criterion 6 reduction chain", r.detail)


def test_criterion_07_dwell_limit_and_taxonomy():
    dwell = checks.check_dwell_limit()
    tax = checks.check_taxonomy_identities()
    _report(
        dwell.passed and tax.passed,
        "criterion 7 dwell-time limit",
        f"{dwell.detail}; {tax.detail}",
    )


def test_criterion_08_wavepacket_diagnostic():
    p = ModelParams(energy=0.25, potential=1.0, coupling=1.0)
    packet = PacketSpec.for_energy(0.25, p, sigma=60.0, center=-300.0)
    grid = GridSpec(half_length=720.0, points=8193, dt=0.5, steps=1380)
    res = propagate(packet, p, width=1e-3, grid=grid)
    tau = transition_time(ReducedParams(0.25, 1.0, 1.0))
    t2 = transmission_probability(ReducedParams(0.25, 1.0, 1.0))
    delay_bias = abs(res.delay - tau) / abs(tau)
    frac_bias = abs(res.transmitted_fraction - t2) / t2
    ok = delay_bias <= 0.25 and res.norm_drift <= 1e-6 and frac_bias <= 0.05
    _report(
        ok,
        "criterion 8 wave-packet diagnostic",
        f"delay = {res.delay:.4f} vs analytic {tau:.4f}, relative bias "
        f"{delay_bias:.3f} (tol 0.25, finite-bandwidth centroid effect); "
        f"norm drift = {res.norm_drift:.2e} (tol 1e-6); transmitted fraction "
        f"= {res.transmitted_fraction:.5f} vs {t2:.5f}, relative "
        f"{frac_bias:.2e} (tol 0.05)",
    )


def test_criterion_09_figure_reproduction(tmp_path):
    first = tmp_path / "transmission.csv"
    second = tmp_path / "transmission_rerun.csv"
    run_sweep(default_spec("transmission", first))
    run_sweep(default_spec("transmission", second))
    deterministic = first.read_bytes() == second.read_bytes()

    data = np.loadtxt(first, delimiter=",", skiprows=1)
    peak_err = 0.0
    for j, q in enumerate((0.4, 4.0, 40.0)):
        ksq = 1.0 * math.sqrt(q)  # default series at V = 1
        predicted = 1.0 / (1.0 + ksq**2 / 4.0)
        peak_err = max(peak_err, abs(float(data[:, j + 1].max()) - predicted))

    coupling_csv = tmp_path / "tau_vs_coupling.csv"
    run_sweep(default_spec("tau_vs_coupling", coupling_csv))
    cdata = np.loadtxt(coupling_csv, delimiter=",", skiprows=1)
    step = float(cdata[1, 0] - cdata[0, 0])
    absc_err = 0.0
    for j, eps in enumerate((0.6, 0.7, 0.8, 0.9)):
        idx = int(np.argmax(np.abs(cdata[:, j + 1])))
        target = 4.0 * math.sqrt(eps * (1.0 - eps))
        absc_err = max(absc_err, abs(float(cdata[idx, 0]) - target))

    ok = deterministic and peak_err <= 1e-12 and absc_err <= step
    _report(
        ok,
        "criterion 9 figure reproduction",
        f"byte-identical rerun: {deterministic}; max transmission peak error "
        f"= {peak_err:.3e} (tol 1e-12); max extremal-coupling abscissa error "
        f"= {absc_err:.3e} (tol {step:.3e}, one grid step)",
    )


def test_criterion_10_mutation_sensitivity(monkeypatch, capsys):
    real_gd = times.group_delays
    with monkeypatch.context() as m:
        m.setattr(times, "group_delays", lambda p: tuple(-t for t in real_gd(p)))
        rc_delay = cli.main(["verify"])
        out_delay = capsys.readouterr().out
    delay_named = "FAIL phase_derivative_oracle" in out_delay

    real_amp = scatter.solve_amplitudes

    def skewed(p):
        amps = real_amp(p)
        return dataclasses.replace(
            amps, transmission_prob=amps.transmission_prob + 1e-6
        )

    with monkeypatch.context() as m:
        m.setattr(scatter, "solve_amplitudes", skewed)
        rc_unit = cli.main(["verify"])
        out_unit = capsys.readouterr().out
    unit_named = "FAIL unitarity_grid" in out_unit

    ok = rc_delay == 1 and delay_named and rc_unit == 1 and unit_named
    _report(
        ok,
        "criterion 10 mutation sensitivity",
        f"delay-sign fault -> exit {rc_delay}, phase_derivative_oracle "
        f"flagged: {delay_named}; unitarity fault (1e-6) -> exit {rc_unit}, "
        f"unitarity_grid flagged: {unit_named}",
    )
