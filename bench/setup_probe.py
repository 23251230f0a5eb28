"""One-off set-up of each workload: import twostate, then call every entry
point the workload uses once, at the smallest valid size.

Run as a script in a fresh process, it prints ``time.perf_counter()`` when
set-up is done; the parent subtracts the time it spawned the process.
Nothing but the standard library and twostate is imported here, so that
import work moved out of ``import twostate`` into first calls still counts.

    python bench/setup_probe.py WORKLOAD SCRATCH_DIR
"""

import sys
import time

# A grid on which the packet crosses the detector cleanly in ~0.2 s.
SMALL_PACKET = {"sigma": 45.0, "center": -225.0}
SMALL_GRID = {"half_length": 580.0, "points": 2049, "dt": 1.0, "steps": 545}


def warm_up(workload: str, scratch: str) -> None:
    import twostate as ts

    if workload == "cli_cold":
        import twostate.cli  # noqa: F401  (each CLI call is cold; import only)
    elif workload == "library_warm":
        from pathlib import Path

        from twostate import checks, sweep

        p = ts.ModelParams(0.25, 1.0, 1.0)
        r = ts.make_reduced(p)
        ts.solve_amplitudes(p)
        ts.group_delays(p)
        ts.time_taxonomy(p)
        ts.transition_time(r)
        ts.transmission_probability(r)
        for q in sweep.QUANTITIES:
            base = sweep.default_spec(q, Path(scratch) / f"warm_{q}.csv")
            v = base.variable
            sweep.run_sweep(sweep.SweepSpec(
                quantity=q,
                variable=sweep.SweepVariable(v.name, v.start, v.stop, 2),
                fixed=base.fixed, output=base.output,
            ))
        checks.run_verification()
        ts.fd_group_delay(p)
        ts.greens_grid_extrapolated(p)
        ts.convergence_study(p)
        ts.dwell_time_regularized(p, 1e-2)
        ts.dwell_time_window(p, 1e-3, 0.5)
        ts.extremum_search(0.25, 1.0)
    elif workload == "wavepacket":
        p = ts.ModelParams(0.25, 1.0, 1.0)
        packet = ts.PacketSpec.for_energy(0.25, p, **SMALL_PACKET)
        ts.propagate(packet, p, width=1e-3, grid=ts.GridSpec(**SMALL_GRID))
    else:
        raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    warm_up(sys.argv[1], sys.argv[2])
    print(repr(time.perf_counter()), flush=True)
