"""Exactly solvable two-channel scattering with a point inter-channel coupling.

An open channel at zero potential and a closed channel at a constant
potential above the incident energy exchange amplitude through a Dirac
point coupling.  Eliminating the closed channel through its Green's
function yields closed forms for the transmission and reflection
amplitudes, the tunneling-time taxonomy and the transition time, all of
which are cross-checked here by independent numerical oracles and a
time-dependent wave-packet experiment.

The closed forms need only ``math`` and the oracles only numpy, so
``import twostate`` loads no scipy: the names exported from ``oracle`` and
``wavepacket`` are imported on first use, and only ``wavepacket`` loads
scipy.
"""

import importlib

from .greens import GreensValue, effective_strength, greens_constant
from .params import (
    ConventionError,
    DegenerateCouplingError,
    DomainError,
    ModelParams,
    ReducedParams,
    RunGuardError,
    WaveNumbers,
    expand_reduced,
    make_reduced,
    wave_numbers,
)
from .scatter import (
    Amplitudes,
    scattering_phases,
    solve_amplitudes,
    transmission_probability,
)
from .sweep import SweepSpec, SweepVariable, run_sweep
from .times import (
    TimeTaxonomy,
    extremal_coupling,
    group_delays,
    time_taxonomy,
    transition_time,
)

# exported name -> submodule that defines it, imported on first access
_LAZY = {
    **dict.fromkeys(
        (
            "ConvergenceReport",
            "RegularizedSolution",
            "convergence_study",
            "dwell_time_regularized",
            "dwell_time_window",
            "extremum_search",
            "fd_group_delay",
            "greens_grid",
            "greens_grid_extrapolated",
            "solve_regularized",
        ),
        "oracle",
    ),
    **dict.fromkeys(
        (
            "BoundaryContaminationError",
            "DelayResult",
            "GridSpec",
            "NoCrossingError",
            "NormDriftError",
            "PacketSpec",
            "propagate",
        ),
        "wavepacket",
    ),
}


def __getattr__(name: str):
    """Import an oracle or wave-packet export on first access (PEP 562)."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

__all__ = [
    "Amplitudes",
    "BoundaryContaminationError",
    "ConvergenceReport",
    "ConventionError",
    "DegenerateCouplingError",
    "DelayResult",
    "DomainError",
    "GreensValue",
    "GridSpec",
    "ModelParams",
    "NoCrossingError",
    "NormDriftError",
    "PacketSpec",
    "ReducedParams",
    "RegularizedSolution",
    "RunGuardError",
    "SweepSpec",
    "SweepVariable",
    "TimeTaxonomy",
    "WaveNumbers",
    "convergence_study",
    "dwell_time_regularized",
    "dwell_time_window",
    "effective_strength",
    "expand_reduced",
    "extremal_coupling",
    "extremum_search",
    "fd_group_delay",
    "greens_constant",
    "greens_grid",
    "greens_grid_extrapolated",
    "group_delays",
    "make_reduced",
    "propagate",
    "run_sweep",
    "scattering_phases",
    "solve_amplitudes",
    "solve_regularized",
    "time_taxonomy",
    "transition_time",
    "transmission_probability",
    "wave_numbers",
]
