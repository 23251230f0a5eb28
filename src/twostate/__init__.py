"""Exactly solvable two-channel scattering with a point inter-channel coupling.

An open channel at zero potential and a closed channel at a constant
potential above the incident energy exchange amplitude through a Dirac
point coupling.  Eliminating the closed channel through its Green's
function yields closed forms for the transmission and reflection
amplitudes, the tunneling-time taxonomy and the transition time, all of
which are cross-checked here by independent numerical oracles and a
time-dependent wave-packet experiment.

The whole package, the wave packet included, needs only numpy and the
standard library.  The names exported from ``oracle`` and ``wavepacket``
are imported on first use, which keeps the cost of ``import twostate`` to
the closed forms.
"""

import importlib

from . import greens, params, scatter, sweep, times
from .greens import *  # noqa: F401,F403
from .params import *  # noqa: F401,F403
from .scatter import *  # noqa: F401,F403
from .sweep import *  # noqa: F401,F403
from .times import *  # noqa: F401,F403

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
    *greens.__all__,
    *params.__all__,
    *scatter.__all__,
    *sweep.__all__,
    *times.__all__,
    *_LAZY,
]
