"""Every entry that measures one configuration refuses parameter arrays.

The oracles and the wave-packet entries take one ``ModelParams`` point, not
a grid of them.  A field array of any shape but () raises DomainError
naming the shape (``params._Validated._one_configuration``) before any
solve, and prints nothing; 0-d fields become Python floats, so they give
the float call's bits or error, over the float range too.  ``propagate``
refuses before it builds its step.
"""

import dataclasses
import re
import warnings

import numpy as np
import pytest
from test_oracle_kernels import _wide_draw

from twostate import DomainError, GridSpec, ModelParams, PacketSpec, oracle, propagate, scatter
from twostate import wavepacket

P = ModelParams(energy=0.25, potential=1.0, coupling=1.0)
PACKET = PacketSpec(center=-100.0, wavenumber=0.5, sigma=20.0)
GRID = GridSpec(half_length=300.0, points=3001, dt=0.4, steps=370)

ENTRIES = {
    "fd_group_delay": oracle.fd_group_delay,
    "greens_grid": oracle.greens_grid,
    "greens_grid_extrapolated": oracle.greens_grid_extrapolated,
    "solve_regularized": lambda p: oracle.solve_regularized(p, 1e-3),
    "convergence_study": oracle.convergence_study,
    "dwell_time_regularized": lambda p: oracle.dwell_time_regularized(p, 1e-3),
    "dwell_time_window": lambda p: oracle.dwell_time_window(p, 1e-3, 2.0),
    "PacketSpec.for_energy": lambda p: PacketSpec.for_energy(0.25, p, 20.0, -100.0),
    "PacketSpec.central_energy": PACKET.central_energy,
    "propagate": lambda p: propagate(PACKET, p, 1e-3, GRID),
}


def _fail(*args, **kwargs):
    raise AssertionError("a parameter array reached a solve")


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize(("field", "value"), [
    ("mass", np.array([0.5])),
    ("energy", np.array([0.25, 0.3])),
])
def test_parameter_arrays_are_refused_before_any_solve(entry, field, value, monkeypatch, capfd):
    for module, name in ((np.linalg, "solve"), (scatter, "solve_amplitudes"),
                         (scatter, "scattering_phases"), (wavepacket, "splu")):
        monkeypatch.setattr(module, name, _fail)
    p = dataclasses.replace(P, **{field: value})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        shape = re.escape(str(value.shape))
        with pytest.raises(DomainError, match=rf"measures one configuration.*{shape}"):
            ENTRIES[entry](p)
    assert capfd.readouterr() == ("", "")


def _bits(value):
    """Every bit of a result: dataclass fields and tuple items in turn."""
    if dataclasses.is_dataclass(value):
        return [(f.name, _bits(getattr(value, f.name))) for f in dataclasses.fields(value)]
    if isinstance(value, tuple):
        return [_bits(v) for v in value]
    array = np.asarray(value)
    return array.shape, array.dtype.str, array.tobytes()


# propagate with a 0-d field is test_wavepacket's test_a_0d_array_field_is_the_float_call
@pytest.mark.parametrize("entry", [name for name in ENTRIES if name != "propagate"])
@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(ModelParams)])
def test_a_0d_field_gives_the_float_call(entry, field):
    p = dataclasses.replace(P, **{field: np.array(getattr(P, field))})
    assert p.shape == () and p.is_array
    assert _bits(ENTRIES[entry](p)) == _bits(ENTRIES[entry](P))


def _outcome(call, p):
    """The bits of ``call(p)``, or the type and message of what it raised,
    a warning included: warnings are errors here."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return _bits(call(p))
        except Exception as exc:
            return type(exc).__name__, str(exc)


def test_0d_fields_give_the_float_call_over_the_float_range(capfd):
    # The entries compute on the Python-float parameters _one_configuration
    # returns.  On 0-d fields they computed in numpy, which warned where a
    # step overflowed or underflowed: at 72 of these 400 points for both
    # grid oracles, 25 for solve_regularized and both dwell times, 4 for
    # convergence_study and 1 for fd_group_delay; at 73 more the grid
    # oracles' DomainError named np.float64(...) values
    mismatches = {}
    for eps, v, k0, mass, hbar, center in _wide_draw(400):
        p = ModelParams(eps * v, v, k0, mass=mass, hbar=hbar, center=center)
        zero_d = ModelParams(*map(np.array, (eps * v, v, k0, mass, hbar, center)))
        for name, call in ENTRIES.items():
            want, got = _outcome(call, p), _outcome(call, zero_d)
            if got != want:
                mismatches.setdefault(name, (p, got, want))
    assert mismatches == {}
    assert capfd.readouterr() == ("", "")
