"""Every entry that measures one configuration refuses parameter arrays.

The oracles and the wave-packet entries take one ``ModelParams`` point, not
a grid of them.  A field array of any shape but () raises DomainError
naming the shape (``params._Validated._one_configuration``) before any
solve, and prints nothing; 0-d fields become Python floats, so they give
the float call's bits or error (over the float range in
``test_library_contract.py::test_one_configuration_entries``).
``propagate`` refuses before it builds its step.  The entries are
``contract_draw.ONE_CONFIGURATION``'s, but for those that take floats.
"""

import dataclasses
import re
import warnings

import numpy as np
import pytest
from contract_draw import ONE_CONFIGURATION, P, TAKES_FLOATS, _bits

from twostate import DomainError, ModelParams, scatter, wavepacket

ENTRIES = {name: call for name, call in ONE_CONFIGURATION.items() if name not in TAKES_FLOATS}


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


# propagate with a 0-d field is test_wavepacket's test_a_0d_array_field_is_the_float_call
@pytest.mark.parametrize("entry", [name for name in ENTRIES if name != "propagate"])
@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(ModelParams)])
def test_a_0d_field_gives_the_float_call(entry, field):
    p = dataclasses.replace(P, **{field: np.array(getattr(P, field))})
    assert p.shape == () and p.is_array
    assert _bits(ENTRIES[entry](p)) == _bits(ENTRIES[entry](P))
