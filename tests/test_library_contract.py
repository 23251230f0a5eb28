"""Every public entry keeps the library contract over the float range: a
finite value or a typed DomainError, the same on floats and on every shape
of array.  Each test runs one entry over the seeded draw of
``contract_draw``, which lists the checks, and fails with the first drawn
example at which that entry broke the contract.
"""

import contract_draw as draw
import pytest

from twostate import ModelParams, ReducedParams, wavepacket


@pytest.mark.parametrize("name", draw.MODEL_FORMS)
def test_model_closed_forms(name, capfd):
    form = draw.MODEL_FORMS[name]
    draw.first_breach(draw.closed_form, draw.model_examples(), form, ModelParams, False)
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("name", draw.REDUCED_FORMS)
def test_reduced_closed_forms(name, capfd):
    form = draw.REDUCED_FORMS[name]
    draw.first_breach(draw.closed_form, draw.reduced_examples(), form, ReducedParams, True)
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize(("cls", "examples"), [(ModelParams, draw.model_examples),
                                               (ReducedParams, draw.reduced_examples)],
                         ids=["ModelParams", "ReducedParams"])
def test_constructors_report_the_first_bad_point(cls, examples, capfd):
    draw.first_breach(draw.constructor, examples(), cls)
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("entry", draw.ONE_CONFIGURATION)
def test_one_configuration_entries(entry, monkeypatch, capfd):
    monkeypatch.setattr(wavepacket, "splu", draw.splu_stub)
    draw.first_breach(draw.configuration, draw.one_configuration_points(), entry)
    assert capfd.readouterr() == ("", "")
