"""Every closed form gives finite fields or one typed DomainError, and the
same on floats and on arrays.

Each test reports one closed form's verdict from the shared draw of its
parameter type (``closed_form_draws``): the draw calls every form on each
of its 400 derandomized examples, so a form's test fails with the first
example at which that form broke a contract or its float and array paths
disagreed.  The assertions are listed in ``closed_form_draws``.
"""

import pytest
from closed_form_draws import (
    MODEL_FORMS,
    REDUCED_FORMS,
    assert_passed,
    model_failures,
    reduced_failures,
)


@pytest.mark.parametrize("name", MODEL_FORMS)
def test_model_closed_forms(name):
    assert_passed(model_failures(), name)


@pytest.mark.parametrize("name", REDUCED_FORMS)
def test_reduced_closed_forms(name):
    assert_passed(reduced_failures(), name)
