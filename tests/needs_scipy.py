"""The skip mark for a test that runs a real wave packet.

``propagate`` imports scipy when first called, so such a test needs scipy;
``needs_scipy`` skips it, with the import error as its reason, where scipy
is not installed.  Modules that import scipy themselves guard the import
and skip as a whole, so that every module still loads on a numpy-only
install.
"""

import pytest

try:
    import scipy  # noqa: F401
except ModuleNotFoundError as exc:
    _missing = exc
else:
    _missing = None

needs_scipy = pytest.mark.skipif(_missing is not None, reason=f"needs scipy ({_missing})")
