"""The skip mark for a test that uses scipy as an independent reference.

The package runs on numpy alone; a few wave-packet tests check its step
against SuperLU, LAPACK's tridiagonal solver or scipy's DST, and
``needs_scipy`` skips them, with the import error as its reason, where
scipy is not installed.  Modules that import scipy for every test guard
the import and skip as a whole, so that every module still loads on a
numpy-only install.
"""

import pytest

try:
    import scipy  # noqa: F401
except ModuleNotFoundError as exc:
    _missing = exc
else:
    _missing = None

needs_scipy = pytest.mark.skipif(_missing is not None, reason=f"needs scipy ({_missing})")
