import pytest


class _Enumerated:
    """A pattern under a kind the d = 1 window probe does not take, so the
    exact tuple search enumerates the whole (cube-cut) product for it."""

    kind = "enumerated"

    def __init__(self, pattern):
        self._pattern = pattern

    def __getattr__(self, name):
        return getattr(self._pattern, name)


@pytest.fixture(scope="session")
def enumerated():
    """Wrap a pattern so the scan and the incidence set take the product
    enumeration instead of the probe: a reference that is not the probe."""
    return _Enumerated
