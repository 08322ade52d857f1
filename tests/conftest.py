"""Fixtures shared by several test modules."""

import pytest

from qcontext import linalg


@pytest.fixture
def eigensolves(monkeypatch):
    """Dimensions of every eigensolve made while the test runs.

    Every eigensolve goes through the kernel ``qcontext.linalg._eigh``,
    whether it came in through the validating ``jacobi_eigh`` or from
    library code that calls the kernel directly; the counter replaces
    that module attribute, which every caller looks up at call time.
    """
    calls = []
    original = linalg._eigh

    def counting(a, *args, **kwargs):
        calls.append(len(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "_eigh", counting)
    return calls
