"""Fixtures shared by several test modules."""

import pytest

from qcontext import linalg


@pytest.fixture
def eigensolves(monkeypatch):
    """Dimensions of every ``jacobi_eigh`` call made while the test runs.

    Every eigensolve goes through ``qcontext.linalg.jacobi_eigh``; the
    counter replaces that module attribute, which every caller looks up
    at call time.
    """
    calls = []
    original = linalg.jacobi_eigh

    def counting(h, *args, **kwargs):
        calls.append(len(h))
        return original(h, *args, **kwargs)

    monkeypatch.setattr(linalg, "jacobi_eigh", counting)
    return calls
