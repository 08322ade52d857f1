"""Eigensolve counts, gated exactly where they are deterministic.

Every eigensolve goes through ``qcontext.linalg.jacobi_eigh``; the
counter replaces that module attribute, which every caller looks up at
call time.  Counts depend only on the code path, never on timing.
"""

import numpy as np
import pytest

from qcontext import acceptance, linalg
from qcontext.contexts import context, luders_nonselective, observable
from qcontext.correlations import chsh, chsh_optimal_settings
from qcontext.states import PureState, make_singlet


@pytest.fixture
def eigensolves(monkeypatch):
    calls = []
    original = linalg.jacobi_eigh

    def counting(h, *args, **kwargs):
        calls.append(len(h))
        return original(h, *args, **kwargs)

    monkeypatch.setattr(linalg, "jacobi_eigh", counting)
    return calls


def test_suite_makes_at_most_2600_eigensolves(eigensolves):
    # 4,400 before derived states skipped validation and chsh built each
    # direction once
    results = acceptance.run_suite()
    assert all(r.passed for r in results)
    assert len(eigensolves) <= 2600


def test_chsh_builds_each_direction_once(eigensolves):
    singlet = make_singlet()
    chsh(singlet, *chsh_optimal_settings())
    assert eigensolves == [2, 2, 2, 2]


def test_luders_on_a_prebuilt_observable_solves_nothing(eigensolves):
    obs = observable(np.diag([1.0, 2.0, 2.0]).astype(complex))
    eigensolves.clear()
    psi = PureState(np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0))
    luders_nonselective(context(psi, obs))
    assert eigensolves == []
