"""The public surface: the example scripts run against it, and tolerances
are module constants rather than keywords."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qcontext.linalg as la
from qcontext import io
from qcontext.contexts import check_representative, context, luders_nonselective, observable
from qcontext.correlations import CorrelationRecord, Direction
from qcontext.states import PureState, as_density, make_singlet

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script", ["context_census.py", "correlation_sweep.py", "entanglement_growth.py"]
)
def test_example_script_runs(script, tmp_path):
    # Run in tmp_path: two of the scripts write a CSV file into the
    # working directory.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr[-500:]
    assert proc.stdout.strip()


H = np.array([[1.0, 0.5], [0.5, -1.0]], dtype=complex)
Z = Direction(0.0, 0.0, 1.0)


def _representative_state():
    psi = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))
    return luders_nonselective(context(psi, observable(la.SIGMA_Z)))


# Each call passes one keyword that the API no longer takes.
REMOVED_KEYWORDS = {
    "jacobi_eigh": ("off_tol", lambda: la.jacobi_eigh(H, off_tol=1e-12)),
    "_eigh": ("off_tol", lambda: la._eigh(H, True, off_tol=1e-12)),
    "spectral_decompose": ("merge_tol", lambda: la.spectral_decompose(H, merge_tol=1e-8)),
    "from_eigenpairs": (
        "merge_tol",
        lambda: la.SpectralDecomposition.from_eigenpairs(*la.jacobi_eigh(H), merge_tol=1e-8),
    ),
    "require_hermitian": ("tol", lambda: la.require_hermitian(H, tol=1e-9)),
    "commutes": ("tol", lambda: la.commutes(H, H, tol=1e-9)),
    "_checked_hermitian": ("tol", lambda: la._checked_hermitian(H, tol=1e-9)),
    "is_pure": ("tol", lambda: as_density(make_singlet()).is_pure(tol=1e-9)),
    "check_representative": (
        "tol", lambda: check_representative(_representative_state(), tol=1e-9)
    ),
    "round_sig": ("digits", lambda: io.round_sig(1.0, digits=12)),
    "CorrelationRecord": (
        "marginal_1",
        lambda: CorrelationRecord(
            setting_1=Z,
            setting_2=Z,
            joint={(1, 1): 0.5, (1, -1): 0.0, (-1, 1): 0.0, (-1, -1): 0.5},
            marginal_1={1: 0.5, -1: 0.5},
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(REMOVED_KEYWORDS))
def test_removed_keyword_raises_type_error(name):
    keyword, call = REMOVED_KEYWORDS[name]
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
        call()

