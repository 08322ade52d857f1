"""Outside input cannot reach the unvalidated ``DensityOperator._derived``
or ``PureState._derived``.

Only states the library derives from validated ones skip validation.
Each public way in for a matrix state must still reject a non-Hermitian
matrix, a trace-2 matrix and one with eigenvalue -0.1, and a derived
pure state holds the array that validation would have stored.
"""

import inspect
import json

import numpy as np
import pytest

from qcontext import cli, io, states
from qcontext.contexts import context, observable
from qcontext.correlations import Direction, conditional_remote_state
from qcontext.linalg import DimensionError
from qcontext.sampling import random_density, random_pure_state
from qcontext.states import (
    DensityOperator,
    PureState,
    as_density,
    entangling_evolution_demo,
    make_singlet,
)

_BAD_STATES = {
    "non_hermitian": (0.25 * np.eye(4) + 0.1 * np.eye(4, k=1), "not Hermitian"),
    "trace_two": (0.5 * np.eye(4), "trace"),
    "negative_eigenvalue": (np.diag([0.6, 0.3, 0.2, -0.1]), "negative eigenvalue"),
}
_CASES = pytest.mark.parametrize(
    "matrix, message", list(_BAD_STATES.values()), ids=list(_BAD_STATES)
)


@_CASES
def test_constructors_reject_bad_states(matrix, message):
    m = matrix.astype(complex)
    with pytest.raises(ValueError, match=message):
        DensityOperator(m)
    with pytest.raises(ValueError, match=message):
        as_density(m)
    with pytest.raises(ValueError, match=message):
        context(m, observable(np.diag([1.0, 2.0, 3.0, 4.0])))


@_CASES
def test_state_files_reject_bad_states(tmp_path, capsys, matrix, message):
    payload = io.matrix_to_json(matrix)
    with pytest.raises(ValueError, match=message):
        io.load_state_json(payload)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(payload))
    assert cli.main(["reduced", "--state", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_valid_state_file_passes_the_same_route(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(io.matrix_to_json(0.25 * np.eye(4))))
    assert cli.main(["reduced", "--state", str(path)]) == 0
    capsys.readouterr()


def test_io_and_cli_never_call_the_trusted_constructor():
    assert "_derived" not in inspect.getsource(io)
    assert "_derived" not in inspect.getsource(cli)


def test_derived_pure_states_hold_what_validation_would_store(monkeypatch):
    rng = np.random.default_rng(5)
    derived = [random_pure_state(dim, rng) for dim in (1, 2, 3, 4, 64)]
    for outcome in (1, -1):
        derived.append(conditional_remote_state(make_singlet(), Direction(0.0, 0.6, 0.8), outcome)[1])
    schmidt = states.schmidt

    def recording(psi, dims):
        derived.append(psi)
        return schmidt(psi, dims)

    monkeypatch.setattr(states, "schmidt", recording)
    entangling_evolution_demo(1.0, 0.5, steps=3)
    assert len(derived) == 11
    for psi in derived:
        checked = PureState(psi.amplitudes).amplitudes
        a = psi.amplitudes
        assert (a.dtype, a.shape, a.tobytes()) == (checked.dtype, checked.shape, checked.tobytes())


@pytest.mark.parametrize("draw", [random_pure_state, random_density])
@pytest.mark.parametrize("dim", [0, 65])
def test_unvalidated_draws_reject_unsupported_dimension(draw, dim):
    with pytest.raises(DimensionError, match="outside supported range"):
        draw(dim, np.random.default_rng(0))
