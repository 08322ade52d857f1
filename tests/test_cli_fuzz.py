"""The exit-code contract under arbitrary input files.

Any JSON value or raw bytes may arrive as a state, observable, problem or
statistics file.  Whatever it holds, the CLI must end with 0, 1 or 2 and
a report or one ``error:`` line: never a traceback, never exit 3 (a fault
in the program), never a ``RuntimeWarning`` (numpy overflowing or
dividing by zero on the way), and exit 1 only with a report that says
``"passed": false``.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from qcontext.cli import main

# Each file kind and the command that reads it.
COMMANDS = {
    "state": ["total-spin", "--state", "input.json"],
    "pure_state": ["schmidt", "--state", "input.json"],
    "observable": ["luders", "--state", "plus", "--observable", "input.json"],
    "problem": ["ks-search", "--problem", "input.json"],
    "statistics": ["mub-tomography", "--stats", "input.json"],
}

_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4)
)
_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
_entry = st.floats(min_value=-2.0, max_value=2.0) | st.sampled_from(
    [0.0, -0.0, 1.0, 0.5, 1e308, -1e308, math.nan, math.inf, 1e-300]
)


@st.composite
def _matrix_like(draw):
    """A dim/re/im object near the valid shape, so checks past the first run."""
    dim = draw(st.integers(min_value=-1, max_value=4) | _scalars)
    sizes = st.integers(min_value=0, max_value=17)
    if type(dim) is int and 1 <= dim <= 4:
        # As often the entry count a vector or matrix of that dim needs.
        sizes = sizes | st.sampled_from([dim, dim * dim])
    size = draw(sizes)
    obj = {
        "dim": dim,
        "re": draw(st.lists(_entry, min_size=size, max_size=size) | _json),
        "im": draw(st.lists(_entry, min_size=size, max_size=size)),
    }
    if draw(st.booleans()):
        obj["label"] = draw(_json)
    return obj


@st.composite
def _problem_like(draw):
    n = draw(st.integers(min_value=0, max_value=3))
    return {
        "observables": draw(st.lists(_matrix_like(), min_size=n, max_size=n) | _json),
        "labels": draw(st.lists(st.text(max_size=2), min_size=n, max_size=n) | _json),
        "contexts": draw(
            st.lists(st.lists(st.integers(min_value=-1, max_value=3), max_size=3), max_size=3)
            | _json
        ),
        "signs": draw(st.lists(st.integers(min_value=-2, max_value=2), max_size=3) | _json),
    }


@st.composite
def _statistics_like(draw):
    obj = {
        "dim": draw(st.integers(min_value=-1, max_value=3) | _scalars),
        "tables": draw(st.lists(st.lists(_entry, max_size=4), max_size=4) | _json),
    }
    for key in ("samples", "seed"):
        if draw(st.booleans()):
            obj[key] = draw(st.integers(min_value=-3, max_value=10**6) | _scalars)
    return obj


def _as_bytes(value) -> bytes:
    # json.dumps writes NaN and Infinity, which json.load reads back.
    return json.dumps(value).encode("utf-8")


def _contents(shaped):
    return st.one_of(
        st.binary(max_size=64),
        _json.map(_as_bytes),
        shaped.map(_as_bytes),
    )


def _run(argv, payload: bytes) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one CLI call; fails on a RuntimeWarning."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        path = Path(tmp) / "input.json"
        path.write_bytes(payload)
        argv = [str(path) if a == "input.json" else a for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not runtime, (argv[0], payload, runtime)
    return code, out.getvalue(), err.getvalue()


def _assert_contract(kind, payload):
    code, out, err = _run(COMMANDS[kind], payload)
    assert "Traceback" not in err
    assert code in (0, 1, 2), (code, err)
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert json.loads(out)["passed"] is (code == 0)


_settings = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@_settings
@given(payload=_contents(_matrix_like()))
def test_state_files_keep_the_exit_contract(payload):
    _assert_contract("state", payload)


@_settings
@given(payload=_contents(_matrix_like()))
def test_pure_state_files_keep_the_exit_contract(payload):
    _assert_contract("pure_state", payload)


@_settings
@given(payload=_contents(_matrix_like()))
def test_observable_files_keep_the_exit_contract(payload):
    _assert_contract("observable", payload)


@_settings
@given(payload=_contents(_problem_like()))
def test_problem_files_keep_the_exit_contract(payload):
    _assert_contract("problem", payload)


@_settings
@given(payload=_contents(_statistics_like()))
def test_statistics_files_keep_the_exit_contract(payload):
    _assert_contract("statistics", payload)


def test_valid_files_reach_a_report():
    # The strategies above can produce files the commands accept; check
    # that one of each kind does, so the contract is not met vacuously.
    singlet = {"dim": 4, "re": [0.0, 2**-0.5, -(2**-0.5), 0.0], "im": [0.0] * 4}
    z = {"dim": 2, "re": [1.0, 0.0, 0.0, -1.0], "im": [0.0] * 4}
    stats = {"dim": 2, "tables": [[0.5, 0.5], [0.5, 0.5], [1.0, 0.0]]}
    identity = {"dim": 1, "re": [1.0], "im": [0.0]}
    problem = {"observables": [identity], "labels": ["I"], "contexts": [[0]], "signs": [1]}
    for kind, value in (
        ("state", singlet), ("pure_state", singlet), ("observable", z),
        ("statistics", stats), ("problem", problem),
    ):
        code, out, _ = _run(COMMANDS[kind], _as_bytes(value))
        assert code in (0, 1), kind
        assert json.loads(out)["passed"] is (code == 0)
