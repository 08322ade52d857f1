"""The exit-code contract under arbitrary argument vectors.

Argument vectors are drawn for every subcommand from ``cli.COMMANDS``,
the table the parser is built from: each declared flag may be left out,
given once or (for ``append`` flags) several times, with values inside
and outside its declared bounds, and now and then a flag no command
declares.  Whatever the vector, ``cli.main`` must return 0, 1 or 2,
never 3 (a fault in the program), with no traceback and no
``RuntimeWarning``.  ``suite`` is left out: it takes no argument of its
own and runs for seconds.  Loop counts inside their bounds are drawn at
50 or less, so that no example asks for much work.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qcontext import cli

INPUTS = Path(__file__).parent / "golden" / "inputs"

# Stands for a fresh temporary directory, substituted when the vector runs.
TMP = "<tmp>"

# Text for flags with an argparse ``type``: integers up to 50, the edges
# of the loop-count bounds, numbers a float holds only barely or not at
# all, and text that is no number.
_NUMBERS = st.integers(min_value=-3, max_value=50).map(str) | st.sampled_from([
    "0.5", "-0.0", "1e-300", "1e100", "-1e100", "1.00000000000001e100", "1e308",
    "-1e308", "1e309", "nan", "inf", "-inf",
    "10001", str(10**9), str(2**63), str(-(2**63) - 1), str(10**30), "1.5", "x", "",
])

# Text for flags without one, by flag: named and malformed states,
# observables, directions, factorisations and outcomes, and the input
# files of the golden tests.  Each flag also draws from all of them.
_SPECS = {
    "--state": [
        "singlet", "ghz", "zero", "one", "plus", "minus", "product:0,1", "product:1,1",
        "product:2,0", "product:a", "pure1.json", "pure2.json", "pure8.json", "rho2.json",
    ],
    "--observable": [
        "sigma_x", "sigma_y", "sigma_z", "spin:0,0,1", "spin:0.6,0,0.8", "spin:0,0,2",
        "spin:1e308,0,0", "spin:nan,0,0", "spin:1,0", "obs1.json", "obs4.json",
        "obs_a.json", "obs_b.json", "obs_c.json", "obs_deg.json",
    ],
    "--a": [
        "x", "y", "z", "deg:30", "deg:-1e308", "deg:nan", "deg:", "0,0,1", "0.6,0,-0.8",
        "1e-300,0,1", "1e308,1e308,0", "1,2", "a,b,c",
    ],
    "--dims": ["2,2", "1,4", "4,1", "2,4", "1,2", "0,4", "-2,-2", "2", "a,b"],
    "--outcome": ["+1", "-1", "+", "-", "1", "0"],
    "--problem": ["square.json", "relaxed.json", "padded.json"],
    "--stats": ["stats.json"],
}
for _flag in ("--a2", "--b", "--b2", "--setting"):
    _SPECS[_flag] = _SPECS["--a"]
_SPECS["--probe"] = _SPECS["--observable"]


def _spec(text):
    """A golden input file's path, or the text itself."""
    return str(INPUTS / text) if text.endswith(".json") else text


_ANY_SPEC = st.sampled_from(
    sorted({_spec(t) for texts in _SPECS.values() for t in texts})
    + ["", "no-such-file.json", f"{TMP}/missing/dir.json"]
)

# Where a flag writes a file: a fresh directory, or one that does not exist.
_TARGETS = st.sampled_from([f"{TMP}/out.txt", f"{TMP}/missing/out.txt"])
_WRITES = {"--out", "--csv"}


def _values(flag, options):
    if flag in _WRITES:
        return _TARGETS
    if "choices" in options or "type" in options:
        return _NUMBERS
    return st.sampled_from([_spec(t) for t in _SPECS[flag]]) | _ANY_SPEC


@st.composite
def _argv(draw, name):
    _, arguments = cli.COMMANDS[name]
    argv = [name]
    for flag, options in cli._COMMON + arguments:
        # Required flags are given nine times in ten, others one in two.
        include = draw(st.integers(0, 9)) > 0 if options.get("required") else draw(st.booleans())
        if not include:
            continue
        repeats = draw(st.integers(1, 3)) if options.get("action") == "append" else 1
        for _ in range(repeats):
            argv += [flag, draw(_values(flag, options))]
    if draw(st.integers(0, 19)) == 0:
        argv += ["--no-such-flag", "1"]
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = [a.replace(TMP, tmp) for a in argv]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), caught


_settings = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

NAMES = [name for name in cli.COMMANDS if name != "suite"]


@pytest.mark.parametrize("name", NAMES)
def test_argument_vectors_keep_the_exit_contract(name):
    @_settings
    @given(argv=_argv(name))
    def check(argv):
        code, out, err, caught = _run(argv)
        assert "Traceback" not in err
        assert code in (0, 1, 2), (argv, err)
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not runtime, (argv, [str(w.message) for w in runtime])
        if code == 2:
            assert out == ""
        else:
            assert json.loads(out)["passed"] is (code == 0)

    check()

