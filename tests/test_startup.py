"""CLI start-up: a process imports only what its subcommand uses, and the
one-subcommand parser reads exactly like the full one."""

import contextlib
import importlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcontext
from qcontext import cli

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _loaded_modules(*args: str) -> set[str]:
    """The qcontext modules a fresh ``python -X importtime <args>`` imports."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        env=env, capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr[-500:]
    names = set()
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            names.add(line.rsplit("|", 1)[1].strip())
    return names


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["chsh", "--state", "singlet"], ("mub", "contextuality", "acceptance", "sampling")),
        (
            ["schmidt", "--state", "singlet"],
            ("contexts", "correlations", "contextuality", "mub", "acceptance", "sampling"),
        ),
    ],
    ids=["chsh", "schmidt"],
)
def test_a_subcommand_loads_only_the_modules_it_uses(argv, absent):
    loaded = _loaded_modules("-m", "qcontext", *argv)
    assert {"qcontext.cli", "qcontext.states"} <= loaded
    assert loaded.isdisjoint(f"qcontext.{name}" for name in absent), loaded


def test_importing_the_package_loads_numpy_and_linalg_alone():
    # perfbench reads numpy's cumulative import time from "import qcontext"
    loaded = _loaded_modules("-c", "import qcontext")
    assert "numpy" in loaded
    assert {name for name in loaded if name.startswith("qcontext")} == {
        "qcontext", "qcontext.linalg",
    }


def test_every_exported_name_is_its_modules_object():
    for name in qcontext.__all__:
        value = getattr(qcontext, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
    namespace = {}
    exec("from qcontext import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(qcontext.__all__)
    assert all(namespace[name] is getattr(qcontext, name) for name in namespace)
    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        qcontext.nosuch
    # a submodule that no name names still imports
    assert importlib.import_module("qcontext.sampling").__name__ == "qcontext.sampling"


def _outcome(call, argv):
    """Exit code, stdout and stderr of ``call(argv)``, which may exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _full_parser(argv):
    cli.build_parser().parse_args(argv)


HELP = [["--help"]] + [[name, "--help"] for name in cli.COMMANDS]
USAGE_ERRORS = [
    ["nosuch"], ["chsh", "--bogus"], ["chsh", "--state", "singlet", "--bogus"], ["chsh"], [],
]


@pytest.mark.parametrize(
    "argv", HELP + USAGE_ERRORS, ids=[" ".join(a) or "no-arguments" for a in HELP + USAGE_ERRORS]
)
def test_main_parses_like_the_full_parser(argv):
    got = _outcome(cli.main, argv)
    want = _outcome(_full_parser, argv)
    assert got == want
    if argv in HELP:
        assert got[0] == 0 and got[1].startswith("usage: qcontext") and got[2] == ""
    else:
        assert got[0] == 2 and got[1] == "" and "error:" in got[2]


def test_a_one_subcommand_parser_lists_every_subcommand():
    full = cli.build_parser().format_help()
    for name in cli.COMMANDS:
        assert cli.build_parser(name).format_help() == full
