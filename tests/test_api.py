"""The public surface: the example scripts run against it, tolerances are
module constants rather than keywords, and every public definition is
reached from the program, not only from its tests."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qcontext.linalg as la
from qcontext import io
from qcontext.contexts import check_representative, context, luders_nonselective, observable
from qcontext.correlations import CorrelationRecord
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



# The definition census.  A public definition in src/qcontext must be named
# (read as a name or an attribute, or imported) somewhere in these trees
# outside its own definition; a name only tests reach is dead code.  It
# matches by name alone, so it cannot see a dead method whose name another
# definition shares and something reads (``SpectralDecomposition.reconstruct``
# hid behind ``SchmidtDecomposition.reconstruct`` and ``mub.reconstruct``).
SRC = ROOT / "src" / "qcontext"
READERS = (SRC, ROOT / "scripts", ROOT / "perfbench")

# Public definitions nothing outside tests/ names, each with its reason.
CENSUS_EXEMPT = {
    # The README documents these as the validating boundary over
    # ``_tensor``, ``_partial_trace`` and ``_trace_distance``, which library
    # code calls on arrays it built.
    ("linalg", "tensor"),
    ("linalg", "partial_trace"),
    ("linalg", "trace_distance"),
    # Exported, and documented in the README as an entry that refuses a
    # non-finite time and an overflowing exp(-i H t).  Library code calls
    # no propagator: ``entangling_evolution_demo`` decomposes its
    # generator once.
    ("linalg", "evolution_operator"),
}


def _census_exempt(module: str, name: str) -> bool:
    # ``main`` looks each ``cmd_*`` function up by name, from the subcommand;
    # test_cli.py::test_command_table_names_every_cmd_function covers them.
    return (module == "cli" and name.startswith("cmd_")) or (module, name) in CENSUS_EXEMPT


def _public_definitions(tree: ast.Module):
    """``(name, node)`` of each public module-level function, class and
    ALL-CAPS constant, and of each public method and property of a class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    if not target.id.startswith("_"):
                        yield target.id, node


def _named(tree: ast.Module):
    """``(name, line)`` of each name read, attribute read and import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rsplit(".", 1)[-1], node.lineno


def _unreached_definitions(readers=READERS, src=SRC) -> list[str]:
    """``module.name`` of each public definition in ``src`` that no file in
    ``readers`` names outside the definition's own lines."""
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for root in readers
        for path in sorted(root.rglob("*.py"))
    }
    uses: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for name, line in _named(tree):
            uses.setdefault(name, []).append((path, line))
    unreached = []
    for path in sorted(src.glob("*.py")):
        for name, node in _public_definitions(trees[path]):
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            outside = (
                where != path or not first <= line <= node.end_lineno
                for where, line in uses.get(name, ())
            )
            if not any(outside) and not _census_exempt(path.stem, name):
                unreached.append(f"{path.stem}.{name}")
    return unreached


def test_every_public_definition_is_named_outside_tests():
    assert _unreached_definitions() == []


def test_census_sees_a_definition_only_its_own_body_names(tmp_path):
    # A recursive function and a property that reads itself are unreached,
    # and so is a constant named only in a string.
    (tmp_path / "mod.py").write_text(
        "LIMIT = 3\n"
        "USED = 4\n"
        "def walk(n):\n"
        "    return walk(n - 1) if n else USED\n"
        "class Box:\n"
        "    @property\n"
        "    def size(self):\n"
        "        return self.size\n"
        "    def empty(self):\n"
        "        return 'LIMIT'\n"
    )
    (tmp_path / "reader.py").write_text("from mod import Box\nBox().empty()\n")
    assert _unreached_definitions(readers=(tmp_path,), src=tmp_path) == [
        "mod.LIMIT", "mod.walk", "mod.size",
    ]


# The field census.  Every field of a dataclass in src/qcontext must be read
# as an attribute somewhere in READERS outside its class's ``__post_init__``:
# a field that only its constructor fills and checks, or that only tests
# read, is dead weight on every record.
FIELD_CENSUS_EXEMPT = {
    # ``cmd_*`` serialises these whole with ``dataclasses.asdict``, which
    # reads every field by name.
    "RepresentativenessReport",
    "BooleanLatticeReport",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        ast.unparse(d.func if isinstance(d, ast.Call) else d) == "dataclass"
        for d in node.decorator_list
    )


def _unread_fields(readers=READERS, src=SRC) -> list[str]:
    """``Class.field`` of each dataclass field in ``src`` that no file in
    ``readers`` reads as an attribute outside its class's ``__post_init__``."""
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for root in readers
        for path in sorted(root.rglob("*.py"))
    }
    reads: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append((path, node.lineno))
    unread = []
    for path in sorted(src.glob("*.py")):
        for cls in trees[path].body:
            if not isinstance(cls, ast.ClassDef) or not _is_dataclass(cls):
                continue
            if cls.name in FIELD_CENSUS_EXEMPT:
                continue
            checks = [
                range(item.lineno, item.end_lineno + 1)
                for item in cls.body
                if isinstance(item, ast.FunctionDef) and item.name == "__post_init__"
            ]
            for item in cls.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                    if not any(
                        where != path or not any(line in lines for lines in checks)
                        for where, line in reads.get(name, ())
                    ):
                        unread.append(f"{cls.name}.{name}")
    return unread


def test_every_dataclass_field_is_read_outside_tests():
    assert _unread_fields() == []


def test_field_census_sees_a_field_only_its_checks_read(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Record:\n"
        "    kept: int\n"
        "    written: int\n"
        "    shown: int\n"
        "    def __post_init__(self):\n"
        "        assert self.written >= 0\n"
        "    def show(self):\n"
        "        return self.shown\n"
        "@dataclass\n"
        "class Other:\n"
        "    unread: int\n"
        "class Plain:\n"
        "    note: int\n"
    )
    (tmp_path / "reader.py").write_text(
        "from mod import Record\nr = Record(1, 2, 3)\nprint(r.kept, r.show())\n"
    )
    assert _unread_fields(readers=(tmp_path,), src=tmp_path) == [
        "Record.written", "Other.unread",
    ]
