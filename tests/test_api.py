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
from qcontext.correlations import CorrelationRecord, Direction
from qcontext.contextuality import mermin_peres_square
from qcontext.sampling import random_nondegenerate_observable
from qcontext.states import PureState, as_density, make_singlet, schmidt

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
    "jacobi_eigh_vectors": ("vectors", lambda: la.jacobi_eigh(H, vectors=False)),
    "_eigh": ("off_tol", lambda: la._eigh(H, off_tol=1e-12)),
    "spectral_decompose": ("merge_tol", lambda: la.spectral_decompose(H, merge_tol=1e-8)),
    "from_eigenpairs": (
        "merge_tol",
        lambda: la.SpectralDecomposition.from_eigenpairs(*la.jacobi_eigh(H), merge_tol=1e-8),
    ),
    "require_hermitian": ("tol", lambda: la.require_hermitian(H, tol=1e-9)),
    "commutes": ("tol", lambda: la.commutes(H, H, tol=1e-9)),
    "_hermitian_input": ("tol", lambda: la._hermitian_input(H, tol=1e-9)),
    "is_pure": ("tol", lambda: as_density(make_singlet()).is_pure(tol=1e-9)),
    "check_representative": (
        "tol", lambda: check_representative(_representative_state(), tol=1e-9)
    ),
    "round_sig": ("digits", lambda: io.round_sig(1.0, digits=12)),
    "polar": ("phi", lambda: Direction.polar(0.3, phi=0.7)),
    "random_nondegenerate_observable": (
        "label", lambda: random_nondegenerate_observable(2, np.random.default_rng(0), label="A")
    ),
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


def _parse(readers) -> dict[Path, ast.Module]:
    """The syntax tree of every Python file under ``readers``."""
    return {
        path: ast.parse(path.read_text(), filename=str(path))
        for root in readers
        for path in sorted(root.rglob("*.py"))
    }


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
    trees = _parse(readers)
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


# The parameter census.  Every defaulted parameter of a public function or
# method in src/qcontext must be passed somewhere in READERS outside the
# function's own definition: by name at a call whose callee name or
# attribute is the function's name, or positionally past the required
# parameters.  A default no caller overrides is an option no caller needs.
# Like the definition census it matches callees by name alone.
PARAMETER_CENSUS_EXEMPT: dict[tuple[str, str, str], str] = {
    # (module, function, parameter): reason.  None today.
}


def _defaulted_parameters(fn: ast.FunctionDef, method: bool):
    """``(name, index)`` of each defaulted parameter of ``fn``: ``index``
    counts the positional arguments of a call before it (``self`` or
    ``cls`` not among them), and is None for a keyword-only one."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args][1 if method else 0 :]
    required = len(positional) - len(args.defaults)
    yield from ((name, i) for i, name in enumerate(positional) if i >= required)
    yield from (
        (a.arg, None) for a, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None
    )


def _public_functions(tree: ast.Module):
    """``(node, method)`` of each public module-level function and public
    method of a public class; a static method binds no first argument."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node, False
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    static = any(ast.unparse(d) == "staticmethod" for d in item.decorator_list)
                    yield item, not static


def _unpassed_defaults(readers=READERS, src=SRC) -> list[str]:
    """``module.function(parameter)`` of each defaulted parameter in ``src``
    that no call in ``readers`` passes outside the function's own lines."""
    trees = _parse(readers)
    calls: dict[str, list[tuple[Path, ast.Call]]] = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(callee, []).append((path, node))
    unpassed = []
    for path in sorted(src.glob("*.py")):
        for fn, method in _public_functions(trees[path]):
            outside = [
                call
                for where, call in calls.get(fn.name, ())
                if where != path or not fn.lineno <= call.lineno <= fn.end_lineno
            ]
            for name, index in _defaulted_parameters(fn, method):
                passed = any(
                    any(k.arg == name for k in call.keywords)
                    or index is not None
                    and sum(not isinstance(a, ast.Starred) for a in call.args) > index
                    for call in outside
                )
                if not passed and (path.stem, fn.name, name) not in PARAMETER_CENSUS_EXEMPT:
                    unpassed.append(f"{path.stem}.{fn.name}({name})")
    return unpassed


def test_every_defaulted_parameter_is_passed_outside_tests():
    assert _unpassed_defaults() == []


def test_parameter_census_sees_a_default_only_its_own_body_passes(tmp_path):
    # ``depth`` only in the recursion, ``note`` by name nowhere, ``scale``
    # of the method positionally (``self`` not counted), ``fmt`` by name.
    (tmp_path / "mod.py").write_text(
        "def walk(n, depth=0, *, note=''):\n"
        "    return walk(n - 1, depth + 1) if n else depth\n"
        "def show(x, fmt='g'):\n"
        "    return format(x, fmt)\n"
        "class Box:\n"
        "    def grow(self, by, scale=1.0):\n"
        "        return by * scale\n"
        "    def shrink(self, by=1):\n"
        "        return -by\n"
    )
    (tmp_path / "reader.py").write_text(
        "from mod import Box, show, walk\n"
        "walk(3)\n"
        "show(1.0, fmt='e')\n"
        "Box().grow(1, 2.0)\n"
        "Box().shrink(*[2])\n"
    )
    assert _unpassed_defaults(readers=(tmp_path,), src=tmp_path) == [
        "mod.walk(depth)", "mod.walk(note)", "mod.shrink(by)",
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
    trees = _parse(readers)
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


# The library keeps its running totals in one record, ``linalg.counts()``;
# a new counter is a new key of it, not a module global.
COUNT_KEYS = {"eigensolves", "sweeps", "operator_checks", "hermiticity_checks"}


def test_no_module_keeps_state_in_a_global_statement():
    declared = [
        f"{path.stem}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Global)
    ]
    assert declared == []


def test_counts_is_one_record_of_four_keys():
    assert set(la.counts()) == COUNT_KEYS


def test_writing_to_a_reading_of_counts_changes_no_later_one():
    reading = la.counts()
    expected = dict(reading)
    for key in COUNT_KEYS:
        reading[key] += 1000
    reading["extra"] = 1
    assert la.counts() == expected


# Records whose fields hold numpy arrays compare, and hash, by identity: a
# generated ``__eq__`` would compare the arrays and raise.
ARRAY_RECORDS = {
    "PureState": make_singlet,
    "DensityOperator": lambda: as_density(make_singlet()),
    "SchmidtDecomposition": lambda: schmidt(make_singlet(), (2, 2)),
    "SpectralDecomposition": lambda: la.spectral_decompose(la.SIGMA_Z),
    "Observable": lambda: observable(la.SIGMA_Z),
    "MeasurementContext": lambda: context(PureState(np.array([1.0, 0.0])), observable(la.SIGMA_Z)),
    "ContextualState": _representative_state,
    "ValueAssignmentProblem": mermin_peres_square,
}


@pytest.mark.parametrize("name", sorted(ARRAY_RECORDS))
def test_a_record_holding_arrays_compares_by_identity(name):
    a, b = ARRAY_RECORDS[name](), ARRAY_RECORDS[name]()
    assert type(a).__name__ == name
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2
