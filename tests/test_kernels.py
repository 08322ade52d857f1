"""The five shared product kernels of ``linalg`` and their single home.

``_hermitian_part``, ``_trace_product``, ``_commutator_defect``,
``_to_basis`` and ``_from_basis`` are the only
spelling of those operations in ``src/``: each must give, bit for bit,
its inline spelling, and no other module may write one out again.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import qcontext.linalg as la

SRC = Path(__file__).resolve().parents[1] / "src" / "qcontext"
SIZES = (2, 3, 4, 8, 64)


def _matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _bits(x):
    return np.asarray(x).tobytes()


@pytest.mark.parametrize("n", SIZES)
def test_kernels_match_their_inline_spelling_bit_for_bit(n):
    rng = np.random.default_rng(1000 + n)
    a, b = _matrix(rng, n), _matrix(rng, n)
    assert _bits(la._hermitian_part(a)) == _bits(0.5 * (a + a.conj().T))
    assert _bits(la._trace_product(a, b)) == _bits(float(np.trace(a @ b).real))
    assert _bits(la._commutator_defect(a, b)) == _bits(float(np.abs(a @ b - b @ a).max()))
    assert _bits(la._to_basis(a, b)) == _bits(a.conj().T @ b @ a)
    assert _bits(la._from_basis(a, b)) == _bits(a @ b @ a.conj().T)


def _same(x, y):
    return ast.dump(x) == ast.dump(y)


def _is_dagger_of(node, m):
    """``m.conj().T``."""
    if not (isinstance(node, ast.Attribute) and node.attr == "T"):
        return False
    call = node.value
    return (
        isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
        and call.func.attr == "conj" and _same(call.func.value, m)
    )


def _matmul(node):
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)


def kernel_written_out(node):
    """Name of the kernel an expression spells out inline, or None."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        s = node.right
        if (
            ast.unparse(node.left) == "0.5" and isinstance(s, ast.BinOp)
            and isinstance(s.op, ast.Add) and _is_dagger_of(s.right, s.left)
        ):
            return "_hermitian_part"
    if _matmul(node) and _matmul(node.left):
        if _is_dagger_of(node.left.left, node.right):
            return "_to_basis"
        if _is_dagger_of(node.right, node.left.left):
            return "_from_basis"
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
        ab, ba = node.left, node.right
        if (
            _matmul(ab) and _matmul(ba)
            and _same(ab.left, ba.right) and _same(ab.right, ba.left)
        ):
            return "_commutator_defect"
    if isinstance(node, ast.Call):
        func = ast.unparse(node.func)
        if func == "np.trace" and node.args and _matmul(node.args[0]):
            return "_trace_product"
        if (  # a stacked trace, with axes, is another operation
            isinstance(node.func, ast.Attribute) and node.func.attr == "trace"
            and not node.args and not node.keywords and _matmul(node.func.value)
        ):
            return "_trace_product"
        if (
            func == "np.abs" and node.args and isinstance(node.args[0], ast.Call)
            and ast.unparse(node.args[0].func) in ("commutator", "la.commutator")
        ):
            return "_commutator_defect"
    return None


def written_out(source):
    return [
        (kernel_written_out(node), ast.unparse(node))
        for node in ast.walk(ast.parse(source))
        if kernel_written_out(node)
    ]


# The independent oracle of criterion 2 checks the library's trace of a
# product, so it must not share the kernel.
EXEMPT = {
    ("acceptance.py", "np.trace(rho @ np.kron(a.spin_matrix(), b.spin_matrix()))"),
}


@pytest.mark.parametrize(
    "source, kernel",
    [
        ("0.5 * (m + m.conj().T)", "_hermitian_part"),
        ("float(np.trace(self.matrix @ a).real)", "_trace_product"),
        ("float((w @ p).trace().real)", "_trace_product"),
        ("v.conj().T @ w @ v", "_to_basis"),
        ("v @ m @ v.conj().T", "_from_basis"),
        ("np.abs(w @ a - a @ w).max()", "_commutator_defect"),
        ("mats[i] @ mats[j] - mats[j] @ mats[i]", "_commutator_defect"),
        ("np.abs(la.commutator(b.matrix, c.matrix)).max()", "_commutator_defect"),
    ],
)
def test_scan_finds_each_inline_spelling(source, kernel):
    assert [k for k, _ in written_out(source)] == [kernel]


@pytest.mark.parametrize(
    "source",
    [
        "0.5 * (a + b)", "0.5 * (p - p.conj().T)", "np.trace(m)", "a @ b @ c", "p @ w @ p",
        "(u * values) @ u.conj().T", "v.conj().T @ w @ u",
        "a @ b - a @ b", "(rho @ elements).trace(axis1=1, axis2=2)", "la.commutator(a, b)",
    ],
)
def test_scan_passes_other_products(source):
    assert written_out(source) == []


def test_only_linalg_writes_the_kernels_out():
    found = {
        (path.name, text): kernel
        for path in sorted(SRC.glob("*.py"))
        if path.name != "linalg.py"
        for kernel, text in written_out(path.read_text())
    }
    assert EXEMPT <= found.keys()  # an exemption that no longer matches is stale
    assert {key: kernel for key, kernel in found.items() if key not in EXEMPT} == {}
