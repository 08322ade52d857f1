"""Reference implementations that optimised library code replaced.

The search and lattice check are the tuple-and-dict versions of the
vectorised combinatorial routines; tests require the library to return
results equal to these under ``==``, down to the last bit of
``max_defect``.  ``jacobi_eigh`` is the eigensolver before its inner
loop formed each rotation product once; tests require bit-equal output.
``tensor``, ``offdiag_norm``, ``fix_column_phases`` and
``spectral_decompose`` are the kernel helpers as they were written with
numpy's Python-level functions (``np.kron``, ``np.linalg.norm``,
``np.diag``, ``np.mean``); tests require ``tobytes()`` equality.
``density_is_positive`` is the ``DensityOperator`` positivity rule
before the Cholesky certificate; tests require equal decisions and
messages.
"""

import itertools

import numpy as np

from qcontext.contexts import BooleanLatticeReport
from qcontext.contextuality import AssignmentSearchResult
from qcontext.linalg import (
    EIGENVALUE_MERGE_TOL,
    JACOBI_OFF_TOL,
    MAX_DIM,
    ConvergenceError,
    DimensionError,
    SpectralDecomposition,
    as_operator,
    dagger,
    jacobi_eigh as library_jacobi_eigh,
    require_hermitian,
)
from qcontext.states import POSITIVITY_TOL, DensityOperator


def tensor(a, b):
    """Kronecker product by ``np.kron`` after the library's validation."""
    a = as_operator(a)
    b = as_operator(b)
    d = a.shape[0] * b.shape[0]
    if d > MAX_DIM:
        raise DimensionError(f"tensor product dimension {d} exceeds {MAX_DIM}")
    return np.kron(a, b)


def offdiag_norm(a):
    """Frobenius norm of ``a`` with its diagonal subtracted out."""
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def fix_column_phases(v):
    """Largest-magnitude entry of each column made real positive, per column."""
    out = v.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        k = int(np.argmax(np.abs(col)))
        z = col[k]
        if abs(z) > 0.0:
            out[:, j] = col * (z.conj() / abs(z))
    return out


def spectral_decompose(h, merge_tol: float = EIGENVALUE_MERGE_TOL):
    """Levels as ``np.mean`` of each run of close eigenvalues, library solver."""
    eigenvalues, vectors = library_jacobi_eigh(h)
    levels, projectors, multiplicities = [], [], []
    i = 0
    n = len(eigenvalues)
    while i < n:
        j = i + 1
        while j < n and eigenvalues[j] - eigenvalues[j - 1] <= merge_tol:
            j += 1
        block = vectors[:, i:j]
        p = block @ dagger(block)
        p = 0.5 * (p + dagger(p))
        levels.append(float(np.mean(eigenvalues[i:j])))
        projectors.append(p)
        multiplicities.append(j - i)
        i = j
    return SpectralDecomposition(
        eigenvalues=tuple(levels),
        projectors=tuple(projectors),
        multiplicities=tuple(multiplicities),
    )


def jacobi_eigh(h, off_tol: float = JACOBI_OFF_TOL):
    """Cyclic Jacobi with every rotation product written out in place."""
    a = require_hermitian(h)
    n = a.shape[0]
    d = a.copy()
    v = np.eye(n, dtype=complex)
    scale = max(1.0, float(np.linalg.norm(a)))
    threshold = off_tol * scale
    cutoff = threshold / (2.0 * n)

    if n == 1:
        return np.array([d[0, 0].real]), v

    for _ in range(100):
        if float(np.linalg.norm(d - np.diag(np.diag(d)))) < threshold:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = d[p, q]
                r = abs(apq)
                if r <= cutoff:
                    continue
                phase = apq / r
                app = d[p, p].real
                aqq = d[q, q].real
                tau = (aqq - app) / (2.0 * r)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                dp = d[:, p].copy()
                dq = d[:, q].copy()
                d[:, p] = c * dp - s * phase.conjugate() * dq
                d[:, q] = s * dp + c * phase.conjugate() * dq
                rp = d[p, :].copy()
                rq = d[q, :].copy()
                d[p, :] = c * rp - s * phase * rq
                d[q, :] = s * rp + c * phase * rq
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * phase.conjugate() * vq
                v[:, q] = s * vp + c * phase.conjugate() * vq
    else:
        raise ConvergenceError("Jacobi oracle did not converge")

    eigenvalues = np.diag(d).real.copy()
    order = np.argsort(eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    return eigenvalues, fix_column_phases(v[:, order])


def density_is_positive(m):
    """``(accepted, message)``: the Jacobi minimum of ``m`` against -1e-9."""
    eigenvalues, _ = library_jacobi_eigh(m, vectors=False)
    low = float(eigenvalues.min())
    if low < -POSITIVITY_TOL:
        return False, f"density operator has negative eigenvalue {low:.3e}"
    return True, None


def search_noncontextual_assignment(problem) -> AssignmentSearchResult:
    """Every global +-1 assignment in ``itertools.product`` order, one dict each."""
    count = 0
    example = None
    cases = 0
    for values in itertools.product((1, -1), repeat=problem.size):
        cases += 1
        assignment = dict(zip(problem.labels, values))
        satisfied = True
        for ctx, sign in zip(problem.contexts, problem.signs):
            prod = 1
            for i in ctx:
                prod *= assignment[problem.labels[i]]
            if prod != sign:
                satisfied = False
                break
        if satisfied:
            count += 1
            if example is None:
                example = assignment
    return AssignmentSearchResult(
        cases_checked=cases, satisfying_count=count, example=example
    )


def boolean_lattice_check(a, states=None, tol: float = 1e-9) -> BooleanLatticeReport:
    """Subsets as bit tuples, every pair of elements compared one at a time."""
    projectors = list(a.spectrum.projectors)
    k = len(projectors)
    dim = a.dim
    defect = 0.0

    orthogonal = True
    for i in range(k):
        for j in range(k):
            prod = projectors[i] @ projectors[j]
            target = projectors[i] if i == j else np.zeros_like(prod)
            err = float(np.abs(prod - target).max())
            defect = max(defect, err)
            if err >= tol:
                orthogonal = False
    total = sum(projectors)
    err = float(np.abs(total - np.eye(dim)).max())
    defect = max(defect, err)
    complete = err < tol

    subsets = list(itertools.product((0, 1), repeat=k))
    elements = {
        bits: sum(
            (projectors[i] for i in range(k) if bits[i]),
            np.zeros((dim, dim), dtype=complex),
        )
        for bits in subsets
    }

    meet_ok = join_ok = True
    for s in subsets:
        for t in subsets:
            meet_bits = tuple(x & y for x, y in zip(s, t))
            join_bits = tuple(x | y for x, y in zip(s, t))
            meet = elements[s] @ elements[t]
            err = float(np.abs(meet - elements[meet_bits]).max())
            defect = max(defect, err)
            if err >= tol:
                meet_ok = False
            join = elements[s] + elements[t] - meet
            err = float(np.abs(join - elements[join_bits]).max())
            defect = max(defect, err)
            if err >= tol:
                join_ok = False
    complement_ok = True
    for s in subsets:
        comp_bits = tuple(1 - x for x in s)
        err = float(np.abs((np.eye(dim) - elements[s]) - elements[comp_bits]).max())
        defect = max(defect, err)
        if err >= tol:
            complement_ok = False

    if states is None:
        rng = np.random.default_rng(0)
        states = []
        for _ in range(20):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            m = g @ g.conj().T
            states.append(DensityOperator(m / np.trace(m).real))
    probs_ok = True
    for rho in states:
        values = {
            bits: float(np.trace(rho.matrix @ elements[bits]).real)
            for bits in subsets
        }
        for bits, p in values.items():
            if p < -tol or p > 1.0 + tol:
                probs_ok = False
            defect = max(defect, max(-p, p - 1.0, 0.0))
        atoms = [values[tuple(1 if i == j else 0 for i in range(k))] for j in range(k)]
        err = abs(sum(atoms) - 1.0)
        defect = max(defect, err)
        if err >= tol:
            probs_ok = False
        for s in subsets:
            for t in subsets:
                if all(x & y == 0 for x, y in zip(s, t)):
                    union = tuple(x | y for x, y in zip(s, t))
                    err = abs(values[union] - values[s] - values[t])
                    defect = max(defect, err)
                    if err >= tol:
                        probs_ok = False

    return BooleanLatticeReport(
        element_count=len(subsets),
        projectors_orthogonal=orthogonal,
        complete=complete,
        closed_under_meet=meet_ok,
        closed_under_join=join_ok,
        closed_under_complement=complement_ok,
        probabilities_consistent=probs_ok,
        max_defect=defect,
    )
