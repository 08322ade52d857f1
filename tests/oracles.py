"""Reference implementations that optimised library code replaced.

The search and lattice check are the tuple-and-dict versions of the
vectorised combinatorial routines; tests require the library to return
results equal to these under ``==``, down to the last bit of
``max_defect``.  The lattice check, as the library's, takes each
unordered pair of projectors and of events once: every event is exactly
Hermitian, so the product of (j, i) is that of (i, j) transposed.
``tensor``, ``fix_column_phases`` and ``spectral_decompose`` are the
kernel helpers as they were written with numpy's Python-level functions
(``np.kron``, ``np.diag``, ``np.mean``); tests require ``tobytes()``
equality.
``density_is_positive`` is the ``DensityOperator`` positivity rule
before the Cholesky certificate; tests require equal decisions and
messages.
``spin_projectors``, ``joint_table``, ``random_nondegenerate_observable``
and ``trace_distance`` are the solved and product-forming routes that the
closed forms replaced: an eigensolve of ``d . sigma``,
``Tr[W (P_i x Q_j)]`` from explicit Kronecker products, ``observable(m)``
on the sampled matrix, and the eigenvalues of a 2x2 difference.
``distant_after`` is the product-forming route of the no-signalling
check: ``Tr_1 sum_p (P_p x I) W (P_p x I)`` from explicit Kronecker
products and a looped partial trace, and ``Re Tr(r Q_j)`` of the result.
``luders_nonselective`` and ``eigenbasis`` are the per-level routes that
the eigenbasis forms replaced: ``sum_i P_i W P_i`` with weights
``Tr(W P_i)`` from each level's projector, and each eigenvector extracted
from its level's projector, one entry at a time.  Their arithmetic
differs from the library's, so tests hold the two to stated bounds, not
to equal bytes.
"""

import collections
import itertools
import math

import numpy as np

from qcontext.contexts import BooleanLatticeReport, observable
from qcontext.contextuality import AssignmentSearchResult
from qcontext.linalg import (
    EIGENVALUE_MERGE_TOL,
    MAX_DIM,
    DimensionError,
    as_operator,
    jacobi_eigh as library_jacobi_eigh,
)
from qcontext.sampling import random_unitary
from qcontext.states import POSITIVITY_TOL, DensityOperator


def tensor(a, b):
    """Kronecker product by ``np.kron`` after the library's validation."""
    a = as_operator(a)
    b = as_operator(b)
    d = a.shape[0] * b.shape[0]
    if d > MAX_DIM:
        raise DimensionError(f"tensor product dimension {d} exceeds {MAX_DIM}")
    return np.kron(a, b)


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


# The oracle's own record: every projector formed and kept.
Spectrum = collections.namedtuple("Spectrum", "eigenvalues projectors multiplicities")


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
        p = block @ block.conj().T
        p = 0.5 * (p + p.conj().T)
        levels.append(float(np.mean(eigenvalues[i:j])))
        projectors.append(p)
        multiplicities.append(j - i)
        i = j
    return Spectrum(tuple(levels), tuple(projectors), tuple(multiplicities))


def density_is_positive(m):
    """``(accepted, message)``: the smallest eigenvalue of ``m`` against -1e-9."""
    eigenvalues = library_jacobi_eigh(m)[0]
    low = float(eigenvalues.min())
    if low < -POSITIVITY_TOL:
        return False, f"density operator has negative eigenvalue {low:.3e}"
    return True, None


def spin_projectors(d):
    """``{+1: P, -1: Q}`` of ``d . sigma`` from its solved spectral resolution."""
    obs = observable(d.spin_matrix())
    return {int(round(a)): p for a, p in zip(obs.spectrum.eigenvalues, obs.spectrum.projectors)}


def joint_table(rho, pa, pb):
    """``{(i, j): Tr[W (P_i x Q_j)]}``, each product operator formed and traced."""
    return {
        (i, j): float((rho @ tensor(pa[i], pb[j])).trace().real)
        for i in (1, -1)
        for j in (1, -1)
    }


def distant_after(w, stack, qb):
    """``(r, [Re Tr(r Q_j)])`` with ``r = Tr_1 sum_p (P_p x I) W (P_p x I)``, each product formed."""
    eye = np.eye(2)
    conditioned = np.zeros((4, 4), dtype=complex)
    for p in stack:
        big = np.kron(p, eye)
        conditioned += big @ w @ big
    r = np.zeros((2, 2), dtype=complex)
    for a in range(2):
        for b in range(2):
            for e in range(2):
                r[b, e] += conditioned[2 * a + b, 2 * a + e]
    return r, [float(np.trace(r @ q).real) for q in qb]


def random_nondegenerate_observable(dim, rng):
    """The sampled observable, its spectrum solved from the matrix by ``observable``."""
    u = random_unitary(dim, rng)
    values = np.arange(1.0, dim + 1.0)
    m = (u * values) @ u.conj().T
    m = 0.5 * (m + m.conj().T)
    return observable(m), values, u


def luders_nonselective(w, spectrum):
    """``(sum_i P_i W P_i, {a_i: Tr(W P_i)})``, each level's projector formed."""
    out = np.zeros_like(w)
    weights = {}
    for a, p in spectrum.levels():
        out += p @ w @ p
        weights[a] = float(np.trace(w @ p).real)
    return out, weights


def eigenbasis(spectrum):
    """``[(a_i, v_i)]`` of a non-degenerate spectrum, ``v_i`` extracted from ``P_i``.

    One entry at a time: the column of ``P_i``'s first largest diagonal
    entry, divided by its norm, then turned so that its first entry of
    largest magnitude is real positive.
    """
    out = []
    for a, p in spectrum.levels():
        rows = p.tolist()
        diag = [rows[i][i].real for i in range(len(rows))]
        k = diag.index(max(diag))
        column = [row[k] for row in rows]
        norm = math.sqrt(math.fsum(abs(x) ** 2 for x in column))
        column = [x / norm for x in column]
        magnitudes = [abs(x) for x in column]
        z = column[magnitudes.index(max(magnitudes))]
        phase = z.conjugate() / abs(z)
        out.append((a, np.array([x * phase for x in column])))
    return out


def trace_distance(a, b):
    """(1/2) sum |eigenvalues| of the symmetrised difference, solved."""
    diff = a - b
    diff = 0.5 * (diff + diff.conj().T)
    eigenvalues = library_jacobi_eigh(diff)[0]
    return 0.5 * float(np.abs(eigenvalues).sum())


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
        for j in range(i, k):
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
    for i, s in enumerate(subsets):
        for t in subsets[i:]:
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
