"""Reference implementations that optimised library code replaced.

The search and lattice check are the tuple-and-dict versions of the
vectorised combinatorial routines; tests require the library to return
results equal to these under ``==``, down to the last bit of
``max_defect``.  ``jacobi_eigh`` is the cyclic eigensolver written
literally on Python complex scalars, one matrix entry at a time; tests
require the library's Jacobi kernel (n <= 7) to match it bit for bit.
``jacobi_eigh_numpy`` is the cyclic loop on numpy rows and columns that
the scalar kernel replaced; numpy's complex loops round differently, so
tests hold the library to it within 1e-12 times the scale of the input.
``tensor``, ``fix_column_phases`` and ``spectral_decompose`` are the
kernel helpers as they were written with numpy's Python-level functions
(``np.kron``, ``np.diag``, ``np.mean``); tests require ``tobytes()``
equality.
``density_is_positive`` is the ``DensityOperator`` positivity rule
before the Cholesky certificate; tests require equal decisions and
messages.
``spin_projectors``, ``joint_table``, ``random_nondegenerate_observable``
and ``trace_distance`` are the solved and product-forming routes that the
closed forms replaced: a Jacobi solve of ``d . sigma``,
``Tr[W (P_i x Q_j)]`` from explicit Kronecker products, ``observable(m)``
on the sampled matrix, and the eigenvalues of a 2x2 difference.
``luders_nonselective`` and ``eigenbasis`` are the per-level routes that
the eigenbasis forms replaced: ``sum_i P_i W P_i`` with weights
``Tr(W P_i)`` from each level's projector, and each eigenvector extracted
from its level's projector.  Their arithmetic differs from the library's,
so tests hold the two to stated bounds, not to equal bytes.
"""

import collections
import itertools
import math

import numpy as np

from qcontext.contexts import BooleanLatticeReport, observable
from qcontext.contextuality import AssignmentSearchResult
from qcontext.linalg import (
    EIGENVALUE_MERGE_TOL,
    JACOBI_OFF_TOL,
    MAX_DIM,
    ConvergenceError,
    DimensionError,
    as_operator,
    dagger,
    _rank_one_vector,
    jacobi_eigh as library_jacobi_eigh,
    require_hermitian,
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


def _offdiag_norm(a):
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
        p = block @ dagger(block)
        p = 0.5 * (p + dagger(p))
        levels.append(float(np.mean(eigenvalues[i:j])))
        projectors.append(p)
        multiplicities.append(j - i)
        i = j
    return Spectrum(tuple(levels), tuple(projectors), tuple(multiplicities))


def _rotation(d, p, q, cutoff):
    """``(c, s, phase)`` of the rotation that annihilates ``d[p, q]``, or
    None when ``|d[p, q]|`` is at or below ``cutoff``."""
    apq = d[p, q]
    r = abs(apq)
    if r <= cutoff:
        return None
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
    return c, s, phase


def _rotate_columns(m, p, q, c, s, phase):
    mp = m[:, p].copy()
    mq = m[:, q].copy()
    m[:, p] = c * mp - s * phase.conjugate() * mq
    m[:, q] = s * mp + c * phase.conjugate() * mq


def _rotate_rows(m, p, q, c, s, phase):
    rp = m[p, :].copy()
    rq = m[q, :].copy()
    m[p, :] = c * rp - s * phase * rq
    m[q, :] = s * rp + c * phase * rq


def jacobi_eigh_numpy(h, off_tol: float = JACOBI_OFF_TOL):
    """Cyclic Jacobi on numpy rows and columns, every rotation product in place."""
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
        if _offdiag_norm(d) < threshold:
            break
        _cyclic_sweep(d, v, cutoff)
    else:
        raise ConvergenceError("Jacobi oracle did not converge")

    eigenvalues = np.diag(d).real.copy()
    order = np.argsort(eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    return eigenvalues, fix_column_phases(v[:, order])


def _cyclic_sweep(d, v, cutoff):
    n = d.shape[0]
    for p in range(n - 1):
        for q in range(p + 1, n):
            rotation = _rotation(d, p, q, cutoff)
            if rotation is None:
                continue
            _rotate_columns(d, p, q, *rotation)
            _rotate_rows(d, p, q, *rotation)
            _rotate_columns(v, p, q, *rotation)


def _norm(entries):
    """Frobenius norm of Python complex numbers: the exactly rounded sum of
    ``|z| * |z|`` over the entries, then one square root."""
    return math.sqrt(math.fsum([abs(z) * abs(z) for z in entries]))


def jacobi_eigh(h, off_tol: float = JACOBI_OFF_TOL):
    """Cyclic Jacobi on Python complex scalars, one entry at a time.

    ``d`` and ``v`` are lists of rows.  Each rotation rotates the columns
    of ``d``, then its rows, then the columns of ``v``, with the formulas
    of ``_rotation`` and every product's coefficient first.
    """
    a = require_hermitian(h)
    n = a.shape[0]
    d = [[complex(a[i, j]) for j in range(n)] for i in range(n)]
    v = [[complex(1.0 if i == j else 0.0) for j in range(n)] for i in range(n)]
    threshold = off_tol * max(1.0, _norm([d[i][j] for i in range(n) for j in range(n)]))
    cutoff = threshold / (2.0 * n)
    if n == 1:
        return np.array([d[0][0].real]), np.eye(1, dtype=complex)

    sweeps = 0
    while _norm([d[i][j] for i in range(n) for j in range(n) if i != j]) >= threshold:
        if sweeps == 100:
            raise ConvergenceError("Jacobi oracle did not converge")
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = d[p][q]
                r = abs(apq)
                if r <= cutoff:
                    continue
                phase = apq / r
                tau = (d[q][q].real - d[p][p].real) / (2.0 * r)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                for i in range(n):
                    x, y = d[i][p], d[i][q]
                    d[i][p] = c * x - s * phase.conjugate() * y
                    d[i][q] = s * x + c * phase.conjugate() * y
                for j in range(n):
                    x, y = d[p][j], d[q][j]
                    d[p][j] = c * x - s * phase * y
                    d[q][j] = s * x + c * phase * y
                for i in range(n):
                    x, y = v[i][p], v[i][q]
                    v[i][p] = c * x - s * phase.conjugate() * y
                    v[i][q] = s * x + c * phase.conjugate() * y
        sweeps += 1

    order = sorted(range(n), key=lambda i: d[i][i].real)
    eigenvalues = np.array([d[i][i].real for i in order])
    vectors = np.zeros((n, n), dtype=complex)
    for j, k in enumerate(order):
        column = [v[i][k] for i in range(n)]
        m = 0
        for i in range(n):
            if abs(column[i]) > abs(column[m]):
                m = i
        z = column[m]
        if abs(z) > 0.0:
            column = [x * (z.conjugate() / abs(z)) for x in column]
        for i in range(n):
            vectors[i, j] = column[i]
    return eigenvalues, vectors


def density_is_positive(m):
    """``(accepted, message)``: the Jacobi minimum of ``m`` against -1e-9."""
    eigenvalues, _ = library_jacobi_eigh(m, vectors=False)
    low = float(eigenvalues.min())
    if low < -POSITIVITY_TOL:
        return False, f"density operator has negative eigenvalue {low:.3e}"
    return True, None


def spin_projectors(d):
    """``{+1: P, -1: Q}`` of ``d . sigma`` from its Jacobi spectral resolution."""
    obs = observable(d.spin_matrix())
    return {int(round(a)): p for a, p in zip(obs.spectrum.eigenvalues, obs.spectrum.projectors)}


def joint_table(rho, pa, pb):
    """``{(i, j): Tr[W (P_i x Q_j)]}``, each product operator formed and traced."""
    return {
        (i, j): float((rho @ tensor(pa[i], pb[j])).trace().real)
        for i in (1, -1)
        for j in (1, -1)
    }


def random_nondegenerate_observable(dim, rng, label=""):
    """The sampled observable, its spectrum solved from the matrix by ``observable``."""
    u = random_unitary(dim, rng)
    values = np.arange(1.0, dim + 1.0)
    m = (u * values) @ dagger(u)
    m = 0.5 * (m + dagger(m))
    return observable(m, label=label), values, u


def luders_nonselective(w, spectrum):
    """``(sum_i P_i W P_i, {a_i: Tr(W P_i)})``, each level's projector formed."""
    out = np.zeros_like(w)
    weights = {}
    for a, p in spectrum.levels():
        out += p @ w @ p
        weights[a] = float(np.trace(w @ p).real)
    return out, weights


def eigenbasis(spectrum):
    """``[(a_i, v_i)]`` of a non-degenerate spectrum, ``v_i`` extracted from ``P_i``."""
    return [(a, _rank_one_vector(p)) for a, p in spectrum.levels()]


def trace_distance(a, b):
    """(1/2) sum |eigenvalues| of the symmetrised difference, solved by Jacobi."""
    diff = a - b
    diff = 0.5 * (diff + dagger(diff))
    eigenvalues, _ = library_jacobi_eigh(diff, vectors=False)
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
