"""Dense complex operator algebra for desk-scale quantum calculations.

Everything in this package runs on ordinary row-major numpy arrays of
complex numbers.  Matrices stay small (dimension 64 at most), so the
routines here favour determinism and transparency over asymptotic speed:
Hermitian matrices are diagonalised by Jacobi rotations (in cyclic order
on Python complex scalars up to dimension 7, in round-robin order, a
round of disjoint pairs at a time on numpy arrays, above), phases of
eigenvectors are fixed by an explicit convention, and matrix functions
are evaluated through the spectral resolution rather than series.  A
spectral resolution keeps its eigenvectors and forms a level's projector
only when the level is read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

# Largest operator dimension the toolkit accepts.
MAX_DIM = 64

# A matrix counts as Hermitian when max-entry |H - H^dagger| stays below this.
HERMITICITY_TOL = 1e-9

# Eigenvalues closer than this are reported as one degenerate level.
EIGENVALUE_MERGE_TOL = 1e-8

# Jacobi sweeps stop once the off-diagonal Frobenius norm drops below
# this times the scale of the input.
JACOBI_OFF_TOL = 1e-12

_JACOBI_MAX_SWEEPS = 100

# Largest dimension diagonalised by cyclic sweeps; above it, sweeps run
# in round-robin order.  It was set where the numpy cyclic kernel stopped
# winning; the scalar one is faster up to n = 9 and even at n = 10
# (CHANGES.md has both tables), but moving the cut-over moves last bits
# at n = 8-9.
_JACOBI_CYCLIC_MAX_DIM = 7

# Solves of the Jacobi kernel ``_eigh`` and the sweeps they made so far;
# ``eigensolve_count`` and ``sweep_count`` read them.
_eigensolves = 0
_sweeps = 0

# Calls of ``as_operator`` and of ``hermiticity_defect`` so far;
# ``validation_count`` reads them.
_operator_checks = 0
_hermiticity_checks = 0


class DimensionError(ValueError):
    """Operands have incompatible or unsupported dimensions."""


class ConvergenceError(ArithmeticError):
    """An iterative routine failed to reach its tolerance."""


# Pauli matrices with the standard phase conventions.
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


def as_operator(m) -> np.ndarray:
    """Validate and return ``m`` as a square complex matrix.

    Raises
    ------
    DimensionError
        If ``m`` is not square or its dimension exceeds ``MAX_DIM``.
    ValueError
        If any entry is not finite.
    """
    global _operator_checks
    _operator_checks += 1
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1 or a.shape[0] > MAX_DIM:
        raise DimensionError(
            f"dimension {a.shape[0]} outside supported range 1..{MAX_DIM}"
        )
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def validation_count() -> tuple[int, int]:
    """``(as_operator calls, hermiticity_defect calls)`` in this process so far."""
    return _operator_checks, _hermiticity_checks


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def hermiticity_defect(m: np.ndarray) -> float:
    """Max-entry magnitude of ``m - m^dagger``."""
    global _hermiticity_checks
    _hermiticity_checks += 1
    a = np.asarray(m, dtype=complex)
    return float(np.abs(a - a.conj().T).max())


def _checked_hermitian(m) -> tuple[np.ndarray, float]:
    """``m`` validated as a Hermitian complex array, with its defect."""
    a = as_operator(m)
    defect = hermiticity_defect(a)
    if defect >= HERMITICITY_TOL:
        raise ValueError(
            f"matrix is not Hermitian: max |H - H^dagger| entry = {defect:.3e}"
        )
    return a, defect


def require_hermitian(m) -> np.ndarray:
    """Validate ``m`` as Hermitian, returning it as a complex array."""
    return _checked_hermitian(m)[0]


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two operators, ordered subsystem 1 (x) subsystem 2.

    Basis convention is row-major: entry (i*d2 + j, k*d2 + l) of the result
    is ``a[i, k] * b[j, l]``, one multiply per entry as in ``np.kron``,
    broadcast here without that function's Python-level reshaping.
    """
    a = as_operator(a)
    b = as_operator(b)
    d = a.shape[0] * b.shape[0]
    if d > MAX_DIM:
        raise DimensionError(
            f"tensor product dimension {d} exceeds supported maximum {MAX_DIM}"
        )
    return _tensor(a, b)


def _tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``tensor`` of two square complex arrays the library built; unchecked."""
    d = a.shape[0] * b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(d, d)


def partial_trace(m, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one subsystem of a bipartite operator.

    Parameters
    ----------
    m : array_like
        Operator on a space of dimension ``dims[0] * dims[1]``.
    dims : (d1, d2)
        Subsystem dimensions in tensor order.
    keep : int
        1 to retain subsystem 1 (trace out 2), 2 to retain subsystem 2.

    Returns the reduced operator on the retained subsystem.
    """
    return _partial_trace(as_operator(m), dims, keep)


def _partial_trace(a: np.ndarray, dims: tuple[int, int], keep: int) -> np.ndarray:
    """``partial_trace`` of a square complex array already validated.

    The dimensions and ``keep`` are still checked: they may come from
    outside.
    """
    if len(dims) != 2:
        raise DimensionError(f"dims must be a pair (d1, d2), got {dims!r}")
    d1, d2 = int(dims[0]), int(dims[1])
    if d1 < 1 or d2 < 1 or d1 * d2 != a.shape[0]:
        raise DimensionError(
            f"dims {d1}x{d2} do not factor operator dimension {a.shape[0]}"
        )
    if keep not in (1, 2):
        raise ValueError(f"keep must be 1 or 2, got {keep!r}")
    t = a.reshape(d1, d2, d1, d2)
    if keep == 1:
        return np.einsum("ijkj->ik", t)
    return np.einsum("ijil->jl", t)


def commutator(a, b) -> np.ndarray:
    """[A, B] = AB - BA."""
    a = as_operator(a)
    b = as_operator(b)
    if a.shape != b.shape:
        raise DimensionError(
            f"commutator needs equal dimensions, got {a.shape[0]} and {b.shape[0]}"
        )
    return a @ b - b @ a


def commutes(a, b) -> bool:
    """True when max-entry |[A, B]| is below ``HERMITICITY_TOL``."""
    return float(np.abs(commutator(a, b)).max()) < HERMITICITY_TOL


def _fix_column_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive.

    Ties in magnitude resolve to the lowest index, which keeps the output
    deterministic for any input.
    """
    out = v.copy()
    rows = np.abs(out).argmax(axis=0).tolist()
    for j, k in enumerate(rows):
        z = out[k, j]
        if abs(z) > 0.0:
            # Not in place: numpy's in-place complex multiply can round a
            # last bit differently.
            out[:, j] = out[:, j] * (z.conj() / abs(z))
    return out


def _frobenius_norm(a: np.ndarray) -> float:
    """``np.linalg.norm(a)`` of a float or complex array, without its dispatch.

    The same steps as numpy's Frobenius branch: ``ravel(order="K")`` (so a
    transposed input is summed in memory order, as there), one dot product
    for a real array, the real and imaginary dot products added for a
    complex one, one correctly rounded square root.
    """
    x = a.ravel(order="K")
    if x.dtype.kind != "c":
        return math.sqrt(x.dot(x))
    re = x.real
    im = x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _offdiag_norm(a: np.ndarray) -> float:
    off = a.copy()  # C order, so ravel() is a view
    off.ravel()[:: a.shape[0] + 1] = 0.0
    return _frobenius_norm(off)


def _norm_of_scalars(z: list[complex]) -> float:
    """``sqrt(sum |z_k|^2)`` of Python complex numbers, the squares summed by
    ``math.fsum``: exactly rounded, so their order does not count."""
    return math.sqrt(math.fsum([x * x for x in map(abs, z)]))


def _cyclic_eigh(a: np.ndarray, vectors: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """The cyclic kernel of ``_eigh`` on Python complex scalars, for n >= 2.

    ``a`` is converted to a list of rows ``d`` once, and the eigenvector
    accumulator ``v`` starts as the rows of the identity.  Sweeps rotate
    the pairs in row order, (0, 1), (0, 2), ..., (n-2, n-1).  Rotation
    ``(p, q)`` annihilates ``d[p][q]``::

        r = |d[p][q]|, phase = d[p][q] / r   (skipped when r <= cutoff)
        tau = (d[q][q].real - d[p][p].real) / (2 r)
        t = 1 / (tau + sqrt(1 + tau^2)) for tau >= 0,
            -1 / (-tau + sqrt(1 + tau^2)) otherwise
        c = 1 / sqrt(1 + t^2), s = t c

    The unitary ``U`` differs from the identity only in rows and columns
    ``p``, ``q``: ``U[p,p] = c``, ``U[p,q] = s``, ``U[q,p] = -s e^-if`` and
    ``U[q,q] = c e^-if``, with ``e^if`` the phase.  ``d <- U^dagger d U``
    rotates columns ``p``, ``q`` of ``d`` and then its rows ``p``, ``q``;
    ``v <- v U`` rotates the columns of ``v``, in the same loop over rows
    as those of ``d``::

        x_p, x_q <- c x_p - (s conj(phase)) x_q, s x_p + (c conj(phase)) x_q
        y_p, y_q <- c y_p - (s phase) y_q,       s y_p + (c phase) y_q

    for the entries ``x`` of a row and ``y`` of a column, every product
    with its coefficient first.  The scale of the input and each sweep's
    off-diagonal norm are ``_norm_of_scalars``; the norm is tested before
    each sweep and once after the last allowed one.
    All of it is CPython float and complex arithmetic, one operation at a
    time, so no bit depends on the SIMD loops numpy dispatches to.
    """
    global _sweeps
    n = a.shape[0]
    d = a.tolist()
    scale = max(1.0, _norm_of_scalars([z for row in d for z in row]))
    threshold = JACOBI_OFF_TOL * scale
    # Rotating every entry above this per-element cutoff guarantees the
    # whole off-diagonal norm ends below threshold.
    cutoff = threshold / (2.0 * n)
    v = [[complex(i == j) for j in range(n)] for i in range(n)] if vectors else []
    dv = d + v  # the same row lists: one column rotation updates both
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]

    sweeps = 0
    while True:
        norm = _norm_of_scalars([z for i, row in enumerate(d) for z in row[:i] + row[i + 1 :]])
        if norm < threshold:
            break
        if sweeps == _JACOBI_MAX_SWEEPS:
            _sweeps += sweeps
            raise _not_converged(n, sweeps, norm, threshold)
        for p, q in pairs:
            rp = d[p]
            rq = d[q]
            apq = rp[q]
            r = abs(apq)
            if r <= cutoff:
                continue
            phase = apq / r
            tau = (rq[q].real - rp[p].real) / (2.0 * r)
            if tau >= 0.0:
                t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
            else:
                t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            conj_phase = phase.conjugate()
            s_conj = s * conj_phase
            c_conj = c * conj_phase
            for row in dv:
                x = row[p]
                y = row[q]
                row[p] = c * x - s_conj * y
                row[q] = s * x + c_conj * y
            s_phase = s * phase
            c_phase = c * phase
            for j in range(n):
                x = rp[j]
                y = rq[j]
                rp[j] = c * x - s_phase * y
                rq[j] = s * x + c_phase * y
        sweeps += 1
    _sweeps += sweeps

    diagonal = [d[i][i].real for i in range(n)]
    order = sorted(range(n), key=diagonal.__getitem__)  # stable
    eigenvalues = np.array([diagonal[i] for i in order])
    if not vectors:
        return eigenvalues, None
    columns = list(zip(*v))
    fixed = []
    for j in order:
        column = columns[j]
        magnitudes = [abs(z) for z in column]
        largest = max(magnitudes)
        if largest > 0.0:
            # The phase rule of ``_fix_column_phases``: the first entry of
            # largest magnitude becomes real positive.
            w = column[magnitudes.index(largest)].conjugate() / largest
            column = [z * w for z in column]
        fixed.append(column)
    return eigenvalues, np.array(fixed, dtype=complex).T.copy()


def _not_converged(n: int, sweeps: int, norm: float, threshold: float) -> ConvergenceError:
    return ConvergenceError(
        f"Jacobi diagonalisation of a dimension-{n} matrix stopped after "
        f"{sweeps} sweeps with off-diagonal norm "
        f"{norm:.3e}, above the threshold {threshold:.3e}"
    )


@functools.cache
def _round_robin_pairs(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The ``n - 1`` rounds (``n`` rounded up to even) of a round-robin sweep.

    Circle method: index ``m - 1`` stays put while the others turn one
    place a round, so every pair meets exactly once a sweep and the pairs
    of a round are disjoint.  A pair with the padding index ``n`` (odd
    ``n``) sits its round out.  Each round is ``(p, q)``, read-only index
    arrays with ``p < q`` elementwise.
    """
    m = n + n % 2
    rounds = []
    for k in range(m - 1):
        pairs = [(k, m - 1)] + [
            ((k + i) % (m - 1), (k - i) % (m - 1)) for i in range(1, m // 2)
        ]
        pairs = sorted((min(a, b), max(a, b)) for a, b in pairs if max(a, b) < n)
        p, q = np.array(pairs, dtype=np.intp).T
        p.flags.writeable = q.flags.writeable = False
        rounds.append((p, q))
    return tuple(rounds)


def _round_robin_sweep(dv: np.ndarray, d: np.ndarray, cutoff: float) -> None:
    """One sweep of ``n - 1`` rounds, each rotating its disjoint pairs at once.

    Every pair is rotated with the scalar formulas of ``_cyclic_eigh``,
    evaluated elementwise over the round; disjoint pairs read nothing the
    others write before all columns, then all rows, are rotated.
    """
    for p, q in _round_robin_pairs(d.shape[0]):
        apq = d[p, q]
        # np.hypot, not np.abs: numpy's vectorised complex abs can round
        # the last bit differently from the scalar abs(apq).
        r = np.hypot(apq.real, apq.imag)
        rotate = r > cutoff
        if not rotate.all():
            if not rotate.any():
                continue
            p, q, apq, r = p[rotate], q[rotate], apq[rotate], r[rotate]
        phase = apq / r
        tau = (d[q, q].real - d[p, p].real) / (2.0 * r)
        # 1 / (|tau| + sqrt(1 + tau^2)) negated where tau < 0: both
        # branches of the scalar formula, with no division by zero in the
        # branch not taken.
        t = 1.0 / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
        np.negative(t, out=t, where=tau < 0.0)
        c = 1.0 / np.sqrt(1.0 + t * t)
        s = t * c
        # Coefficient first in every product: numpy's complex multiply can
        # round differently with its operands swapped.
        conj_phase = phase.conj()
        cp = dv[:, p]
        cq = dv[:, q]
        dv[:, p] = c * cp - (s * conj_phase) * cq
        dv[:, q] = s * cp + (c * conj_phase) * cq
        c = c[:, None]
        s = s[:, None]
        phase = phase[:, None]
        rp = d[p]
        rq = d[q]
        d[p] = c * rp - (s * phase) * rq
        d[q] = s * rp + (c * phase) * rq


def eigensolve_count() -> int:
    """Number of Jacobi solves (``_eigh`` calls) made in this process so far."""
    return _eigensolves


def sweep_count() -> int:
    """Number of Jacobi sweeps, over every ``_eigh`` solve, in this process so far."""
    return _sweeps


def jacobi_eigh(h, *, vectors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Diagonalise a Hermitian matrix by Jacobi rotations.

    The input is validated as Hermitian here, and then solved by
    ``_eigh``.  An input that passes the check without being exactly
    Hermitian is replaced by its Hermitian part ``(H + H^dagger)/2``: the
    rotations keep the norm of an anti-Hermitian part, so one above the
    threshold would stop convergence.  An exactly Hermitian input is
    used as it is.  The caller's array is never written.

    Returns
    -------
    (eigenvalues, vectors)
        Eigenvalues ascending; ``vectors[:, i]`` is the i-th eigenvector,
        with its largest-magnitude component made real positive.
        ``vectors`` is None when ``vectors=False``.

    Raises
    ------
    ConvergenceError
        If the off-diagonal norm is still above the threshold after
        ``_JACOBI_MAX_SWEEPS`` sweeps.
    """
    return _eigh(_hermitian_input(h)[1], vectors)


def _hermitian_input(h) -> tuple[np.ndarray, np.ndarray]:
    """``h`` validated as Hermitian, and the array ``_eigh`` solves for it.

    The second is the first when ``h`` is exactly Hermitian, and its
    Hermitian part ``(H + H^dagger)/2`` otherwise.
    """
    a, defect = _checked_hermitian(h)
    return a, (0.5 * (a + a.conj().T) if defect else a)


def _eigh(a: np.ndarray, vectors: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """The Jacobi kernel of ``jacobi_eigh``, on an unvalidated array.

    ``a`` must be a finite, exactly Hermitian square array of dimension
    1..``MAX_DIM``, such as ``0.5 * (m + m^dagger)`` of a finite ``m``;
    library code calls it directly only on arrays it built that way.
    Nothing is checked.  Sweeps annihilate off-diagonal entries with
    complex plane rotations until the off-diagonal Frobenius norm falls
    below ``JACOBI_OFF_TOL`` times the scale of the input.  Convergence is
    quadratic, so a handful of sweeps suffices at these dimensions.

    Two kernels share the threshold (``JACOBI_OFF_TOL`` times the larger
    of 1 and the Frobenius norm of the input), the per-element cutoff,
    the sweep limit, the error message, the stable sort and the phase
    rule.  Up to
    ``_JACOBI_CYCLIC_MAX_DIM`` (7), ``_cyclic_eigh`` sweeps in cyclic
    order, one pair at a time in row order, on Python complex scalars:
    at these sizes a numpy call on a row of a few entries costs more
    than its arithmetic.  Above it, a sweep is ``n - 1`` rounds of a
    round-robin (Brent-Luk style) ordering, each rotating ``n/2``
    disjoint pairs in one vectorised numpy step: all their columns, then
    all their rows, of one ``(2n, n)`` buffer that holds the working
    matrix ``d`` in rows ``0..n-1`` and the eigenvector accumulator ``v``
    in rows ``n..2n-1``.  At n = 64 a round holds 32 pairs and a solve is
    three to four times faster than in cyclic order.  The two kernels
    give different last bits, so the cut-over is fixed: every solve
    behind the pinned reports runs at n <= 6.  Each kernel performs the
    same float operations, in the same order, as the per-pair loop of
    its ordering kept in ``tests/oracles.py``, so its output is identical
    to that loop's bit for bit.

    With ``vectors=False`` no eigenvector is accumulated or phase-fixed;
    the same rotations give the same eigenvalues, bit for bit.

    The norm is tested before each sweep and once after the last allowed
    one, so a matrix that converges in sweep ``_JACOBI_MAX_SWEEPS`` is
    solved; ``ConvergenceError`` names the norm that was too large.  Every
    sweep is added to ``sweep_count()``.

    An entry above 2^500 could overflow the squares in the norms: such a
    matrix is solved divided by a power of two (exactly) and its eigenvalues
    scaled back; one beyond the float range raises ``ValueError``.
    """
    global _eigensolves
    _eigensolves += 1
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0].real]), (np.eye(1, dtype=complex) if vectors else None)
    kernel = _cyclic_eigh if n <= _JACOBI_CYCLIC_MAX_DIM else _round_robin_eigh
    if np.abs(a).max() <= 2.0**500:
        return kernel(a, vectors)
    k = max(math.frexp(float(np.abs(x).max()))[1] for x in (a.real, a.imag))
    eigenvalues, v = kernel(a * 2.0**-k, vectors)
    if math.frexp(float(np.abs(eigenvalues).max()))[1] + k > 1024:
        raise ValueError("an eigenvalue exceeds the float range")
    return np.ldexp(eigenvalues, k), v


def _round_robin_eigh(a: np.ndarray, vectors: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """The round-robin kernel of ``_eigh``, on numpy arrays, for n >= 2."""
    global _sweeps
    n = a.shape[0]
    dv = np.zeros((2 * n if vectors else n, n), dtype=complex)
    dv[:n] = a
    if vectors:
        dv.ravel()[n * n :: n + 1] = 1.0  # v starts as the identity
    d = dv[:n]
    scale = max(1.0, _frobenius_norm(a))
    threshold = JACOBI_OFF_TOL * scale
    cutoff = threshold / (2.0 * n)

    sweeps = 0
    while (norm := _offdiag_norm(d)) >= threshold:
        if sweeps == _JACOBI_MAX_SWEEPS:
            _sweeps += sweeps
            raise _not_converged(n, sweeps, norm, threshold)
        _round_robin_sweep(dv, d, cutoff)
        sweeps += 1
    _sweeps += sweeps

    eigenvalues = d.diagonal().real.copy()
    order = eigenvalues.argsort(kind="stable")
    eigenvalues = eigenvalues[order]
    if not vectors:
        return eigenvalues, None
    return eigenvalues, _fix_column_phases(dv[n:, order])


@dataclass(frozen=True)
class SpectralDecomposition:
    """Spectral resolution H = sum_i a_i P_i with distinct eigenvalues.

    ``eigenvalues`` ascend; level i's eigenvectors are the next ``multiplicities[i]``
    columns of the read-only ``vectors``.  ``projectors`` and ``levels()``
    form each projector anew when read, ``levels()`` one at a time.
    """

    eigenvalues: tuple[float, ...]
    vectors: np.ndarray = field(repr=False)
    multiplicities: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    @property
    def projectors(self) -> tuple[np.ndarray, ...]:
        return tuple(p for _, p in self.levels())

    def levels(self):
        """Yield ``(a_i, P_i)``, P_i the symmetrised V V^dagger of its columns V."""
        start = 0
        for a, m in zip(self.eigenvalues, self.multiplicities):
            block = self.vectors[:, start : start + m]
            p = block @ block.conj().T
            yield a, 0.5 * (p + p.conj().T)
            start += m

    def reconstruct(self) -> np.ndarray:
        """Reassemble sum_i a_i P_i."""
        return self.apply_function(lambda a: a)

    def apply_function(self, f) -> np.ndarray:
        """Evaluate f(H) = sum_i f(a_i) P_i."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for a, p in self.levels():
            out += f(a) * p
        return out

    @classmethod
    def from_eigenpairs(
        cls, eigenvalues: np.ndarray, vectors: np.ndarray
    ) -> "SpectralDecomposition":
        """Levels of known eigenpairs; nothing is solved.

        ``eigenvalues`` ascend and ``vectors[:, i]`` is a unit eigenvector
        of ``eigenvalues[i]``, the columns orthonormal.  A run of
        eigenvalues each within ``EIGENVALUE_MERGE_TOL`` of the one before
        is one level.  The eigenpairs are not checked; ``vectors`` is
        copied, memory layout kept, so later writes to it change nothing.
        """
        # The same doubles as Python floats: the gap tests and singleton
        # levels below then skip numpy's scalar dispatch.
        values = eigenvalues.tolist()
        levels: list[float] = []
        multiplicities: list[int] = []
        i = 0
        n = len(values)
        while i < n:
            j = i + 1
            while j < n and values[j] - values[j - 1] <= EIGENVALUE_MERGE_TOL:
                j += 1
            # np.mean of one value sums it onto 0.0 and divides by 1, so the
            # value itself comes back, except that -0.0 becomes 0.0.
            levels.append(values[i] + 0.0 if j == i + 1 else float(np.mean(eigenvalues[i:j])))
            multiplicities.append(j - i)
            i = j
        snapshot = np.copy(vectors)  # order "K": the layout, so the product bits, kept
        snapshot.flags.writeable = False
        return cls(tuple(levels), snapshot, tuple(multiplicities))


def spectral_decompose(h) -> SpectralDecomposition:
    """Spectral resolution of a Hermitian matrix.

    Eigenvalues within ``EIGENVALUE_MERGE_TOL`` of each other collapse
    into a single degenerate level whose projector spans the merged
    eigenvectors.  ``jacobi_eigh`` validates ``h``.
    """
    eigenvalues, vectors = jacobi_eigh(h)
    return SpectralDecomposition.from_eigenpairs(eigenvalues, vectors)


def rank_one_vector(p: np.ndarray) -> np.ndarray:
    """Extract the unit vector of a rank-one projector ``p = v v^dagger``.

    The phase follows the eigenvector convention: largest-magnitude
    component real positive.
    """
    return _rank_one_vector(as_operator(p))


def _rank_one_vector(a: np.ndarray) -> np.ndarray:
    """``rank_one_vector`` of a square complex array already validated."""
    diag = np.diag(a).real
    k = int(np.argmax(diag))
    if diag[k] <= 0.0:
        raise ValueError("projector has no positive diagonal entry")
    v = a[:, k] / np.sqrt(diag[k])
    v = v / _frobenius_norm(v)
    m = int(np.argmax(np.abs(v)))
    z = v[m]
    return v * (z.conj() / abs(z))


def evolution_operator(h, t: float) -> np.ndarray:
    """Unitary exp(-i H t) built from the spectral resolution of H."""
    dec = spectral_decompose(h)
    return dec.apply_function(lambda a: np.exp(-1j * a * t))


def trace_distance(a, b) -> float:
    """(1/2) Tr |A - B| from the eigenvalues of the Hermitian difference."""
    a = require_hermitian(a)
    b = require_hermitian(b)
    if a.shape != b.shape:
        raise DimensionError(
            f"trace distance needs equal dimensions, got {a.shape[0]} and {b.shape[0]}"
        )
    return _trace_distance(a, b)


def _trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """``trace_distance`` of two finite square arrays of one dimension; unchecked.

    The symmetrised difference is exactly Hermitian, so it goes to the
    kernel with no second check.  At n = 2 nothing is solved: the
    eigenvalues of ``[[x, z], [z*, y]]`` are ``(x + y)/2 +- sqrt(((x - y)/2)^2
    + |z|^2)``, so half the sum of their magnitudes is the larger of
    ``|x + y|/2`` (both of one sign) and that square root (opposite signs).
    """
    diff = a - b
    diff = 0.5 * (diff + dagger(diff))
    if diff.shape[0] == 2:
        (x, z), (_, y) = diff.tolist()
        x = x.real
        y = y.real
        return max(0.5 * abs(x + y), math.hypot(0.5 * (x - y), abs(z)))
    eigenvalues, _ = _eigh(diff, False)
    return 0.5 * float(np.abs(eigenvalues).sum())
