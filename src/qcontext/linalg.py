"""Dense complex operator algebra for desk-scale quantum calculations.

Everything in this package runs on ordinary row-major numpy arrays of
complex numbers.  Matrices stay small (dimension 64 at most), so the
routines here favour determinism and transparency over asymptotic speed:
Hermitian matrices are diagonalised by cyclic Jacobi rotations, phases of
eigenvectors are fixed by an explicit convention, and matrix functions
are evaluated through the spectral resolution rather than series.
"""

from __future__ import annotations

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


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def hermiticity_defect(m: np.ndarray) -> float:
    """Max-entry magnitude of ``m - m^dagger``."""
    a = np.asarray(m, dtype=complex)
    return float(np.abs(a - a.conj().T).max())


def require_hermitian(m, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Validate ``m`` as Hermitian, returning it as a complex array."""
    a = as_operator(m)
    defect = hermiticity_defect(a)
    if defect >= tol:
        raise ValueError(
            f"matrix is not Hermitian: max |H - H^dagger| entry = {defect:.3e}"
        )
    return a


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
    a = as_operator(m)
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


def commutes(a, b, tol: float = HERMITICITY_TOL) -> bool:
    """True when max-entry |[A, B]| is below ``tol``."""
    return float(np.abs(commutator(a, b)).max()) < tol


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
    """``np.linalg.norm(a)`` of a complex array, without its dispatch.

    The same steps as numpy's Frobenius branch: ``ravel(order="K")`` (so a
    transposed input is summed in memory order, as there), the real and
    imaginary dot products added, one correctly rounded square root.
    """
    x = a.ravel(order="K")
    re = x.real
    im = x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _offdiag_norm(a: np.ndarray) -> float:
    off = a.copy()  # C order, so ravel() is a view
    off.ravel()[:: a.shape[0] + 1] = 0.0
    return _frobenius_norm(off)


def jacobi_eigh(h, off_tol: float = JACOBI_OFF_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalise a Hermitian matrix by cyclic Jacobi rotations.

    Sweeps annihilate one off-diagonal entry at a time with a complex
    plane rotation until the off-diagonal Frobenius norm falls below
    ``off_tol`` times the scale of the input.  Convergence is quadratic,
    so a handful of sweeps suffices at these dimensions.  The input is
    validated as Hermitian here; this is the only Hermiticity check on
    the way to the kernel.  The caller's array is never written.

    The working matrix ``d`` and the eigenvector accumulator ``v`` share
    one ``(2n, n)`` buffer, ``d`` in rows ``0..n-1`` and ``v`` in rows
    ``n..2n-1``, so a single column rotation updates both; rows ``p`` and
    ``q`` of ``d`` are rotated after it.  Each rotation writes its
    results in place with ``out=`` and performs the same elementwise
    float operations, in the same order, as the loop kept in
    ``tests/oracles.py``, so the output is identical to it bit for bit.

    Returns
    -------
    (eigenvalues, vectors)
        Eigenvalues ascending; ``vectors[:, i]`` is the i-th eigenvector,
        with its largest-magnitude component made real positive.

    Raises
    ------
    ConvergenceError
        If the off-diagonal norm is still above the threshold after
        ``_JACOBI_MAX_SWEEPS`` sweeps, as for a matrix whose
        anti-Hermitian part passes the Hermiticity check but is larger
        than the threshold (the rotations cannot remove it).
    """
    a = require_hermitian(h)
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0].real]), np.eye(1, dtype=complex)
    dv = np.zeros((2 * n, n), dtype=complex)
    dv[:n] = a
    dv.ravel()[n * n :: n + 1] = 1.0  # v starts as the identity
    d = dv[:n]
    scale = max(1.0, _frobenius_norm(a))
    threshold = off_tol * scale
    # Rotating every entry above this per-element cutoff guarantees the
    # whole off-diagonal norm ends below threshold.
    cutoff = threshold / (2.0 * n)

    for _ in range(_JACOBI_MAX_SWEEPS):
        if _offdiag_norm(d) < threshold:
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
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # Unitary U differs from identity only in rows/cols p, q:
                #   U[p,p] = c        U[p,q] = s
                #   U[q,p] = -s*e^-if U[q,q] = c*e^-if   with e^if = apq/|apq|
                # d <- U^dagger d U, eigenvector columns v <- v U.
                # s * conj(phase) * dq evaluates left to right, so forming
                # each scalar product once leaves every result unchanged.
                conj_phase = phase.conjugate()
                s_conj = s * conj_phase
                c_conj = c * conj_phase
                s_phase = s * phase
                c_phase = c * phase
                # All four products read the old columns (rows) before
                # either is overwritten.
                cp = dv[:, p]
                cq = dv[:, q]
                cp_c = np.multiply(c, cp)
                cq_s = np.multiply(s_conj, cq)
                cp_s = np.multiply(s, cp)
                cq_c = np.multiply(c_conj, cq)
                np.subtract(cp_c, cq_s, out=cp)
                np.add(cp_s, cq_c, out=cq)
                rp = d[p]
                rq = d[q]
                rp_c = np.multiply(c, rp)
                rq_s = np.multiply(s_phase, rq)
                rp_s = np.multiply(s, rp)
                rq_c = np.multiply(c_phase, rq)
                np.subtract(rp_c, rq_s, out=rp)
                np.add(rp_s, rq_c, out=rq)
    else:
        raise ConvergenceError(
            f"Jacobi diagonalisation of a dimension-{n} matrix stopped after "
            f"{_JACOBI_MAX_SWEEPS} sweeps with off-diagonal norm "
            f"{_offdiag_norm(d):.3e}, above the threshold {threshold:.3e}"
        )

    eigenvalues = d.diagonal().real.copy()
    order = eigenvalues.argsort(kind="stable")
    eigenvalues = eigenvalues[order]
    vectors = _fix_column_phases(dv[n:, order])
    return eigenvalues, vectors


@dataclass(frozen=True)
class SpectralDecomposition:
    """Spectral resolution H = sum_i a_i P_i with distinct eigenvalues.

    ``eigenvalues`` ascend; ``projectors[i]`` projects onto the full
    eigenspace of ``eigenvalues[i]`` (rank given by ``multiplicities[i]``).
    """

    eigenvalues: tuple[float, ...]
    projectors: tuple[np.ndarray, ...] = field(repr=False)
    multiplicities: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

    def reconstruct(self) -> np.ndarray:
        """Reassemble sum_i a_i P_i."""
        return self.apply_function(lambda a: a)

    def apply_function(self, f) -> np.ndarray:
        """Evaluate f(H) = sum_i f(a_i) P_i."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for a, p in zip(self.eigenvalues, self.projectors):
            out += f(a) * p
        return out


def spectral_decompose(
    h, merge_tol: float = EIGENVALUE_MERGE_TOL
) -> SpectralDecomposition:
    """Spectral resolution of a Hermitian matrix.

    Eigenvalues within ``merge_tol`` of each other collapse into a single
    degenerate level whose projector spans the merged eigenvectors.
    ``jacobi_eigh`` validates ``h``.
    """
    eigenvalues, vectors = jacobi_eigh(h)
    # The same doubles as Python floats: the gap tests and singleton
    # levels below then skip numpy's scalar dispatch.
    values = eigenvalues.tolist()
    levels: list[float] = []
    projectors: list[np.ndarray] = []
    multiplicities: list[int] = []
    i = 0
    n = len(values)
    while i < n:
        j = i + 1
        while j < n and values[j] - values[j - 1] <= merge_tol:
            j += 1
        block = vectors[:, i:j]
        p = block @ block.conj().T
        p = 0.5 * (p + p.conj().T)
        # np.mean of one value sums it onto 0.0 and divides by 1, so the
        # value itself comes back, except that -0.0 becomes 0.0.
        levels.append(values[i] + 0.0 if j == i + 1 else float(np.mean(eigenvalues[i:j])))
        projectors.append(p)
        multiplicities.append(j - i)
        i = j
    return SpectralDecomposition(
        eigenvalues=tuple(levels),
        projectors=tuple(projectors),
        multiplicities=tuple(multiplicities),
    )


def rank_one_vector(p: np.ndarray) -> np.ndarray:
    """Extract the unit vector of a rank-one projector ``p = v v^dagger``.

    The phase follows the eigenvector convention: largest-magnitude
    component real positive.
    """
    a = as_operator(p)
    diag = np.diag(a).real
    k = int(np.argmax(diag))
    if diag[k] <= 0.0:
        raise ValueError("projector has no positive diagonal entry")
    v = a[:, k] / np.sqrt(diag[k])
    v = v / np.linalg.norm(v)
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
    diff = a - b
    diff = 0.5 * (diff + dagger(diff))
    eigenvalues, _ = jacobi_eigh(diff)
    return 0.5 * float(np.abs(eigenvalues).sum())
