"""Dense complex operator algebra for desk-scale quantum calculations.

Everything in this package runs on ordinary row-major numpy arrays of
complex numbers.  Matrices stay small (dimension 64 at most), so the
routines here favour determinism and transparency over asymptotic speed:
up to dimension 7 a Hermitian matrix is reduced to a real tridiagonal by
Householder reflections and diagonalised by implicit-shift QL, all on
Python scalars; from dimension 8 LAPACK (``np.linalg.eigh``) solves it.
Phases of eigenvectors are fixed by an explicit convention, and matrix
functions are evaluated through the spectral resolution rather than
series.  A spectral resolution keeps its eigenvectors and forms a
level's projector only when the level is read.

Five products the other modules share are written out once, here, as
private unchecked kernels (``_hermitian_part``, ``_trace_product``,
``_commutator_defect``, ``_to_basis``, ``_from_basis``), so
the BLAS and SIMD bits each puts into a report can be attributed, or its
body swapped, in one place.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

# Largest operator dimension the toolkit accepts.
MAX_DIM = 64

# A matrix counts as Hermitian when max-entry |H - H^dagger| stays below this.
HERMITICITY_TOL = 1e-9

# Eigenvalues closer than this are reported as one degenerate level.
EIGENVALUE_MERGE_TOL = 1e-8

# QL (up to ``_SCALAR_MAX_DIM``) deflates a subdiagonal entry at or below
# this times the larger of 1 and the Frobenius norm of the input, over 2n,
# if not sooner.  (The name is that of the cyclic Jacobi threshold this
# floor was first taken from.)
JACOBI_OFF_TOL = 1e-12

# QL iterations allowed for one eigenvalue (``tqli`` in Numerical Recipes).
_QL_MAX_ITERATIONS = 30

_EPS = sys.float_info.epsilon

# Largest dimension solved by the library's own QL on Python scalars,
# where no bit depends on BLAS or on numpy's SIMD loops; every solve
# behind the pinned reports is at most 6.  From the next one up LAPACK
# solves.
_SCALAR_MAX_DIM = 7

# The running totals of this process, one record; ``counts()`` copies it.
_counts = dict.fromkeys(("eigensolves", "sweeps", "operator_checks", "hermiticity_checks"), 0)


class DimensionError(ValueError):
    """Operands have incompatible or unsupported dimensions."""


class ConvergenceError(ArithmeticError):
    """An iterative routine failed to reach its tolerance."""


# Pauli matrices with the standard phase conventions.
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def as_operator(m) -> np.ndarray:
    """Validate and return ``m`` as a square complex matrix.

    Raises
    ------
    DimensionError
        If ``m`` is not square or its dimension exceeds ``MAX_DIM``.
    ValueError
        If any entry is not finite.
    """
    _counts["operator_checks"] += 1
    try:
        a = np.asarray(m, dtype=complex)
    except OverflowError:  # an integer entry beyond the float range
        raise ValueError("matrix entries must be finite") from None
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1 or a.shape[0] > MAX_DIM:
        raise DimensionError(
            f"dimension {a.shape[0]} outside supported range 1..{MAX_DIM}"
        )
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def counts() -> dict[str, int]:
    """A copy of this process's running totals.

    ``eigensolves`` counts the ``_eigh`` solves, whichever way they came
    in and at every n; ``sweeps`` the QL iterations of those up to
    ``_SCALAR_MAX_DIM`` (about two per eigenvalue, none at n = 1, none from
    n = 8, where LAPACK solves); ``operator_checks`` and
    ``hermiticity_checks`` the calls of ``as_operator`` and of
    ``hermiticity_defect``.
    """
    return dict(_counts)


# The input predicates of the readers and the record constructors: a bool
# counts as neither a number nor an integer.
def _number(x) -> bool:
    return type(x) is float or isinstance(x, numbers.Real) and not isinstance(x, bool)


def _integer(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _finite(x) -> bool:
    """A ``_number`` that is finite; False for an integer beyond the float range."""
    try:
        return _number(x) and math.isfinite(x)
    except OverflowError:
        return False


def _list_of(values, ok) -> bool:
    """True when ``values`` is a list or tuple whose every entry passes ``ok``."""
    return isinstance(values, (list, tuple)) and all(ok(x) for x in values)


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """``(M + M^dagger) / 2`` of a square complex array the library built;
    unchecked.  Outside input is symmetrised by ``_hermitian_input``."""
    return 0.5 * (m + m.conj().T)


def _trace_product(a: np.ndarray, b: np.ndarray) -> float:
    """``Re Tr(A B)`` of two square arrays of one dimension; unchecked."""
    return float(np.trace(a @ b).real)


def _commutator_defect(a: np.ndarray, b: np.ndarray) -> float:
    """Max-entry magnitude of ``AB - BA`` for two arrays of one dimension; unchecked."""
    return float(np.abs(a @ b - b @ a).max())


def _to_basis(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``V^dagger W V``, the product taken left to right; unchecked."""
    return v.conj().T @ w @ v


def _from_basis(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``V M V^dagger``, the product taken left to right; unchecked."""
    return v @ m @ v.conj().T


def hermiticity_defect(m: np.ndarray) -> float:
    """Max-entry magnitude of ``m - m^dagger``; inf where that overflows."""
    _counts["hermiticity_checks"] += 1
    a = np.asarray(m, dtype=complex)
    with np.errstate(over="ignore"):
        return float(np.abs(a - a.conj().T).max())


def _hermitian_input(h) -> tuple[np.ndarray, np.ndarray]:
    """``(a, h_exact)``: ``h`` validated as Hermitian, and the exactly
    Hermitian array the kernels take for it.

    The one gate of every Hermitian input from outside the library:
    ``as_operator``, then ``hermiticity_defect`` below ``HERMITICITY_TOL``
    or ``ValueError``.  ``h_exact`` is ``a`` itself when ``h`` is exactly
    Hermitian, and its Hermitian part ``(H + H^dagger)/2`` otherwise,
    halved before the sum, so that no finite input overflows there.
    """
    a = as_operator(h)
    defect = hermiticity_defect(a)
    if defect >= HERMITICITY_TOL:
        raise ValueError(
            f"matrix is not Hermitian: max |H - H^dagger| entry = {defect:.3e}"
        )
    # Outside input may sit near the float limit, where A + A^dagger overflows.
    return a, (0.5 * a + 0.5 * a.conj().T if defect else a)


def require_hermitian(m) -> np.ndarray:
    """Validate ``m`` as Hermitian, returning it as a complex array
    (``_hermitian_input``'s first array: the input, not its Hermitian part)."""
    return _hermitian_input(m)[0]


@contextlib.contextmanager
def _float_range(what: str):
    """Raise ``ValueError`` where numpy would warn that ``what`` overflowed.

    Inside the block numpy's overflow and invalid-value flags raise, so a
    public entry refuses finite input whose result leaves the float range
    instead of returning inf or nan.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError:
        raise ValueError(f"{what} leaves the float range") from None


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
    with _float_range("tensor product"):
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

    Raises
    ------
    ValueError
        If a traced entry leaves the float range.
    """
    out = _partial_trace(as_operator(m), dims, keep)
    if not np.isfinite(out).all():
        raise ValueError("partial trace leaves the float range")
    return out


def _partial_trace(a: np.ndarray, dims: tuple[int, int], keep: int) -> np.ndarray:
    """``partial_trace`` of a square complex array already validated.

    The dimensions and ``keep`` are still checked: they may come from
    outside.
    """
    d1, d2 = _bipartite_dims(dims, a.shape[0])
    # A bool or a float would pass ``in (1, 2)`` as the integer it equals.
    if not _integer(keep) or keep not in (1, 2):
        raise ValueError(f"keep must be 1 or 2, got {keep!r}")
    t = a.reshape(d1, d2, d1, d2)
    if keep == 1:
        return np.einsum("ijkj->ik", t)
    return np.einsum("ijil->jl", t)


def _bipartite_dims(dims, dim: int) -> tuple[int, int]:
    """``dims`` as ``(d1, d2)``: two positive integers whose product is ``dim``.

    Anything else, a bool or a float entry included, raises
    ``DimensionError``.
    """
    try:
        d1, d2 = dims
    except (TypeError, ValueError):
        raise DimensionError(f"dims must be a pair (d1, d2), got {dims!r}") from None
    if not (_integer(d1) and _integer(d2)):
        raise DimensionError(f"dims must be a pair of integers, got {dims!r}")
    if d1 < 1 or d2 < 1:
        raise DimensionError(f"dims must be positive, got {d1}x{d2}")
    if d1 * d2 != dim:
        raise DimensionError(f"dims {d1}x{d2} require dimension {d1 * d2}, got {dim}")
    return int(d1), int(d2)


def commutator(a, b) -> np.ndarray:
    """[A, B] = AB - BA; ``ValueError`` where a product leaves the float range."""
    a = as_operator(a)
    b = as_operator(b)
    if a.shape != b.shape:
        raise DimensionError(
            f"commutator needs equal dimensions, got {a.shape[0]} and {b.shape[0]}"
        )
    with _float_range("commutator"):
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


def _norm_of_scalars(z: list[complex]) -> float:
    """``sqrt(sum |z_k|^2)`` of Python complex numbers, the squares summed by
    ``math.fsum``: exactly rounded, so their order does not count."""
    return math.sqrt(math.fsum([x * x for x in map(abs, z)]))


def _dot(x, y) -> complex:
    """``sum_k x_k y_k`` of Python numbers, added left to right."""
    out = 0j
    for a, b in zip(x, y):
        out += a * b
    return out


def _unit(z: complex) -> complex:
    """``z / |z|``, real for a real ``z`` and 1 for zero; a subnormal ``z`` is
    first scaled by 2^600 (exactly), so the quotient has modulus one."""
    if 0.0 < abs(z) < sys.float_info.min:
        z *= 2.0**600
    return z / abs(z) if z else 1 + 0j


def _tridiagonal_scalars(t: list[list[complex]]) -> tuple[list, list, list]:
    """``(d, e, q^T)`` with ``a = q T q^dagger``, ``T`` real symmetric tridiagonal.

    ``t`` is ``a`` as its list of rows of Python complex numbers, which this
    writes.  ``d`` is the diagonal of ``T`` and ``e`` its subdiagonal,
    ``e[k]`` coupling ``k`` and ``k + 1``, with ``e[n - 1] = 0``, both lists
    of Python floats; ``q`` is unitary and comes as the list of rows of
    ``q^T`` (``q``'s columns).

    Reflection ``k`` (Golub & Van Loan, section 8.3.1) is
    ``H = I - 2 u u^dagger`` on indices ``k + 1..n-1``, with ``u`` the unit
    vector along ``x / |x| + phase e_1`` for the column ``x`` below the
    diagonal and ``phase = x_0 / |x_0|``.  It maps
    ``x`` to ``-phase |x| e_1`` and the trailing block ``B`` to
    ``H B H = B - 2 (u w^dagger + w u^dagger)``, where ``p = B u`` and
    ``w = p - (u^dagger p) u``.  A column whose norm is zero (or
    underflows to zero) is left as it is.
    The complex subdiagonal ``s`` this leaves is made real by
    ``D = diag(phi)``, ``phi_0 = 1`` and ``phi_{k+1} = phi_k s_k / |s_k|``:
    ``D^dagger T' D`` has subdiagonal ``|s_k|``, and ``q`` is
    ``H_0 H_1 ... H_{n-3} D``, the reflections accumulated backwards into
    ``q^T``, which starts as ``D``.

    Everything runs on Python scalars, one entry at a time: norms by
    ``_norm_of_scalars``, sums by ``_dot``, phases by ``_unit`` (modulus one
    to rounding even where ``z`` is subnormal, and exactly +-1 for a real
    ``z``).  No bit depends on BLAS or numpy's SIMD loops, and a real input
    gives a real ``q``.
    """
    n = len(t)
    reflections = []
    s = []
    for k in range(n - 1):
        rows = t[k + 1 :]
        x = [row[k] for row in rows]
        norm = _norm_of_scalars(x) if k < n - 2 else 0.0  # the last x is one entry
        if norm == 0.0:
            s.append(x[0])
            continue
        phase = _unit(x[0])
        u = [z / norm for z in x]
        u[0] += phase
        norm_u = _norm_of_scalars(u)
        u = [z / norm_u for z in u]
        u_bar = [z.conjugate() for z in u]
        p = [_dot(row[k + 1 :], u) for row in rows]
        kappa = _dot(u_bar, p).real
        w = [y - kappa * z for z, y in zip(u, p)]
        w_bar = [z.conjugate() for z in w]
        for row, ui, wi in zip(rows, [2.0 * z for z in u], [2.0 * z for z in w]):
            row[k + 1 :] = [b - (ui * y + wi * x) for b, x, y in zip(row[k + 1 :], u_bar, w_bar)]
        s.append(-norm * phase)
        reflections.append((k, u, u_bar))
    d = [t[i][i].real for i in range(n)]
    e = [abs(z) for z in s] + [0.0]
    phi = [1 + 0j]  # the diagonal of D
    for z in s:
        phi.append(phi[-1] * _unit(z))
    qt = [[phi[i] if i == j else 0j for j in range(n)] for i in range(n)]
    for k, u, u_bar in reversed(reflections):
        u = [2.0 * z for z in u]
        for row in qt[k + 1 :]:  # H q, by rows of q^T
            c = _dot(u_bar, row[k + 1 :])
            row[k + 1 :] = [b - c * y for b, y in zip(row[k + 1 :], u)]
    return d, e, qt


def _rotate_rows(z: list[list[complex]], l: int, c: list[float], s: list[float]) -> None:
    """Apply one QL iteration's rotations to rows ``l..l + k - 1`` of the list ``z``.

    ``c[j]``, ``s[j]`` (``j`` from 0 to ``k - 2``, relative to ``l``) rotate
    rows ``j`` and ``j + 1``, the highest ``j`` first, each to
    ``c z_j - s z_{j+1}`` and ``s z_j + c z_{j+1}``.
    """
    for j in range(len(c) - 1, -1, -1):
        x = z[l + j]
        y = z[l + j + 1]
        z[l + j] = [c[j] * p - s[j] * q for p, q in zip(x, y)]
        z[l + j + 1] = [s[j] * p + c[j] * q for p, q in zip(x, y)]


def _ql_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The scalar kernel of ``_eigh``, for 1 <= n <= ``_SCALAR_MAX_DIM``.

    ``_tridiagonal_scalars`` reduces ``a`` to ``q T q^dagger``; then ``tqli``
    of Numerical Recipes (section 11.3) diagonalises ``T = Z diag(d) Z^T``
    on Python floats: for each ``l`` in turn, the first ``m >= l`` whose
    subdiagonal entry is negligible is found, and while ``m > l`` one
    implicit QL iteration with the Wilkinson shift of the leading 2 x 2
    block chases rotations from ``m - 1`` up to ``l``.  ``e[m]`` is
    negligible at or below ``EPS (|d[m]| + |d[m + 1]|)`` or the floor,
    ``JACOBI_OFF_TOL`` times the larger of 1 and the Frobenius norm of
    ``a``, over ``2n``; without that floor a zero-diagonal block (a Schmidt
    embedding) could iterate to the limit.  Each iteration adds one to
    ``counts()["sweeps"]``; the ``_QL_MAX_ITERATIONS``-th on one eigenvalue
    that leaves it unconverged raises ``ConvergenceError``.
    The rotations go one at a time into the rows of ``q^T``
    (``_rotate_rows``), which leaves ``V^T = Z^T q^T``, and the phase rule
    of ``_fix_column_phases`` runs on Python scalars too.
    An input whose entries below the diagonal are all at or below the
    floor is already diagonal to that tolerance: its stably sorted real
    diagonal and the identity's columns in that order are returned with no
    reduction and no iteration; so is every input at n = 1.
    ``tqli`` ends an iteration early where the radius ``r`` underflows to
    zero; that exit is left out, since ``r >= |f|`` and ``f`` starts as an
    entry above the floor (a zero would raise ``ZeroDivisionError``, not
    return a wrong value).
    """
    n = a.shape[0]
    t = a.tolist()
    norm = _norm_of_scalars([x for row in t for x in row])
    floor = JACOBI_OFF_TOL * max(1.0, norm) / (2.0 * n)
    if all(abs(x) <= floor for i in range(1, n) for x in t[i][:i]):
        d = [t[i][i].real for i in range(n)]
        order = sorted(range(n), key=d.__getitem__)
        return np.array([d[i] for i in order]), np.eye(n, dtype=complex)[order].T.copy()
    d, e, z = _tridiagonal_scalars(t)  # z: q^T
    for l in range(n):
        iterations = 0
        while True:
            m = l
            while m < n - 1:
                em = abs(e[m])
                if em <= floor or em <= _EPS * (abs(d[m]) + abs(d[m + 1])):
                    break
                m += 1
            if m == l:
                break
            if iterations == _QL_MAX_ITERATIONS:
                threshold = max(floor, _EPS * (abs(d[l]) + abs(d[l + 1])))
                raise ConvergenceError(
                    f"QL diagonalisation of a dimension-{n} matrix stopped after "
                    f"{iterations} iterations on eigenvalue {l} with subdiagonal entry "
                    f"{abs(e[l]):.3e}, above the threshold {threshold:.3e}"
                )
            iterations += 1
            _counts["sweeps"] += 1
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            cs = []
            ss = []
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                cs.append(c)
                ss.append(s)
            d[l] -= p
            e[l] = g
            e[m] = 0.0
            _rotate_rows(z, l, cs[::-1], ss[::-1])

    order = sorted(range(n), key=d.__getitem__)  # stable, as argsort(kind="stable")
    eigenvalues = np.array([d[i] for i in order])
    columns = []
    for j in order:
        magnitudes = [abs(x) for x in z[j]]
        # The first entry of largest magnitude becomes real positive.
        w = _unit(z[j][magnitudes.index(max(magnitudes))]).conjugate()
        columns.append([x * w for x in z[j]])
    return eigenvalues, np.array(columns).T.copy()


def jacobi_eigh(h) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalise a Hermitian matrix.

    The input is validated as Hermitian by ``_hermitian_input`` and solved
    by ``_eigh``.  An input that passes the check without being exactly
    Hermitian is replaced by its Hermitian part ``(H + H^dagger)/2``,
    halved before the sum, since the kernel takes its input as exactly
    Hermitian; an exactly Hermitian one is kept.  The caller's array is
    never written.

    Returns
    -------
    (eigenvalues, vectors)
        Eigenvalues ascending; ``vectors[:, i]`` is the i-th eigenvector,
        with its largest-magnitude component made real positive.

    Raises
    ------
    ConvergenceError
        If, up to ``_SCALAR_MAX_DIM``, an eigenvalue is not deflated after
        ``_QL_MAX_ITERATIONS`` QL iterations, or if, from n = 8, LAPACK
        reports that it did not converge (``np.linalg.LinAlgError``).
    """
    return _eigh(_hermitian_input(h)[1])


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigensolver of ``jacobi_eigh``, on an unvalidated array.

    ``a`` must be a finite, exactly Hermitian square array of dimension
    1..``MAX_DIM``, such as the second array of ``_hermitian_input``;
    library code calls it directly only on arrays it built exactly Hermitian.
    One caller passes ``MAX_DIM + 1``: ``states.schmidt`` solves the
    ``(d1 + d2)``-dimensional embedding of a state with ``d1 * d2`` entries,
    which is 65 for a 1 x 64 or 64 x 1 split.  Nothing is checked.

    Up to ``_SCALAR_MAX_DIM``, where every solve behind the pinned reports
    runs, ``_ql_eigh`` solves on Python scalars: Householder
    tridiagonalisation and implicit-shift QL, ending with the stable
    ascending sort and the phase rule of ``_fix_column_phases``.  QL gives
    up on an eigenvalue after ``_QL_MAX_ITERATIONS`` iterations with a
    ``ConvergenceError``; every iteration is added to ``counts()["sweeps"]``.
    From n = 8 ``_lapack_eigh`` solves, and no iteration is counted.

    An entry above 2^500 could overflow the squares in the scalar norms,
    and an eigenvalue could leave the float range: such a matrix is solved
    divided by a power of two (exactly), by either kernel, and its
    eigenvalues scaled back; one beyond the float range raises
    ``ValueError``.
    """
    _counts["eigensolves"] += 1
    solve = _ql_eigh if a.shape[0] <= _SCALAR_MAX_DIM else _lapack_eigh
    if np.abs(a).max() <= 2.0**500:
        return solve(a)
    k = max(math.frexp(float(np.abs(x).max()))[1] for x in (a.real, a.imag))
    eigenvalues, v = solve(a * 2.0**-k)
    if math.frexp(float(np.abs(eigenvalues).max()))[1] + k > 1024:
        raise ValueError("an eigenvalue exceeds the float range")
    return np.ldexp(eigenvalues, k), v


def _lapack_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The kernel of ``_eigh`` from n = 8: LAPACK's ``zheevd``, through
    ``np.linalg.eigh``, then the phase rule of ``_fix_column_phases``.

    LAPACK returns the eigenvalues ascending.  Its ``LinAlgError`` (no
    convergence) is raised as ``ConvergenceError``, so a caller sees one
    error type for a solve that failed at any n.
    """
    try:
        eigenvalues, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"LAPACK diagonalisation of a dimension-{a.shape[0]} matrix failed: {exc}"
        ) from None
    return eigenvalues, _fix_column_phases(vectors)


@dataclass(frozen=True, eq=False)
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
            yield a, _hermitian_part(block @ block.conj().T)
            start += m

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
            levels.append(values[i] + 0.0 if j == i + 1 else _level_mean(eigenvalues[i:j]))
            multiplicities.append(j - i)
            i = j
        snapshot = np.copy(vectors)  # order "K": the layout, so the product bits, kept
        snapshot.flags.writeable = False
        return cls(tuple(levels), snapshot, tuple(multiplicities))


def _level_mean(x: np.ndarray) -> float:
    """``np.mean`` of one level's ascending eigenvalues, without overflow.

    A level holds at most ``MAX_DIM`` = 2^6 values, so their sum fits a
    float while none exceeds 2^1017 in magnitude.  Larger ones are averaged
    times 2^-7, which is exact at that size, and the mean scaled back: the
    bits ``np.mean`` would give with an unbounded exponent.
    """
    if max(-x[0], x[-1]) <= 2.0**1017:
        return float(np.mean(x))
    return math.ldexp(float(np.mean(np.ldexp(x, -7))), 7)


def spectral_decompose(h) -> SpectralDecomposition:
    """Spectral resolution of a Hermitian matrix.

    Eigenvalues within ``EIGENVALUE_MERGE_TOL`` of each other collapse
    into a single degenerate level whose projector spans the merged
    eigenvectors.  ``jacobi_eigh`` validates ``h``.
    """
    eigenvalues, vectors = jacobi_eigh(h)
    return SpectralDecomposition.from_eigenpairs(eigenvalues, vectors)


def _rank_one_vector(a: np.ndarray) -> np.ndarray:
    """The unit vector of a rank-one projector ``a = v v^dagger``, unchecked.

    The phase is the eigenvector convention of ``_fix_column_phases``:
    largest-magnitude component real positive.  Both callers pass a
    matrix whose largest diagonal entry is positive: a spin projector
    ``(I +- n.sigma)/2`` (at least 1/2) or a trace-one pure state (at
    least 1/n).
    """
    diag = np.diag(a).real
    k = int(np.argmax(diag))
    v = a[:, k] / np.sqrt(diag[k])
    return _fix_column_phases((v / _frobenius_norm(v))[:, None])[:, 0]


def evolution_operator(h, t: float) -> np.ndarray:
    """Unitary exp(-i H t) built from the spectral resolution of H."""
    if not _number(t):  # a bool is not read as 0 or 1
        raise ValueError(f"evolution time must be a real number, got {t!r}")
    if not _finite(t):
        raise ValueError(f"evolution time must be finite, got {t!r}")
    return _propagator(spectral_decompose(h), t)


def _propagator(spectrum: SpectralDecomposition, t: float) -> np.ndarray:
    """``exp(-i H t)`` from the levels of ``H``, for a real ``t``;
    ``ValueError`` where a phase leaves the float range."""
    with _float_range("exp(-i H t)"):
        return spectrum.apply_function(lambda a: np.exp(-1j * a * t))


def trace_distance(a, b) -> float:
    """(1/2) Tr |A - B| from the eigenvalues of the Hermitian difference."""
    a = require_hermitian(a)
    b = require_hermitian(b)
    if a.shape != b.shape:
        raise DimensionError(
            f"trace distance needs equal dimensions, got {a.shape[0]} and {b.shape[0]}"
        )
    with _float_range("trace distance"):
        return _trace_distance(a, b)


def _trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """``trace_distance`` of two finite square arrays of one dimension; unchecked.

    The symmetrised difference is exactly Hermitian, so it goes to the
    kernel with no second check.  At n = 2 nothing is solved: the
    eigenvalues of ``[[x, z], [z*, y]]`` are ``(x + y)/2 +- sqrt(((x - y)/2)^2
    + |z|^2)``, so half the sum of their magnitudes is the larger of
    ``|x + y|/2`` (both of one sign) and that square root (opposite signs).
    """
    diff = _hermitian_part(a - b)
    if diff.shape[0] == 2:
        (x, z), (_, y) = diff.tolist()
        x = x.real
        y = y.real
        return max(0.5 * abs(x + y), math.hypot(0.5 * (x - y), abs(z)))
    return 0.5 * float(np.abs(_eigh(diff)[0]).sum())
