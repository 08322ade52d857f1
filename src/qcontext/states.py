"""Pure and mixed states of compound systems: Schmidt structure, reduced
states, total spin, and the link between interaction and entanglement.

States live on tensor-product spaces ordered subsystem 1 (x) subsystem 2,
with row-major composite indexing: amplitude ``i * d2 + j`` belongs to the
product basis vector |i> (x) |j>.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg as la
from .linalg import DimensionError, _integer

# Norm / trace of a state must sit within this of 1.
NORMALIZATION_TOL = 1e-10

# Density operator eigenvalues may undershoot zero by at most this.
POSITIVITY_TOL = 1e-9

# A state is pure when its purity Tr(W^2) sits within this of 1.
PURITY_TOL = 1e-9

# Schmidt coefficients below this count as zero when ranking.
SCHMIDT_RANK_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit vector on a finite-dimensional Hilbert space.

    Every vector built from outside the library is validated at
    construction: dimension 1..``MAX_DIM``, finite entries and a norm
    within 1e-10 of one.  Vectors the library derives from validated
    ones and that are unit by construction come from ``_derived``.
    """

    amplitudes: np.ndarray = field(repr=False)

    @classmethod
    def _derived(cls, amplitudes: np.ndarray) -> "PureState":
        """Wrap a complex 1-D vector that is unit by construction, unvalidated.

        Only for vectors the library computes from validated inputs, such
        as ``a / |a|`` or a unitary applied to a state; input from outside
        goes through ``PureState(...)``.
        """
        state = object.__new__(cls)
        object.__setattr__(state, "amplitudes", amplitudes)
        return state

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if a.size < 1 or a.size > la.MAX_DIM:
            raise DimensionError(
                f"state dimension {a.size} outside supported range 1..{la.MAX_DIM}"
            )
        if not np.isfinite(a).all():
            raise ValueError("amplitudes must be finite")
        # Finite entries near 1e308 overflow to an inf norm, which the
        # test below rejects; numpy need not warn about it on stderr.
        with np.errstate(over="ignore"):
            norm = la._frobenius_norm(a)
        if abs(norm - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"state is not normalised: |psi| = {norm!r}")
        object.__setattr__(self, "amplitudes", a)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def projector(self) -> np.ndarray:
        """Rank-one density matrix |psi><psi|."""
        a = self.amplitudes
        return np.outer(a, a.conj())

    def to_density(self) -> "DensityOperator":
        return DensityOperator._derived(self.projector())


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite operator.

    Every state built from outside the library is validated at
    construction: Hermiticity within 1e-9 per entry, trace within 1e-10
    of one, eigenvalues above -1e-9 (a Cholesky certificate, and one
    eigensolve only when it fails; see ``_require_positive``).
    A positive state that passes the Hermiticity check is accepted even
    when it is not exactly Hermitian; ``matrix`` is the input.  States the
    library derives from validated ones and that are positive by
    construction (``|psi><psi|``, Luders sums, partial traces, Wishart
    draws, clipped reconstructions) come from ``_derived`` and skip it.
    """

    matrix: np.ndarray = field(repr=False)

    @classmethod
    def _derived(cls, matrix: np.ndarray) -> "DensityOperator":
        """Wrap a complex matrix that is a state by construction, unvalidated.

        Only for matrices the library computes from validated inputs;
        input from outside goes through ``DensityOperator(...)``.
        """
        state = object.__new__(cls)
        object.__setattr__(state, "matrix", matrix)
        return state

    def __post_init__(self):
        m, h = la._hermitian_input(self.matrix)
        with la._float_range("density operator trace"):
            tr = complex(np.trace(m))
        if abs(tr - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"density operator trace {tr!r} is not 1")
        _require_positive(h)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        """Tr(W^2); equals 1 exactly for pure states."""
        return la._trace_product(self.matrix, self.matrix)

    def is_pure(self) -> bool:
        return abs(self.purity() - 1.0) < PURITY_TOL


def _require_positive(h: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``h`` has no eigenvalue below -1e-9.

    ``h`` is the exactly Hermitian array of ``la._hermitian_input`` for a
    state that has passed the trace check: the input itself, or its
    Hermitian part.  It is shifted by half the tolerance and
    Cholesky-factored: a factor with every entry finite certifies
    ``lambda_min(h) >= -tol/2 - O(n eps |h|)``, and at trace one that
    error term is about 1e-14, so the eigenvalue rule below would accept too.
    The certificate is only ever a yes; when it fails (no factor, or one
    with inf or nan in it, as for entries near 1e308), the smallest
    eigenvalue of ``h``, solved by ``la._eigh`` with no second check,
    decides and words the rejection.
    """
    shifted = h + (0.5 * POSITIVITY_TOL) * np.eye(h.shape[0])
    try:
        if np.isfinite(np.linalg.cholesky(shifted)).all():
            return
    except np.linalg.LinAlgError:
        pass
    low = float(la._eigh(h)[0].min())
    if low < -POSITIVITY_TOL:
        raise ValueError(f"density operator has negative eigenvalue {low:.3e}")


def as_density(state) -> DensityOperator:
    """Accept a PureState, DensityOperator, vector or matrix."""
    if isinstance(state, DensityOperator):
        return state
    if isinstance(state, PureState):
        return state.to_density()
    a = np.asarray(state, dtype=complex)
    if a.ndim == 1:
        return PureState(a).to_density()
    return DensityOperator(a)


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Biorthogonal expansion psi = sum_i c_i u_i (x) v_i.

    Only coefficients above ``SCHMIDT_RANK_TOL`` are kept; they descend and
    their squares sum to one.  Each left vector carries the deterministic
    phase convention (largest-magnitude component real positive), with the
    matching right vector absorbing the compensating phase.
    """

    dims: tuple[int, int]
    coefficients: tuple[float, ...]
    left_basis: tuple[np.ndarray, ...] = field(repr=False)
    right_basis: tuple[np.ndarray, ...] = field(repr=False)

    @property
    def rank(self) -> int:
        return len(self.coefficients)

    def coefficient(self, i: int) -> float:
        """i-th coefficient, zero past the rank."""
        return self.coefficients[i] if i < len(self.coefficients) else 0.0

    def reconstruct(self) -> np.ndarray:
        out = np.zeros(self.dims[0] * self.dims[1], dtype=complex)
        for c, u, v in zip(self.coefficients, self.left_basis, self.right_basis):
            out += c * np.kron(u, v)
        return out


def schmidt(psi, dims: tuple[int, int]) -> SchmidtDecomposition:
    """Schmidt decomposition of a bipartite pure state.

    The amplitude matrix M (shape d1 x d2) is diagonalised through the
    Hermitian embedding [[0, M], [M^dagger, 0]], whose positive eigenvalues
    are the Schmidt coefficients.  This reuses the eigensolver and keeps
    absolute accuracy ~1e-12 on coefficients near zero, where squaring
    into a Gram matrix would drown them in rounding noise.
    """
    state = psi if isinstance(psi, PureState) else PureState(psi)
    d1, d2 = la._bipartite_dims(dims, state.dim)
    m = state.amplitudes.reshape(d1, d2)
    n = d1 + d2
    b = np.zeros((n, n), dtype=complex)
    b[:d1, d1:] = m
    b[d1:, :d1] = m.conj().T
    # Exactly Hermitian by construction, with entries bounded by a unit
    # state, so the kernel needs no check (n may be MAX_DIM + 1).
    eigenvalues, vectors = la._eigh(b)

    pairs = [
        (float(eigenvalues[i]), vectors[:, i])
        for i in range(n)
        if eigenvalues[i] > SCHMIDT_RANK_TOL
    ]
    pairs.sort(key=lambda t: -t[0])

    coefficients: list[float] = []
    left: list[np.ndarray] = []
    right: list[np.ndarray] = []
    for c, w in pairs:
        u = w[:d1] * np.sqrt(2.0)
        # The embedding pairs u with the conjugate of the kron factor:
        # for m = sum c u v^T the +c eigenvector is (u, v*)/sqrt(2).
        v = np.conj(w[d1:]) * np.sqrt(2.0)
        u = u / la._frobenius_norm(u)
        v = v / la._frobenius_norm(v)
        # Move the pair's arbitrary phase onto the right factor so the
        # left vector obeys the global convention.
        k = int(np.argmax(np.abs(u)))
        z = u[k]
        phase = z.conj() / abs(z)
        coefficients.append(c)
        left.append(u * phase)
        right.append(v * phase.conj())
    return SchmidtDecomposition(
        dims=(d1, d2),
        coefficients=tuple(coefficients),
        left_basis=tuple(left),
        right_basis=tuple(right),
    )


def is_product(psi, dims: tuple[int, int]):
    """Decide whether a bipartite pure state factorises.

    Returns ``(True, (factor1, factor2))`` when the Schmidt rank is one,
    else ``(False, None)``.
    """
    dec = schmidt(psi, dims)
    if dec.rank == 1:
        return True, (PureState(dec.left_basis[0]), PureState(dec.right_basis[0]))
    return False, None


def reduced_state(w, dims: tuple[int, int], keep: int) -> DensityOperator:
    """Reduced density operator of one subsystem of a compound state."""
    rho = as_density(w)
    return DensityOperator._derived(la._partial_trace(rho.matrix, dims, keep))


def basis_state(dim: int, index: int) -> PureState:
    if not (_integer(dim) and _integer(index)):
        raise ValueError(f"basis state needs integer dim and index, got {dim!r} and {index!r}")
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} outside 0..{dim - 1}")
    a = np.zeros(dim, dtype=complex)
    a[index] = 1.0
    return PureState(a)


def product_basis_state(i: int, j: int) -> PureState:
    """Two-qubit product state |i> (x) |j>."""
    a = np.kron(basis_state(2, i).amplitudes, basis_state(2, j).amplitudes)
    return PureState(a)


def make_singlet() -> PureState:
    """Two-spin singlet (|01> - |10>) / sqrt(2)."""
    a = np.zeros(4, dtype=complex)
    a[1] = 1.0 / np.sqrt(2.0)
    a[2] = -1.0 / np.sqrt(2.0)
    return PureState(a)


def make_ghz() -> PureState:
    """Three-qubit state (|000> + |111>) / sqrt(2)."""
    a = np.zeros(8, dtype=complex)
    a[0] = 1.0 / np.sqrt(2.0)
    a[7] = 1.0 / np.sqrt(2.0)
    return PureState(a)


def total_spin_squared_matrix() -> np.ndarray:
    """(S1 + S2)^2 for two spin-1/2 systems, in units with hbar = 1."""
    eye = np.eye(2, dtype=complex)
    out = np.zeros((4, 4), dtype=complex)
    for pauli in (la.SIGMA_X, la.SIGMA_Y, la.SIGMA_Z):
        s = 0.5 * (la._tensor(pauli, eye) + la._tensor(eye, pauli))
        out += s @ s
    return out


def total_spin_squared(w) -> float:
    """Expectation of total spin squared in a two-spin state.

    Zero only in the singlet; the value separates entangled states from
    mixtures that share the same reduced states.
    """
    rho = as_density(w)
    if rho.dim != 4:
        raise DimensionError(f"total spin is defined for dimension 4, got {rho.dim}")
    return la._trace_product(rho.matrix, total_spin_squared_matrix())


def coupled_spins_hamiltonian(coupling: float) -> np.ndarray:
    """Two-spin generator sigma_z x I + I x sigma_z + g sigma_x x sigma_x."""
    if not la._finite(coupling):
        raise ValueError(f"coupling must be a finite real number, got {coupling!r}")
    eye = np.eye(2, dtype=complex)
    return (
        la._tensor(la.SIGMA_Z, eye)
        + la._tensor(eye, la.SIGMA_Z)
        + coupling * la._tensor(la.SIGMA_X, la.SIGMA_X)
    )


@dataclass(frozen=True)
class SchmidtTracePoint:
    """Schmidt data of the evolving state at one instant."""

    time: float
    coefficients: tuple[float, ...]
    rank: int


def entangling_evolution_demo(
    coupling: float, t_final: float, steps: int = 10
) -> list[SchmidtTracePoint]:
    """Evolve |00> under the coupled-spin generator and track Schmidt data.

    Without coupling the product structure survives (rank stays one, the
    second coefficient sits at rounding level); any nonzero coupling
    generically entangles the pair.  Each point is propagated directly
    from t = 0 so errors do not accumulate across steps.  The generator
    is decomposed once; each point applies exp(-i a t) to its levels
    through ``evolution_operator``'s own kernel, so the same floats as
    ``evolution_operator(H, t)`` applied to |00>.
    """
    if not _integer(steps) or steps < 1:
        raise ValueError(f"steps must be a positive integer, got {steps!r}")
    if not la._finite(t_final):
        raise ValueError(f"final time must be a finite real number, got {t_final!r}")
    spectrum = la.spectral_decompose(coupled_spins_hamiltonian(coupling))
    psi0 = product_basis_state(0, 0)
    out: list[SchmidtTracePoint] = []
    for k in range(steps + 1):
        t = t_final * k / steps
        u = la._propagator(spectrum, t)
        psi_t = PureState._derived(u @ psi0.amplitudes)
        dec = schmidt(psi_t, (2, 2))
        coeffs = tuple(dec.coefficient(i) for i in range(2))
        out.append(SchmidtTracePoint(time=t, coefficients=coeffs, rank=dec.rank))
    return out
