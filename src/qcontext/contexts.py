"""Measurement contexts and contextual states.

A context pairs a state with a measured observable.  Conditioning on the
measurement (without reading the outcome) replaces the state W by

    W_A = sum_i P_i W P_i

over the observable's spectral projectors.  In the observable's
eigenbasis V that keeps the diagonal blocks of ``V^dagger W V``, one block
a level, so it is computed there and no projector is formed.  The
conditioned state is block diagonal in the measurement basis, reproduces
every statistic of observables compatible with A, and generally differs
between incompatible contexts.  The routines here compute that
conditioning, the conditions under which the conditioned state
faithfully represents the original one, and the Boolean structure a
single context carries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import linalg as la
from .linalg import DimensionError
from .states import DensityOperator, as_density

# Expansion amplitudes below this mark an eigenvector as absent from the
# support of the state.
SUPPORT_TOL = 1e-8

# Eigenvector residuals and overlaps in a representative expansion stay
# below this.
REPRESENTATIVE_TOL = 1e-9

# Largest number of distinct eigenvalues the lattice check will expand
# into subsets (2^k elements, each unordered pair compared).
_LATTICE_MAX_LEVELS = 8


@dataclass(frozen=True, eq=False)
class Observable:
    """Hermitian operator with its spectral resolution and a label."""

    matrix: np.ndarray = field(repr=False)
    spectrum: la.SpectralDecomposition = field(repr=False)
    label: str = ""

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def non_degenerate(self) -> bool:
        return all(m == 1 for m in self.spectrum.multiplicities)

    def eigenbasis(self) -> list[tuple[float, np.ndarray]]:
        """(eigenvalue, unit vector) pairs; defined only without degeneracy.

        The vectors are the spectrum's columns with the eigenvector phase
        rule applied: largest-magnitude component real positive.
        """
        if not self.non_degenerate:
            raise ValueError(
                f"observable {self.label!r} is degenerate; no unique eigenbasis"
            )
        return list(zip(self.spectrum.eigenvalues, la._fix_column_phases(self.spectrum.vectors).T))


def observable(matrix, label: str = "") -> Observable:
    """Validate a Hermitian matrix and attach its spectral resolution.

    The matrix is checked once; it is solved as ``spectral_decompose``
    would solve it.
    """
    a, solved = la._hermitian_input(matrix)
    spectrum = la.SpectralDecomposition.from_eigenpairs(*la._eigh(solved))
    return Observable(matrix=a, spectrum=spectrum, label=label)


@dataclass(frozen=True, eq=False)
class MeasurementContext:
    """A state together with the observable measured on it."""

    initial_state: DensityOperator
    observable: Observable

    def __post_init__(self):
        if self.initial_state.dim != self.observable.dim:
            raise DimensionError(
                f"state dimension {self.initial_state.dim} does not match "
                f"observable dimension {self.observable.dim}"
            )


def context(state, obs: Observable) -> MeasurementContext:
    return MeasurementContext(initial_state=as_density(state), observable=obs)


@dataclass(frozen=True, eq=False)
class ContextualState:
    """State conditioned on a measurement context, with outcome weights.

    A result record of ``luders_nonselective``, built unchecked: that the
    state commutes with the observable and the weights form a distribution
    is a property of the algorithm, asserted in ``tests/test_result_records.py``.
    """

    state: DensityOperator
    context: MeasurementContext
    outcome_probabilities: dict[float, float]


def _level_weights(spectrum: la.SpectralDecomposition, m: np.ndarray) -> dict[float, float]:
    """``{a_i: Tr(W P_i)}`` read off ``M = V^dagger W V``.

    Level i's weight is the sum of ``Re M_jj`` over its columns j, in
    column order.
    """
    diagonal = m.diagonal().real.tolist()
    weights: dict[float, float] = {}
    start = 0
    for a, k in zip(spectrum.eigenvalues, spectrum.multiplicities):
        weights[a] = sum(diagonal[start : start + k])
        start += k
    return weights


def luders_nonselective(ctx: MeasurementContext) -> ContextualState:
    """Condition the context's state on its measurement, keeping no record.

    W -> sum_i P_i W P_i over the spectral projectors of the observable,
    computed as ``V M V^dagger`` where ``M = V^dagger W V`` is zeroed
    outside the levels' diagonal blocks (``V`` the spectrum's vectors).
    The trace is preserved and each outcome keeps its original weight
    p_i = Tr(W P_i), the level's share of the diagonal of ``M``.
    """
    spectrum = ctx.observable.spectrum
    v = spectrum.vectors
    m = la._to_basis(v, ctx.initial_state.matrix)
    probabilities = _level_weights(spectrum, m)
    level = np.repeat(np.arange(len(spectrum.multiplicities)), spectrum.multiplicities)
    m[level[:, None] != level[None, :]] = 0.0
    return ContextualState(
        state=DensityOperator._derived(la._from_basis(v, m)),
        context=ctx,
        outcome_probabilities=probabilities,
    )


@dataclass(frozen=True)
class RepresentativenessReport:
    """Checks that the conditioned state's expansion is faithful.

    For a pure state and a non-degenerate observable the conditioned
    state expands over the observable's eigenvectors; the expansion is
    representative when those vectors (i) really are eigenvectors,
    (ii) are mutually orthogonal, and (iii) all carry nonzero amplitude
    in the original state.  Eigenvectors with no amplitude are excluded
    from the support and listed separately.
    """

    eigenvector_condition: bool
    orthogonality_condition: bool
    support_condition: bool
    support_eigenvalues: tuple[float, ...]
    excluded_eigenvalues: tuple[float, ...]

    @property
    def representative(self) -> bool:
        return (
            self.eigenvector_condition
            and self.orthogonality_condition
            and self.support_condition
        )


def check_representative(cs: ContextualState) -> RepresentativenessReport:
    """Verify the faithfulness conditions for a conditioned state.

    Every support vector carries amplitude above ``SUPPORT_TOL`` by
    construction, so the support condition is that the support is not
    empty; for a unit state it never is.

    Raises
    ------
    ValueError
        If the initial state is mixed or the observable degenerate; the
        conditions are stated only for the pure, non-degenerate case.
    """
    ctx = cs.context
    w = ctx.initial_state
    if not w.is_pure() or not ctx.observable.non_degenerate:
        raise ValueError(
            "representativeness conditions stated only for pure/non-degenerate case"
        )
    psi = la._rank_one_vector(w.matrix)
    a_matrix = ctx.observable.matrix
    basis = ctx.observable.eigenbasis()

    support: list[tuple[float, np.ndarray]] = []
    excluded: list[float] = []
    for value, vec in basis:
        amplitude = abs(np.vdot(vec, psi))
        if amplitude > SUPPORT_TOL:
            support.append((value, vec))
        else:
            excluded.append(value)

    eigencond = all(
        la._frobenius_norm(a_matrix @ vec - value * vec) < REPRESENTATIVE_TOL
        for value, vec in support
    )
    orthocond = all(
        abs(np.vdot(u, v)) < REPRESENTATIVE_TOL
        for (_, u), (_, v) in itertools.combinations(support, 2)
    )
    return RepresentativenessReport(
        eigenvector_condition=eigencond,
        orthogonality_condition=orthocond,
        support_condition=bool(support),
        support_eigenvalues=tuple(value for value, _ in support),
        excluded_eigenvalues=tuple(excluded),
    )


@dataclass(frozen=True)
class EquivalenceResult:
    """Expectation of a probe before and after conditioning."""

    expectation_initial: float
    expectation_conditioned: float

    @property
    def delta(self) -> float:
        return abs(self.expectation_initial - self.expectation_conditioned)


def statistical_equivalence(
    ctx: MeasurementContext, probe: Observable | None = None
) -> EquivalenceResult:
    """Compare Tr(W B) with Tr(W_A B) for a probe observable B.

    With no probe the measured observable itself is used, for which the
    two expectations always coincide.  Any probe compatible with the
    measured observable keeps the agreement; an incompatible probe can
    witness the difference between W and W_A.
    """
    b = probe if probe is not None else ctx.observable
    if b.dim != ctx.observable.dim:
        raise DimensionError(
            f"probe dimension {b.dim} does not match context {ctx.observable.dim}"
        )
    # Observable matrices were validated when built; the dimensions match.
    before = la._trace_product(ctx.initial_state.matrix, b.matrix)
    after = la._trace_product(luders_nonselective(ctx).state.matrix, b.matrix)
    return EquivalenceResult(expectation_initial=before, expectation_conditioned=after)


def contexts_distance(w, a: Observable, b: Observable) -> float:
    """Trace distance between the conditionings of one state on two contexts.

    (1/2) Tr |W_A - W_B|; zero when the observables share an eigenbasis,
    strictly positive when the contexts genuinely differ on the state.
    """
    rho = as_density(w)
    wa = luders_nonselective(context(rho, a)).state.matrix
    wb = luders_nonselective(context(rho, b)).state.matrix
    return la._trace_distance(wa, wb)


def sequential_luders(w, sequence: list[Observable]) -> DensityOperator:
    """Apply non-selective conditionings in order, left to right."""
    rho = as_density(w)
    for obs in sequence:
        rho = luders_nonselective(context(rho, obs)).state
    return rho


@dataclass(frozen=True)
class BooleanLatticeReport:
    """Closure and probability checks for one context's event algebra.

    ``max_defect`` is the largest gap over every check, with each
    unordered pair of events' meet and join taken once: every event is
    exactly Hermitian, so the pair (t, s) repeats (s, t) transposed.
    """

    element_count: int
    projectors_orthogonal: bool
    complete: bool
    closed_under_meet: bool
    closed_under_join: bool
    closed_under_complement: bool
    probabilities_consistent: bool
    max_defect: float

    @property
    def all_hold(self) -> bool:
        return (
            self.projectors_orthogonal
            and self.complete
            and self.closed_under_meet
            and self.closed_under_join
            and self.closed_under_complement
            and self.probabilities_consistent
        )


def boolean_lattice_check(
    a: Observable,
    states: list[DensityOperator] | None = None,
    tol: float = 1e-9,
) -> BooleanLatticeReport:
    """Expand the event algebra generated by one observable and verify it.

    The spectral projectors generate 2^k events (k distinct eigenvalues);
    the report confirms the generators are orthogonal and complete, that
    meet, join and complement stay inside the set, and that event
    probabilities behave additively on a batch of states (a fixed seeded
    batch of twenty when none is supplied).  Meet and join are checked
    once for each unordered pair of events, the pair of an event with
    itself included: every event is a sum of projectors formed as
    (p + p^dagger) / 2, so Hermitian bit for bit, and the meet and join
    of (t, s) are the conjugate transposes of those of (s, t), with the
    same gaps.
    """
    k = len(a.spectrum.eigenvalues)
    if k > _LATTICE_MAX_LEVELS:
        raise DimensionError(
            f"lattice expansion supports at most {_LATTICE_MAX_LEVELS} distinct "
            f"eigenvalues, observable has {k}"
        )
    projectors = a.spectrum.projectors
    dim = a.dim
    defect = 0.0

    # Subset s holds projector i when bit k-1-i is set, so s = 0, 1, ...
    # is itertools.product((0, 1), repeat=k) order.  Meet, join and
    # complement are s & t, s | t and full ^ s.  Each element sums its
    # projectors in index order starting from zero: the element without
    # its last projector, plus that projector.
    full = (1 << k) - 1
    index = np.arange(full + 1)
    atoms = [1 << (k - 1 - j) for j in range(k)]
    elements = np.zeros((full + 1, dim, dim), dtype=complex)
    for s in range(1, full + 1):
        elements[s] = elements[s & (s - 1)] + projectors[k - (s & -s).bit_length()]

    # Row s scans only t >= s, each unordered pair once (the docstring says
    # why), keeping the diagonal t = s, where P^2 = P is checked.
    # Orthogonality is read off the meet table's atom rows at atom columns
    # t >= s, each P_i P_j with i <= j once; completeness off row 0 of the
    # complement table, I - sum P_i.  The scan writes into three buffers
    # allocated once a call; every operation and operand order is that of
    # the plain expressions in the comments, so every bit is too.
    meets = np.empty_like(elements)
    work = np.empty_like(elements)
    gaps = np.empty(elements.shape)
    orthogonal = meet_ok = join_ok = True
    for s in range(full + 1):
        upper, meet, w, gap = elements[s:], meets[s:], work[s:], gaps[s:]
        np.matmul(elements[s], upper, out=meet)  # elements[s] @ upper
        np.take(elements, s & index[s:], axis=0, out=w, mode="clip")
        np.subtract(meet, w, out=w)
        np.abs(w, out=gap)  # |meet - elements[s & index[s:]]|
        err = float(gap.max())
        defect = max(defect, err)
        if err >= tol:
            meet_ok = False
        if s in atoms and gap[[t - s for t in atoms if t >= s]].max() >= tol:
            orthogonal = False
        np.add(elements[s], upper, out=w)
        w -= meet  # the joins, elements[s] + upper - meet
        np.take(elements, s | index[s:], axis=0, out=meet, mode="clip")
        w -= meet
        err = float(np.abs(w, out=gap).max())  # |joins - elements[s | index[s:]]|
        defect = max(defect, err)
        if err >= tol:
            join_ok = False
    del gap  # a view, which would keep the gaps buffer alive past its rebinding below
    np.subtract(np.eye(dim), elements, out=work)
    np.take(elements, full ^ index, axis=0, out=meets, mode="clip")
    work -= meets
    gaps = np.abs(work, out=gaps).max(axis=(1, 2))  # |(I - e) - elements[full ^ index]|
    err = float(gaps.max())
    defect = max(defect, err)
    complement_ok = err < tol
    complete = bool(gaps[0] < tol)

    if states is None:
        # Imported here because sampling imports this module.
        from .sampling import random_density

        rng = np.random.default_rng(0)
        states = [random_density(dim, rng) for _ in range(20)]
    s_idx, t_idx = np.nonzero(index[:, None] & index[None, :] == 0)
    u_idx = s_idx | t_idx
    probs_ok = True
    for rho in states:
        # One stacked product a state: each element's matmul and diagonal
        # sum are those of np.trace(rho @ e), bit for bit.
        np.matmul(rho.matrix, elements, out=meets)
        values = meets.trace(axis1=1, axis2=2).real
        if (values < -tol).any() or (values > 1.0 + tol).any():
            probs_ok = False
        defect = max(defect, float((-values).max()), float((values - 1.0).max()))
        err = abs(sum(values[a] for a in atoms) - 1.0)
        defect = max(defect, err)
        if err >= tol:
            probs_ok = False
        # additivity over disjoint events
        err = float(np.abs(values[u_idx] - values[s_idx] - values[t_idx]).max())
        defect = max(defect, err)
        if err >= tol:
            probs_ok = False

    return BooleanLatticeReport(
        element_count=full + 1,
        projectors_orthogonal=orthogonal,
        complete=complete,
        closed_under_meet=meet_ok,
        closed_under_join=join_ok,
        closed_under_complement=complement_ok,
        probabilities_consistent=probs_ok,
        max_defect=defect,
    )
