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
import math
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

# Largest number of distinct eigenvalues the lattice check accepts
# (2^k events, checked from their k atoms).
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

    # An eigenvector of A is one of cA, and no product of A / s overflows.
    s = max(1.0, *(abs(value) for value, _ in basis))
    scaled = a_matrix / s
    eigencond = all(
        la._norm_of_scalars((scaled @ vec - (value / s) * vec).tolist()) < REPRESENTATIVE_TOL
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

    ``projectors_orthogonal`` and ``complete`` are measured on the atoms.
    The other four verdicts hold when an upper bound on their gaps (see
    ``boolean_lattice_check``) is below ``tol``, so they are conservative,
    and ``max_defect`` is the largest of those bounds, not a measured gap.
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
    """Verify the event algebra generated by one observable from its atoms.

    The k spectral projectors P_i generate 2^k events E_s = sum_{i in s}
    P_i, a Boolean algebra when they are orthogonal and complete
    (Birkhoff and von Neumann, Ann. Math. 37, 1936), so no event is
    formed.  Measured as the plain expressions are: a_ij = max|P_i P_j -
    delta_ij P_i| (i <= j), c = max|sum_i P_i - I| and, per state (twenty
    seeded ones when none are given), p_i = Re Tr(rho P_i).
    ``projectors_orthogonal`` is every a_ij < tol and ``complete`` c < tol;
    the other verdicts bound the gaps that every pair's meet, join and
    complement, and each event's probability, would show if formed in
    floating point.  Exactly, with A the sum of a_ij over ordered pairs
    (a_ji read as a_ij: every atom is Hermitian bit for bit, so P_j P_i =
    (P_i P_j)^dagger): E_s E_t - E_{s&t} = sum_{i in s, j in t} (P_i P_j -
    delta_ij P_i), at most A; E_s + E_t = E_{s|t} + E_{s&t}, so a join's
    defect is its meet's; I - E_s - E_{~s} = I - sum_i P_i; Re Tr(rho E_s)
    = sum_{i in s} p_i, so additivity is exact and each probability lies
    within q = sum_i max(0, -p_i) + |sum_i p_i - 1| of [0, 1].

    Rounding adds at most R = 16 (d + 2)(k + 3) sqrt(d) eps X^2 to A, c
    and the largest q, with eps = 2^-52 and X = 1 + d (A + c).  From
    Higham's gamma_n (*Accuracy and Stability of Numerical Algorithms*,
    ch. 3): a sum of k atoms is within k eps |P_i| summed, an entry of a
    complex product MN within (d + 2) eps (|M||N|)_xy.  sum_i P_i^2 = I +
    (sum_i P_i - I) + sum_i (P_i^2 - P_i) bounds the entries of sum_i
    |P_i|, and each ||E_s||_2, by about X; |p_i| <= ||P_i||_2 <= X; a
    density operator's row norms add up to at most sqrt(d) (1 + 1e-6).
    Summed term by term, the k^2 products' rounding, a formed event's
    summation error, a formed meet's product, a join's four additions and
    two subtractions, a complement's, and the product and trace that give
    Re Tr(rho E_s) stay below R / 2 for every k <= 8 and d <= 10^5; the
    other half covers the bound's own evaluation.  Each bound is then rounded up to a power of two, so that
    ``max_defect``, the largest, does not move with the last bits of the
    atoms or the states.
    """
    k = len(a.spectrum.eigenvalues)
    if k > _LATTICE_MAX_LEVELS:
        raise DimensionError(
            f"lattice expansion supports at most {_LATTICE_MAX_LEVELS} distinct "
            f"eigenvalues, observable has {k}"
        )
    atoms, d = a.spectrum.projectors, a.dim
    off, on = [], []  # a_ij for i < j, a_ii
    for i, j in itertools.combinations_with_replacement(range(k), 2):
        prod = atoms[i] @ atoms[j]
        (on if i == j else off).append(float(np.abs(prod - atoms[i] if i == j else prod).max()))
    c = float(np.abs(sum(atoms) - np.eye(d)).max())
    gap_sum = math.fsum(on) + 2.0 * math.fsum(off)
    eps = float(np.finfo(float).eps)
    rounding = 16 * (d + 2) * (k + 3) * math.sqrt(d) * eps * (1.0 + d * (gap_sum + c)) ** 2

    if states is None:
        # Imported here because sampling imports this module.
        from .sampling import random_density

        rng = np.random.default_rng(0)
        states = [random_density(d, rng) for _ in range(20)]
    rhos = np.array([rho.matrix for rho in states], dtype=complex).reshape(len(states), d, d)
    # p[m, i] = Re sum_x sum_z rho_m[x, z] P_i[z, x], over z, then x
    p = (rhos[:, None] * np.array(atoms).transpose(0, 2, 1)).real.sum(axis=3).sum(axis=2)
    q = np.maximum(-p, 0.0).sum(axis=1) + np.abs(p.sum(axis=1) - 1.0)
    lattice, complement, probabilities = (
        _power_of_two_above(x + rounding) for x in (gap_sum, c, float(np.max(q, initial=0.0)))
    )
    return BooleanLatticeReport(
        element_count=1 << k,
        projectors_orthogonal=not any(g >= tol for g in off + on),
        complete=c < tol,
        closed_under_meet=lattice < tol,
        closed_under_join=lattice < tol,
        closed_under_complement=complement < tol,
        probabilities_consistent=probabilities < tol,
        max_defect=max(lattice, complement, probabilities),
    )


def _power_of_two_above(x: float) -> float:
    """The least power of two at or above a positive ``x`` (inf and nan kept)."""
    m, e = math.frexp(x)
    return math.ldexp(1.0, e) if 0.5 < m < 1.0 else x
