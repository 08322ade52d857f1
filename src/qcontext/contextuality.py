"""Obstructions to context-independent value assignments.

Two classic finite demonstrations, checked by explicit matrix algebra at
construction time and then reduced to exact sign arithmetic:

* a 3 x 3 square of two-spin observables whose six product constraints
  admit no simultaneous +-1 assignment;
* the three-spin parity argument, where four compatible product
  observables force an impossible sign pattern on six local values.

Also provided: a direct demonstration that the statistics of one
observable depend on which compatible partner is measured alongside it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import linalg as la
from .contexts import Observable, _level_weights, observable, sequential_luders
from .linalg import _integer, _list_of
from .states import DensityOperator, as_density, make_ghz

# Observables must square to I and satisfy their product constraints
# within this, per entry.
CONSTRAINT_TOL = 1e-9

# Exhaustive search is capped at this many +-1 observables (2^n cases).
_SEARCH_MAX_OBSERVABLES = 20

# Cases per block of the search: each constraint's table spans one block.
_SEARCH_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class ValueAssignmentProblem:
    """+-1 observables with signed product constraints over contexts.

    ``contexts[k]`` lists indices of mutually commuting observables whose
    ordered matrix product must equal ``signs[k]`` times the identity.
    ``labels`` name the observables and must be distinct strings; indices
    and signs are integers (not bools), stored like the labels as tuples.
    Construction verifies every constraint numerically; a corrupted
    problem never comes into existence, and an observable whose square
    leaves the float range raises ``ValueError``.  ``identity_defect``
    keeps the largest entry of any ``product - sign * I`` it measured on
    the way.
    """

    observables: tuple[np.ndarray, ...] = field(repr=False)
    labels: tuple[str, ...]
    contexts: tuple[tuple[int, ...], ...]
    signs: tuple[int, ...]
    identity_defect: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.observables, (list, tuple)):
            raise ValueError(f"observables must be a list of matrices, got {self.observables!r}")
        if not _list_of(self.labels, lambda x: isinstance(x, str)):
            raise ValueError(f"labels must be a list of strings, got {self.labels!r}")
        if not _list_of(self.contexts, lambda ctx: _list_of(ctx, _integer)):
            raise ValueError(
                f"contexts must be a list of lists of integers, got {self.contexts!r}"
            )
        if not _list_of(self.signs, lambda x: _integer(x) and x in (-1, 1)):
            raise ValueError(f"signs must be a list of integers +-1, got {self.signs!r}")
        mats = tuple(la.require_hermitian(m) for m in self.observables)
        object.__setattr__(self, "observables", mats)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "contexts", tuple(tuple(ctx) for ctx in self.contexts))
        object.__setattr__(self, "signs", tuple(self.signs))
        n = len(mats)
        if n == 0:
            raise ValueError("a value-assignment problem needs at least one observable")
        if len(self.labels) != n:
            raise ValueError(f"{n} observables but {len(self.labels)} labels")
        if len(set(self.labels)) != n:
            repeated = sorted({x for x in self.labels if self.labels.count(x) > 1})
            raise ValueError(f"labels must be distinct, repeated: {repeated!r}")
        if len(self.contexts) != len(self.signs):
            raise ValueError(
                f"{len(self.contexts)} contexts but {len(self.signs)} signs"
            )
        dim = mats[0].shape[0]
        eye = np.eye(dim)
        # Past this loop each observable squares to I, so its entries are
        # about 1 at most and no product below can overflow.
        with la._float_range("observable square"):
            for label, m in zip(self.labels, mats):
                if m.shape[0] != dim:
                    raise la.DimensionError("observables live on different spaces")
                defect = float(np.abs(m @ m - eye).max())
                if defect >= CONSTRAINT_TOL:
                    raise ValueError(
                        f"observable {label!r} does not square to I (defect {defect:.3e})"
                    )
        worst = 0.0
        for ctx, sign in zip(self.contexts, self.signs):
            if any(i < 0 or i >= n for i in ctx):
                raise ValueError(f"context {ctx!r} references unknown observables")
            for i, j in itertools.combinations(ctx, 2):
                # validated above, one dimension: [A, B] needs no re-check
                defect = la._commutator_defect(mats[i], mats[j])
                if defect >= CONSTRAINT_TOL:
                    raise ValueError(
                        f"context {ctx!r}: {self.labels[i]!r} and "
                        f"{self.labels[j]!r} do not commute (defect {defect:.3e})"
                    )
            product = eye.astype(complex)
            for i in ctx:
                product = product @ mats[i]
            defect = float(np.abs(product - sign * eye).max())
            if defect >= CONSTRAINT_TOL:
                raise ValueError(
                    f"context {ctx!r} product is not {sign:+d} I (defect {defect:.3e})"
                )
            worst = max(worst, defect)
        object.__setattr__(self, "identity_defect", worst)

    @property
    def size(self) -> int:
        return len(self.observables)

    def assignment_satisfies(self, values: dict[str, int]) -> bool:
        """Exact integer check of one global +-1 assignment."""
        for ctx, sign in zip(self.contexts, self.signs):
            prod = 1
            for i in ctx:
                prod *= values[self.labels[i]]
            if prod != sign:
                return False
        return True

    def without_context(self, index: int) -> "ValueAssignmentProblem":
        """Copy of the problem with one constraint removed."""
        if not 0 <= index < len(self.contexts):
            raise ValueError(f"no context with index {index}")
        keep = [k for k in range(len(self.contexts)) if k != index]
        return ValueAssignmentProblem(
            observables=self.observables,
            labels=self.labels,
            contexts=tuple(self.contexts[k] for k in keep),
            signs=tuple(self.signs[k] for k in keep),
        )


def mermin_peres_square() -> ValueAssignmentProblem:
    """The 3 x 3 two-spin observable square with its six product constraints.

    Rows multiply to +I; the first two columns multiply to +I and the
    third to -I.  All nine observables square to I and commute within
    each row and column, which the constructor re-verifies numerically.
    """
    eye = np.eye(2, dtype=complex)
    x, y, z = la.SIGMA_X, la.SIGMA_Y, la.SIGMA_Z
    grid = [
        ("XI", la._tensor(x, eye)), ("IX", la._tensor(eye, x)), ("XX", la._tensor(x, x)),
        ("IY", la._tensor(eye, y)), ("YI", la._tensor(y, eye)), ("YY", la._tensor(y, y)),
        ("XY", la._tensor(x, y)), ("YX", la._tensor(y, x)), ("ZZ", la._tensor(z, z)),
    ]
    labels = tuple(name for name, _ in grid)
    mats = tuple(m for _, m in grid)
    contexts = (
        (0, 1, 2), (3, 4, 5), (6, 7, 8),   # rows
        (0, 3, 6), (1, 4, 7), (2, 5, 8),   # columns
    )
    signs = (1, 1, 1, 1, 1, -1)
    return ValueAssignmentProblem(
        observables=mats, labels=labels, contexts=contexts, signs=signs
    )


@dataclass(frozen=True)
class AssignmentSearchResult:
    """Outcome of exhaustive search over global +-1 assignments."""

    cases_checked: int
    satisfying_count: int
    example: dict[str, int] | None


def search_noncontextual_assignment(
    problem: ValueAssignmentProblem,
) -> AssignmentSearchResult:
    """Try every global +-1 assignment against all constraints.

    Case ``c`` gives observable ``i`` the value -1 exactly when bit
    ``n-1-i`` of ``c`` is set, which walks the assignments in
    ``itertools.product((1, -1), repeat=n)`` order.  A context's product
    is then -1 exactly when its index mask has odd overlap with ``c``;
    the mask is an XOR, so an index repeated in a context squares away.
    The arithmetic is exact integer parity, so the verdict carries no
    numerical tolerance.

    The cases form blocks of ``size`` (a power of two): case
    ``(h << low) | offset`` is ``offset`` in block ``h``, and its parity
    against a mask is the offset's parity XOR the parity of ``h`` against
    the mask's high bits.  So each constraint is tabled once over the
    offsets, and every block of one verdict array of 2^n bools takes that
    table or its complement.  All 2^n cases are judged; memory does not
    grow with the number of contexts.  Problems above 2^20 cases are
    refused.
    """
    n = problem.size
    if n > _SEARCH_MAX_OBSERVABLES:
        raise ValueError(
            f"search space 2^{n} exceeds the 2^{_SEARCH_MAX_OBSERVABLES} cap"
        )
    # Both powers of two, so every block is full.
    size = min(_SEARCH_BLOCK, 1 << n)
    low = size.bit_length() - 1
    table = np.empty(size, dtype=bool)
    verdict = np.ones(1 << n, dtype=bool)
    blocks = verdict.reshape(-1, size)
    for ctx, sign in zip(problem.contexts, problem.signs):
        mask = 0
        for i in ctx:
            mask ^= 1 << (n - 1 - i)
        # table[offset]: the offset's own parity gives the context's sign.
        # Setting bit b of an offset flips its parity when the mask has b.
        table[0] = sign != -1
        for b in range(low):
            lower, upper = table[: 1 << b], table[1 << b : 2 << b]
            if mask >> b & 1:
                np.logical_not(lower, out=upper)
            else:
                upper[...] = lower
        high = mask >> low
        for h, block in enumerate(blocks):
            if (h & high).bit_count() & 1:
                np.greater(block, table, out=block)  # block and not table
            else:
                block &= table
    count = int(np.count_nonzero(verdict))
    example = None
    if count:
        first = int(np.argmax(verdict))
        values = (-1 if first >> (n - 1 - i) & 1 else 1 for i in range(n))
        example = dict(zip(problem.labels, values))
    return AssignmentSearchResult(
        cases_checked=verdict.size, satisfying_count=count, example=example
    )


@dataclass(frozen=True)
class ParityContradictionReport:
    """Numerical and sign-arithmetic content of the three-spin argument."""

    constraint_labels: tuple[str, ...]
    eigenvalues: tuple[int, ...]
    residuals: tuple[float, ...]
    forced_product: int
    constraint_product: int

    @property
    def contradiction(self) -> bool:
        return self.forced_product != self.constraint_product


def ghz_contradiction() -> ParityContradictionReport:
    """Four product observables pin the three-spin state, yet no local
    +-1 values can reproduce their signs.

    The state (|000> + |111>)/sqrt(2) is a +1 eigenvector of X X X and a
    -1 eigenvector of X Y Y, Y X Y and Y Y X.  Multiplying the four
    constraints squares every local value, forcing product +1 against
    the observed -1.
    """
    psi = make_ghz().amplitudes
    x, y = la.SIGMA_X, la.SIGMA_Y
    combos = (
        ("XXX", (x, x, x), 1),
        ("XYY", (x, y, y), -1),
        ("YXY", (y, x, y), -1),
        ("YYX", (y, y, x), -1),
    )
    labels = []
    eigenvalues = []
    residuals = []
    for name, (m1, m2, m3), sign in combos:
        op = la._tensor(la._tensor(m1, m2), m3)
        residual = la._norm_of_scalars((op @ psi - sign * psi).tolist())
        labels.append(name)
        eigenvalues.append(sign)
        residuals.append(residual)
    forced = 1  # every local value appears an even number of times
    observed = int(np.prod(eigenvalues))
    return ParityContradictionReport(
        constraint_labels=tuple(labels),
        eigenvalues=tuple(eigenvalues),
        residuals=tuple(residuals),
        forced_product=forced,
        constraint_product=observed,
    )


@dataclass(frozen=True)
class ValueDependenceReport:
    """A-statistics and state changes under three compatible preparations.

    Because B and C each commute with A, the three marginal
    A-distributions agree identically; ``max_shift`` records the largest
    numerical residue of that identity.  What the partner choice does
    change is the prepared state itself: ``preparation_distances`` holds
    the pairwise trace distances between the plain, after-B and after-C
    states, which are generally far from zero.  A single run's A-value
    therefore cannot be fixed independently of the partner context even
    though no marginal statistic betrays the choice.
    """

    distribution_plain: dict[float, float]
    distribution_after_b: dict[float, float]
    distribution_after_c: dict[float, float]
    max_shift: float
    preparation_distances: dict[str, float]


def value_dependence_demo(
    w, a: Observable, b: Observable, c: Observable, tol: float = 1e-9
) -> ValueDependenceReport:
    """Probe how measuring B or C first affects a later A measurement.

    Requires [A, B] = 0 and [A, C] = 0 but [B, C] != 0.  Compares the
    A-outcome distributions of three preparations (the state directly,
    after a non-selective B measurement, after a non-selective C
    measurement) and the prepared states themselves.  A commutator that
    leaves the float range raises ``ValueError``.
    """
    rho = as_density(w)
    if not a.dim == b.dim == c.dim:
        raise la.DimensionError(f"commutators need equal dimensions, got {a.dim}, {b.dim}, {c.dim}")
    with la._float_range("commutator"):
        for label, first, second in (("A,B", a, b), ("A,C", a, c)):
            defect = la._commutator_defect(first.matrix, second.matrix)
            if defect >= tol:
                raise ValueError(f"[{label}] must vanish, max entry {defect:.3e}")
        if la._commutator_defect(b.matrix, c.matrix) < tol:
            raise ValueError("B and C commute; the comparison needs incompatible partners")

    def distribution(state: DensityOperator) -> dict[float, float]:
        return _level_weights(a.spectrum, la._to_basis(a.spectrum.vectors, state.matrix))

    after_b_state = sequential_luders(rho, [b])
    after_c_state = sequential_luders(rho, [c])
    plain = distribution(rho)
    after_b = distribution(after_b_state)
    after_c = distribution(after_c_state)
    shift = max(
        max(abs(plain[k] - after_b[k]) for k in plain),
        max(abs(plain[k] - after_c[k]) for k in plain),
        max(abs(after_b[k] - after_c[k]) for k in plain),
    )
    distances = {
        "plain_vs_after_b": la._trace_distance(rho.matrix, after_b_state.matrix),
        "plain_vs_after_c": la._trace_distance(rho.matrix, after_c_state.matrix),
        "after_b_vs_after_c": la._trace_distance(
            after_b_state.matrix, after_c_state.matrix
        ),
    }
    return ValueDependenceReport(
        distribution_plain=plain,
        distribution_after_b=after_b,
        distribution_after_c=after_c,
        max_shift=shift,
        preparation_distances=distances,
    )
