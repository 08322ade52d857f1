"""The vectorised search and the atom lattice check against loop-form oracles.

``oracles.py`` keeps the tuple-and-dict implementations.  Every search
result must be equal under ``==``: counts and the first satisfying
example.  The lattice check works from the k atoms while its oracle
scans all 2^k x 2^k pairs of events, so its contract is a bound: equal
atom verdicts, sound other verdicts, and a ``max_defect`` at or above
the oracle's measured one and below a stated ceiling.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from qcontext import contextuality
from qcontext.contexts import Observable, boolean_lattice_check, observable
from qcontext.contextuality import (
    ValueAssignmentProblem,
    mermin_peres_square,
    search_noncontextual_assignment,
)
from qcontext.linalg import SpectralDecomposition
from qcontext.sampling import random_density


@st.composite
def constraint_sets(draw):
    """Any sign constraints over n <= 10 observables, repeats included.

    The search reads only ``size``, ``labels``, ``contexts`` and
    ``signs``, so a plain namespace can pose constraint sets, such as
    unsatisfiable ones, that no verified set of observables carries.
    """
    n = draw(st.integers(min_value=1, max_value=10))
    index = st.integers(min_value=0, max_value=n - 1)
    contexts = draw(
        st.lists(st.lists(index, max_size=5).map(tuple), max_size=7).map(tuple)
    )
    signs = tuple(draw(st.sampled_from((1, -1))) for _ in contexts)
    labels = tuple(f"o{i}" for i in draw(st.permutations(range(n))))
    return SimpleNamespace(size=n, labels=labels, contexts=contexts, signs=signs)


@given(constraint_sets())
@settings(max_examples=200, deadline=None)
def test_search_matches_oracle_on_random_constraints(problem):
    assert search_noncontextual_assignment(problem) == (
        oracles.search_noncontextual_assignment(problem)
    )


@given(constraint_sets())
@settings(max_examples=200, deadline=None)
def test_search_matches_oracle_in_blocks_of_four(problem):
    # Every n > 2 problem spans several blocks, and a block whose high
    # bits have odd overlap with a context takes the complement of its
    # constraint table.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(contextuality, "_SEARCH_BLOCK", 4)
        assert search_noncontextual_assignment(problem) == (
            oracles.search_noncontextual_assignment(problem)
        )


def test_search_finds_a_first_case_beyond_the_first_block():
    # o0 = -1 sets the top bit and o1 o2 = -1 one of the next two, so the
    # first satisfying case is 2^16 + 2^14, past the first block.  The repeated
    # o16 squares away, leaving o15 = +1.
    problem = SimpleNamespace(
        size=17,
        labels=tuple(f"o{i}" for i in range(17)),
        contexts=((0,), (1, 2), (16, 15, 16)),
        signs=(-1, -1, 1),
    )
    result = search_noncontextual_assignment(problem)
    assert result.cases_checked == 2**17
    assert result.satisfying_count == 2**17 // 8
    first = sum(1 << (16 - i) for i, v in enumerate(result.example.values()) if v == -1)
    assert first == 2**16 + 2**14 >= contextuality._SEARCH_BLOCK
    assert result == oracles.search_noncontextual_assignment(problem)


def _peak_bytes(call) -> int:
    """Peak traced memory of ``call()``, numpy's buffers included."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def test_search_memory_does_not_grow_with_the_number_of_contexts():
    relaxed = _padded_square(np.arange(20), 11, (0, 1, 2, 3, 4))
    repeated = SimpleNamespace(
        size=relaxed.size, labels=relaxed.labels,
        contexts=relaxed.contexts * 40, signs=relaxed.signs * 40,
    )
    few = _peak_bytes(lambda: search_noncontextual_assignment(relaxed))
    many = _peak_bytes(lambda: search_noncontextual_assignment(repeated))
    assert few > 2**20  # the verdict array: one bool a case
    assert many <= 1.05 * few


def _padded_square(order, padding: int, keep: tuple[int, ...]) -> ValueAssignmentProblem:
    """The square's observables plus identities, reordered, with some contexts."""
    square = mermin_peres_square()
    labels = list(square.labels) + [f"I{k}" for k in range(padding)]
    mats = list(square.observables) + [np.eye(4, dtype=complex)] * padding
    position = {int(old): new for new, old in enumerate(order)}
    return ValueAssignmentProblem(
        observables=tuple(mats[i] for i in order),
        labels=tuple(labels[i] for i in order),
        contexts=tuple(
            tuple(position[i] for i in square.contexts[c]) for c in keep
        ),
        signs=tuple(square.signs[c] for c in keep),
    )


@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=0, max_value=1),
    st.sets(st.integers(min_value=0, max_value=5)),
)
@settings(max_examples=20, deadline=None)
def test_search_matches_oracle_on_verified_squares(seed, padding, keep):
    order = np.random.default_rng(seed).permutation(9 + padding)
    problem = _padded_square(order, padding, tuple(sorted(keep)))
    assert search_noncontextual_assignment(problem) == (
        oracles.search_noncontextual_assignment(problem)
    )


def test_search_counts_padded_square_at_the_cap():
    relaxed = (0, 1, 2, 3, 4)
    problem = _padded_square(np.arange(20), 11, relaxed)
    result = search_noncontextual_assignment(problem)
    assert result.cases_checked == 2**20 == 1_048_576
    assert result.satisfying_count == 16 * 2**11 == 32_768
    assert problem.assignment_satisfies(result.example)


def _observable_with_levels(rng, levels: list[float]):
    d = len(levels)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    h = (q * np.array(levels)) @ q.conj().T
    return observable(0.5 * (h + h.conj().T))


def _tampered(kind: str, strength: float) -> Observable:
    # Eigenvectors that are no longer orthonormal give generators that
    # really fail by about ``strength``.  When column 1 leans on column 0
    # it stays a unit vector, so each P_i is still idempotent and what
    # fails is P_0 P_1 != 0; when column 2 is stretched, P_2^2 != P_2.
    good = _observable_with_levels(np.random.default_rng(4), [0.0, 1.0, 2.0, 3.0])
    vectors = good.spectrum.vectors.copy()
    if kind == "column_1_leans_on_column_0":
        vectors[:, 1] += strength * vectors[:, 0]
        vectors[:, 1] /= np.linalg.norm(vectors[:, 1])
    else:
        vectors[:, 2] *= 1.0 + strength
    spectrum = SpectralDecomposition(good.spectrum.eigenvalues, vectors, good.spectrum.multiplicities)
    return Observable(matrix=good.matrix, spectrum=spectrum)


_MEASURED = ("projectors_orthogonal", "complete")
_BOUNDED = (
    "closed_under_meet",
    "closed_under_join",
    "closed_under_complement",
    "probabilities_consistent",
)


def _lattice_ceiling(obs, states) -> float:
    """2 (A + c + q + 2 R), from loop forms of what the check bounds from.

    A is the sum of a_ij over ordered pairs, c the completeness defect, q
    the largest probability defect and R = 16 (d + 2)(k + 3) sqrt(d) eps
    (1 + d (A + c))^2 the rounding term (``boolean_lattice_check``'s
    docstring names them).  Its largest bound before the round-up is
    max(A, c, q) + R, give or take rounding that the second R covers; the
    factor 2 covers the round-up to a power of two.  A bound 1e-10 too
    high exceeds this.
    """
    atoms = obs.spectrum.projectors
    k, d = len(atoms), obs.dim
    a = sum(
        float(np.abs(p @ r - (p if i == j else 0.0)).max())
        for i, p in enumerate(atoms)
        for j, r in enumerate(atoms)
    )
    c = float(np.abs(sum(atoms) - np.eye(d)).max())
    if states is None:
        rng = np.random.default_rng(0)
        states = [random_density(d, rng) for _ in range(20)]
    q = 0.0
    for rho in states:
        p = [float(np.trace(rho.matrix @ atom).real) for atom in atoms]
        q = max(q, sum(max(0.0, -x) for x in p) + abs(sum(p) - 1.0))
    eps = np.finfo(float).eps
    rounding = 16 * (d + 2) * (k + 3) * np.sqrt(d) * eps * (1 + d * (a + c)) ** 2
    return 2 * (a + c + q + 2 * rounding)


def _lattice_against_oracle(obs, states=None, tol=1e-9):
    """Both reports, after checking the library's against the loop scan.

    The atoms' verdicts are measured alike, so they are equal; the others
    rest on an upper bound, so each is sound (a verdict that holds holds
    for the oracle too), and ``max_defect`` lies between the oracle's
    measured maximum and a ceiling that a vacuous bound would exceed.
    """
    report = boolean_lattice_check(obs, states=states, tol=tol)
    oracle = oracles.boolean_lattice_check(obs, states=states, tol=tol)
    assert report.element_count == oracle.element_count
    for name in _MEASURED:
        assert getattr(report, name) == getattr(oracle, name), name
    for name in _BOUNDED:
        assert getattr(oracle, name) or not getattr(report, name), name
    assert oracle.max_defect <= report.max_defect <= _lattice_ceiling(obs, states)
    return report, oracle


def _assert_same_verdicts(report, oracle):
    for name in _MEASURED + _BOUNDED:
        assert getattr(report, name) == getattr(oracle, name), name


@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=7),
    st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_lattice_matches_oracle_on_random_observables(seed, k, repeats, own_states):
    rng = np.random.default_rng(seed)
    levels = [float(v) for v in range(k)]
    levels += [float(v) for v in rng.integers(0, k, min(repeats, 8 - k))]  # degenerate levels
    obs = _observable_with_levels(rng, levels)
    assert len(obs.spectrum.projectors) == k and obs.dim <= 8
    states = None
    if own_states:
        states = [random_density(obs.dim, rng) for _ in range(3)]
    _lattice_against_oracle(obs, states=states)


def test_lattice_matches_oracle_at_six_levels():
    obs = _observable_with_levels(np.random.default_rng(6), [float(v) for v in range(6)])
    for tol in (1e-9, 0.0):
        report, oracle = _lattice_against_oracle(obs, tol=tol)
        assert report.element_count == 64
        assert report.all_hold == (tol > 0.0)
        _assert_same_verdicts(report, oracle)


def test_lattice_matches_oracle_at_eight_levels_in_dimension_eight():
    # The shape of the benchmark's scale call: 256 events, 36 atom
    # products and each state's 8 atom probabilities.
    obs = _observable_with_levels(np.random.default_rng(8), [float(v) for v in range(8)])
    report, oracle = _lattice_against_oracle(obs)
    assert report.element_count == 256 and report.all_hold
    _assert_same_verdicts(report, oracle)


@pytest.mark.parametrize("k", [3, 6])
def test_lattice_matches_oracle_on_exact_projectors(k):
    # A diagonal observable with levels 1..k has 0/1 projectors, so every
    # atom gap a_ij and c is exactly 0, and max_defect is rounding terms
    # alone: still above the oracle's measured gaps, which come only from
    # the seeded batch's event probabilities.
    obs = observable(np.diag(np.arange(1.0, k + 1.0)).astype(complex))
    for tol in (1e-9, 0.0):
        report, oracle = _lattice_against_oracle(obs, tol=tol)
        assert report.element_count == 2**k
        assert report.all_hold == (tol > 0.0) and oracle.max_defect > 0.0
        _assert_same_verdicts(report, oracle)


def test_lattice_matches_oracle_when_a_check_fails():
    # a tolerance below the rounding floor fails the numerical checks;
    # the verdicts must still agree, and the bound still cover the gaps
    obs = _observable_with_levels(np.random.default_rng(3), [0.0, 1.0, 2.0, 2.0])
    for tol in (1e-9, 0.0):
        report, oracle = _lattice_against_oracle(obs, tol=tol)
        _assert_same_verdicts(report, oracle)
        assert report.all_hold == (tol > 0.0)


@pytest.mark.parametrize("strength", [1e-12, 1e-9, 1e-6])
@pytest.mark.parametrize("tamper", ["column_1_leans_on_column_0", "column_2_stretched"])
def test_lattice_bound_covers_tampered_generators(tamper, strength):
    # Weaker tampering than below: up to 1e-9 every verdict still holds at
    # the default tolerance, and at 1e-6 the generators fail.
    obs = _tampered(tamper, strength)
    report, oracle = _lattice_against_oracle(obs)
    _assert_same_verdicts(report, oracle)
    assert report.all_hold == (strength <= 1e-9)
    assert 0.1 * strength < report.max_defect < 10.0 * strength
    _assert_same_verdicts(*_lattice_against_oracle(obs, tol=0.0))


@pytest.mark.parametrize("tamper", ["column_1_leans_on_column_0", "column_2_stretched"])
def test_lattice_fails_on_generators_that_are_not_orthogonal_projectors(tamper):
    # Each tampered generator really fails, at the default tolerance, by
    # about 1e-3.
    obs = _tampered(tamper, 1e-3)
    report, oracle = _lattice_against_oracle(obs)
    _assert_same_verdicts(report, oracle)
    assert not report.projectors_orthogonal
    assert not report.closed_under_meet
    assert not report.closed_under_join
    assert 1e-4 < report.max_defect < 1e-2
    _assert_same_verdicts(*_lattice_against_oracle(obs, tol=0.0))


@pytest.mark.parametrize("strength", [1e-6, 3e-5, 1e-3])
def test_lattice_bound_counts_each_gap_between_two_atoms_twice(strength):
    # With v0, v1 = (e0 +- e1)/sqrt(2), leaning v1 on v0 puts the largest
    # entries of P_0 P_1 and P_1 P_0 apart, but on the diagonal they add:
    # the event {0, 1} misses its own square by 2 a_01, which the bound
    # covers only by counting a_01 once for (0, 1) and once for (1, 0).
    # At a tolerance just below that, the meet verdict must fail.
    v = np.eye(4)
    v[:2, :2] = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    good = observable(((v * np.arange(4.0)) @ v.T).astype(complex))
    vectors = good.spectrum.vectors.copy()
    vectors[:, 1] += strength * vectors[:, 0]
    vectors[:, 1] /= np.linalg.norm(vectors[:, 1])
    spectrum = SpectralDecomposition(good.spectrum.eigenvalues, vectors, good.spectrum.multiplicities)
    obs = Observable(matrix=good.matrix, spectrum=spectrum)
    a_01 = float(np.abs(obs.spectrum.projectors[0] @ obs.spectrum.projectors[1]).max())
    report, oracle = _lattice_against_oracle(obs, tol=1.998 * a_01)
    assert not oracle.closed_under_meet and not report.closed_under_meet
    _assert_same_verdicts(*_lattice_against_oracle(obs))
    _assert_same_verdicts(*_lattice_against_oracle(obs, tol=0.0))


@pytest.mark.parametrize("states", [None, []], ids=["seeded_batch", "no_states"])
def test_lattice_fails_on_a_missing_outcome(states):
    # A zeroed eigenvector leaves P_2 = 0: the atoms stay orthogonal
    # idempotents, so meet and join hold, but they no longer sum to I, so
    # completeness and complement fail (and, with states, probabilities).
    # With no states the bound is the lattice terms alone.
    good = _observable_with_levels(np.random.default_rng(4), [0.0, 1.0, 2.0, 3.0])
    vectors = good.spectrum.vectors.copy()
    vectors[:, 2] = 0.0
    spectrum = SpectralDecomposition(good.spectrum.eigenvalues, vectors, good.spectrum.multiplicities)
    obs = Observable(matrix=good.matrix, spectrum=spectrum)
    report, oracle = _lattice_against_oracle(obs, states=states)
    _assert_same_verdicts(report, oracle)
    assert report.projectors_orthogonal and report.closed_under_meet and report.closed_under_join
    assert not report.complete and not report.closed_under_complement
    assert report.probabilities_consistent == (states == [])
