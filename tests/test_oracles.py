"""The vectorised search and lattice check against their loop-form oracles.

``oracles.py`` keeps the tuple-and-dict implementations.  Every result
here must be equal under ``==``: counts, the first satisfying example,
every verdict and ``max_defect`` to the last bit.
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


@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2),
    st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_lattice_matches_oracle_on_random_observables(seed, k, repeats, own_states):
    rng = np.random.default_rng(seed)
    levels = [float(v) for v in range(k)]
    levels += [float(v) for v in rng.integers(0, k, repeats)]  # degenerate levels
    obs = _observable_with_levels(rng, levels)
    assert len(obs.spectrum.projectors) == k
    states = None
    if own_states:
        states = [random_density(obs.dim, rng) for _ in range(3)]
    assert boolean_lattice_check(obs, states=states) == (
        oracles.boolean_lattice_check(obs, states=states)
    )


def test_lattice_matches_oracle_at_six_levels():
    obs = _observable_with_levels(np.random.default_rng(6), [float(v) for v in range(6)])
    report = boolean_lattice_check(obs)
    assert report.element_count == 64
    assert report == oracles.boolean_lattice_check(obs)


def test_lattice_matches_oracle_at_eight_levels_in_dimension_eight():
    # The shape of the benchmark's scale call: 256 elements, each state's
    # 256 probabilities from one stacked product.
    obs = _observable_with_levels(np.random.default_rng(8), [float(v) for v in range(8)])
    report = boolean_lattice_check(obs)
    assert report.element_count == 256 and report.all_hold
    assert report == oracles.boolean_lattice_check(obs)


@pytest.mark.parametrize("k", [3, 6])
def test_lattice_matches_oracle_on_exact_projectors(k):
    # A diagonal observable with levels 1..k has 0/1 projectors, so every
    # meet and join is exact and max_defect comes only from the seeded
    # batch's event probabilities.  At k = 3 the atom sum sets it and at
    # k = 6 an additivity sum does, so a changed summation order in
    # either shows up in the last bit.
    obs = observable(np.diag(np.arange(1.0, k + 1.0)).astype(complex))
    report = boolean_lattice_check(obs)
    assert report.element_count == 2**k
    assert report.all_hold and report.max_defect > 0.0
    assert report == oracles.boolean_lattice_check(obs)


def test_lattice_matches_oracle_when_a_check_fails():
    # a tolerance below the rounding floor fails the numerical checks;
    # the verdicts and the worst defect must still agree
    obs = _observable_with_levels(np.random.default_rng(3), [0.0, 1.0, 2.0, 2.0])
    report = boolean_lattice_check(obs, tol=0.0)
    assert not report.all_hold
    assert report == oracles.boolean_lattice_check(obs, tol=0.0)


@pytest.mark.parametrize("tamper", ["column_1_leans_on_column_0", "column_2_stretched"])
def test_lattice_fails_on_generators_that_are_not_orthogonal_projectors(tamper):
    # Eigenvectors that are no longer orthonormal give generators that
    # really fail, at the default tolerance, each by about 1e-3.  In the
    # first case column 1 stays a unit vector, so each P_i is still
    # idempotent and what fails is P_0 P_1 != 0; in the second, P_2^2 != P_2.
    good = _observable_with_levels(np.random.default_rng(4), [0.0, 1.0, 2.0, 3.0])
    vectors = good.spectrum.vectors.copy()
    if tamper == "column_1_leans_on_column_0":
        vectors[:, 1] += 1e-3 * vectors[:, 0]
        vectors[:, 1] /= np.linalg.norm(vectors[:, 1])
    else:
        vectors[:, 2] *= 1.0 + 1e-3
    spectrum = SpectralDecomposition(good.spectrum.eigenvalues, vectors, good.spectrum.multiplicities)
    obs = Observable(matrix=good.matrix, spectrum=spectrum)
    report = boolean_lattice_check(obs)
    assert not report.projectors_orthogonal
    assert not report.closed_under_meet
    assert not report.closed_under_join
    assert 1e-4 < report.max_defect < 1e-2
    assert report == oracles.boolean_lattice_check(obs)
