"""Closed forms against the solved and product-forming routes they replaced.

``Direction.outcome_projectors`` writes ``(I +- n . sigma)/2`` down,
``correlations._joint_record`` contracts the pair state with both wings'
projectors in one ``einsum``, ``correlations._distant_after`` forms the
distant spin's state after a nearby non-selective measurement in two
more, ``random_nondegenerate_observable``
builds its spectrum from the construction's eigenpairs, criterion 6
builds its ``A^2`` probe from them too, the 2x2 trace distance is
the larger of ``|x + y|/2`` and ``hypot((x - y)/2, |z|)``,
``luders_nonselective`` keeps the level blocks of ``V^dagger W V`` and
``Observable.eigenbasis`` reads the spectrum's columns.  ``oracles.py``
keeps the eigensolve, the Kronecker-product trace, the looped
sandwich and partial trace, ``observable(m)``,
the solved trace distance, the per-level Lüders sum and the
projector-extracted eigenbasis.
The arithmetic differs, so each comparison has a bound stated in units of
``EPS``, the spacing of doubles at 1.
"""

import numpy as np
import pytest

import oracles
from qcontext import linalg as la
from qcontext.contexts import Observable, context, luders_nonselective, observable
from qcontext.correlations import (
    Direction,
    _distant_after,
    _joint_record,
    chsh_optimal_settings,
)
from qcontext.linalg import JACOBI_OFF_TOL
from qcontext.sampling import (
    random_density,
    random_direction,
    random_nondegenerate_observable,
    random_pure_state,
    random_unitary,
)

EPS = np.finfo(float).eps
EYE = np.eye(2)


def _directions(seed, count):
    rng = np.random.default_rng(seed)
    axes = [Direction(*row) for row in np.vstack([np.eye(3), -np.eye(3)])]
    return axes + list(chsh_optimal_settings()) + [random_direction(rng) for _ in range(count)]


@pytest.mark.parametrize("seed", [0, 1])
def test_spin_projectors_match_the_jacobi_oracle(seed):
    # 3.5 EPS is the largest gap seen over 2,000 random directions.
    for d in _directions(seed, 500):
        want = oracles.spin_projectors(d)
        for outcome, p in d.spin_projectors.items():
            assert np.abs(p - want[outcome]).max() <= 8 * EPS


def test_spin_projectors_resolve_the_identity_and_are_idempotent():
    for d in _directions(2, 500):
        plus, minus = d.outcome_projectors
        assert np.abs(plus + minus - EYE).max() <= EPS
        for p in (plus, minus):
            assert np.array_equal(p, p.conj().T)
            assert np.abs(p @ p - p).max() <= 4 * EPS
        assert np.abs(plus @ minus).max() <= 4 * EPS


@pytest.mark.parametrize("seed", [3, 4])
def test_joint_table_matches_the_tensor_and_trace_oracle(seed):
    # Each probability sums 16 products of entries at most 1 in another
    # order than the oracle's matrix product; 2 EPS is the largest gap
    # seen over 2,000 random states and settings.
    rng = np.random.default_rng(seed)
    for _ in range(300):
        rho = random_density(4, rng)
        a, b = random_direction(rng), random_direction(rng)
        got = _joint_record(rho, a, b).joint
        want = oracles.joint_table(rho.matrix, a.spin_projectors, b.spin_projectors)
        assert got.keys() == want.keys()
        assert max(abs(got[k] - want[k]) for k in got) <= 8 * EPS


@pytest.mark.parametrize("seed", [5, 6])
def test_distant_state_matches_the_sandwich_and_partial_trace_oracle(seed):
    # Stacks of arbitrary complex 2x2 matrices, not projectors: for a true
    # pair of projectors sum_p P_p P_p is the identity, under which a
    # transposed index of the contraction would go unseen.  The largest
    # gap seen over 6,000 draws is 7.1e-15, in a margin.
    rng = np.random.default_rng(seed)
    for _ in range(300):
        w = random_density(4, rng).matrix
        stack = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
        qb = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
        got_state, got_margins = _distant_after(w.reshape(2, 2, 2, 2), stack, qb)
        want_state, want_margins = oracles.distant_after(w, stack, qb)
        assert np.abs(got_state - want_state).max() <= 1e-14
        assert max(abs(g - m) for g, m in zip(got_margins, want_margins)) <= 1e-14


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_sampled_observable_matches_the_solved_one(dim):
    # The oracle solves the sampled matrix, so its projectors carry the
    # solver's rounding: |A P - a P| reached 8,000 EPS for them over 300
    # seeds while the solver was cyclic Jacobi, against 6 EPS for the
    # construction's (idempotent to 2 EPS, eigenvalues 36 EPS from the
    # oracle's at most).
    for seed in range(100):
        obs, values, u = random_nondegenerate_observable(dim, np.random.default_rng(seed))
        ref, ref_values, ref_u = oracles.random_nondegenerate_observable(
            dim, np.random.default_rng(seed)
        )
        assert obs.matrix.tobytes() == ref.matrix.tobytes()
        assert values.tobytes() == ref_values.tobytes() and u.tobytes() == ref_u.tobytes()
        assert obs.spectrum.multiplicities == ref.spectrum.multiplicities == (1,) * dim
        assert obs.spectrum.eigenvalues == tuple(values.tolist())
        gaps = np.subtract(obs.spectrum.eigenvalues, ref.spectrum.eigenvalues)
        assert np.abs(gaps).max() <= 128 * EPS
        for a, p, q in zip(values, obs.spectrum.projectors, ref.spectrum.projectors):
            assert np.abs(p - q).max() <= 10 * JACOBI_OFF_TOL
            assert np.abs(obs.matrix @ p - a * p).max() <= 64 * EPS
            assert np.abs(p @ p - p).max() <= 16 * EPS


def test_qubit_trace_distance_matches_the_solved_one():
    # 2.5 EPS is the largest gap seen over 20,000 pairs of random states.
    rng = np.random.default_rng(5)
    for i in range(2000):
        a = random_density(2, rng).matrix
        b = random_pure_state(2, rng).to_density().matrix if i % 2 else random_density(2, rng).matrix
        assert abs(la._trace_distance(a, b) - oracles.trace_distance(a, b)) <= 8 * EPS


def test_qubit_trace_distance_exact_cases():
    up = np.diag([1.0, 0.0]).astype(complex)
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert la._trace_distance(up, up) == 0.0
    assert la._trace_distance(up, np.eye(2) - up) == 1.0
    assert la._trace_distance(up, 0.5 * np.eye(2)) == 0.5
    assert abs(la._trace_distance(up, plus) - np.sqrt(0.5)) <= EPS


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_known_spectrum_of_a_squared_matches_the_solved_one(dim):
    # Criterion 6's probe A^2 takes A's eigenvectors and squared
    # eigenvalues.  Over 300 seeds the solved levels of A @ A were at most
    # 152 EPS away, its projectors 1.9e-12, and |A^2 P - a P| reached 56
    # EPS for the known ones: A @ A rounds entries near 16.
    for seed in range(100):
        obs, values, u = random_nondegenerate_observable(dim, np.random.default_rng(seed))
        m = obs.matrix @ obs.matrix
        known = la.SpectralDecomposition.from_eigenpairs(values**2, u)
        solved = observable(m).spectrum
        assert known.multiplicities == solved.multiplicities == (1,) * dim
        assert np.abs(np.subtract(known.eigenvalues, solved.eigenvalues)).max() <= 1024 * EPS
        for a, p, q in zip(known.eigenvalues, known.projectors, solved.projectors):
            assert np.abs(p - q).max() <= 10 * JACOBI_OFF_TOL
            assert np.abs(m @ p - a * p).max() <= 1024 * EPS


EIGENBASIS_DIMS = [2, 3, 4, 8, 16, 64]


def _degenerate_observable(dim, rng):
    """Levels of multiplicity 3 (the last one shorter) on a random basis."""
    u = random_unitary(dim, rng)
    values = np.arange(dim) // 3 + 1.0
    m = la._hermitian_part((u * values) @ u.conj().T)
    return Observable(matrix=m, spectrum=la.SpectralDecomposition.from_eigenpairs(values, u))


@pytest.mark.parametrize("degenerate", [False, True], ids=["non_degenerate", "degenerate"])
@pytest.mark.parametrize("dim", EIGENBASIS_DIMS)
def test_luders_in_the_eigenbasis_matches_the_per_level_sum(dim, degenerate):
    # 1.5 EPS is the largest gap seen here, in the state and in the weights.
    rng = np.random.default_rng(300 + dim)
    for trial in range(10):
        if degenerate:
            obs = _degenerate_observable(dim, rng)
        else:
            obs, _, _ = random_nondegenerate_observable(dim, rng)
        state = random_pure_state(dim, rng) if trial % 2 else random_density(dim, rng)
        got = luders_nonselective(context(state, obs))
        want, weights = oracles.luders_nonselective(got.context.initial_state.matrix, obs.spectrum)
        assert np.abs(got.state.matrix - want).max() <= 16 * EPS
        assert got.outcome_probabilities.keys() == weights.keys()
        assert max(abs(got.outcome_probabilities[a] - weights[a]) for a in weights) <= 16 * EPS


@pytest.mark.parametrize("dim", EIGENBASIS_DIMS)
def test_eigenbasis_columns_match_the_projector_extracted_vectors(dim):
    # 2 EPS is the largest gap seen here.
    rng = np.random.default_rng(400 + dim)
    for _ in range(10):
        obs, _, _ = random_nondegenerate_observable(dim, rng)
        got = obs.eigenbasis()
        want = oracles.eigenbasis(obs.spectrum)
        assert [a for a, _ in got] == [a for a, _ in want]
        for (_, v), (_, w) in zip(got, want):
            assert np.abs(v - w).max() <= 16 * EPS


@pytest.mark.parametrize("dim", [1, *EIGENBASIS_DIMS])
def test_random_unitary_columns_are_orthonormal(dim):
    # 3 EPS is the largest defect seen here.
    rng = np.random.default_rng(500 + dim)
    for _ in range(10):
        u = random_unitary(dim, rng)
        assert np.abs(u.conj().T @ u - np.eye(dim)).max() <= 16 * EPS
