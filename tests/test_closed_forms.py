"""Closed forms against the solved and product-forming routes they replaced.

``Direction.outcome_projectors`` writes ``(I +- n . sigma)/2`` down,
``correlations._joint_record`` contracts the pair state with both wings'
projectors in one ``einsum``, and ``random_nondegenerate_observable``
builds its spectrum from the construction's eigenpairs.  ``oracles.py``
keeps the Jacobi solve, the Kronecker-product trace and ``observable(m)``.
The arithmetic differs, so each comparison has a bound stated in units of
``EPS``, the spacing of doubles at 1.
"""

import numpy as np
import pytest

import oracles
from qcontext.correlations import Direction, _joint_record, chsh_optimal_settings
from qcontext.linalg import JACOBI_OFF_TOL
from qcontext.sampling import random_density, random_direction, random_nondegenerate_observable

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


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_sampled_observable_matches_the_solved_one(dim):
    # The oracle's Jacobi solve stops once the off-diagonal norm is below
    # JACOBI_OFF_TOL times |A|_F (about 5 at dim 4), so its projectors are
    # only that good: |A P - a P| reaches 6,600 EPS for them over 300
    # seeds, against 38 EPS for the construction's (idempotent to 9.5 EPS,
    # eigenvalues 76 EPS from the oracle's at most).
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
