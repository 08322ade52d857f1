"""The Cholesky positivity certificate decides as the eigenvalue rule did.

``DensityOperator`` accepts a state when a Cholesky factor of its
Hermitian part, shifted by half the tolerance, exists and is finite, and
runs the eigenvalue rule only when it does not.  The oracle
``density_is_positive`` is the rule before the certificate; every
decision and every message here must equal it.
"""

import numpy as np
import pytest

from qcontext.linalg import jacobi_eigh
from qcontext.states import DensityOperator

from oracles import density_is_positive

DIMS = [1, 2, 3, 4, 5, 6, 7, 8, 16, 32, 64]
LOWEST = [0.0, -4e-10, -5e-10, -6e-10, -9.99e-10, -1e-9, -1.01e-9, -0.1]


def _decide(m):
    try:
        DensityOperator(m)
    except ValueError as exc:
        return False, str(exc)
    return True, None


def _unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _spectrum(rng, n, lowest, rank):
    """``n`` eigenvalues summing to one: ``lowest``, ``n - rank - 1`` zeros
    (``lowest`` included among them when it is 0), and positive weights."""
    weights = rng.uniform(0.1, 1.0, size=rank)
    weights *= (1.0 - lowest) / weights.sum()
    values = np.zeros(n)
    values[0] = lowest
    values[n - rank:] = weights
    return values


def _states(n, lowest, seed):
    """Trace-one ``U diag U^H`` as computed: Hermitian to within rounding,
    not exactly.  Up to n = 8 one state with every eigenvalue but
    ``lowest`` positive and one with about half of them zero; above,
    where each eigensolve costs tens of milliseconds, one of the two,
    alternating with the seed."""
    rng = np.random.default_rng(seed)
    ranks = sorted({n - 1, max(1, (n - 1) // 2)})
    if n > 8:
        ranks = ranks[seed % 2 :][:1]
    out = []
    for rank in ranks:
        u = _unitary(rng, n)
        out.append((u * _spectrum(rng, n, lowest, rank)) @ u.conj().T)
    return out


def _hermitian_part(m):
    return 0.5 * (m + m.conj().T)


def _cases():
    for n in DIMS[1:]:
        for lowest in LOWEST:
            yield pytest.param(n, lowest, id=f"n{n}-{lowest:g}")


@pytest.mark.parametrize("n, lowest", _cases())
def test_decisions_and_messages_equal_the_jacobi_rule(n, lowest):
    for m in _states(n, lowest, seed=1000 * n + LOWEST.index(lowest)):
        h = _hermitian_part(m)
        want = density_is_positive(h)
        # Exactly Hermitian: the certificate changes no decision.
        assert _decide(h) == want
        if n == 64:
            continue  # two more 64x64 solves; n <= 32 covers the same rounding
        # Hermitian to within rounding: the rule solves the Hermitian
        # part, whose smallest eigenvalue differs from that of ``m`` in the
        # last bits; that decides only a state whose lowest eigenvalue is
        # -1e-9 to within rounding.
        assert _decide(m) == want
        if lowest != -1e-9:
            assert density_is_positive(m) == want


@pytest.mark.parametrize("n", DIMS)
def test_negative_zeros_and_zero_blocks_decide_as_before(n):
    # A rank-one state in the top-left corner, the rest -0.0 in both
    # parts, so the conjugate transpose flips the sign of zeros.
    m = np.full((n, n), complex(-0.0, -0.0))
    m[0, 0] = 1.0
    assert _decide(m) == density_is_positive(m) == (True, None)
    if n > 1:
        m[n - 1, n - 1] = complex(-2e-9, -0.0)
        m[0, 0] = 1.0 + 2e-9
        assert _decide(m) == density_is_positive(m)
        assert _decide(m)[0] is False


@pytest.mark.parametrize("n", DIMS[1:])
def test_a_negative_eigenvalue_beyond_the_tolerance_is_worded_by_jacobi(n):
    values = np.full(n, 1.1 / (n - 1))
    values[0] = -0.1
    m = np.diag(values).astype(complex)
    accepted, message = _decide(m)
    assert not accepted
    assert message == "density operator has negative eigenvalue -1.000e-01"
    assert (accepted, message) == density_is_positive(m)


def _valid_64():
    rng = np.random.default_rng(64)
    z = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    w = z @ z.conj().T
    return w / np.trace(w).real


def test_a_valid_64x64_state_makes_no_eigensolve(eigensolves):
    w = _valid_64()
    assert np.array_equal(DensityOperator(w).matrix, w)
    assert eigensolves == []


def test_a_rejected_64x64_state_makes_one_eigensolve(eigensolves):
    w = _hermitian_part(_states(64, -0.1, seed=64)[0])
    with pytest.raises(ValueError, match="negative eigenvalue -1.000e-01"):
        DensityOperator(w)
    assert eigensolves == [64]


def test_the_stored_matrix_is_the_input_when_not_exactly_hermitian():
    m = 0.25 * np.eye(4, dtype=complex)
    m[0, 1] = 1e-10
    assert np.array_equal(DensityOperator(m).matrix, m)



@pytest.mark.parametrize("lowest, accepted", [(-0.8e-9, True), (-2e-9, False)])
def test_a_near_singular_64x64_state_is_decided_by_its_eigensolve(eigensolves, lowest, accepted):
    # Half the spectrum is zero and the minimum sits at least 0.3e-9 below
    # the Cholesky shift of -0.5e-9, so the shifted factor fails on every
    # BLAS kernel set and the eigenvalue rule decides, on one solve at
    # n = 64.  (A minimum of exactly -0.5e-9 sits on the shift, where the
    # factor exists on some kernel sets and not on others.)  The minimum
    # must come out within far less than the 1e-9 margin.
    w = _hermitian_part(_states(64, lowest, seed=0)[0])
    assert _decide(w) == (
        (True, None) if accepted else (False, "density operator has negative eigenvalue -2.000e-09")
    )
    assert eigensolves == [64]
    low = jacobi_eigh(w)[0][0]
    assert abs(low - np.linalg.eigvalsh(w)[0]) < 1e-15
