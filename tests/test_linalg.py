"""Operator core: eigensolver, tensor calculus, spectral utilities.

Up to n = 7 the eigensolver is the library's own QL, checked against
numpy's LAPACK routine as an independent oracle; from n = 8 it is LAPACK,
checked by residual and orthogonality bounds, by the eigenvalue sums that
the trace and the Frobenius norm fix, and by the phase rule.
Everything downstream relies on it, so it gets the densest coverage.
"""

import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qcontext.linalg as la
from qcontext.contexts import context, luders_nonselective, observable
from qcontext.sampling import random_density, random_nondegenerate_observable, random_unitary


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (g + g.conj().T)


# frozen hand values


def test_tensor_sigma_z_pair_is_parity_diagonal():
    zz = la.tensor(la.SIGMA_Z, la.SIGMA_Z)
    assert np.array_equal(zz, np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex))


def test_pauli_commutator_cycle():
    assert np.allclose(la.commutator(la.SIGMA_X, la.SIGMA_Y), 2j * la.SIGMA_Z)
    assert np.allclose(la.commutator(la.SIGMA_Y, la.SIGMA_Z), 2j * la.SIGMA_X)
    assert np.allclose(la.commutator(la.SIGMA_Z, la.SIGMA_X), 2j * la.SIGMA_Y)


def test_sigma_x_projectors_are_half_identity_plus_minus():
    dec = la.spectral_decompose(la.SIGMA_X)
    eye = np.eye(2)
    assert dec.eigenvalues == pytest.approx([-1.0, 1.0])
    assert np.allclose(dec.projectors[0], 0.5 * (eye - la.SIGMA_X), atol=1e-12)
    assert np.allclose(dec.projectors[1], 0.5 * (eye + la.SIGMA_X), atol=1e-12)


def test_commutes_on_known_pairs():
    assert la.commutes(la.SIGMA_Z, np.eye(2))
    assert la.commutes(la.tensor(la.SIGMA_Z, np.eye(2)), la.tensor(np.eye(2), la.SIGMA_X))
    assert not la.commutes(la.SIGMA_Z, la.SIGMA_X)


# eigensolver vs the LAPACK oracle


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 13])
def test_jacobi_matches_lapack_eigenvalues(dim):
    h = random_hermitian(dim, seed=40 + dim)
    values, vectors = la.jacobi_eigh(h)
    if dim <= la._SCALAR_MAX_DIM:
        assert np.max(np.abs(np.array(values) - np.linalg.eigvalsh(h))) < 1e-10
    else:
        _assert_eigenvalue_sums(h, values)
    residual = h @ vectors - vectors @ np.diag(values)
    assert np.max(np.abs(residual)) < 1e-10
    assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(dim))) < 1e-12


def _jordan_wielandt(d1, d2, seed):
    """``[[0, M], [M^dagger, 0]]`` for a unit-norm ``d1 x d2`` M, the matrix
    ``schmidt`` solves: eigenvalues +-(the singular values), and
    ``|d1 - d2|`` zeros."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(d1, d2)) + 1j * rng.normal(size=(d1, d2))
    m /= np.linalg.norm(m)
    b = np.zeros((d1 + d2, d1 + d2), dtype=complex)
    b[:d1, d1:] = m
    b[d1:, :d1] = m.conj().T
    return b


def _repeated_levels(n, seed):
    return _with_repeated_levels(random_hermitian(n, seed), np.random.default_rng(seed))


def _assert_eigenvalue_sums(h, values):
    """``sum(lambda) = Re tr H`` and ``sum(lambda^2) = ||H||_F^2``.

    From n = 8 LAPACK solves, so a second LAPACK call is no oracle; these
    two invariants need no solver.  A backward-stable solve keeps them
    within 2 n eps ||H||_F and 2 n eps ||H||_F^2 (measured: at most 0.61
    and 0.63 times n eps under OpenBLAS's SkylakeX, Haswell, Sandybridge
    and Prescott kernel sets).  Both sides are first scaled, exactly, by
    the power of two next above max |h_ij|, so that no square under- or
    overflows from 1e-300 to 1e150.
    """
    n = len(h)
    scale = 2.0 ** -math.frexp(np.abs(h).max())[1]
    h, values = h * scale, np.asarray(values) * scale
    norm2 = math.fsum((h.real**2 + h.imag**2).ravel())
    bound = 2 * n * np.finfo(float).eps
    assert abs(math.fsum(values) - math.fsum(h.diagonal().real)) <= bound * math.sqrt(norm2)
    assert abs(math.fsum(values**2) - norm2) <= bound * norm2


def _assert_solved(h, values, vectors):
    """Eigenvalues equal to LAPACK's up to n = 7 and keeping the trace and
    norm sums from n = 8; residual and orthogonality at every n."""
    n = len(h)
    scale = max(1.0, np.linalg.norm(h))
    if n <= la._SCALAR_MAX_DIM:
        assert np.abs(values - np.linalg.eigvalsh(h)).max() <= 1e-12 * scale
    else:
        _assert_eigenvalue_sums(h, values)
    assert np.abs(h @ vectors - vectors * values).max() <= 1e-12 * scale
    assert np.abs(vectors.conj().T @ vectors - np.eye(n)).max() <= 1e-12


def _tridiagonal(diagonal, subdiagonal):
    n = len(diagonal)
    t = np.diag(np.asarray(diagonal, dtype=complex))
    t[np.arange(1, n), np.arange(n - 1)] = subdiagonal
    t[np.arange(n - 1), np.arange(1, n)] = np.conj(subdiagonal)
    return t


def _block_diagonal(*blocks):
    n = sum(len(b) for b in blocks)
    out = np.zeros((n, n), dtype=complex)
    start = 0
    for b in blocks:
        out[start : start + len(b), start : start + len(b)] = b
        start += len(b)
    return out


def _with_zero_leading_entry(h):
    # The first Householder column starts with an exact zero, whose phase
    # is taken as 1; the rest of the column is dense.
    h = h.copy()
    h[1, 0] = h[0, 1] = 0.0
    return h


_LARGE_INPUTS = {
    **{f"n{n}": (lambda n=n: random_hermitian(n, seed=600 + n))
       for n in (8, 9, 12, 16, 17, 24, 32, 33, 48, 64)},
    **{f"n{n}_degenerate": (lambda n=n: _repeated_levels(n, seed=700 + n))
       for n in (8, 16, 32, 64)},
    **{f"jordan_wielandt_{d1}x{d2}": (lambda d1=d1, d2=d2: _jordan_wielandt(d1, d2, d1 * d2))
       for d1, d2 in ((2, 6), (4, 4), (8, 8), (4, 16), (2, 32), (32, 32))},
    "n16_scaled_1e6": lambda: 1e6 * random_hermitian(16, seed=616),
    "n16_scaled_1e-6": lambda: 1e-6 * random_hermitian(16, seed=616),
    # Every column below the subdiagonal is zero: no reflection is made.
    "tridiagonal_8": lambda: _tridiagonal(
        np.random.default_rng(8).normal(size=8),
        np.random.default_rng(9).normal(size=7) * np.exp(1j * np.arange(7)),
    ),
    # Column 3 is zero below the diagonal, and so is subdiagonal entry 3.
    "block_diagonal_4_4": lambda: _block_diagonal(
        random_hermitian(4, seed=44), random_hermitian(4, seed=45)
    ),
    "zero_leading_entry_8": lambda: _with_zero_leading_entry(random_hermitian(8, seed=80)),
    # A 1 x 7 Schmidt embedding, and the 1 x 64 one that ``schmidt``
    # solves at MAX_DIM + 1.
    "jordan_wielandt_1x7": lambda: _jordan_wielandt(1, 7, seed=17),
    "jordan_wielandt_1x64": lambda: _jordan_wielandt(1, 64, seed=164),
    # Exact-zero entries throughout, and four doubly degenerate levels.
    "pauli8": lambda: _pauli_sum([(1.0, "xzi"), (0.5, "zzy"), (0.3, "ixx"), (0.2, "yiz")]),
}


@pytest.mark.parametrize("make", _LARGE_INPUTS.values(), ids=_LARGE_INPUTS)
def test_round_robin_agrees_with_lapack(make):
    # From n = 8 LAPACK solves, so it is no oracle here: the eigenpairs
    # are checked by their residual and orthogonality instead, each within
    # a small multiple of n eps (measured: at most 0.55 and 2.3 times n eps
    # under OpenBLAS's SkylakeX, Haswell, Sandybridge and Prescott kernel
    # sets), and by the phase rule.  Every input is exactly Hermitian,
    # so the 65 x 65 embedding, above what jacobi_eigh accepts, goes to
    # the kernel directly, as in schmidt.
    h = make()
    n = len(h)
    values, vectors = (la.jacobi_eigh if n <= la.MAX_DIM else la._eigh)(h)
    eps = np.finfo(float).eps
    assert np.all(np.diff(values) >= 0.0)
    assert np.linalg.norm(h @ vectors - vectors * values) <= 4 * n * eps * np.linalg.norm(h)
    assert np.linalg.norm(vectors.conj().T @ vectors - np.eye(n)) <= 8 * n * eps
    # The lead entry of each column, the first whose magnitude is the
    # largest to rounding (so the lowest index of a tie), is real positive.
    magnitudes = np.abs(vectors)
    lead = (magnitudes >= (1.0 - 4 * eps) * magnitudes.max(axis=0)).argmax(axis=0)
    z = vectors[lead, np.arange(n)]
    assert np.all(z.real > 0.0)
    assert np.all(np.abs(z.imag) <= eps * z.real)


_SMALL_INPUTS = {
    **{f"n{n}": (lambda n=n: random_hermitian(n, seed=600 + n)) for n in range(2, 8)},
    **{f"n{n}_degenerate": (lambda n=n: _repeated_levels(n, seed=700 + n)) for n in range(2, 8)},
    **{f"jordan_wielandt_{d1}x{d2}": (lambda d1=d1, d2=d2: _jordan_wielandt(d1, d2, d1 * d2))
       for d1, d2 in ((1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (1, 6))},
    "n5_scaled_1e6": lambda: 1e6 * random_hermitian(5, seed=605),
    "n5_scaled_1e-6": lambda: 1e-6 * random_hermitian(5, seed=605),
    "tridiagonal_6": lambda: _tridiagonal(
        np.random.default_rng(6).normal(size=6),
        np.random.default_rng(7).normal(size=5) * np.exp(1j * np.arange(5)),
    ),
    "block_diagonal_3_4": lambda: _block_diagonal(
        random_hermitian(3, seed=34), random_hermitian(4, seed=43)
    ),
    "zero_leading_entry_5": lambda: _with_zero_leading_entry(random_hermitian(5, seed=50)),
    "pauli4": lambda: _pauli_sum([(1.0, "xz"), (0.5, "zy"), (0.25, "ix")]),
}


@pytest.mark.parametrize("make", _SMALL_INPUTS.values(), ids=_SMALL_INPUTS)
def test_scalar_path_agrees_with_lapack(make):
    # Up to n = 7: Householder, the QL rotations and the phase rule on
    # Python scalars.
    h = make()
    _assert_solved(h, *la.jacobi_eigh(h))


@pytest.mark.parametrize("n", [*range(2, 8), 8, 16, 64])
def test_a_real_symmetric_input_gives_exactly_real_eigenvectors(n):
    # Every phase, on the scalar path up to n = 7 and after LAPACK from
    # n = 8, is a conjugate over |z|, exactly +-1 for a real z;
    # exp(i arg z) would turn -1 into -1 + 1.2e-16j.
    rng = np.random.default_rng(1100 + n)
    inputs = [(lambda g: g + g.T)(rng.normal(size=(n, n))) for _ in range(20)]
    u, _ = np.linalg.qr(rng.normal(size=(n, n)))
    inputs.append((u * rng.integers(-2, 3, n)) @ u.T)  # repeated levels
    inputs.append(_with_zero_leading_entry(inputs[0]) if n > 2 else np.diag([-0.0, 1.0]))
    inputs.append(_jordan_wielandt(1, n - 1, seed=n).real)
    for h in inputs:
        h = 0.5 * (h + h.T)
        values, vectors = la.jacobi_eigh(h.astype(complex))
        assert np.all(vectors.imag == 0.0)
        _assert_solved(h, values, vectors)


def _iterations(h):
    """QL iterations of one solve, read off the library's sweep counter."""
    before = la.counts()["sweeps"]
    la.jacobi_eigh(h)
    return la.counts()["sweeps"] - before


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 16, 32, 64])
def test_ql_takes_at_most_two_and_a_half_iterations_per_eigenvalue(n):
    # Convergence is cubic; a 2 x (n - 2) Schmidt embedding has at most
    # four non-zero eigenvalues and the floor deflates its zero block.
    # From n = 8 LAPACK solves and no iteration is counted.
    scalar = n <= la._SCALAR_MAX_DIM
    for h in (
        random_hermitian(n, seed=800 + n),
        random_hermitian(n, seed=900 + n),
        _jordan_wielandt(n // 2, n // 2, seed=n),
    ):
        assert _iterations(h) <= (2.5 * n if scalar else 0)
    if n > 2:
        assert _iterations(_jordan_wielandt(2, n - 2, seed=n)) <= (8 if scalar else 0)


def test_ql_iterations_on_repeated_levels():
    # Levels in -2..2, each about n/5 times: a repeated level deflates as a
    # block, so these take 0.25-1.75 iterations an eigenvalue.
    counts = []
    sizes = []
    for n in (4, 5, 6, 7):
        for seed in range(3):
            counts.append(_iterations(_repeated_levels(n, seed=1000 * n + seed)))
            sizes.append(n)
    assert all(c <= 2 * size for c, size in zip(counts, sizes))
    assert sum(counts) <= 1.5 * sum(sizes)


def test_jacobi_eigenvalues_ascending():
    h = random_hermitian(7, seed=3)
    values, _ = la.jacobi_eigh(h)
    assert list(values) == sorted(values)


def test_jacobi_deterministic_rerun():
    h = random_hermitian(6, seed=11)
    v1, u1 = la.jacobi_eigh(h)
    v2, u2 = la.jacobi_eigh(h.copy())
    assert np.array_equal(np.asarray(v1), np.asarray(v2))
    assert np.array_equal(u1, u2)


def test_jacobi_phase_convention_largest_component_real_positive():
    h = random_hermitian(5, seed=21)
    _, vectors = la.jacobi_eigh(h)
    for k in range(5):
        column = vectors[:, k]
        lead = column[int(np.argmax(np.abs(column)))]
        assert abs(lead.imag) < 1e-12
        assert lead.real > 0


def test_jacobi_diagonal_input_short_circuits():
    d = np.diag([3.0, -1.0, 2.0]).astype(complex)
    values, vectors = la.jacobi_eigh(d)
    assert list(values) == [-1.0, 2.0, 3.0]
    assert np.allclose(np.abs(vectors), np.eye(3)[:, [1, 2, 0]])


def _with_repeated_levels(h, rng):
    n = h.shape[0]
    u, _ = np.linalg.qr(h + 1j * np.eye(n))
    levels = rng.integers(-2, 3, n).astype(float)
    h = (u * levels) @ u.conj().T
    return 0.5 * (h + h.conj().T)


def _pauli_sum(terms):
    factors = {"i": np.eye(2), "x": la.SIGMA_X, "y": la.SIGMA_Y, "z": la.SIGMA_Z}
    out = 0
    for weight, word in terms:
        op = np.eye(1, dtype=complex)
        for letter in word:
            op = np.kron(op, factors[letter])
        out = out + weight * op
    return out


# paths of the QL kernel on Python scalars up to n = 7, and LAPACK from n = 8


def test_ql_makes_no_iteration_on_a_diagonal_input():
    diagonal = [3.0, -1.0, 2.0, 0.5, 7.0, -4.0, 0.0, 1.0]
    for n in (8, 2, 3, 4, 5, 6, 7):
        before = la.counts()["sweeps"]
        values, vectors = la.jacobi_eigh(np.diag(diagonal[:n]))
        assert la.counts()["sweeps"] == before
        order = np.argsort(diagonal[:n], kind="stable")
        assert values.tolist() == sorted(diagonal[:n])
        assert np.array_equal(vectors, np.eye(n)[:, order])


def test_spectral_resolves_four_degenerate_levels_at_64():
    rng = np.random.default_rng(464)
    u, _ = np.linalg.qr(rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64)))
    levels = np.repeat([-1.0, 0.0, 1.0, 2.0], 16)
    h = (u * levels) @ u.conj().T
    h = 0.5 * (h + h.conj().T)
    dec = la.spectral_decompose(h)
    assert dec.multiplicities == (16, 16, 16, 16)
    assert np.abs(np.array(dec.eigenvalues) - [-1.0, 0.0, 1.0, 2.0]).max() <= 1e-12
    for k, p in enumerate(dec.projectors):
        block = u[:, 16 * k : 16 * (k + 1)]
        assert np.abs(p - block @ block.conj().T).max() <= 1e-12
    _assert_solved(h, *la.jacobi_eigh(h))


def test_ql_deflates_subdiagonal_entries_near_1e300_without_warning():
    for n in (8, 2, 3, 4, 5, 6, 7):
        diagonal = [0.5, -1.0, 2.0, 0.0, 3.0, -2.5, 1.0, 1.5][:n]
        subdiagonal = 1e-300 * np.exp(1j * np.arange(1, n))
        dense_tiny = 1e-300 * random_hermitian(n, seed=300 + n % 8)
        order = np.argsort(diagonal)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            before = la.counts()["sweeps"]
            values, vectors = la.jacobi_eigh(_tridiagonal(diagonal, subdiagonal))
            assert la.counts()["sweeps"] == before
            if n <= la._SCALAR_MAX_DIM:
                # The absolute floor deflates every entry: the exact diagonal.
                assert values.tolist() == sorted(diagonal)
                assert np.abs(np.abs(vectors) - np.eye(n)[:, order]).max() <= 1e-15
            else:
                # LAPACK's relative tests return 0.9999999999999996 and the
                # like: within n eps |T| of the diagonal (backward error),
                # and the vectors within that over the least gap, 0.5.
                bound = n * np.finfo(float).eps * max(map(abs, diagonal))
                assert np.abs(values - np.sort(diagonal)).max() <= bound
                assert np.abs(np.abs(vectors) - np.eye(n)[:, order]).max() <= bound / 0.5
            # Squares of these entries underflow, so every column norm is 0.
            tiny_values, _ = la.jacobi_eigh(dense_tiny)
        assert np.abs(tiny_values).max() <= 1e-12


def test_subnormal_entries_get_phases_of_modulus_one():
    # |z| below the smallest normal float: _unit scales z by 2^600 before
    # it divides, where z / |z| would keep only the subnormal's few digits.
    tiny = 1e-310
    z = tiny * cmath.exp(0.3j)  # its parts keep about 13 digits
    unit = la._unit(z)
    assert abs(abs(unit) - 1.0) <= 2.3e-16 and abs(cmath.phase(unit) - cmath.phase(z)) <= 1e-15
    assert la._unit(complex(-tiny, 0.0)) == -1.0 and la._unit(-0.0j) == 1.0
    complex_input = _tridiagonal([1.0, 2.0, 3.0], [tiny * np.exp(0.3j), 1.0])
    real_input = _tridiagonal([1.0, 2.0, 3.0], [1.0, -tiny]).real
    for h in (complex_input, real_input, real_input[::-1, ::-1]):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            values, vectors = la.jacobi_eigh(h)
        _assert_solved(h, values, vectors)
    assert np.all(vectors.imag == 0.0)


def _hard_tridiagonals(rng, sizes):
    """Graded, near-floor, zero-diagonal and Wilkinson tridiagonals at each of
    ``sizes``, each at a random scale from 1e-300 to 1e150, with complex
    subdiagonals."""
    out = []
    for n in sizes:
        scale = 10.0 ** rng.uniform(-300, 150)
        floor = 1e-12 / (2 * n)
        kinds = (
            (scale * 10.0 ** (-5.0 * np.arange(n)), scale * 10.0 ** (-5.0 * np.arange(n - 1) - 2)),
            ((-1.0) ** np.arange(n) * scale, np.full(n - 1, 1.01 * floor * scale)),
            (np.zeros(n), scale * 10.0 ** rng.uniform(-20, 0, n - 1)),
            (np.abs(np.arange(n) - n // 2) * scale, np.full(n - 1, scale)),
            (scale * rng.integers(-2, 3, n), scale * rng.choice([0.0, 1e-300, 1e-16, 1.0], n - 1)),
        )
        for diagonal, subdiagonal in kinds:
            out.append(_tridiagonal(diagonal, subdiagonal * np.exp(1j * rng.uniform(0, 6.3, n - 1))))
    return out


def test_ql_solves_hard_tridiagonals_without_warning():
    for seed, sizes in ((2300, (8, 13, 33)), (2307, (2, 3, 4, 5, 6, 7))):
        rng = np.random.default_rng(seed)
        for t in _hard_tridiagonals(rng, sizes):
            p = rng.permutation(len(t))
            for h in (t, t[np.ix_(p, p)]):
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    values, vectors = la.jacobi_eigh(h)
                _assert_solved(h, values, vectors)


@pytest.mark.parametrize("n", [1, 2, 6, 8, 64])
def test_jacobi_leaves_the_input_unchanged(n):
    h = random_hermitian(n, seed=70 + n)
    before = h.copy()
    la.jacobi_eigh(h)
    assert h.tobytes() == before.tobytes()


def test_jacobi_convergence_error_names_dimension_sweeps_and_norm(monkeypatch):
    # One QL iteration leaves this dense 3x3's first subdiagonal entry far
    # above the floor, 1e-12 |h|_F / 6.
    monkeypatch.setattr(la, "_QL_MAX_ITERATIONS", 1)
    h = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]], dtype=complex)
    with pytest.raises(
        la.ConvergenceError,
        match=r"QL diagonalisation of a dimension-3 matrix stopped after 1 iterations on "
        r"eigenvalue 0 with subdiagonal entry \S+e-01, above the threshold 1\.893e-12",
    ):
        la.jacobi_eigh(h)


def test_sweep_count_follows_the_ql_iterations(monkeypatch):
    def swept(h):
        before = la.counts()["sweeps"]
        la.jacobi_eigh(h)
        return la.counts()["sweeps"] - before

    assert swept(np.eye(1)) == 0
    assert swept(np.diag([3.0, -1.0, 2.0])) == 0  # every entry deflated at once
    assert swept(np.array([[1.0, 2.0], [2.0, 3.0]])) == 1
    # About two an eigenvalue up to n = 7, against a limit of
    # _QL_MAX_ITERATIONS (30) on each: 7 at n = 4 here.  From n = 8
    # LAPACK solves, and no iteration is counted.
    assert 4 <= swept(random_hermitian(4, seed=7)) <= 2.5 * 4
    assert swept(random_hermitian(16, seed=7)) == 0
    # A solve that gives up has made every iteration it was allowed.
    monkeypatch.setattr(la, "_QL_MAX_ITERATIONS", 2)
    before = la.counts()["sweeps"]
    with pytest.raises(la.ConvergenceError, match="dimension-6 .* after 2 iterations"):
        la.jacobi_eigh(random_hermitian(6, seed=7))
    assert la.counts()["sweeps"] - before == 2


_PUBLIC_CHECKS = {
    "trace_distance": lambda m: la.trace_distance(m, m),
    "tensor": lambda m: la.tensor(m, la.SIGMA_Z),
    "partial_trace": lambda m: la.partial_trace(m, (1, len(m)), keep=2),
    "jacobi_eigh": la.jacobi_eigh,
    "spectral_decompose": la.spectral_decompose,
}
_HERMITIAN_ONLY = ("trace_distance", "jacobi_eigh", "spectral_decompose")


@pytest.mark.parametrize("name", sorted(_PUBLIC_CHECKS))
def test_public_entry_points_still_validate(name):
    # Library code skips these checks on arrays it built; a caller's
    # array is still checked at every public entry point.
    call = _PUBLIC_CHECKS[name]
    with pytest.raises(ValueError, match="finite"):
        call(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(la.DimensionError, match="square"):
        call(np.ones((2, 3)))
    if name in _HERMITIAN_ONLY:
        with pytest.raises(ValueError, match="not Hermitian"):
            call(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_jacobi_solves_the_hermitian_part_of_a_nearly_hermitian_input():
    # The anti-Hermitian part (5e-11 per entry) passes the 1e-9 Hermiticity
    # check but is far above the 1e-12 threshold, and no rotation removes
    # it: the solver works on (H + H^dagger)/2 instead.
    h = np.array([[1.0, 1e-10], [0.0, 2.0]], dtype=complex)
    values, vectors = la.jacobi_eigh(h)
    want_values, want_vectors = la.jacobi_eigh(0.5 * (h + h.conj().T))
    assert values.tobytes() == want_values.tobytes()
    assert vectors.tobytes() == want_vectors.tobytes()
    assert h[0, 1] == 1e-10 and h[1, 0] == 0.0  # the input is not written


# Hermitian within the check, with a diagonal whose sum A + A^dagger overflows.
_NEAR_FLOAT_MAX = [[1e308, 1e-10], [0.0, 1e308]]


def test_the_hermitian_part_of_an_input_near_the_float_limit_does_not_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, vectors = la.jacobi_eigh(_NEAR_FLOAT_MAX)
        assert values.tolist() == [1e308, 1e308]
        assert vectors.tolist() == [[1, 0], [0, 1]]
        assert la.spectral_decompose(_NEAR_FLOAT_MAX).eigenvalues == (1e308,)
        assert observable(_NEAR_FLOAT_MAX).spectrum.eigenvalues == (1e308,)


@pytest.mark.parametrize("x", [3.0, 2.0**600])
def test_a_one_by_one_input_is_its_own_eigenvalue(x):
    # 2^600 is above 2^500, so it is solved on the rescaled path.
    before = la.counts()
    values, vectors = la.jacobi_eigh([[x]])
    after = la.counts()
    assert values.tolist() == [x]
    assert vectors.tolist() == [[1]]
    assert after["eigensolves"] - before["eigensolves"] == 1
    assert after["sweeps"] == before["sweeps"]


@pytest.mark.parametrize("n", [2, 8])
def test_jacobi_solves_entries_whose_squares_overflow(n):
    # Squares of 1e160 overflow, so the Frobenius scale would be inf and no
    # rotation would run: the kernel solves the matrix divided by a power
    # of two and multiplies the eigenvalues back.
    base = np.array([[1.0, 1.0], [1.0, -1.0]]) if n == 2 else random_hermitian(8, seed=52)
    h = 1e160 * base
    count = la.counts()["eigensolves"]
    values, vectors = la.jacobi_eigh(h)
    assert la.counts()["eigensolves"] == count + 1
    assert np.all(np.isfinite(values))
    top = float(np.abs(values).max())
    assert np.allclose(values, np.linalg.eigvalsh(h), rtol=0.0, atol=1e-12 * top)
    assert np.max(np.abs(h @ vectors - vectors * values)) < 1e-12 * top
    assert np.allclose(vectors.conj().T @ vectors, np.eye(n), atol=1e-12)
    if n == 2:
        assert values == pytest.approx([-math.sqrt(2.0) * 1e160, math.sqrt(2.0) * 1e160])


@pytest.mark.parametrize("n", [2, 8])
def test_jacobi_rejects_eigenvalues_beyond_the_float_range(n):
    # Finite entries whose eigenvalues are not: sqrt(2) * 1.5e308 at n = 2
    # and 8 * 1e308 for the all-ones matrix at n = 8.
    h = 1.5e308 * np.array([[1.0, 1.0], [1.0, -1.0]]) if n == 2 else np.full((8, 8), 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="float range"):
            la.jacobi_eigh(h)


def test_jacobi_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        la.jacobi_eigh(m)


def test_dimension_cap_enforced():
    big = np.eye(la.MAX_DIM + 1, dtype=complex)
    with pytest.raises(la.DimensionError):
        la.jacobi_eigh(big)


@pytest.mark.parametrize("dim", [0, 65])
def test_random_unitary_rejects_unsupported_dimension(dim):
    # its generator goes to the kernel unchecked, so the dimension is
    # checked first
    with pytest.raises(la.DimensionError, match="outside supported range"):
        random_unitary(dim, np.random.default_rng(0))


# spectral decomposition contracts


def test_spectral_reconstruct_round_trip():
    h = random_hermitian(6, seed=5)
    dec = la.spectral_decompose(h)
    assert np.max(np.abs(dec.apply_function(lambda a: a) - h)) < 1e-10


def test_spectral_merges_degenerate_levels():
    h = la.tensor(la.SIGMA_Z, np.eye(2))
    dec = la.spectral_decompose(h)
    assert dec.eigenvalues == pytest.approx([-1.0, 1.0])
    assert dec.multiplicities == (2, 2)
    for p in dec.projectors:
        assert np.max(np.abs(p @ p - p)) < 1e-12


def test_projectors_resolve_identity_and_are_orthogonal():
    h = random_hermitian(5, seed=8)
    dec = la.spectral_decompose(h)
    total = sum(dec.projectors)
    assert np.max(np.abs(total - np.eye(5))) < 1e-10
    for i, p in enumerate(dec.projectors):
        for j, q in enumerate(dec.projectors):
            expected = p if i == j else np.zeros_like(p)
            assert np.max(np.abs(p @ q - expected)) < 1e-10


@pytest.mark.parametrize("n", [*range(2, 8), 8, 16, 64])
def test_projectors_are_exactly_hermitian(n):
    # boolean_lattice_check scans each unordered pair of events once: the
    # meet and join of (t, s) are the conjugate transposes of those of
    # (s, t) only because every projector, and so every sum of them, is
    # Hermitian bit for bit.  This covers the scalar path (n <= 7), the
    # LAPACK path, and degenerate levels on both.
    for h in (random_hermitian(n, seed=1200 + n), _repeated_levels(n, seed=1300 + n)):
        for _, p in la.spectral_decompose(h).levels():
            assert np.array_equal(p, p.conj().T)


def test_lattice_elements_are_exactly_hermitian():
    # The scale workload's lattice shape, k = 8 levels at d = 8: each of
    # the 256 elements is a sum of projectors, built as the lattice check
    # builds it (the element without its last projector, plus that one).
    obs = observable(random_hermitian(8, seed=1408))
    projectors = obs.spectrum.projectors
    k = len(projectors)
    assert k == 8
    elements = [np.zeros((8, 8), dtype=complex)]
    for s in range(1, 1 << k):
        elements.append(elements[s & (s - 1)] + projectors[k - (s & -s).bit_length()])
    for e in elements:
        assert np.array_equal(e, e.conj().T)


def test_projectors_are_formed_alike_on_every_read():
    dec = la.spectral_decompose(la.tensor(random_hermitian(3, seed=10), np.eye(2)))
    assert dec.multiplicities == (2, 2, 2)
    first = [p.tobytes() for p in dec.projectors]
    assert [p.tobytes() for p in dec.projectors] == first
    assert [p.tobytes() for _, p in dec.levels()] == first
    assert [a for a, _ in dec.levels()] == list(dec.eigenvalues)


def test_from_eigenpairs_keeps_a_snapshot_of_the_vectors():
    values, vectors = la.jacobi_eigh(random_hermitian(4, seed=11))
    dec = la.SpectralDecomposition.from_eigenpairs(values, vectors)
    before = [p.tobytes() for p in dec.projectors]
    values[:] = 0.0
    vectors[:] = 0.0
    assert [p.tobytes() for p in dec.projectors] == before
    assert not dec.vectors.flags.writeable
    # The sampled observable hands its eigenvector matrix to the caller.
    obs, _, u = random_nondegenerate_observable(3, np.random.default_rng(12))
    before = [p.tobytes() for p in obs.spectrum.projectors]
    u[:] = 0.0
    assert [p.tobytes() for p in obs.spectrum.projectors] == before


def _traced(call):
    """``call()``, with the bytes tracemalloc saw kept after it and at peak."""
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing this process")
    tracemalloc.start()
    try:
        out = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, kept, peak


def test_d64_decomposition_keeps_eigenvectors_not_projectors():
    # 64 dense projectors would keep 4 MB; the eigenvector matrix is 64 KB.
    h = random_hermitian(64, seed=64)
    dec, kept, _ = _traced(lambda: la.spectral_decompose(h))
    assert dec.multiplicities == (1,) * 64
    assert kept <= 0.25 * 2**20


def test_d64_luders_sum_holds_one_projector_at_a_time():
    # Solve, condition and check, as one d = 64 Luders call from a matrix.
    rho = random_density(64, np.random.default_rng(65))
    h = random_hermitian(64, seed=66)
    conditioned, _, peak = _traced(lambda: luders_nonselective(context(rho, observable(h))))
    assert conditioned.context.observable.non_degenerate
    assert peak <= 2**20


def test_apply_function_exponential_matches_series():
    h = random_hermitian(4, seed=9)
    dec = la.spectral_decompose(h)
    built = dec.apply_function(np.exp)
    series = np.eye(4, dtype=complex)
    term = np.eye(4, dtype=complex)
    for k in range(1, 40):
        term = term @ h / k
        series = series + term
    assert np.max(np.abs(built - series)) < 1e-9


# partial trace and tensor


def test_partial_trace_of_kron_factorises():
    rng = np.random.default_rng(14)
    a = random_hermitian(2, seed=1)
    b = random_hermitian(3, seed=2)
    a = a / np.trace(a).real
    b = b / np.trace(b).real
    joint = la.tensor(a, b)
    assert np.max(np.abs(la.partial_trace(joint, (2, 3), keep=1) - a)) < 1e-12
    assert np.max(np.abs(la.partial_trace(joint, (2, 3), keep=2) - b)) < 1e-12
    del rng


def test_partial_trace_preserves_trace():
    m = random_hermitian(6, seed=17)
    t = np.trace(m)
    for keep in (1, 2):
        part = la.partial_trace(m, (2, 3), keep=keep)
        assert abs(np.trace(part) - t) < 1e-12


def test_partial_trace_dimension_mismatch():
    with pytest.raises(la.DimensionError):
        la.partial_trace(np.eye(5, dtype=complex), (2, 3), keep=1)


@pytest.mark.parametrize("dims", [(4,), (2, 2, 1), ()])
def test_partial_trace_rejects_dims_that_are_not_a_pair(dims):
    with pytest.raises(la.DimensionError, match="pair"):
        la.partial_trace(np.eye(4, dtype=complex), dims, 1)


def test_tensor_associativity_with_three_factors():
    x, y, z = la.SIGMA_X, la.SIGMA_Y, la.SIGMA_Z
    left = la.tensor(la.tensor(x, y), z)
    right = la.tensor(x, la.tensor(y, z))
    assert np.array_equal(left, right)


# trace distance and evolution


def test_trace_distance_known_qubit_pair():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    assert la.trace_distance(p0, p1) == pytest.approx(1.0, abs=1e-12)
    plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    assert la.trace_distance(p0, plus) == pytest.approx(np.sqrt(0.5), abs=1e-12)


def test_trace_distance_metric_properties():
    a = random_hermitian(3, seed=31)
    b = random_hermitian(3, seed=32)
    c = random_hermitian(3, seed=33)
    dab = la.trace_distance(a, b)
    assert la.trace_distance(a, a) < 1e-12
    assert abs(dab - la.trace_distance(b, a)) < 1e-12
    assert dab <= la.trace_distance(a, c) + la.trace_distance(c, b) + 1e-12


def test_evolution_operator_is_unitary():
    h = random_hermitian(4, seed=41)
    u = la.evolution_operator(h, 0.7)
    assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-10


def test_evolution_operator_zero_time_is_identity():
    h = random_hermitian(3, seed=42)
    assert np.max(np.abs(la.evolution_operator(h, 0.0) - np.eye(3))) < 1e-12


@pytest.mark.parametrize("t", [True, False, "1", None, 1j])
def test_evolution_time_must_be_a_real_number(t):
    # A bool is not read as time 1 or 0, nor a string as the number it spells.
    with pytest.raises(ValueError, match="evolution time must be a real number, got "):
        la.evolution_operator(la.SIGMA_Z, t)


@pytest.mark.parametrize("t", [0, 2, 0.25, np.float64(0.5), np.int64(3)])
def test_evolution_time_accepts_ints_floats_and_numpy_scalars(t):
    u = la.evolution_operator(la.SIGMA_Z, t)
    assert np.abs(u - np.diag([np.exp(-1j * t), np.exp(1j * t)])).max() <= 1e-15


def test_spectral_decompose_rejects_non_hermitian_input():
    m = np.array([[1.0, 1e-7], [0.0, 2.0]], dtype=complex)
    with pytest.raises(ValueError, match="not Hermitian"):
        la.spectral_decompose(m)
    with pytest.raises(TypeError):
        la.spectral_decompose(m, hermiticity_tol=1e-6)


def test_hermiticity_guard_message_names_defect():
    m = np.array([[0.0, 1.0], [0.5, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        la.require_hermitian(m)


# property tests


@st.composite
def hermitian_matrices(draw, max_dim=6):
    dim = draw(st.integers(min_value=2, max_value=max_dim))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return random_hermitian(dim, seed)


@given(hermitian_matrices())
@settings(max_examples=40, deadline=None)
def test_property_jacobi_trace_and_norm_preserved(h):
    values, _ = la.jacobi_eigh(h)
    assert abs(sum(values) - np.trace(h).real) < 1e-9 * max(1.0, abs(np.trace(h)))
    frob = np.linalg.norm(h)
    assert abs(np.linalg.norm(values) - frob) < 1e-9 * max(1.0, frob)


@given(hermitian_matrices(max_dim=5))
@settings(max_examples=30, deadline=None)
def test_property_spectral_idempotent_projectors(h):
    dec = la.spectral_decompose(h)
    for p in dec.projectors:
        assert np.max(np.abs(p @ p - p)) < 1e-9


@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)
@settings(max_examples=30, deadline=None)
def test_property_evolution_composes(seed, t):
    h = random_hermitian(3, seed)
    u1 = la.evolution_operator(h, t)
    u2 = la.evolution_operator(h, 2.0 * t)
    assert np.max(np.abs(u1 @ u1 - u2)) < 1e-8
