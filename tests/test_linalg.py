"""Operator core: eigensolver, tensor calculus, spectral utilities.

The eigensolver is checked against numpy's LAPACK routine as an
independent oracle; everything downstream relies on it, so it gets the
densest coverage.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
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
    reference = np.linalg.eigvalsh(h)
    assert np.max(np.abs(np.array(values) - reference)) < 1e-10
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


_ROUND_ROBIN_INPUTS = {
    **{f"n{n}": (lambda n=n: random_hermitian(n, seed=600 + n))
       for n in (8, 9, 12, 16, 17, 24, 32, 33, 48, 64)},
    **{f"n{n}_degenerate": (lambda n=n: _repeated_levels(n, seed=700 + n))
       for n in (8, 16, 32, 64)},
    **{f"jordan_wielandt_{d1}x{d2}": (lambda d1=d1, d2=d2: _jordan_wielandt(d1, d2, d1 * d2))
       for d1, d2 in ((2, 6), (4, 4), (8, 8), (4, 16), (2, 32), (32, 32))},
    "n16_scaled_1e6": lambda: 1e6 * random_hermitian(16, seed=616),
    "n16_scaled_1e-6": lambda: 1e-6 * random_hermitian(16, seed=616),
}


@pytest.mark.parametrize("make", _ROUND_ROBIN_INPUTS.values(), ids=_ROUND_ROBIN_INPUTS)
def test_round_robin_agrees_with_lapack(make):
    h = make()
    n = len(h)
    values, vectors = la.jacobi_eigh(h)
    scale = max(1.0, np.linalg.norm(h))
    assert np.abs(values - np.linalg.eigvalsh(h)).max() <= 1e-12 * scale
    assert np.abs(h @ vectors - vectors * values).max() <= 1e-12 * scale
    assert np.abs(vectors.conj().T @ vectors - np.eye(n)).max() <= 1e-12


def _sweeps(monkeypatch, h, cyclic_max_dim):
    """Sweeps of one solve, with the cyclic kernel up to ``cyclic_max_dim``,
    read off the library's sweep counter."""
    monkeypatch.setattr(la, "_JACOBI_CYCLIC_MAX_DIM", cyclic_max_dim)
    before = la.sweep_count()
    la.jacobi_eigh(h, vectors=False)
    return la.sweep_count() - before


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_round_robin_takes_at_most_one_sweep_more_than_cyclic(monkeypatch, n):
    for h in (
        random_hermitian(n, seed=800 + n),
        random_hermitian(n, seed=900 + n),
        _jordan_wielandt(2, n - 2, seed=n),
        _jordan_wielandt(n // 2, n // 2, seed=n),
    ):
        cyclic = _sweeps(monkeypatch, h, la.MAX_DIM)
        assert _sweeps(monkeypatch, h, 1) <= cyclic + 1


def test_round_robin_sweeps_on_repeated_levels(monkeypatch):
    # Levels in -2..2, each about n/5 times.  Here both orderings pass
    # through a linear phase of varying length; over 30 such matrices at
    # each of n = 16, 24 and 32 the round robin took -0.07, 0.77 and 0.60
    # sweeps more on average, at most 3 more, and more than 1 more on 15
    # of the 90.
    more = []
    for n in (8, 16, 32, 64):
        for seed in range(3):
            h = _repeated_levels(n, seed=1000 * n + seed)
            more.append(_sweeps(monkeypatch, h, 1) - _sweeps(monkeypatch, h, la.MAX_DIM))
    assert max(more) <= 3
    assert sum(more) <= len(more)


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


def _loop_oracle(n):
    """The loop oracle of the ordering ``jacobi_eigh`` runs at dimension n."""
    if n <= la._JACOBI_CYCLIC_MAX_DIM:
        return oracles.jacobi_eigh
    return oracles.jacobi_eigh_round_robin


def _assert_matches_loop_oracle(h):
    values, vectors = la.jacobi_eigh(h)
    ref_values, ref_vectors = _loop_oracle(len(h))(h)
    assert np.array_equal(values, ref_values)
    assert np.array_equal(vectors, ref_vectors)
    # Byte equality also pins the sign of every zero.
    assert values.tobytes() == ref_values.tobytes()
    assert vectors.tobytes() == ref_vectors.tobytes()


def _with_repeated_levels(h, rng):
    n = h.shape[0]
    u, _ = np.linalg.qr(h + 1j * np.eye(n))
    levels = rng.integers(-2, 3, n).astype(float)
    h = (u * levels) @ u.conj().T
    return 0.5 * (h + h.conj().T)


def _assert_sizes_match_loop_oracle(sizes, seed):
    # Every third matrix has a spectrum with repeated levels, built from a
    # random unitary, so the degenerate paths run too.
    rng = np.random.default_rng(seed)
    for i, n in enumerate(sizes):
        h = random_hermitian(n, seed=int(rng.integers(2**31)))
        if i % 3 == 0:
            h = _with_repeated_levels(h, rng)
        _assert_matches_loop_oracle(h)


def test_jacobi_matches_loop_oracle_bit_for_bit():
    # The cyclic kernel: 72 matrices at each n = 1..6 and 8 at each n from
    # 7 to its largest dimension.
    sizes = [n for n in range(1, 7) for _ in range(72)]
    sizes += [n for n in range(7, la._JACOBI_CYCLIC_MAX_DIM + 1) for _ in range(8)]
    _assert_sizes_match_loop_oracle(sizes, seed=2024)


def test_round_robin_matches_loop_oracle_bit_for_bit():
    # 8 matrices at each n from the kernel's smallest dimension to 16 (a
    # solve at n = 16 costs ~150 at n = 2).
    sizes = [n for n in range(la._JACOBI_CYCLIC_MAX_DIM + 1, 17) for _ in range(8)]
    _assert_sizes_match_loop_oracle(sizes, seed=2025)


def _pauli_sum(terms):
    factors = {"i": np.eye(2), **la.PAULIS}
    out = 0
    for weight, word in terms:
        op = np.eye(1, dtype=complex)
        for letter in word:
            op = np.kron(op, factors[letter])
        out = out + weight * op
    return out


@pytest.mark.parametrize(
    "make",
    [
        lambda: random_hermitian(24, seed=524),
        lambda: random_hermitian(32, seed=532),
        lambda: random_hermitian(48, seed=548),
        lambda: random_hermitian(64, seed=564),
        lambda: _with_repeated_levels(
            random_hermitian(64, seed=664), np.random.default_rng(664)
        ),
        # Pauli sums have exact-zero off-diagonal entries, so rotations
        # are skipped by the cutoff test.
        lambda: _pauli_sum([(1.0, "xz"), (0.5, "zy"), (0.25, "ix")]),
        lambda: _pauli_sum([(1.0, "xzi"), (0.5, "zzy"), (0.3, "ixx"), (0.2, "yiz")]),
        # Already diagonal: the first convergence test stops before any sweep.
        lambda: np.diag([3.0, -1.0, 2.0, 0.5, -1.0]).astype(complex),
    ],
    ids=["n24", "n32", "n48", "n64", "n64_degenerate", "pauli4", "pauli8", "diagonal"],
)
def test_jacobi_matches_loop_oracle_bytes_at_large_and_sparse_inputs(make):
    _assert_matches_loop_oracle(make())


@pytest.mark.parametrize("n", [1, 2, 6, 8, 64])
def test_jacobi_leaves_the_input_unchanged(n):
    h = random_hermitian(n, seed=70 + n)
    before = h.copy()
    la.jacobi_eigh(h)
    assert h.tobytes() == before.tobytes()


def test_jacobi_convergence_error_names_dimension_sweeps_and_norm(monkeypatch):
    # One cyclic sweep leaves this dense 3x3 far from diagonal.
    monkeypatch.setattr(la, "_JACOBI_MAX_SWEEPS", 1)
    h = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]], dtype=complex)
    with pytest.raises(
        la.ConvergenceError,
        match=r"dimension-3 .* after 1 sweeps .* norm \S+e-01, above the threshold 1\.136e-11",
    ):
        la.jacobi_eigh(h)


def test_jacobi_tests_the_norm_after_its_last_allowed_sweep(monkeypatch):
    # One sweep diagonalises a 2x2; the norm after it is tested before the
    # solver gives up, so a limit of one sweep is enough.
    monkeypatch.setattr(la, "_JACOBI_MAX_SWEEPS", 1)
    h = np.array([[1.0, 2.0], [2.0, 3.0]], dtype=complex)
    values, _ = la.jacobi_eigh(h)
    assert np.abs(values - np.linalg.eigvalsh(h)).max() <= 1e-12 * np.linalg.norm(h)


def test_sweep_count_follows_both_kernels(monkeypatch):
    def swept(h):
        before = la.sweep_count()
        la.jacobi_eigh(h)
        return la.sweep_count() - before

    assert swept(np.eye(1)) == 0
    assert swept(np.diag([3.0, -1.0, 2.0])) == 0  # converged before any sweep
    assert swept(np.array([[1.0, 2.0], [2.0, 3.0]])) == 1
    assert 3 <= swept(random_hermitian(4, seed=7)) <= 6
    assert 3 <= swept(random_hermitian(16, seed=7)) <= 12  # round robin
    # A solve that gives up has made every sweep it was allowed.
    monkeypatch.setattr(la, "_JACOBI_MAX_SWEEPS", 2)
    before = la.sweep_count()
    with pytest.raises(la.ConvergenceError, match="after 2 sweeps"):
        la.jacobi_eigh(random_hermitian(6, seed=7))
    assert la.sweep_count() - before == 2


_PUBLIC_CHECKS = {
    "trace_distance": lambda m: la.trace_distance(m, m),
    "tensor": lambda m: la.tensor(m, la.SIGMA_Z),
    "partial_trace": lambda m: la.partial_trace(m, (1, len(m)), keep=2),
    "rank_one_vector": la.rank_one_vector,
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


@pytest.mark.parametrize("n", [2, 8])
def test_jacobi_solves_entries_whose_squares_overflow(n):
    # Squares of 1e160 overflow, so the Frobenius scale would be inf and no
    # rotation would run: the kernel solves the matrix divided by a power
    # of two and multiplies the eigenvalues back.
    base = np.array([[1.0, 1.0], [1.0, -1.0]]) if n == 2 else random_hermitian(8, seed=52)
    h = 1e160 * base
    count = la.eigensolve_count()
    values, vectors = la.jacobi_eigh(h)
    assert la.eigensolve_count() == count + 1
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
    assert np.max(np.abs(dec.reconstruct() - h)) < 1e-10


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
    la.spectral_decompose(h)  # the round-robin schedule is cached on first use
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
