"""Kernel helpers against their numpy-function oracles, byte for byte.

``linalg`` forms the Kronecker product by broadcasting, the Frobenius
norm from numpy's own dot-product branch, the eigenvector phases from one
``argmax`` over all columns and a singleton level without ``np.mean``.
``oracles.py`` keeps the versions written with ``np.kron``, ``np.diag``
and ``np.mean``; the Frobenius norm is held to ``np.linalg.norm``.
Every result here must match its oracle in ``tobytes()`` (or
``float.hex()``), so signed zeros count too.  The inputs cover n = 1-8, degenerate spectra, magnitude ties,
transposed and strided views and entries of ``-0.0``.  The Jacobi kernel
(n <= 7) is held to the scalar cyclic loop, and the cyclic numpy loop it
replaced to 1e-12 x scale.  The eigenvalues-only mode of ``jacobi_eigh``
is held to its full path the same way, up to n = 64, where the QL kernel
runs.
"""

import numpy as np
import pytest

import oracles
import qcontext.linalg as la
from qcontext.states import PureState


def _complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _variants(m):
    """The same values in C order, in F order and as a strided view."""
    wide = np.zeros((m.shape[0], 2 * m.shape[1]), dtype=complex)
    wide[:, ::2] = m
    return [m, np.asfortranarray(m), wide[:, ::2]]


def _with_signed_zeros(m, rng):
    """``m`` with about a third of its real and imaginary parts set to -0.0."""
    re = np.where(rng.random(m.shape) < 0.3, -0.0, m.real)
    im = np.where(rng.random(m.shape) < 0.3, -0.0, m.imag)
    return _assemble(re, im)


def _assemble(re, im):
    # re + 1j * im would turn -0.0 imaginary parts into +0.0.
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def _hermitian(m):
    return 0.5 * (m + m.conj().T)


def _with_repeated_levels(n, rng):
    u, _ = np.linalg.qr(_complex(rng, (n, n)))
    levels = rng.integers(-2, 3, n).astype(float)
    return _hermitian((u * levels) @ u.conj().T)


def _operators(seed):
    """Square complex matrices at n = 1-8 in every layout, some with -0.0."""
    rng = np.random.default_rng(seed)
    out = []
    for n in range(1, 9):
        for kind in range(4):
            m = _complex(rng, (n, n))
            if kind == 1:
                m = _with_signed_zeros(m, rng)
            elif kind == 2:
                m = np.round(m)  # small integers: exact zeros and ties
            elif kind == 3:
                m = m.real.astype(complex)
            out.extend(_variants(m))
    return out


# tensor


def test_tensor_matches_kron_bytes():
    rng = np.random.default_rng(11)
    for n1 in range(1, 9):
        for n2 in range(1, 9):
            if n1 * n2 > la.MAX_DIM:
                continue
            a = _complex(rng, (n1, n1))
            b = _complex(rng, (n2, n2))
            if (n1 + n2) % 2:
                a = _with_signed_zeros(a, rng)
                b = _with_signed_zeros(b, rng)
            for x in _variants(a):
                for y in _variants(b):
                    assert la.tensor(x, y).tobytes() == oracles.tensor(x, y).tobytes()


def test_tensor_of_real_and_integer_operands_matches_kron():
    a = np.array([[1, -2], [0, 3]])
    b = np.array([[0.5, -0.0], [2.0, 1.0]])
    assert la.tensor(a, b).tobytes() == oracles.tensor(a, b).tobytes()
    assert la.tensor(a.T, b).tobytes() == oracles.tensor(a.T, b).tobytes()
    assert la.tensor(a, b).flags["C_CONTIGUOUS"]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("side", ["left", "right"])
def test_tensor_rejects_non_finite_entries(bad, side):
    m = np.eye(2, dtype=complex)
    m[1, 0] = bad
    args = (m, np.eye(2)) if side == "left" else (np.eye(2), m)
    with pytest.raises(ValueError, match="finite"):
        la.tensor(*args)


@pytest.mark.parametrize(
    "bad", [np.ones((2, 3)), np.ones(4), np.ones((2, 2, 2)), np.ones((0, 0))],
    ids=["2x3", "vector", "3d", "empty"],
)
def test_tensor_rejects_non_square_operands(bad):
    with pytest.raises(la.DimensionError):
        la.tensor(bad, np.eye(2))
    with pytest.raises(la.DimensionError):
        la.tensor(np.eye(2), bad)


def test_tensor_rejects_products_above_the_cap():
    with pytest.raises(la.DimensionError, match="exceeds"):
        la.tensor(np.eye(8), np.eye(9))


# norms


def test_frobenius_norm_matches_numpy_in_every_layout():
    # A transposed input is summed in memory order, as np.linalg.norm does.
    for m in _operators(22):
        assert la._frobenius_norm(m).hex() == float(np.linalg.norm(m)).hex()


# eigenvector phases


def _phase_inputs(seed):
    rng = np.random.default_rng(seed)
    out = []
    for n in range(1, 9):
        u, _ = np.linalg.qr(_complex(rng, (n, n)))
        out.extend(_variants(u))
        out.extend(_variants(_with_signed_zeros(u, rng)))
    # Every entry of a column ties in magnitude: the first one wins.
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    out.extend(_variants(hadamard.astype(complex)))
    ties = np.array([[1, 1j, -1, 0], [-1, 1, 1j, 0], [1j, -1j, 1, 0], [-1j, 1, -1, 0]])
    out.extend(_variants(0.5 * ties.astype(complex)))  # last column all zero
    # Ties at the largest magnitude only, after a smaller entry.
    out.append(np.array([[0.1, -0.0], [-0.6j, 0.8], [0.6, -0.8j]], dtype=complex))
    out.append(_assemble(np.full((3, 2), -0.0), np.full((3, 2), -0.0)))
    return out


def test_fix_column_phases_matches_per_column_loop():
    for v in _phase_inputs(31):
        got = la._fix_column_phases(v)
        assert got.tobytes() == oracles.fix_column_phases(v).tobytes()


def test_fix_column_phases_leaves_its_input_unchanged():
    v = _phase_inputs(32)[5]
    before = v.copy()
    la._fix_column_phases(v)
    assert v.tobytes() == before.tobytes()


# eigensolver and spectral levels


def _hermitian_inputs(seed):
    rng = np.random.default_rng(seed)
    out = []
    for n in range(1, 9):
        out.extend(_variants(_hermitian(_complex(rng, (n, n)))))
        out.extend(_variants(_hermitian(_with_signed_zeros(_complex(rng, (n, n)), rng))))
        out.extend(_variants(_with_repeated_levels(n, rng)))
    return out


def test_jacobi_matches_loop_oracle_in_every_layout():
    # The cyclic kernel solves n <= 7 only.
    for h in _hermitian_inputs(41):
        if len(h) <= la._JACOBI_CYCLIC_MAX_DIM:
            values, vectors = la.jacobi_eigh(h)
            ref_values, ref_vectors = oracles.jacobi_eigh(h)
            assert values.tobytes() == ref_values.tobytes()
            assert vectors.tobytes() == ref_vectors.tobytes()


def test_cyclic_kernel_agrees_with_the_numpy_loop_to_1e12_scale():
    # The same rotations on numpy rows and columns round differently
    # (numpy's SIMD complex loops); 6.6 EPS x scale was the largest
    # eigenvalue gap over 20 seeds of these inputs.  Eigenvectors are
    # compared where no two levels are closer than 0.01, since a gap
    # amplifies rounding in them by 1/gap.
    for h in _hermitian_inputs(45):
        if len(h) > la._JACOBI_CYCLIC_MAX_DIM:
            continue
        values, vectors = la.jacobi_eigh(h)
        ref_values, ref_vectors = oracles.jacobi_eigh_numpy(h)
        bound = 1e-12 * max(1.0, np.linalg.norm(h))
        assert np.abs(values - ref_values).max() <= bound
        rebuilt = (vectors * values) @ vectors.conj().T
        assert np.abs(rebuilt - (ref_vectors * ref_values) @ ref_vectors.conj().T).max() <= bound
        gap = np.diff(values).min() if len(h) > 1 else 1.0
        if gap >= 0.01:
            assert np.abs(vectors - ref_vectors).max() <= bound / gap


def _eigenvalue_inputs(seed):
    """Hermitian inputs at n = 1-16 in every kind, and at 24, 32 and 64 in one each."""
    rng = np.random.default_rng(seed)
    kinds = (
        lambda n: _hermitian(_complex(rng, (n, n))),
        lambda n: _hermitian(_with_signed_zeros(_complex(rng, (n, n)), rng)),
        lambda n: _with_repeated_levels(n, rng),
    )
    out = []
    for n in range(1, 17):
        for kind in kinds:
            out.extend(_variants(kind(n)))
    for n, kind in zip((24, 32, 64), kinds):
        out.extend(_variants(kind(n)))
    out.extend(np.diag(d).astype(complex) for d in ([-0.0], [-0.0, -0.0], [0.0, -0.0, 2.0]))
    return out


def test_pinned_dimensions_stay_on_the_cyclic_kernel():
    # Golden stdout pins eigensolves up to n = 6 to the cyclic kernel's
    # bits; n = 7 stays there too, so no solve moves between kernels.
    assert la._JACOBI_CYCLIC_MAX_DIM >= 7


def test_eigenvalues_only_mode_matches_the_full_path():
    for h in _eigenvalue_inputs(43):
        values, vectors = la.jacobi_eigh(h, vectors=False)
        assert vectors is None
        assert values.tobytes() == la.jacobi_eigh(h)[0].tobytes()


def _assert_spectra_equal(h):
    got = la.spectral_decompose(h)
    want = oracles.spectral_decompose(h)
    assert [v.hex() for v in got.eigenvalues] == [v.hex() for v in want.eigenvalues]
    assert got.multiplicities == want.multiplicities
    assert [p.tobytes() for p in got.projectors] == [p.tobytes() for p in want.projectors]


def test_spectral_levels_match_np_mean():
    for h in _hermitian_inputs(42):
        _assert_spectra_equal(h)


@pytest.mark.parametrize(
    "diagonal",
    [[-0.0, 1.0], [2.0, -0.0], [-0.0, 1.0, 1.0], [-0.0, -0.0, 3.0], [-0.0], [0.0, -0.0]],
)
def test_singleton_level_at_negative_zero_matches_np_mean(diagonal):
    # np.mean sums onto 0.0, so a lone -0.0 level is reported as +0.0.
    h = np.diag(diagonal).astype(complex)
    _assert_spectra_equal(h)
    levels = la.spectral_decompose(h).eigenvalues
    assert all(not np.signbit(v) for v in levels if v == 0.0)


# validation of views


def test_transposed_and_strided_operators_are_validated_not_refused():
    rng = np.random.default_rng(51)
    h = _hermitian(_complex(rng, (3, 3)))
    for view in _variants(h)[1:] + [h.T]:
        assert np.array_equal(la.as_operator(view), view)
        bad = view.copy(order="K")
        bad[0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            la.as_operator(bad.T)


def test_pure_state_accepts_a_strided_column_and_rejects_nan_in_one():
    u = np.eye(3, dtype=complex)
    assert PureState(u[:, 1]).amplitudes.tolist() == [0, 1, 0]
    u[2, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        PureState(u[:, 1])
