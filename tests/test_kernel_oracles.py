"""Kernel helpers against their numpy-function oracles, byte for byte.

``linalg`` forms the Kronecker product by broadcasting, the Frobenius
norm from numpy's own dot-product branch, the eigenvector phases from one
``argmax`` over all columns and a singleton level without ``np.mean``.
``oracles.py`` keeps the versions written with ``np.kron``, ``np.diag``
and ``np.mean``; the Frobenius norm is held to ``np.linalg.norm``.
Every result here must match its oracle in ``tobytes()`` (or
``float.hex()``), so signed zeros count too.  The inputs cover n = 1-8,
degenerate spectra, magnitude ties, transposed and strided views and
entries of ``-0.0``.  The eigensolver itself is held to LAPACK in
``test_linalg.py``.
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


def _near_diagonal(n, rng, scale):
    """A Hermitian matrix with a unit-scale real diagonal and every entry off
    it of modulus ``scale`` times the QL deflation floor, in random phases."""
    diagonal = rng.normal(size=n)
    floor = la.JACOBI_OFF_TOL * max(1.0, float(np.linalg.norm(diagonal))) / (2.0 * n)
    below = np.tril(scale * floor * np.exp(2j * np.pi * rng.random((n, n))), -1)
    return below + below.conj().T + np.diag(diagonal)


@pytest.mark.parametrize("n", range(2, 8))
def test_a_matrix_diagonal_to_the_floor_skips_the_reduction(n, monkeypatch):
    # Up to n = 7 an input with every off-diagonal entry at or below the QL
    # floor is solved as its sorted diagonal, with the identity's columns.
    h = _near_diagonal(n, np.random.default_rng(700 + n), 0.5)

    def reduced(*args):
        raise AssertionError("the Householder reduction ran")

    monkeypatch.setattr(la, "_tridiagonal_scalars", reduced)
    before = la.counts()["sweeps"]
    values, vectors = la.jacobi_eigh(h)
    assert la.counts()["sweeps"] == before
    order = np.argsort(h.diagonal().real, kind="stable")
    assert values.tobytes() == h.diagonal().real[order].tobytes()
    assert vectors.tobytes() == np.eye(n, dtype=complex)[:, order].tobytes()


@pytest.mark.parametrize("n", range(2, 8))
def test_one_entry_just_above_the_floor_takes_the_full_path(n, monkeypatch):
    rng = np.random.default_rng(710 + n)
    h = _near_diagonal(n, rng, 0.5)
    i, j = sorted(rng.choice(n, 2, replace=False))[::-1]
    h[i, j] = 1.01 * la.JACOBI_OFF_TOL * max(1.0, float(np.linalg.norm(h))) / (2.0 * n)
    h[j, i] = np.conj(h[i, j])
    calls = []
    original = la._tridiagonal_scalars

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(la, "_tridiagonal_scalars", counting)
    values, vectors = la.jacobi_eigh(h)
    assert calls == [1]
    # The bounds of test_linalg.py's LAPACK comparison: QL deflates at the
    # floor, so residuals near it remain.
    scale = max(1.0, float(np.linalg.norm(h)))
    assert np.abs(values - np.linalg.eigvalsh(h)).max() <= 1e-12 * scale
    assert np.abs(h @ vectors - vectors * values).max() <= 1e-12 * scale
    assert np.abs(vectors.conj().T @ vectors - np.eye(n)).max() <= 1e-12


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
