"""States, Schmidt structure, two-spin observables and dynamics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qcontext.linalg as la
from qcontext.sampling import random_pure_state
from qcontext.states import (
    DensityOperator,
    PureState,
    as_density,
    basis_state,
    coupled_spins_hamiltonian,
    entangling_evolution_demo,
    is_product,
    make_ghz,
    make_singlet,
    product_basis_state,
    reduced_state,
    schmidt,
    total_spin_squared,
)


def test_pure_state_rejects_unnormalised_vector():
    with pytest.raises(ValueError, match="norm"):
        PureState(np.array([1.0, 1.0]))


@pytest.mark.parametrize("amplitudes", [[1e200, 0.0], [1e154] * 4], ids=["1e200", "1e154x4"])
def test_pure_state_with_a_norm_beyond_the_float_range_is_not_normalised(amplitudes):
    # pyproject.toml turns every RuntimeWarning into an error here.
    with pytest.raises(ValueError, match=r"not normalised: \|psi\| = inf"):
        PureState(np.array(amplitudes))


def test_density_operator_rejects_negative_eigenvalue():
    m = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ValueError):
        DensityOperator(m)


def test_density_operator_rejects_wrong_trace():
    with pytest.raises(ValueError):
        DensityOperator(np.eye(2, dtype=complex))


def test_as_density_accepts_vector_state_and_matrix():
    psi = PureState(np.array([1.0, 0.0]))
    rho = as_density(psi)
    assert np.allclose(rho.matrix, np.diag([1.0, 0.0]))
    again = as_density(rho)
    assert again is rho


# Schmidt structure


def test_singlet_schmidt_coefficients_are_equal_halves():
    dec = schmidt(make_singlet(), (2, 2))
    assert dec.rank == 2
    assert dec.coefficients == pytest.approx([2**-0.5, 2**-0.5], abs=1e-12)


def test_schmidt_reconstructs_original_vector():
    rng = np.random.default_rng(52)
    psi = random_pure_state(6, rng)
    dec = schmidt(psi, (2, 3))
    rebuilt = dec.reconstruct()
    fidelity = abs(np.vdot(rebuilt, psi.amplitudes)) ** 2
    assert fidelity == pytest.approx(1.0, abs=1e-12)


def test_schmidt_bases_orthonormal():
    rng = np.random.default_rng(53)
    psi = random_pure_state(9, rng)
    dec = schmidt(psi, (3, 3))
    for basis in (dec.left_basis, dec.right_basis):
        for i, u in enumerate(basis):
            for j, v in enumerate(basis):
                expected = 1.0 if i == j else 0.0
                assert abs(np.vdot(u, v) - expected) < 1e-10


def test_schmidt_coefficients_descending_and_padded():
    rng = np.random.default_rng(54)
    psi = random_pure_state(4, rng)
    dec = schmidt(psi, (2, 2))
    assert list(dec.coefficients) == sorted(dec.coefficients, reverse=True)
    assert dec.coefficient(dec.rank) == 0.0
    assert dec.coefficient(17) == 0.0


def test_product_state_has_clean_rank_one():
    # the second coefficient must stay at numerical zero, far below the
    # rank cut, not at the half-precision noise floor
    dec = schmidt(product_basis_state(0, 1), (2, 2))
    assert dec.rank == 1
    assert dec.coefficients[0] == pytest.approx(1.0, abs=1e-12)
    assert dec.coefficient(1) < 1e-12


def test_product_state_rank_one_for_generic_factors():
    rng = np.random.default_rng(55)
    left = random_pure_state(2, rng)
    right = random_pure_state(3, rng)
    joint = PureState(np.kron(left.amplitudes, right.amplitudes))
    dec = schmidt(joint, (2, 3))
    assert dec.rank == 1
    assert dec.coefficient(1) < 1e-12


def test_schmidt_dimension_mismatch_names_both_numbers():
    bad = PureState(np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
    with pytest.raises(la.DimensionError, match=r"6.*5"):
        schmidt(bad, (2, 3))


@pytest.mark.parametrize("dims", [(1, 64), (64, 1)])
def test_schmidt_splits_a_64_dimensional_state_one_by_64(dims):
    # The Hermitian embedding is 65-dimensional, one above MAX_DIM.
    psi = random_pure_state(64, np.random.default_rng(57))
    dec = schmidt(psi, dims)
    want = np.linalg.svd(psi.amplitudes.reshape(dims), compute_uv=False)
    assert dec.rank == 1
    assert np.max(np.abs(np.array(dec.coefficients) - want)) < 1e-10
    assert is_product(psi, dims)[0]


def test_is_product_returns_factors_that_rebuild_the_state():
    rng = np.random.default_rng(56)
    left = random_pure_state(2, rng)
    right = random_pure_state(2, rng)
    joint = PureState(np.kron(left.amplitudes, right.amplitudes))
    flag, factors = is_product(joint, (2, 2))
    assert flag
    rebuilt = np.kron(factors[0].amplitudes, factors[1].amplitudes)
    assert abs(abs(np.vdot(rebuilt, joint.amplitudes)) - 1.0) < 1e-12


def test_is_product_rejects_singlet():
    flag, factors = is_product(make_singlet(), (2, 2))
    assert not flag
    assert factors is None


def test_purity_agrees_with_schmidt_rank_classification():
    rng = np.random.default_rng(57)
    for _ in range(12):
        psi = random_pure_state(4, rng)
        dec = schmidt(psi, (2, 2))
        purity = reduced_state(psi, (2, 2), 1).purity()
        expected = sum(c**4 for c in dec.coefficients)
        assert purity == pytest.approx(expected, abs=1e-10)
        assert (dec.rank == 1) == (abs(purity - 1.0) < 1e-8)


# reduced states


def test_singlet_reduced_states_are_maximally_mixed():
    for keep in (1, 2):
        part = reduced_state(make_singlet(), (2, 2), keep)
        assert np.max(np.abs(part.matrix - 0.5 * np.eye(2))) < 1e-12


def test_reduced_state_of_product_is_the_factor():
    part = reduced_state(product_basis_state(1, 0), (2, 2), 1)
    assert np.allclose(part.matrix, np.diag([0.0, 1.0]))


def test_ghz_single_site_reduction_is_maximally_mixed():
    ghz = make_ghz()
    part = reduced_state(ghz, (2, 4), 1)
    assert np.max(np.abs(part.matrix - 0.5 * np.eye(2))) < 1e-12


# two-spin total spin


def test_total_spin_squared_frozen_values():
    assert total_spin_squared(as_density(make_singlet())) == pytest.approx(0.0, abs=1e-12)
    assert total_spin_squared(as_density(product_basis_state(0, 0))) == pytest.approx(
        2.0, abs=1e-12
    )
    up_down = product_basis_state(0, 1).projector()
    down_up = product_basis_state(1, 0).projector()
    mixture = DensityOperator(0.5 * up_down + 0.5 * down_up)
    assert total_spin_squared(mixture) == pytest.approx(1.0, abs=1e-12)


# dynamics


def _evolve(h, t, psi):
    """exp(-i H t) psi through the spectral resolution of H."""
    return PureState(la.evolution_operator(h, t) @ psi.amplitudes)


def test_coupled_spins_hamiltonian_frozen_matrix():
    h = coupled_spins_hamiltonian(0.7)
    z_part = la.tensor(la.SIGMA_Z, np.eye(2)) + la.tensor(np.eye(2), la.SIGMA_Z)
    x_part = la.tensor(la.SIGMA_X, la.SIGMA_X)
    assert np.max(np.abs(h - (z_part + 0.7 * x_part))) < 1e-15


def _rk4_evolve(h, t, psi0, steps=4000):
    """Independent integrator for i dpsi/dt = H psi."""
    dt = t / steps
    psi = psi0.astype(complex).copy()

    def deriv(v):
        return -1j * (h @ v)

    for _ in range(steps):
        k1 = deriv(psi)
        k2 = deriv(psi + 0.5 * dt * k1)
        k3 = deriv(psi + 0.5 * dt * k2)
        k4 = deriv(psi + dt * k3)
        psi = psi + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return psi / np.linalg.norm(psi)


def test_evolution_matches_runge_kutta_oracle():
    h = coupled_spins_hamiltonian(1.0)
    psi0 = product_basis_state(0, 0).amplitudes
    spectral = _evolve(h, 0.5, product_basis_state(0, 0))
    integrated = _rk4_evolve(h, 0.5, psi0)
    overlap = abs(np.vdot(spectral.amplitudes, integrated))
    assert overlap == pytest.approx(1.0, abs=1e-9)


def test_second_schmidt_coefficient_follows_analytic_law():
    # from |00>, the generator couples only |00> and |11>; the entangled
    # weight at coupling 1 is |sin(sqrt(5) t)| / sqrt(5)
    t = 0.5
    trace = entangling_evolution_demo(1.0, t, steps=2)
    final = trace[-1]
    expected = abs(np.sin(np.sqrt(5.0) * t)) / np.sqrt(5.0)
    assert final.coefficients[1] == pytest.approx(expected, abs=1e-10)
    assert final.coefficients[1] == pytest.approx(0.402153313607779, abs=1e-10)


def test_entangling_demo_starts_product_and_gains_rank():
    trace = entangling_evolution_demo(1.0, 0.5, steps=10)
    assert len(trace) == 11
    assert trace[0].time == 0.0
    assert trace[0].rank == 1
    assert trace[-1].rank == 2
    times = [p.time for p in trace]
    assert times == sorted(times)


@pytest.mark.parametrize("coupling, t_final", [(1.0, 0.5), (0.0, 1.0), (-0.3, 7.25)])
def test_entangling_demo_equals_evolving_each_point_from_scratch(coupling, t_final):
    # The demo decomposes the generator once; the floats are those of one
    # evolution_operator call per point.
    h = coupled_spins_hamiltonian(coupling)
    psi0 = product_basis_state(0, 0)
    for k, point in enumerate(entangling_evolution_demo(coupling, t_final, steps=10)):
        t = t_final * k / 10
        dec = schmidt(_evolve(h, t, psi0), (2, 2))
        assert point.time == t
        assert point.rank == dec.rank
        assert [c.hex() for c in point.coefficients] == [
            dec.coefficient(i).hex() for i in range(2)
        ]


def test_entangling_demo_zero_coupling_stays_product():
    trace = entangling_evolution_demo(0.0, 1.0, steps=6)
    for point in trace:
        assert point.rank == 1
        assert point.coefficients[0] == pytest.approx(1.0, abs=1e-10)


def test_entangling_demo_norm_conserved_along_trace():
    trace = entangling_evolution_demo(0.8, 1.2, steps=8)
    for point in trace:
        total = sum(c * c for c in point.coefficients)
        assert total == pytest.approx(1.0, abs=1e-10)


# basis helpers


def test_basis_state_layout():
    e2 = basis_state(4, 2)
    assert np.array_equal(e2.amplitudes, np.array([0, 0, 1, 0], dtype=complex))
    with pytest.raises(ValueError):
        basis_state(3, 3)


def test_product_basis_state_index_order():
    psi = product_basis_state(1, 0)
    assert np.array_equal(psi.amplitudes, np.array([0, 0, 1, 0], dtype=complex))


def test_ghz_amplitudes():
    ghz = make_ghz()
    expected = np.zeros(8, dtype=complex)
    expected[0] = expected[7] = 2**-0.5
    assert np.max(np.abs(ghz.amplitudes - expected)) < 1e-15


# property tests


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_property_schmidt_norm_and_reconstruction(seed):
    rng = np.random.default_rng(seed)
    psi = random_pure_state(6, rng)
    dec = schmidt(psi, (2, 3))
    assert sum(c * c for c in dec.coefficients) == pytest.approx(1.0, abs=1e-9)
    fidelity = abs(np.vdot(dec.reconstruct(), psi.amplitudes)) ** 2
    assert fidelity == pytest.approx(1.0, abs=1e-9)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_property_reduced_states_share_spectrum(seed):
    rng = np.random.default_rng(seed)
    psi = random_pure_state(4, rng)
    left = reduced_state(psi, (2, 2), 1)
    right = reduced_state(psi, (2, 2), 2)
    s_left = np.linalg.eigvalsh(left.matrix)
    s_right = np.linalg.eigvalsh(right.matrix)
    assert np.max(np.abs(s_left - s_right)) < 1e-9


@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
)
@settings(max_examples=20, deadline=None)
def test_property_unitary_evolution_preserves_schmidt_spectrum_under_local_h(seed, t):
    rng = np.random.default_rng(seed)
    psi = random_pure_state(4, rng)
    h = la.tensor(la.SIGMA_Z, np.eye(2)) + la.tensor(np.eye(2), la.SIGMA_X)
    moved = _evolve(h, t, psi)
    before = schmidt(psi, (2, 2)).coefficients
    after = schmidt(moved, (2, 2)).coefficients
    padded = max(len(before), len(after))
    for i in range(padded):
        b = before[i] if i < len(before) else 0.0
        a = after[i] if i < len(after) else 0.0
        assert abs(a - b) < 1e-8
