"""Two-spin correlations, their bounds and locality diagnostics."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qcontext.linalg as la
from qcontext.correlations import (
    Direction,
    chsh,
    chsh_optimal_settings,
    conditional_remote_state,
    correlation,
    joint_probabilities,
    no_signalling_check,
    outcome_dependence,
    spin_observable,
)
from qcontext.sampling import random_density, random_direction, random_pure_state
from qcontext.states import as_density, make_singlet, product_basis_state

SINGLET = as_density(make_singlet())


def spin_matrix(d: Direction) -> np.ndarray:
    """Hand-built d . sigma, independent of the package constructors."""
    return (
        d.x * np.array([[0, 1], [1, 0]], dtype=complex)
        + d.y * np.array([[0, -1j], [1j, 0]], dtype=complex)
        + d.z * np.array([[1, 0], [0, -1]], dtype=complex)
    )


def test_direction_requires_unit_norm():
    with pytest.raises(ValueError, match="unit"):
        Direction(1.0, 1.0, 0.0)


@pytest.mark.parametrize(
    "components",
    [(np.nan, 0.0, 0.0), (0.0, np.nan, 1.0), (np.inf, 0.0, 0.0), (0.0, 0.0, -np.inf)],
)
def test_direction_rejects_non_finite_components(components):
    with pytest.raises(ValueError, match="finite"):
        Direction(*components)


def test_direction_normalized_and_polar_agree():
    d = Direction.normalized(3.0, 0.0, 4.0)
    assert d.x == pytest.approx(0.6)
    assert d.z == pytest.approx(0.8)
    p = Direction.polar(np.pi / 2)
    assert (p.x, p.y, p.z) == pytest.approx((1.0, 0.0, 0.0), abs=1e-15)


def test_spin_observable_has_unit_eigenvalues():
    rng = np.random.default_rng(71)
    obs = spin_observable(random_direction(rng))
    assert sorted(obs.spectrum.eigenvalues) == pytest.approx([-1.0, 1.0], abs=1e-10)


# the singlet correlation law


def test_singlet_correlation_is_negative_cosine():
    for theta_deg in (0.0, 30.0, 60.0, 90.0, 120.0, 180.0):
        theta = np.radians(theta_deg)
        e = correlation(SINGLET, Direction.polar(0.0), Direction.polar(theta))
        assert e == pytest.approx(-np.cos(theta), abs=1e-12)


def test_singlet_law_against_direct_trace_oracle():
    rng = np.random.default_rng(72)
    for _ in range(10):
        a = random_direction(rng)
        b = random_direction(rng)
        e = correlation(SINGLET, a, b)
        direct = np.trace(
            SINGLET.matrix @ np.kron(spin_matrix(a), spin_matrix(b))
        ).real
        assert e == pytest.approx(float(direct), abs=1e-12)
        assert e == pytest.approx(-a.dot(b), abs=1e-12)


def test_joint_probability_frozen_at_sixty_degrees():
    record = joint_probabilities(
        SINGLET, Direction.polar(0.0), Direction.polar(np.radians(60.0))
    )
    assert record.joint[(1, 1)] == pytest.approx(0.125, abs=1e-12)
    assert record.joint[(1, -1)] == pytest.approx(0.375, abs=1e-12)
    assert record.marginal_1[1] == pytest.approx(0.5, abs=1e-12)
    assert record.marginal_2[-1] == pytest.approx(0.5, abs=1e-12)


def test_perpendicular_settings_give_flat_quarter_table():
    record = joint_probabilities(SINGLET, Direction.polar(0.0), Direction.polar(np.pi / 2))
    for key in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        assert record.joint[key] == pytest.approx(0.25, abs=1e-12)


def test_equal_settings_are_perfectly_anticorrelated():
    rng = np.random.default_rng(73)
    for _ in range(5):
        a = random_direction(rng)
        record = joint_probabilities(SINGLET, a, a)
        assert record.expectation == pytest.approx(-1.0, abs=1e-12)
        assert record.joint[(1, 1)] == pytest.approx(0.0, abs=1e-12)
        assert record.joint[(-1, -1)] == pytest.approx(0.0, abs=1e-12)


def test_record_marginals_are_consistent_with_joint():
    rng = np.random.default_rng(74)
    w = random_density(4, rng)
    record = joint_probabilities(w, random_direction(rng), random_direction(rng))
    joint = record.joint
    # read off the joint table, bit for bit
    assert record.marginal_1 == {i: joint[(i, 1)] + joint[(i, -1)] for i in (1, -1)}
    assert record.marginal_2 == {j: joint[(1, j)] + joint[(-1, j)] for j in (1, -1)}
    assert record.expectation == (
        joint[(1, 1)] - joint[(1, -1)] - joint[(-1, 1)] + joint[(-1, -1)]
    )
    # computed once and kept on the record
    assert record.expectation is record.expectation


# conditional remote states


def test_remote_state_after_plus_on_z_is_down():
    probability, remote = conditional_remote_state(
        make_singlet(), Direction(0.0, 0.0, 1.0), +1
    )
    assert probability == pytest.approx(0.5, abs=1e-12)
    assert abs(remote.amplitudes[1]) == pytest.approx(1.0, abs=1e-12)
    assert abs(remote.amplitudes[0]) < 1e-12


def test_remote_state_is_opposite_eigenstate_for_any_axis():
    rng = np.random.default_rng(75)
    for _ in range(6):
        a = random_direction(rng)
        for outcome in (+1, -1):
            probability, remote = conditional_remote_state(make_singlet(), a, outcome)
            assert probability == pytest.approx(0.5, abs=1e-12)
            m = spin_matrix(a)
            v = remote.amplitudes
            # remote vector is the -outcome eigenstate of a . sigma
            assert np.max(np.abs(m @ v - (-outcome) * v)) < 1e-10


def test_remote_state_raises_on_zero_probability_branch():
    up_up = product_basis_state(0, 0)
    with pytest.raises(ValueError, match="probability"):
        conditional_remote_state(up_up, Direction(0.0, 0.0, 1.0), -1)


# CHSH


def test_chsh_optimum_frozen_value():
    a, a2, b, b2 = chsh_optimal_settings()
    s = chsh(SINGLET, a, a2, b, b2)
    assert abs(s) == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)
    assert s == pytest.approx(-2.0 * np.sqrt(2.0), abs=1e-12)


def test_chsh_obeys_tsirelson_bound_on_random_settings():
    rng = np.random.default_rng(76)
    bound = 2.0 * np.sqrt(2.0)
    for _ in range(10):
        dirs = [random_direction(rng) for _ in range(4)]
        s = chsh(SINGLET, *dirs)
        assert abs(s) <= bound + 1e-10


def test_chsh_on_product_state_never_exceeds_classical_bound():
    rng = np.random.default_rng(77)
    left = random_pure_state(2, rng)
    right = random_pure_state(2, rng)
    from qcontext.states import PureState

    product = as_density(PureState(np.kron(left.amplitudes, right.amplitudes)))
    for _ in range(10):
        dirs = [random_direction(rng) for _ in range(4)]
        assert abs(chsh(product, *dirs)) <= 2.0 + 1e-10


def test_classical_strategies_cap_at_two_where_quantum_reaches_tsirelson():
    # exhaustive oracle: every deterministic +-1 assignment to the four
    # settings gives |S| <= 2, and some reach it
    best = 0.0
    for va, va2, vb, vb2 in itertools.product((1, -1), repeat=4):
        s = va * vb + va * vb2 + va2 * vb - va2 * vb2
        best = max(best, abs(s))
    assert best == 2.0
    a, a2, b, b2 = chsh_optimal_settings()
    assert abs(chsh(SINGLET, a, a2, b, b2)) > best + 0.8


# locality diagnostics


def test_no_signalling_holds_on_singlet():
    rng = np.random.default_rng(78)
    settings_list = [random_direction(rng) for _ in range(4)]
    deviation = no_signalling_check(SINGLET, settings_list, random_direction(rng))
    assert deviation < 1e-9


def test_no_signalling_holds_on_random_mixed_states():
    rng = np.random.default_rng(79)
    for _ in range(5):
        w = random_density(4, rng)
        settings_list = [random_direction(rng) for _ in range(3)]
        assert no_signalling_check(w, settings_list, random_direction(rng)) < 1e-9


def test_outcome_dependence_frozen_values():
    z = Direction(0.0, 0.0, 1.0)
    x = Direction(1.0, 0.0, 0.0)
    sixty = Direction.polar(np.radians(60.0))
    # same axis: conditional flips to certainty, marginal stays half
    assert outcome_dependence(SINGLET, z, z) == pytest.approx(0.5, abs=1e-12)
    # orthogonal axes: no shift at all
    assert outcome_dependence(SINGLET, z, x) == pytest.approx(0.0, abs=1e-12)
    # sixty degrees: conditional 1/4 versus marginal 1/2
    assert outcome_dependence(SINGLET, z, sixty) == pytest.approx(0.25, abs=1e-12)


def test_outcome_dependence_vanishes_on_product_states():
    rng = np.random.default_rng(80)
    from qcontext.states import PureState

    left = random_pure_state(2, rng)
    right = random_pure_state(2, rng)
    product = as_density(PureState(np.kron(left.amplitudes, right.amplitudes)))
    for _ in range(5):
        a = random_direction(rng)
        b = random_direction(rng)
        record = joint_probabilities(product, a, b)
        if record.marginal_1[1] > 1e-6:
            assert outcome_dependence(product, a, b) < 1e-9


# property tests


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_property_joint_tables_are_distributions(seed):
    rng = np.random.default_rng(seed)
    w = random_density(4, rng)
    record = joint_probabilities(w, random_direction(rng), random_direction(rng))
    total = sum(record.joint.values())
    assert total == pytest.approx(1.0, abs=1e-10)
    assert all(p >= -1e-12 for p in record.joint.values())
    assert abs(record.expectation) <= 1.0 + 1e-10


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_property_singlet_law_any_directions(seed):
    rng = np.random.default_rng(seed)
    a = random_direction(rng)
    b = random_direction(rng)
    assert correlation(SINGLET, a, b) == pytest.approx(-a.dot(b), abs=1e-10)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_property_no_signalling_is_universal(seed):
    rng = np.random.default_rng(seed)
    w = random_density(4, rng)
    settings_list = [random_direction(rng) for _ in range(3)]
    assert no_signalling_check(w, settings_list, random_direction(rng)) < 1e-8
