"""Conditionalization on measurement contexts and its invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qcontext.linalg as la
from qcontext.contexts import (
    boolean_lattice_check,
    check_representative,
    context,
    contexts_distance,
    luders_nonselective,
    observable,
    sequential_luders,
    statistical_equivalence,
)
from qcontext.sampling import (
    random_density,
    random_nondegenerate_observable,
    random_pure_state,
)
from qcontext.states import DensityOperator, PureState, as_density

PLUS = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))
SIGMA_Z_OBS = observable(la.SIGMA_Z, label="sz")
SIGMA_X_OBS = observable(la.SIGMA_X, label="sx")


def test_context_requires_matching_dimensions():
    with pytest.raises(la.DimensionError):
        context(PureState(np.array([1.0, 0.0, 0.0])), SIGMA_Z_OBS)


def test_conditioned_plus_state_on_z_is_maximally_mixed():
    cs = luders_nonselective(context(PLUS, SIGMA_Z_OBS))
    assert np.max(np.abs(cs.state.matrix - 0.5 * np.eye(2))) < 1e-12


def test_conditioning_leaves_eigenstate_unchanged():
    up = PureState(np.array([1.0, 0.0]))
    cs = luders_nonselective(context(up, SIGMA_Z_OBS))
    assert np.max(np.abs(cs.state.matrix - up.projector())) < 1e-12


def test_outcome_probabilities_match_born_rule():
    cs = luders_nonselective(context(PLUS, SIGMA_Z_OBS))
    assert cs.outcome_probabilities[1.0] == pytest.approx(0.5, abs=1e-12)
    assert cs.outcome_probabilities[-1.0] == pytest.approx(0.5, abs=1e-12)


def test_conditioning_is_idempotent():
    rng = np.random.default_rng(61)
    w = random_density(3, rng)
    obs, _, _ = random_nondegenerate_observable(3, rng)
    once = sequential_luders(w, [obs])
    twice = sequential_luders(once, [obs])
    assert np.max(np.abs(once.matrix - twice.matrix)) < 1e-10


def test_conditioning_two_forms_agree():
    # projector sandwich sum versus expansion in outcome probabilities
    rng = np.random.default_rng(62)
    psi = random_pure_state(4, rng)
    obs, _, _ = random_nondegenerate_observable(4, rng)
    cs = luders_nonselective(context(psi, obs))
    by_hand = np.zeros((4, 4), dtype=complex)
    rho = psi.projector()
    for p in obs.spectrum.projectors:
        by_hand += p @ rho @ p
    assert np.max(np.abs(cs.state.matrix - by_hand)) < 1e-12


# representativeness of the conditioned expansion


def test_full_support_pure_state_is_representative():
    psi = PureState(np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0))
    obs = observable(np.diag([1.0, 2.0, 3.0]), label="q")
    report = check_representative(luders_nonselective(context(psi, obs)))
    assert report.representative
    assert len(report.support_eigenvalues) == 3
    assert report.excluded_eigenvalues == ()


def test_partial_support_excludes_missing_eigenvalues():
    psi = PureState(np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0))
    obs = observable(np.diag([1.0, 2.0, 3.0]), label="q")
    report = check_representative(luders_nonselective(context(psi, obs)))
    assert report.representative
    assert sorted(report.support_eigenvalues) == pytest.approx([1.0, 2.0])
    assert list(report.excluded_eigenvalues) == pytest.approx([3.0])


def test_support_of_a_complex_state_takes_the_conjugate_overlap():
    # sigma_y's eigenvectors are (1, +-i)/sqrt(2), and psi is the +1 one:
    # <v|psi> is 1 on +1 and 0 on -1, where the unconjugated sum of
    # v_k psi_k gives the reverse.
    psi = PureState(np.array([1.0, 1.0j]) / np.sqrt(2.0))
    report = check_representative(luders_nonselective(context(psi, observable(la.SIGMA_Y))))
    assert report.representative
    assert report.support_eigenvalues == pytest.approx((1.0,))
    assert report.excluded_eigenvalues == pytest.approx((-1.0,))


@pytest.mark.parametrize("scale", [1.0, 1e6, 1e10, 1e300])
def test_eigenvector_condition_does_not_depend_on_the_observables_scale(scale):
    # An absolute residual of c A v - c a v grows with c; the condition
    # must hold for cA exactly when it holds for A.
    obs, _, _ = random_nondegenerate_observable(3, np.random.default_rng(3))
    psi = PureState(np.array([1.0, 0.0, 0.0]))
    cs = luders_nonselective(context(psi, observable(scale * obs.matrix)))
    assert check_representative(cs).eigenvector_condition


def test_eigenvector_condition_of_an_observable_at_the_float_limit():
    # pyproject.toml turns an overflow warning in the residual into an error.
    psi = PureState(np.array([1.0, 0.0]))
    cs = luders_nonselective(context(psi, observable(1e308 * la.SIGMA_X)))
    assert check_representative(cs).eigenvector_condition


def test_representativeness_refuses_mixed_state():
    mixed = DensityOperator(0.5 * np.eye(2, dtype=complex))
    cs = luders_nonselective(context(mixed, SIGMA_Z_OBS))
    with pytest.raises(ValueError, match="pure/non-degenerate"):
        check_representative(cs)


def test_representativeness_refuses_degenerate_observable():
    degenerate = observable(np.diag([1.0, 1.0, 2.0]), label="deg")
    psi = PureState(np.array([1.0, 0.0, 0.0]))
    cs = luders_nonselective(context(psi, degenerate))
    with pytest.raises(ValueError, match="pure/non-degenerate"):
        check_representative(cs)


# statistical equivalence inside and outside the context


def test_equivalence_holds_for_the_measured_observable():
    result = statistical_equivalence(context(PLUS, SIGMA_Z_OBS))
    assert result.delta < 1e-12


def test_equivalence_holds_for_compatible_probes():
    rng = np.random.default_rng(63)
    w = random_density(4, rng)
    obs, _, basis = random_nondegenerate_observable(4, rng)
    # any function of the observable commutes with it
    probe_matrix = basis @ np.diag([2.0, -1.0, 0.5, 7.0]) @ basis.conj().T
    probe = observable(0.5 * (probe_matrix + probe_matrix.conj().T), label="f(A)")
    result = statistical_equivalence(context(w, obs), probe=probe)
    assert result.delta < 1e-10


def test_incompatible_probe_breaks_equivalence_by_a_full_unit():
    result = statistical_equivalence(context(PLUS, SIGMA_Z_OBS), probe=SIGMA_X_OBS)
    assert result.expectation_initial == pytest.approx(1.0, abs=1e-12)
    assert result.expectation_conditioned == pytest.approx(0.0, abs=1e-12)
    assert result.delta == pytest.approx(1.0, abs=1e-12)


# distance between contexts


def test_frozen_distance_between_z_and_x_conditionings_of_plus():
    d = contexts_distance(as_density(PLUS), SIGMA_Z_OBS, SIGMA_X_OBS)
    assert d == pytest.approx(0.5, abs=1e-12)


def test_distance_vanishes_for_same_eigenbasis():
    f_of_z = observable(np.diag([3.0, -7.0]), label="f(sz)")
    d = contexts_distance(as_density(PLUS), SIGMA_Z_OBS, f_of_z)
    assert d == pytest.approx(0.0, abs=1e-12)


def test_distance_is_symmetric():
    rng = np.random.default_rng(64)
    w = random_density(3, rng)
    a, _, _ = random_nondegenerate_observable(3, rng)
    b, _, _ = random_nondegenerate_observable(3, rng)
    assert contexts_distance(w, a, b) == pytest.approx(
        contexts_distance(w, b, a), abs=1e-12
    )


# sequential conditioning


def test_sequential_z_then_x_on_plus_gives_maximal_mixture():
    final = sequential_luders(as_density(PLUS), [SIGMA_Z_OBS, SIGMA_X_OBS])
    assert np.max(np.abs(final.matrix - 0.5 * np.eye(2))) < 1e-12


def test_sequential_preserves_trace_and_positivity():
    rng = np.random.default_rng(65)
    w = random_density(4, rng)
    seq = [random_nondegenerate_observable(4, rng)[0] for _ in range(3)]
    final = sequential_luders(w, seq)
    assert float(np.trace(final.matrix).real) == pytest.approx(1.0, abs=1e-10)
    assert np.min(np.linalg.eigvalsh(final.matrix)) > -1e-10


def test_sequential_empty_sequence_is_identity():
    rng = np.random.default_rng(66)
    w = random_density(2, rng)
    final = sequential_luders(w, [])
    assert np.max(np.abs(final.matrix - w.matrix)) < 1e-15


# event algebra generated by one observable


def test_qubit_lattice_has_four_elements():
    report = boolean_lattice_check(SIGMA_Z_OBS)
    assert report.element_count == 4
    assert report.all_hold


def test_trivial_observable_gives_two_element_lattice():
    trivial = observable(np.eye(2, dtype=complex) * 3.0, label="3I")
    report = boolean_lattice_check(trivial)
    assert report.element_count == 2
    assert report.all_hold


def test_qutrit_lattice_has_eight_elements():
    obs = observable(np.diag([1.0, 2.0, 3.0]), label="q")
    report = boolean_lattice_check(obs)
    assert report.element_count == 8
    assert report.all_hold


def test_lattice_checks_hold_on_provided_states():
    rng = np.random.default_rng(67)
    states = [random_density(3, rng) for _ in range(5)]
    obs, _, _ = random_nondegenerate_observable(3, rng)
    report = boolean_lattice_check(obs, states=states)
    assert report.all_hold
    assert report.max_defect < 1e-10


# property tests


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_property_conditioning_preserves_trace_and_diagonal(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    w = random_density(dim, rng)
    obs, _, _ = random_nondegenerate_observable(dim, rng)
    cs = luders_nonselective(context(w, obs))
    assert float(np.trace(cs.state.matrix).real) == pytest.approx(1.0, abs=1e-10)
    assert sum(cs.outcome_probabilities.values()) == pytest.approx(1.0, abs=1e-10)
    # the conditioned state is diagonal in the measured eigenbasis
    for p in obs.spectrum.projectors:
        assert np.max(np.abs(p @ cs.state.matrix - cs.state.matrix @ p)) < 1e-10


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_property_equivalence_for_measured_observable(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    w = random_density(dim, rng)
    obs, _, _ = random_nondegenerate_observable(dim, rng)
    result = statistical_equivalence(context(w, obs))
    assert result.delta < 1e-9


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_property_conditioning_never_increases_purity(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    w = random_density(dim, rng)
    obs, _, _ = random_nondegenerate_observable(dim, rng)
    conditioned = sequential_luders(w, [obs])
    assert conditioned.purity() <= w.purity() + 1e-10
