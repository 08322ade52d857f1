"""Algebraic obstructions to context-free value assignments."""

import itertools

import numpy as np
import pytest

import qcontext.linalg as la
from qcontext.contexts import observable
from qcontext.contextuality import (
    ValueAssignmentProblem,
    ghz_contradiction,
    mermin_peres_square,
    search_noncontextual_assignment,
    value_dependence_demo,
)
from qcontext.states import as_density, make_ghz, product_basis_state

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def test_square_observables_match_hand_built_pauli_products():
    # rebuild the nine two-qubit observables from scratch and compare
    expected = {
        "XI": np.kron(X, I2),
        "IX": np.kron(I2, X),
        "XX": np.kron(X, X),
        "IY": np.kron(I2, Y),
        "YI": np.kron(Y, I2),
        "YY": np.kron(Y, Y),
        "XY": np.kron(X, Y),
        "YX": np.kron(Y, X),
        "ZZ": np.kron(Z, Z),
    }
    square = mermin_peres_square()
    assert set(square.labels) == set(expected)
    for label, matrix in zip(square.labels, square.observables):
        assert np.max(np.abs(matrix - expected[label])) < 1e-15


def test_square_contexts_multiply_to_signed_identity():
    square = mermin_peres_square()
    eye = np.eye(4, dtype=complex)
    assert len(square.contexts) == 6
    negative = 0
    for ctx, sign in zip(square.contexts, square.signs):
        product = eye.copy()
        for index in ctx:
            product = product @ square.observables[index]
        assert np.max(np.abs(product - sign * eye)) < 1e-12
        negative += sign == -1
    assert negative == 1


def test_square_contexts_commute_internally():
    square = mermin_peres_square()
    for ctx in square.contexts:
        for i, j in itertools.combinations(ctx, 2):
            c = square.observables[i] @ square.observables[j] - square.observables[
                j
            ] @ square.observables[i]
            assert np.max(np.abs(c)) < 1e-12


def test_square_admits_no_consistent_assignment():
    square = mermin_peres_square()
    result = search_noncontextual_assignment(square)
    assert result.cases_checked == 512
    assert result.satisfying_count == 0
    assert result.example is None


def test_relaxed_square_admits_sixteen_assignments():
    relaxed = mermin_peres_square().without_context(5)
    result = search_noncontextual_assignment(relaxed)
    assert result.cases_checked == 512
    assert result.satisfying_count == 16
    assert result.example is not None
    assert relaxed.assignment_satisfies(result.example)


def test_parity_argument_blocks_any_assignment_by_hand():
    # independent route: the row signs multiply to +1, the column signs
    # to -1, but every observable appears exactly twice, so the product
    # of all six context products must be +1; no assignment can give -1
    square = mermin_peres_square()
    total = 1
    for sign in square.signs:
        total *= sign
    assert total == -1  # which is the impossibility


def test_assignment_satisfies_is_exact():
    square = mermin_peres_square()
    values = {label: 1 for label in square.labels}
    assert not square.assignment_satisfies(values)
    relaxed = square.without_context(5)
    assert relaxed.assignment_satisfies(values)


def test_problem_rejects_wrong_context_sign():
    with pytest.raises(ValueError):
        ValueAssignmentProblem(
            observables=(np.kron(X, I2), np.kron(I2, X), np.kron(X, X)),
            labels=("XI", "IX", "XX"),
            contexts=((0, 1, 2),),
            signs=(-1,),
        )


def test_problem_rejects_noncommuting_context():
    with pytest.raises(ValueError):
        ValueAssignmentProblem(
            observables=(np.kron(X, I2), np.kron(Z, I2)),
            labels=("XI", "ZI"),
            contexts=((0, 1),),
            signs=(1,),
        )


def test_problem_rejects_duplicate_labels():
    # keyed by label, the relaxed square with all labels equal once
    # reported 256 satisfying assignments instead of 16
    relaxed = mermin_peres_square().without_context(5)
    with pytest.raises(ValueError, match="distinct"):
        ValueAssignmentProblem(
            observables=relaxed.observables,
            labels=("A",) * relaxed.size,
            contexts=relaxed.contexts,
            signs=relaxed.signs,
        )


def test_problem_without_observables_is_a_value_error():
    # once an IndexError from the first observable's shape
    with pytest.raises(ValueError, match="at least one observable"):
        ValueAssignmentProblem(observables=(), labels=(), contexts=(), signs=())


def test_problem_rejects_non_involution():
    with pytest.raises(ValueError):
        ValueAssignmentProblem(
            observables=(2.0 * np.kron(X, I2),),
            labels=("2XI",),
            contexts=(),
            signs=(),
        )


# the three-spin parity contradiction


def test_ghz_is_exact_joint_eigenvector():
    report = ghz_contradiction()
    assert max(report.residuals) == 0.0
    assert report.eigenvalues == (1.0, -1.0, -1.0, -1.0)


def test_ghz_constraint_labels_and_signs():
    report = ghz_contradiction()
    assert report.constraint_labels == ("XXX", "XYY", "YXY", "YYX")
    assert report.forced_product == 1
    assert report.constraint_product == -1
    assert report.contradiction


def test_ghz_eigenvalue_claims_against_hand_built_operators():
    ghz = make_ghz().amplitudes
    operators = {
        "XXX": np.kron(X, np.kron(X, X)),
        "XYY": np.kron(X, np.kron(Y, Y)),
        "YXY": np.kron(Y, np.kron(X, Y)),
        "YYX": np.kron(Y, np.kron(Y, X)),
    }
    signs = {"XXX": 1.0, "XYY": -1.0, "YXY": -1.0, "YYX": -1.0}
    for label, op in operators.items():
        assert np.max(np.abs(op @ ghz - signs[label] * ghz)) < 1e-15


def test_ghz_product_identity_forces_the_clash():
    # (XXX)(XYY)(YXY)(YYX) = -III on the nose, so +1 eigenvalues of the
    # last three would force XXX -> -1, not +1
    product = np.eye(8, dtype=complex)
    for label in ("XXX", "XYY", "YXY", "YYX"):
        ops = {"X": X, "Y": Y}
        factors = [ops[ch] for ch in label]
        product = product @ np.kron(factors[0], np.kron(factors[1], factors[2]))
    assert np.max(np.abs(product + np.eye(8))) < 1e-12


# dependence of a measured value on the partner context


def _zz():
    return observable(la.tensor(la.SIGMA_Z, la.SIGMA_Z), label="ZZ")


def _zi():
    return observable(la.tensor(la.SIGMA_Z, np.eye(2)), label="ZI")


def _xx():
    return observable(la.tensor(la.SIGMA_X, la.SIGMA_X), label="XX")


def test_value_dependence_marginals_agree_but_preparations_differ():
    w = as_density(product_basis_state(0, 0))
    report = value_dependence_demo(w, _zz(), _zi(), _xx())
    assert report.max_shift < 1e-12
    assert report.preparation_distances["plain_vs_after_b"] == pytest.approx(
        0.0, abs=1e-12
    )
    assert report.preparation_distances["plain_vs_after_c"] == pytest.approx(
        0.5, abs=1e-12
    )
    assert report.preparation_distances["after_b_vs_after_c"] == pytest.approx(
        0.5, abs=1e-12
    )


def test_value_dependence_distributions_match_born_rule():
    w = as_density(product_basis_state(0, 0))
    report = value_dependence_demo(w, _zz(), _zi(), _xx())
    # |00> is the +1 eigenstate of ZZ
    assert report.distribution_plain[1.0] == pytest.approx(1.0, abs=1e-12)
    assert report.distribution_after_b[1.0] == pytest.approx(1.0, abs=1e-12)
    assert report.distribution_after_c[1.0] == pytest.approx(1.0, abs=1e-12)


def test_value_dependence_on_entangled_state():
    from qcontext.states import PureState

    psi = PureState(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))
    report = value_dependence_demo(as_density(psi), _zz(), _zi(), _xx())
    assert report.max_shift < 1e-12
    # conditioning on ZI dephases the pair coherence; on XX it does not
    assert report.preparation_distances["plain_vs_after_b"] == pytest.approx(
        0.5, abs=1e-12
    )
    assert report.preparation_distances["plain_vs_after_c"] == pytest.approx(
        0.0, abs=1e-12
    )


def test_value_dependence_requires_commuting_partners():
    w = as_density(product_basis_state(0, 0))
    bad_b = observable(la.tensor(la.SIGMA_X, np.eye(2)), label="XI")
    with pytest.raises(ValueError, match=r"A,B"):
        value_dependence_demo(w, _zz(), bad_b, _xx())


def test_value_dependence_requires_incompatible_partners():
    w = as_density(product_basis_state(0, 0))
    with pytest.raises(ValueError, match="commute"):
        value_dependence_demo(w, _zz(), _zi(), _zi())
