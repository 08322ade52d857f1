"""Boundary errors of the public entry points, one row per raise.

Each row names a call that must fail, the exception type it raises and a
fragment of its message.  The rows reach raises that no other test
reaches, or only a hypothesis draw does; ``coverage_ratchet.py`` keeps
them reached.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import qcontext.linalg as la
from qcontext import cli, io
from qcontext.contexts import (
    boolean_lattice_check,
    context,
    observable,
    statistical_equivalence,
)
from qcontext.contextuality import (
    ValueAssignmentProblem,
    mermin_peres_square,
    search_noncontextual_assignment,
    value_dependence_demo,
)
from qcontext.correlations import (
    Direction,
    conditional_remote_state,
    joint_probabilities,
    outcome_dependence,
)
from qcontext.mub import MeasurementStatistics, measure_statistics, reconstruct
from qcontext.states import (
    PureState,
    as_density,
    coupled_spins_hamiltonian,
    entangling_evolution_demo,
    is_product,
    make_singlet,
    product_basis_state,
    schmidt,
    total_spin_squared,
)

INPUTS = Path(__file__).parent / "golden" / "inputs"
Z = Direction(0.0, 0.0, 1.0)
E0 = np.array([1.0, 0.0], dtype=complex)
E1 = np.array([0.0, 1.0], dtype=complex)
# Finite, but H - H^dagger overflows: its defect counts as inf.
HUGE_ANTI_HERMITIAN = [[0.0, 1e308], [-1e308, 0.0]]


def _problem(observables=(la.SIGMA_Z,), labels=("Z",), contexts=(), signs=()):
    return ValueAssignmentProblem(
        observables=observables, labels=labels, contexts=contexts, signs=signs
    )


def _qubit_statistics(tables=((1.0, 0.0), (0.5, 0.5), (0.5, 0.5)), dim=2, **provenance):
    return MeasurementStatistics(dim=dim, tables=tables, **provenance)


BOUNDARIES = {
    # contexts
    "value_dependence_unequal_dimensions": (
        lambda: value_dependence_demo(
            np.eye(2) / 2, observable(la.SIGMA_Z), observable(la.SIGMA_Z),
            observable(la.tensor(la.SIGMA_X, la.SIGMA_X)),
        ),
        la.DimensionError, "equal dimensions",
    ),
    "equivalence_probe_dimension": (
        lambda: statistical_equivalence(
            context(E0, observable(la.SIGMA_Z)),
            probe=observable(la.tensor(la.SIGMA_Z, la.SIGMA_Z)),
        ),
        la.DimensionError, "probe dimension 4",
    ),
    "lattice_nine_levels": (
        lambda: boolean_lattice_check(observable(np.diag(np.arange(9.0)))),
        la.DimensionError, "at most 8 distinct eigenvalues, observable has 9",
    ),
    "eigenbasis_degenerate": (
        lambda: observable(np.eye(2), label="I").eigenbasis(),
        ValueError, "'I' is degenerate",
    ),
    "observable_hermiticity_defect_overflow": (
        lambda: observable(HUGE_ANTI_HERMITIAN),
        ValueError, "not Hermitian: max |H - H^dagger| entry = inf",
    ),
    # contextuality
    "problem_label_count": (
        lambda: _problem(labels=("Z", "X")), ValueError, "1 observables but 2 labels",
    ),
    "problem_sign_count": (
        lambda: _problem(contexts=((0,),)), ValueError, "1 contexts but 0 signs",
    ),
    "problem_sign_value": (
        lambda: _problem(contexts=((0,),), signs=(2,)),
        ValueError, "signs must be a list of integers +-1, got (2,)",
    ),
    "problem_sign_bool": (
        lambda: _problem(contexts=((0,),), signs=(True,)),
        ValueError, "signs must be a list of integers +-1, got (True,)",
    ),
    "problem_index_fractional": (
        lambda: _problem(contexts=((0.5,),), signs=(1,)),
        ValueError, "contexts must be a list of lists of integers, got ((0.5,),)",
    ),
    "problem_index_bool": (
        lambda: _problem(contexts=((True,),), signs=(1,)),
        ValueError, "contexts must be a list of lists of integers, got ((True,),)",
    ),
    "problem_contexts_flat": (
        lambda: _problem(contexts=(5,), signs=(1,)),
        ValueError, "contexts must be a list of lists of integers, got (5,)",
    ),
    "problem_observables_not_a_sequence": (
        lambda: _problem(observables=5), ValueError, "observables must be a list of matrices",
    ),
    "problem_label_not_a_string": (
        lambda: _problem(labels=(1,)), ValueError, "labels must be a list of strings, got (1,)",
    ),
    "problem_unknown_observable": (
        lambda: _problem(contexts=((0, 5),), signs=(1,)),
        ValueError, "references unknown observables",
    ),
    "problem_dimensions": (
        lambda: _problem(
            observables=(la.SIGMA_Z, la.tensor(la.SIGMA_Z, la.SIGMA_Z)), labels=("Z", "ZZ")
        ),
        la.DimensionError, "different spaces",
    ),
    "problem_without_missing_context": (
        lambda: mermin_peres_square().without_context(99),
        ValueError, "no context with index 99",
    ),
    "search_above_cap": (
        lambda: search_noncontextual_assignment(
            _problem(observables=(np.eye(1),) * 21, labels=tuple(map(str, range(21))))
        ),
        ValueError, "2^21 exceeds the 2^20 cap",
    ),
    # correlations
    "direction_zero": (
        lambda: Direction.normalized(0.0, 0.0, 0.0), ValueError, "zero vector",
    ),
    "direction_huge_integer": (
        lambda: Direction(10**400, 0, 0), ValueError, "direction components must be finite",
    ),
    "direction_normalized_string": (
        lambda: Direction.normalized("1", 0, 0),
        ValueError, "direction components must be finite numbers, got ('1', 0, 0)",
    ),
    "direction_polar_infinite": (
        lambda: Direction.polar(float("inf")),
        ValueError, "polar angle must be a finite real number, got inf",
    ),
    "direction_polar_string": (
        lambda: Direction.polar("a"), ValueError, "polar angle must be a finite real number, got 'a'",
    ),
    "direction_polar_bool": (
        lambda: Direction.polar(True), ValueError, "polar angle must be a finite real number, got True",
    ),
    "remote_state_outcome": (
        lambda: conditional_remote_state(make_singlet(), Z, 0),
        ValueError, "outcome must be +1 or -1, got 0",
    ),
    "remote_state_dimension": (
        lambda: conditional_remote_state(PureState(E0), Z, 1),
        la.DimensionError, "needs dimension 4, got 2",
    ),
    "outcome_dependence_impossible_condition": (
        lambda: outcome_dependence(product_basis_state(0, 0), Direction(0.0, 0.0, -1.0), Z),
        ValueError, "conditional is undefined",
    ),
    "pair_state_dimension": (
        lambda: joint_probabilities(PureState(E0), Z, Z),
        la.DimensionError, "pair correlations need dimension 4, got 2",
    ),
    # cli and io
    "direction_not_a_triple": (
        lambda: cli.parse_direction("1,2"), cli.InputError, "must be an axis name",
    ),
    "direction_non_numeric": (
        lambda: cli.parse_direction("1,a,0"), cli.InputError, "has non-numeric components",
    ),
    "direction_bad_angle": (
        lambda: cli.parse_direction("deg:x"), cli.InputError, "bad angle in 'deg:x'",
    ),
    "product_state_bad": (
        lambda: cli.parse_state("product:a,b"), cli.InputError, "bad product state",
    ),
    "state_file_not_json": (
        lambda: cli.parse_state(__file__), cli.InputError, "is not valid JSON",
    ),
    "vector_size_mismatch": (
        lambda: io.load_state_json({"dim": 2, "re": [1.0, 0.0], "im": [0.0]}),
        ValueError, "dimension 2 needs 2 entries, got 2 re / 1 im",
    ),
    "matrix_size_mismatch": (
        lambda: io.matrix_from_json({"dim": 2, "re": [1.0], "im": [0.0]}),
        ValueError, "dimension 2 needs 4 entries, got 1 re / 1 im",
    ),
    "state_file_entry_count": (
        lambda: io.load_state_json({"dim": 2, "re": [1.0, 0.0, 0.0], "im": [0.0, 0.0, 0.0]}),
        ValueError, "must carry 2 (vector) or 4 (matrix) entries, got 3",
    ),
    # linalg
    "partial_trace_keep": (
        lambda: la.partial_trace(np.eye(4), (2, 2), keep=3), ValueError, "keep must be 1 or 2",
    ),
    "partial_trace_keep_bool": (
        lambda: la.partial_trace(np.eye(4), (2, 2), True), ValueError, "keep must be 1 or 2, got True",
    ),
    "partial_trace_keep_float": (
        lambda: la.partial_trace(np.eye(4), (2, 2), 1.0), ValueError, "keep must be 1 or 2, got 1.0",
    ),
    "partial_trace_overflow": (
        lambda: la.partial_trace(1e308 * np.eye(4), (2, 2), 1),
        ValueError, "partial trace leaves the float range",
    ),
    "partial_trace_dims_not_a_sequence": (
        lambda: la.partial_trace(np.eye(5), 5, 1), la.DimensionError, "dims must be a pair",
    ),
    "partial_trace_dims_float": (
        lambda: la.partial_trace(np.eye(4), (2.0, 2), 1),
        la.DimensionError, "dims must be a pair of integers, got (2.0, 2)",
    ),
    "commutator_dimensions": (
        lambda: la.commutator(np.eye(2), np.eye(3)), la.DimensionError, "got 2 and 3",
    ),
    "commutator_overflow": (
        lambda: la.commutator(1e200 * la.SIGMA_X, 1e200 * la.SIGMA_Y),
        ValueError, "commutator leaves the float range",
    ),
    "commutes_overflow": (
        lambda: la.commutes(1e200 * la.SIGMA_X, 1e200 * la.SIGMA_Y),
        ValueError, "commutator leaves the float range",
    ),
    "problem_observable_square_overflow": (
        lambda: _problem(observables=(1e200 * la.SIGMA_X,), labels=("a",), contexts=((0,),), signs=(1,)),
        ValueError, "observable square leaves the float range",
    ),
    "value_dependence_commutator_overflow": (
        lambda: value_dependence_demo(
            make_singlet(), observable(la.tensor(la.SIGMA_Z, np.eye(2))),
            observable(1e200 * la.tensor(np.eye(2), la.SIGMA_X)),
            observable(1e200 * la.tensor(np.eye(2), la.SIGMA_Z)),
        ),
        ValueError, "commutator leaves the float range",
    ),
    "jacobi_eigh_hermiticity_defect_overflow": (
        lambda: la.jacobi_eigh(HUGE_ANTI_HERMITIAN),
        ValueError, "not Hermitian: max |H - H^dagger| entry = inf",
    ),
    "spectral_decompose_hermiticity_defect_overflow": (
        lambda: la.spectral_decompose(HUGE_ANTI_HERMITIAN),
        ValueError, "not Hermitian: max |H - H^dagger| entry = inf",
    ),
    "trace_distance_dimensions": (
        lambda: la.trace_distance(np.eye(2) / 2, np.eye(3) / 3),
        la.DimensionError, "got 2 and 3",
    ),
    "tensor_overflow": (
        lambda: la.tensor(1e200 * np.eye(2), 1e200 * np.eye(2)),
        ValueError, "tensor product leaves the float range",
    ),
    "trace_distance_overflow": (
        lambda: la.trace_distance(np.diag([1e308, -1e308]), np.diag([-1e308, 1e308])),
        ValueError, "trace distance leaves the float range",
    ),
    "evolution_operator_overflow": (
        lambda: la.evolution_operator(2 * la.SIGMA_Z, 1e308),
        ValueError, "exp(-i H t) leaves the float range",
    ),
    "evolution_operator_time_not_finite": (
        lambda: la.evolution_operator(la.SIGMA_Z, float("nan")),
        ValueError, "evolution time must be finite, got nan",
    ),
    "evolution_operator_time_huge_integer": (
        lambda: la.evolution_operator(la.SIGMA_Z, 10**400),
        ValueError, "evolution time must be finite, got 1000",
    ),
    "require_hermitian_huge_integer_entry": (
        lambda: la.require_hermitian([[10**400]]), ValueError, "matrix entries must be finite",
    ),
    # mub
    "statistics_float_dim": (
        lambda: _qubit_statistics(dim=2.0), ValueError, "dim must be a positive integer, got 2.0",
    ),
    "statistics_outside_unit_interval": (
        lambda: _qubit_statistics(tables=((1.5, -0.5),)), ValueError, "outside [0, 1]",
    ),
    "statistics_entry_not_a_number": (
        lambda: _qubit_statistics(tables=((0.5, "a"),)),
        ValueError, "table 0 is not a sequence of real numbers",
    ),
    "statistics_row_not_a_sequence": (
        lambda: _qubit_statistics(tables=(5,)),
        ValueError, "table 0 is not a sequence of real numbers",
    ),
    "statistics_bool_entry": (
        lambda: _qubit_statistics(tables=((True, False),) * 3),
        ValueError, "table 0 is not a sequence of real numbers",
    ),
    "statistics_entry_beyond_float_range": (
        lambda: _qubit_statistics(tables=((10**400, 0),) * 3),
        ValueError, "table 0 has an entry beyond the float range",
    ),
    "statistics_fractional_samples": (
        lambda: _qubit_statistics(samples=2.5, seed="x"),
        ValueError, "samples must be an integer between 1 and",
    ),
    "statistics_string_seed": (
        lambda: _qubit_statistics(samples=10, seed="x"),
        ValueError, "seed must be a non-negative integer or None, got 'x'",
    ),
    "statistics_tables_not_a_sequence": (
        lambda: _qubit_statistics(tables=5), ValueError, "tables must be a sequence of rows",
    ),
    "measure_statistics_dimension": (
        lambda: measure_statistics(np.eye(3) / 3), la.DimensionError, "qubit state, got dimension 3",
    ),
    "measure_statistics_fractional_samples": (
        lambda: measure_statistics(E0, samples=2.5),
        ValueError, "samples must be an integer between 1 and",
    ),
    "measure_statistics_bool_samples": (
        lambda: measure_statistics(E0, samples=True),
        ValueError, "samples must be an integer between 1 and",
    ),
    "measure_statistics_fractional_seed": (
        lambda: measure_statistics(E0, samples=10, seed=1.5),
        ValueError, "seed must be a non-negative integer or None, got 1.5",
    ),
    "measure_statistics_bool_seed": (
        lambda: measure_statistics(E0, samples=10, seed=True),
        ValueError, "seed must be a non-negative integer or None, got True",
    ),
    "measure_statistics_negative_seed": (
        lambda: measure_statistics(E0, samples=10, seed=-1),
        ValueError, "seed must be a non-negative integer or None, got -1",
    ),
    "reconstruct_dimension": (
        lambda: reconstruct(_qubit_statistics(tables=((1.0, 0.0, 0.0),), dim=3)),
        la.DimensionError, "qubit statistics, got dimension 3",
    ),
    "reconstruct_table_count": (
        lambda: reconstruct(_qubit_statistics(tables=((1.0, 0.0),) * 2)),
        la.DimensionError, "2 tables for 3 bases",
    ),
    # states
    "pure_state_above_max_dim": (
        lambda: PureState(np.ones(65) / np.sqrt(65.0)), la.DimensionError, "dimension 65",
    ),
    "total_spin_dimension": (
        lambda: total_spin_squared(np.eye(2) / 2), la.DimensionError, "dimension 4, got 2",
    ),
    "evolution_demo_no_steps": (
        lambda: entangling_evolution_demo(1.0, 0.5, steps=0),
        ValueError, "steps must be a positive integer, got 0",
    ),
    "evolution_demo_fractional_steps": (
        lambda: entangling_evolution_demo(1.0, 0.5, steps=2.5),
        ValueError, "steps must be a positive integer, got 2.5",
    ),
    "coupled_spins_infinite_coupling": (
        lambda: coupled_spins_hamiltonian(float("inf")),
        ValueError, "coupling must be a finite real number, got inf",
    ),
    "evolution_demo_infinite_coupling": (
        lambda: entangling_evolution_demo(float("inf"), 1.0),
        ValueError, "coupling must be a finite real number, got inf",
    ),
    "evolution_demo_string_coupling": (
        lambda: entangling_evolution_demo("1", 1.0),
        ValueError, "coupling must be a finite real number, got '1'",
    ),
    "evolution_demo_bool_coupling": (
        lambda: entangling_evolution_demo(True, 1.0),
        ValueError, "coupling must be a finite real number, got True",
    ),
    "evolution_demo_infinite_time": (
        lambda: entangling_evolution_demo(1.0, float("inf")),
        ValueError, "final time must be a finite real number, got inf",
    ),
    "density_trace_overflow": (
        lambda: as_density(1e308 * np.eye(2)),
        ValueError, "density operator trace leaves the float range",
    ),
    "evolution_demo_huge_time": (
        lambda: entangling_evolution_demo(1.0, 1e308),
        ValueError, "exp(-i H t) leaves the float range",
    ),
    "evolution_demo_huge_coupling_and_time": (
        lambda: entangling_evolution_demo(1e308, 1e308),
        ValueError, "exp(-i H t) leaves the float range",
    ),
    "product_basis_state_fractional_index": (
        lambda: product_basis_state(0.5, 0),
        ValueError, "basis state needs integer dim and index, got 2 and 0.5",
    ),
    "product_basis_state_bool_index": (
        lambda: product_basis_state(True, 0),
        ValueError, "basis state needs integer dim and index, got 2 and True",
    ),
    "schmidt_dims_one_entry": (
        lambda: schmidt(make_singlet(), (2,)), la.DimensionError, "dims must be a pair",
    ),
    "is_product_dims_one_entry": (
        lambda: is_product(make_singlet(), (2,)), la.DimensionError, "dims must be a pair",
    ),
    "schmidt_dims_not_a_sequence": (
        lambda: schmidt(make_singlet(), 4), la.DimensionError, "dims must be a pair",
    ),
    "schmidt_dims_fractional": (
        lambda: schmidt(make_singlet(), (2.9, 2)),
        la.DimensionError, "dims must be a pair of integers, got (2.9, 2)",
    ),
    "schmidt_dims_bool": (
        lambda: schmidt(make_singlet(), (True, 4)),
        la.DimensionError, "dims must be a pair of integers, got (True, 4)",
    ),
    "schmidt_dims_not_positive": (
        lambda: schmidt(make_singlet(), (-2, -2)), la.DimensionError, "dims must be positive",
    ),
    "schmidt_dims_product": (
        lambda: schmidt(make_singlet(), (2, 3)),
        la.DimensionError, "dims 2x3 require dimension 6, got 4",
    ),
}


@pytest.mark.parametrize("name", sorted(BOUNDARIES))
def test_boundary_raises(name):
    call, error, fragment = BOUNDARIES[name]
    with pytest.raises(error) as caught:
        call()
    assert fragment in str(caught.value)


# Calls at the edge of the float range that must return, with no warning.
RETURNS = {
    # A degenerate level's eigenvalues sum past the float range.
    "spectral_decompose_degenerate_level_near_float_max": (
        lambda: la.spectral_decompose(1e308 * np.eye(2)).eigenvalues, (1e308,),
    ),
    "observable_degenerate_levels_near_float_max": (
        lambda: observable(1e308 * la.tensor(la.SIGMA_Z, la.SIGMA_Z)).spectrum.eigenvalues,
        (-1e308, 1e308),
    ),
}


@pytest.mark.parametrize("name", sorted(RETURNS))
def test_boundary_returns(name):
    call, expected = RETURNS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert call() == expected


def test_ql_kernel_gives_up_after_its_last_allowed_iteration(monkeypatch):
    # The largest dimension QL solves; from n = 8 LAPACK does.
    monkeypatch.setattr(la, "_QL_MAX_ITERATIONS", 1)
    rng = np.random.default_rng(3)
    g = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    before = la.counts()["sweeps"]
    with pytest.raises(
        la.ConvergenceError,
        match=r"QL diagonalisation of a dimension-7 matrix stopped after 1 iterations on "
        r"eigenvalue 0 with subdiagonal entry \S+e-01, above the threshold 5\.157e-13",
    ):
        la.jacobi_eigh(0.5 * (g + g.conj().T))
    assert la.counts()["sweeps"] - before == 1


def test_lapack_failure_is_a_convergence_error(monkeypatch):
    def fails(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fails)
    before = la.counts()
    with pytest.raises(
        la.ConvergenceError,
        match=r"^LAPACK diagonalisation of a dimension-8 matrix failed: "
        r"Eigenvalues did not converge$",
    ):
        la.jacobi_eigh(np.diag(np.arange(8.0)))
    after = la.counts()
    assert (after["eigensolves"] - before["eigensolves"], after["sweeps"] - before["sweeps"]) == (1, 0)


def test_as_density_takes_a_bare_vector():
    assert np.array_equal(as_density(E1).matrix, np.diag([0.0, 1.0]).astype(complex))


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["schmidt", "--state", str(INPUTS / "rho2.json")], "schmidt needs a pure state vector"),
        (["schmidt", "--state", str(INPUTS / "pure8.json")], "needs an explicit --dims"),
        (["schmidt", "--state", "singlet", "--dims", "2x2"], "bad dims '2x2'"),
        (["remote-state", "--state", "singlet", "--outcome", "0"], "outcome must be +1 or -1"),
        (["mub-tomography"], "needs --state or --stats"),
        (
            ["value-dependence", "--state", "plus", "--observable", "sigma_z"],
            "exactly three --observable flags",
        ),
        (["evolve", "--coupling", "abc"], "expected a number of magnitude at most"),
    ],
)
def test_cli_bad_input_exits_two(capsys, argv, fragment):
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert fragment in err


@pytest.mark.parametrize(
    "argv, check",
    [
        (["evolve", "--coupling", "0"], "free_second_coefficient"),
        (
            ["equivalence", "--state", "plus", "--observable", "sigma_z", "--probe", "sigma_z"],
            "equivalence_delta",
        ),
    ],
)
def test_cli_optional_check_runs(capsys, argv, check):
    code, out, _ = _run(capsys, argv)
    report = json.loads(out)
    assert code == 0 and report["passed"] is True
    assert check in json.dumps(report["checks"])
