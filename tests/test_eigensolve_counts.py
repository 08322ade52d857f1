"""Eigensolve and validation counts, gated exactly where they are deterministic.

The ``eigensolves`` fixture (``conftest.py``) records every call of the
eigensolver kernel ``qcontext.linalg._eigh``; ``linalg.counts()`` reads
the library's running totals of solves, sweeps and calls of
``as_operator`` and ``hermiticity_defect``.  Counts depend only on the
code path, never on timing.
"""

import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest

from qcontext import acceptance, linalg
from qcontext.contexts import context, luders_nonselective, observable
from qcontext.correlations import (
    Direction,
    chsh,
    chsh_optimal_settings,
    conditional_remote_state,
    joint_probabilities,
)
from qcontext.sampling import random_nondegenerate_observable
from qcontext.states import PureState, entangling_evolution_demo, make_singlet


def test_suite_makes_281_eigensolves_in_156_sweeps(eigensolves):
    # 4,400 before derived states skipped validation and chsh built each
    # direction once; 2,481 before each Direction kept its projectors;
    # 1,951 before spin projectors and sampled observables were written
    # down from their closed forms instead of solved; 1,273 (919 at
    # n <= 2, 998 sweeps) before the 2x2 trace distance was written down
    # (692 solves) and criterion 6 built its A^2 probe from known
    # eigenpairs (100 solves at n = 2-4); 481 (193 at n <= 2, 697 sweeps)
    # before random_unitary drew its basis by Gram-Schmidt instead of
    # solving a random generator (200 solves at n = 2-4, criteria 5-6).
    # The sweeps were 145 cyclic Jacobi sweeps while n <= 7 solved that
    # way; 156 QL iterations since.
    before = linalg.counts()
    results = acceptance.run_suite()
    after = linalg.counts()
    assert all(r.passed for r in results)
    assert len(eigensolves) == after["eigensolves"] - before["eigensolves"] == 281
    assert sum(n <= 2 for n in eigensolves) == 125
    assert after["sweeps"] - before["sweeps"] == 156


def test_a_seeded_d64_solve_takes_140_ql_iterations(eigensolves):
    # From n = 8 the sweeps count QL iterations: 140 here, 2.2 an
    # eigenvalue (the same host gives 140 under numpy's x86-64 baseline
    # tier and OPENBLAS_CORETYPE=Prescott).  Round-robin Jacobi took 7
    # sweeps of 63 rounds on inputs like this.
    rng = np.random.default_rng(64)
    g = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    h = 0.5 * (g + g.conj().T)
    swept = linalg.counts()["sweeps"]
    linalg.jacobi_eigh(h)
    assert linalg.counts()["sweeps"] - swept == 140
    assert eigensolves == [64]


def test_suite_forms_33_commutator_defects(monkeypatch):
    # 438 while every Lüders result re-checked [W_A, A]; the 33 left are
    # ValueAssignmentProblem's context pairs, 18 for the square and 15
    # for it without one context.
    calls = []
    original = linalg._commutator_defect

    def counting(a, b):
        calls.append(1)
        return original(a, b)

    monkeypatch.setattr(linalg, "_commutator_defect", counting)
    acceptance.run_suite()
    assert len(calls) == 33


def test_dynamics_criterion_makes_24_eigensolves(eigensolves):
    # Two demos at 10 steps: one generator and 11 Schmidt embeddings each
    # (44 when every point decomposed the generator again).
    acceptance.criterion_dynamics()
    assert len(eigensolves) == 24


def test_evolution_demo_decomposes_the_generator_once(eigensolves):
    entangling_evolution_demo(1.0, 0.5, steps=100)
    assert len(eigensolves) == 102


def test_suite_validates_26_operators_and_26_hermiticity_defects():
    # 5,988 and 3,344 before library-derived arrays skipped re-validation:
    # trace_distance checked both operands and then its own symmetrised
    # difference again, and every tensor, partial trace, commutator,
    # expectation and rank-one vector re-checked arrays the library built.
    # 253 operators before observable() stopped converting its matrix a
    # second time, 148 before criterion 6 stopped passing its 100 A^2
    # probes through observable(), 48 before schmidt() stopped passing its
    # 22 embeddings, Hermitian by construction, through jacobi_eigh().
    # What is left: observable() (five named ones), the observable square
    # and two public states, each one operator and one Hermiticity check.
    before = linalg.counts()
    acceptance.run_suite()
    after = linalg.counts()
    assert after["operator_checks"] - before["operator_checks"] == 26
    assert after["hermiticity_checks"] - before["hermiticity_checks"] == 26


def test_validation_count_follows_every_check():
    before = linalg.counts()
    linalg.trace_distance(linalg.SIGMA_X, linalg.SIGMA_Z)
    linalg.tensor(linalg.SIGMA_X, linalg.SIGMA_Z)
    after = linalg.counts()
    # trace_distance checks both operands and not its symmetrised
    # difference; tensor converts both operands
    assert {key: after[key] - before[key] for key in after} == {
        "eigensolves": 0, "sweeps": 0, "operator_checks": 4, "hermiticity_checks": 2,
    }


@pytest.fixture
def kernel_inputs(monkeypatch):
    """Every array handed to the eigensolver kernel while the test runs."""
    arrays = []
    original = linalg._eigh

    def recording(a, *args, **kwargs):
        arrays.append(a.copy())
        return original(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "_eigh", recording)
    return arrays


def test_every_kernel_input_of_a_suite_pass_is_exactly_hermitian(kernel_inputs):
    # The kernel checks nothing and solves its input as given; validated
    # input is symmetrised in jacobi_eigh and the library's own callers
    # pass 0.5 * (m + m^dagger), so skipping the check changes no bit.
    acceptance.run_suite()
    assert len(kernel_inputs) == 281
    assert all(np.array_equal(a, a.conj().T) for a in kernel_inputs)


def test_a_scale_pass_solves_exactly_hermitian_inputs_and_few_large_ones(
    kernel_inputs, monkeypatch
):
    # The benchmark's scale pass (seed 1).  Its traced counters see only
    # the public jacobi_eigh, so the d17-64 gate is held at the kernel here.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    workloads = importlib.import_module("perfbench.workloads")
    result = workloads.Scale("", 1, "").run_pass()
    assert result.failures == []
    assert kernel_inputs and all(np.array_equal(a, a.conj().T) for a in kernel_inputs)
    assert sum(len(a) > 16 for a in kernel_inputs) <= 4


@pytest.fixture
def tensor_calls(monkeypatch):
    """Count of Kronecker products formed while the test runs.

    ``tensor`` validates and calls ``_tensor``; library code that built
    its operands calls ``_tensor`` directly.  The counter wraps it.
    """
    calls = []
    original = linalg._tensor

    def counting(a, b):
        calls.append(1)
        return original(a, b)

    monkeypatch.setattr(linalg, "_tensor", counting)
    return calls


def test_chsh_builds_each_direction_once(eigensolves, tensor_calls):
    singlet = make_singlet()
    settings = chsh_optimal_settings()
    chsh(singlet, *settings)
    assert eigensolves == [] and tensor_calls == []
    cached = [d.outcome_projectors for d in settings]
    chsh(singlet, *settings)
    assert all(d.outcome_projectors is p for d, p in zip(settings, cached))


def _off_the_x_z_plane():
    """The direction at polar angle 0.3 and azimuth 0.7: y != 0."""
    return Direction.normalized(np.sin(0.3) * np.cos(0.7), np.sin(0.3) * np.sin(0.7), np.cos(0.3))


def test_correlation_calls_make_no_eigensolve(eigensolves, tensor_calls):
    singlet = make_singlet()
    a = _off_the_x_z_plane()
    _, a2, b, b2 = chsh_optimal_settings()
    for _ in range(101):
        chsh(singlet, a, a2, b, b2)
    joint_probabilities(singlet, a, b)
    joint_probabilities(singlet, a, _off_the_x_z_plane())
    conditional_remote_state(singlet, a, -1)
    assert eigensolves == [] and tensor_calls == []


def test_sampled_observable_makes_no_eigensolve(eigensolves):
    # random_unitary orthogonalises a Gaussian draw (it solved a random
    # generator before); the observable's spectrum is built from the
    # construction's eigenpairs
    for dim in (2, 3, 4, 64):
        obs, values, _ = random_nondegenerate_observable(dim, np.random.default_rng(dim))
        assert eigensolves == []
        assert obs.spectrum.eigenvalues == tuple(values.tolist())


def test_cached_projectors_are_read_only():
    projectors = Direction(0.0, 0.6, 0.8).outcome_projectors
    assert projectors.shape == (2, 2, 2)
    for p in projectors:
        with pytest.raises(ValueError, match="read-only"):
            p[0, 0] = 0.0


def test_the_cache_is_not_a_field():
    a = Direction(0.0, 0.6, 0.8)
    b = Direction(0.0, 0.6, 0.8)
    a.outcome_projectors
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert dataclasses.asdict(a) == {"x": 0.0, "y": 0.6, "z": 0.8}
    assert "outcome_projectors" in vars(a) and "outcome_projectors" not in vars(b)


def test_eigensolve_count_follows_every_call(eigensolves):
    before = linalg.counts()["eigensolves"]
    acceptance.criterion_dynamics()
    assert linalg.counts()["eigensolves"] - before == len(eigensolves) == 24


def test_luders_on_a_prebuilt_observable_solves_nothing(eigensolves):
    obs = observable(np.diag([1.0, 2.0, 2.0]).astype(complex))
    eigensolves.clear()
    psi = PureState(np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0))
    luders_nonselective(context(psi, obs))
    assert eigensolves == []
