"""Mutually unbiased bases and state reconstruction from their tables."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qcontext.linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, DimensionError, trace_distance
from qcontext.mub import (
    QUBIT_BASES,
    MeasurementStatistics,
    measure_statistics,
    reconstruct,
)
from qcontext.sampling import random_density, random_pure_state
from qcontext.states import PureState, as_density


def test_qubit_set_is_complete_and_unbiased():
    # Three bases, d + 1 for a qubit, every cross overlap |<e|f>|^2 = 1/2.
    assert len(QUBIT_BASES) == 3
    for b1 in range(3):
        for b2 in range(b1 + 1, 3):
            for v in QUBIT_BASES[b1]:
                for w in QUBIT_BASES[b2]:
                    overlap = abs(np.vdot(v, w)) ** 2
                    assert abs(overlap - 0.5) <= 1e-15


def test_each_basis_is_orthonormal():
    for basis in QUBIT_BASES:
        assert len(basis) == 2
        gram = np.array([[np.vdot(v, w) for w in basis] for v in basis])
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-15


def test_qubit_basis_vectors_are_read_only():
    for basis in QUBIT_BASES:
        for v in basis:
            with pytest.raises(ValueError, match="read-only"):
                v[0] = 0.0


def test_ground_state_tables_frozen():
    tables = measure_statistics(PureState(np.array([1.0, 0.0]))).tables
    assert tables[0] == pytest.approx((1.0, 0.0), abs=1e-12)
    assert tables[1] == pytest.approx((0.5, 0.5), abs=1e-12)
    assert tables[2] == pytest.approx((0.5, 0.5), abs=1e-12)


def test_statistics_rows_validated():
    with pytest.raises(ValueError):
        MeasurementStatistics(dim=2, tables=((0.7, 0.7), (0.5, 0.5), (0.5, 0.5)))
    with pytest.raises(DimensionError):
        MeasurementStatistics(dim=2, tables=((1.0, 0.0, 0.0),))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_statistics_rows_must_be_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        MeasurementStatistics(dim=2, tables=((1.0, 0.0), (bad, 0.5), (0.5, 0.5)))


def test_exact_round_trip_on_random_states():
    rng = np.random.default_rng(91)
    for _ in range(8):
        rho = random_density(2, rng)
        stats = measure_statistics(rho)
        rebuilt = reconstruct(stats)
        assert trace_distance(rho.matrix, rebuilt.matrix) < 1e-10


def test_exact_round_trip_on_pure_states():
    rng = np.random.default_rng(92)
    for _ in range(8):
        rho = as_density(random_pure_state(2, rng))
        stats = measure_statistics(rho)
        rebuilt = reconstruct(stats)
        assert trace_distance(rho.matrix, rebuilt.matrix) < 1e-10
        assert rebuilt.purity() == pytest.approx(1.0, abs=1e-9)


def test_sampled_round_trip_within_statistical_tolerance():
    rng = np.random.default_rng(93)
    rho = random_density(2, rng)
    stats = measure_statistics(rho, samples=100_000, seed=17)
    rebuilt = reconstruct(stats)
    assert trace_distance(rho.matrix, rebuilt.matrix) < 0.05


def test_sampling_is_seed_deterministic():
    rho = as_density(PureState(np.array([1.0, 1.0]) / np.sqrt(2.0)))
    s1 = measure_statistics(rho, samples=5000, seed=5)
    s2 = measure_statistics(rho, samples=5000, seed=5)
    assert s1.tables == s2.tables
    s3 = measure_statistics(rho, samples=5000, seed=6)
    assert s1.tables != s3.tables


def test_sampled_tables_are_frequencies():
    rho = as_density(PureState(np.array([1.0, 1.0]) / np.sqrt(2.0)))
    stats = measure_statistics(rho, samples=1000, seed=2)
    assert stats.samples == 1000
    for row in stats.tables:
        assert sum(row) == pytest.approx(1.0, abs=1e-12)
        for p in row:
            assert (p * 1000) == pytest.approx(round(p * 1000), abs=1e-9)


def test_reconstruction_clips_to_physical_state():
    # tables that no density operator reproduces exactly; the rebuilt
    # state must still be a valid state, just closest in the clipped sense
    stats = MeasurementStatistics(
        dim=2, tables=((1.0, 0.0), (1.0, 0.0), (1.0, 0.0))
    )
    rebuilt = reconstruct(stats)
    assert float(np.trace(rebuilt.matrix).real) == pytest.approx(1.0, abs=1e-12)
    assert np.min(np.linalg.eigvalsh(rebuilt.matrix)) > -1e-12


def test_measure_statistics_requires_matching_dimension():
    rng = np.random.default_rng(94)
    rho = random_density(3, rng)
    with pytest.raises(DimensionError):
        measure_statistics(rho)


def test_measure_statistics_rejects_nonpositive_samples():
    rho = as_density(PureState(np.array([1.0, 0.0])))
    with pytest.raises(ValueError):
        measure_statistics(rho, samples=0)


def test_reconstruct_matches_bloch_formula():
    # independent oracle: rho = (I + r . sigma) / 2 with Bloch components
    # read straight off the three tables
    rng = np.random.default_rng(95)
    rho = random_density(2, rng)
    stats = measure_statistics(rho)
    rz = stats.tables[0][0] - stats.tables[0][1]
    rx = stats.tables[1][0] - stats.tables[1][1]
    ry = stats.tables[2][0] - stats.tables[2][1]
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    bloch = 0.5 * (np.eye(2) + rx * sx + ry * sy + rz * sz)
    rebuilt = reconstruct(stats)
    assert np.max(np.abs(rebuilt.matrix - bloch)) < 1e-10


def test_bases_are_not_taken_positionally():
    # A stale call that still passes a basis set fails in Python, rather
    # than reading the set as ``samples``.
    rho = as_density(PureState(np.array([1.0, 0.0])))
    with pytest.raises(TypeError):
        measure_statistics(rho, QUBIT_BASES)


_PLUS = as_density(PureState(np.array([1.0, 1.0]) / np.sqrt(2.0)))


@st.composite
def _qubit_states(draw):
    """A qubit state ``(I + r . sigma) / 2``, ``|r| <= 1``; pure ones included."""
    r = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)])
    length = float(np.linalg.norm(r))
    if length > 1.0 or (length > 0.0 and draw(st.booleans())):
        r = r / length
    return as_density(0.5 * (np.eye(2) + r[0] * SIGMA_X + r[1] * SIGMA_Y + r[2] * SIGMA_Z))


@settings(max_examples=200, deadline=None)
@given(
    rho=_qubit_states(),
    samples=st.one_of(st.none(), st.integers(1, 10**6)),
    seed=st.one_of(st.none(), st.integers(0, 2**64)),
)
@example(rho=_PLUS, samples=1, seed=0)
@example(rho=_PLUS, samples=None, seed=None)
def test_every_returned_record_passes_the_validating_constructor(rho, samples, seed):
    # measure_statistics builds its records unvalidated; each must be one
    # the validating constructor accepts and rebuilds unchanged.
    record = measure_statistics(rho, samples=samples, seed=seed)
    fields = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}
    rebuilt = MeasurementStatistics(**fields)
    assert rebuilt == record and repr(rebuilt) == repr(record)
    assert (record.samples, record.seed) == ((None, None) if samples is None else (samples, seed))
