"""The contract of the two file-borne records, ``MeasurementStatistics`` and
``ValueAssignmentProblem``.

Their constructors hold every field rule, and the ``io`` readers only turn
JSON into arguments, so either entry must, for any payload, return a record
or raise ``ValueError`` (``DimensionError`` included): no other exception
and no ``RuntimeWarning``.  A record that is accepted must come back equal
through its ``*_to_json`` writer, a JSON text and its ``*_from_json`` reader.
"""

import json
import math
import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

import qcontext.linalg as la
from qcontext import io
from qcontext.contextuality import ValueAssignmentProblem
from qcontext.mub import MeasurementStatistics

_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=3)
    | st.integers(min_value=2**63 - 2, max_value=2**64)
    | st.integers(min_value=10**300, max_value=10**400)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=3)
)
# Nested and ragged lists and tuples of the scalars above.
_junk = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner),
    max_leaves=10,
)
_probability = st.floats(min_value=0.0, max_value=1.0) | st.sampled_from([0, 1])
_valid_row = _probability.map(lambda p: (p, 1 - p)) | _probability.map(lambda p: [1 - p, p])
_bad_row = st.lists(_probability | _scalars, max_size=3) | _junk


def _spoil(draw, fields, bad, parts):
    """``fields`` as drawn, or with one field, or one entry of a listed
    field (``parts``), replaced by a draw from its bad values."""
    key = draw(st.sampled_from([None, *bad, *parts]))
    if key in bad:
        fields[key] = draw(bad[key])
    elif key is not None and fields[parts[key][0]]:
        name, entry = parts[key]
        values = list(fields[name])
        values[draw(st.integers(0, len(values) - 1))] = draw(entry)
        fields[name] = values
    return fields


@st.composite
def _statistics_fields(draw):
    fields = {
        "dim": 2,
        "tables": draw(st.lists(_valid_row, min_size=3, max_size=3)),
        "samples": draw(st.none() | st.integers(min_value=1, max_value=2**63 - 1)),
        "seed": draw(st.none() | st.integers(min_value=0, max_value=2**70)),
    }
    bad = {
        "dim": st.integers(min_value=0, max_value=3) | _scalars,
        "tables": st.lists(_valid_row | _bad_row, max_size=4) | _junk,
        "samples": st.integers(min_value=0, max_value=2**64) | _scalars,
        "seed": st.integers(min_value=-2, max_value=2**70) | _scalars,
    }
    return _spoil(draw, fields, bad, {"row": ("tables", _bad_row)})


# Z x I, I x Z and Z x Z: their product is I, and each squares to I.
_Z_I = la.tensor(la.SIGMA_Z, np.eye(2))
_I_Z = la.tensor(np.eye(2), la.SIGMA_Z)
_OBSERVABLES = (_Z_I, _I_Z, _Z_I @ _I_Z)
# Contexts whose product is +I.
_context = st.sampled_from([(0, 1, 2), [0, 0], (), (2, 2, 1, 0, 0), [1, 0, 2]])


@st.composite
def _problem_fields(draw):
    contexts = draw(st.lists(_context, max_size=3))
    fields = {
        "observables": _OBSERVABLES,
        "labels": draw(st.sampled_from([("A", "B", "C"), ["x", "y", ""]])),
        "contexts": contexts,
        "signs": [1] * len(contexts),
    }
    index = st.integers(min_value=-1, max_value=3) | _scalars
    # Matrix entries are the linalg boundary's, so only the count and
    # the container of the observables are drawn here.
    bad = {
        "observables": st.lists(st.sampled_from(_OBSERVABLES), max_size=4) | _scalars,
        "labels": st.lists(st.text(max_size=2) | _scalars, max_size=4) | _junk,
        "contexts": st.lists(_context | st.lists(index, max_size=3), max_size=3) | _junk,
        "signs": st.lists(st.sampled_from([1, -1]) | _scalars, max_size=3) | _junk,
    }
    parts = {
        "label": ("labels", _scalars),
        "context": ("contexts", st.lists(index, max_size=3) | _junk),
        "sign": ("signs", _scalars),
    }
    return _spoil(draw, fields, bad, parts)


def _json_like(value):
    """``value`` as ``json.load`` would give it back: tuples become lists."""
    return json.loads(json.dumps(value))


def _record_or_refusal(build):
    """``build()``, or None when it refuses with ValueError; any other
    exception, and any RuntimeWarning, fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return build()
        except ValueError:
            return None


def _same_problem(a, b):
    # The generated __eq__ would compare the observables as arrays.
    return (
        (a.labels, a.contexts, a.signs) == (b.labels, b.contexts, b.signs)
        and len(a.observables) == len(b.observables)
        and all(np.array_equal(x, y) for x, y in zip(a.observables, b.observables))
    )


_settings = settings(
    max_examples=100,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _statistics_round_trip(stats):
    assert io.statistics_from_json(_json_like(io.statistics_to_json(stats))) == stats


def _problem_round_trip(problem):
    back = io.problem_from_json(_json_like(io.problem_to_json(problem)))
    assert _same_problem(problem, back)


@_settings
@given(fields=_statistics_fields())
def test_statistics_constructor_returns_or_raises_value_error(fields):
    stats = _record_or_refusal(lambda: MeasurementStatistics(**fields))
    if stats is not None:
        assert all(type(p) is float for row in stats.tables for p in row)
        _statistics_round_trip(stats)


@_settings
@given(fields=_statistics_fields(), drop=st.sampled_from([None, "samples", "seed", "tables"]))
def test_statistics_reader_returns_or_raises_value_error(fields, drop):
    obj = {key: value for key, value in fields.items() if key != drop}
    stats = _record_or_refusal(lambda: io.statistics_from_json(_json_like(obj)))
    if stats is not None:
        _statistics_round_trip(stats)


@_settings
@given(fields=_problem_fields())
def test_problem_constructor_returns_or_raises_value_error(fields):
    problem = _record_or_refusal(lambda: ValueAssignmentProblem(**fields))
    if problem is not None:
        assert all(type(x) is tuple for x in (problem.labels, problem.contexts, problem.signs))
        _problem_round_trip(problem)


_MATRICES = [io.matrix_to_json(m) for m in _OBSERVABLES]
# Half the draws keep the three valid matrices.
_observables_json = (
    st.just(_MATRICES)
    | st.just(_MATRICES)
    | st.lists(st.sampled_from(_MATRICES) | _junk, max_size=4)
    | _junk
)


@_settings
@given(fields=_problem_fields(), observables=_observables_json)
def test_problem_reader_returns_or_raises_value_error(fields, observables):
    obj = dict(fields, observables=observables)
    problem = _record_or_refusal(lambda: io.problem_from_json(_json_like(obj)))
    if problem is not None:
        _problem_round_trip(problem)


def test_statistics_accept_the_edges_of_each_domain():
    # The contract tests above pass any ValueError, so a record refusing too
    # much would pass them: seed 0, one sample and probabilities of exactly
    # 0 and 1 must each build a record.
    for tables in ([(0.0, 1.0), (1.0, 0.0), (0.5, 0.5)], [[0, 1], [1, 0], [1, 0]]):
        stats = MeasurementStatistics(dim=2, tables=tables, samples=1, seed=0)
        assert (stats.samples, stats.seed) == (1, 0)
        assert stats.tables == tuple(tuple(float(p) for p in row) for row in tables)
        _statistics_round_trip(stats)


def test_the_draws_reach_accepted_records():
    # One accepted record of each kind, so the round trips are not vacuous.
    stats = MeasurementStatistics(
        dim=2, tables=[(0.25, 0.75), [1, 0], (0.5, 0.5)], samples=2**63 - 1, seed=2**70
    )
    assert stats.tables == ((0.25, 0.75), (1.0, 0.0), (0.5, 0.5))
    _statistics_round_trip(stats)
    problem = ValueAssignmentProblem(
        observables=_OBSERVABLES, labels=["A", "B", "C"], contexts=[[0, 1, 2], []], signs=[1, 1]
    )
    assert (problem.labels, problem.contexts) == (("A", "B", "C"), ((0, 1, 2), ()))
    _problem_round_trip(problem)
    assert math.isclose(problem.identity_defect, 0.0, abs_tol=1e-15)
