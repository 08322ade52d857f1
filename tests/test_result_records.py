"""Properties of the result records a ``suite`` pass builds.

``ContextualState`` and ``CorrelationRecord`` are built only by the
library (``luders_nonselective``, ``joint_probabilities``) and check
nothing themselves.  What their constructors once re-checked on every
build is asserted here, at the same tolerances, on every record of one
pass.
"""

import pytest

import qcontext.linalg as la
from qcontext import acceptance, contexts, correlations


@pytest.fixture(scope="module")
def built():
    """Every ``ContextualState`` and ``CorrelationRecord`` of one suite pass."""
    records = {}
    with pytest.MonkeyPatch.context() as patch:
        for module, name in ((contexts, "ContextualState"), (correlations, "CorrelationRecord")):
            cls = getattr(module, name)
            records[name] = []

            def recording(*args, _cls=cls, _into=records[name], **kwargs):
                record = _cls(*args, **kwargs)
                _into.append(record)
                return record

            patch.setattr(module, name, recording)
        assert all(r.passed for r in acceptance.run_suite())
    return records


def _is_probability(p):
    return -1e-9 <= p <= 1.0 + 1e-9


def test_every_conditioned_state_commutes_with_its_observable_and_has_a_distribution(built):
    states = built["ContextualState"]
    assert len(states) == 405
    for cs in states:
        assert la._commutator_defect(cs.state.matrix, cs.context.observable.matrix) < 1e-9
        probabilities = list(cs.outcome_probabilities.values())
        assert all(map(_is_probability, probabilities))
        assert abs(sum(probabilities) - 1.0) <= 1e-9


def test_every_joint_table_is_a_distribution_with_expectation_in_range(built):
    records = built["CorrelationRecord"]
    assert len(records) == 527
    for record in records:
        values = list(record.joint.values())
        assert all(map(_is_probability, values))
        assert abs(sum(values) - 1.0) <= 1e-10
        assert abs(record.expectation) <= 1.0 + 1e-9
