"""Serialization round trips and the report/CSV formats."""

import json

import numpy as np
import pytest

from qcontext import io
from qcontext.contexts import observable
from qcontext.contextuality import mermin_peres_square
from qcontext.correlations import Direction, joint_probabilities
from qcontext.mub import measure_statistics, mub_qubit
from qcontext.sampling import random_density, random_pure_state
from qcontext.states import as_density, make_singlet


def test_round_sig_pins_twelve_digits():
    assert io.round_sig(1.0 / 3.0) == 0.333333333333
    assert io.round_sig(-2.0 ** 0.5) == -1.41421356237
    assert io.round_sig(0.0) == 0.0
    assert io.round_sig(1e-300) != 0.0


def test_jsonable_handles_numpy_scalars_and_arrays():
    payload = io.jsonable(
        {
            "f": np.float64(0.25),
            "i": np.int64(3),
            "b": np.bool_(True),
            "c": 1 + 2j,
            "v": np.array([1.0, 2.0]),
        }
    )
    text = json.dumps(payload)
    parsed = json.loads(text)
    assert parsed["f"] == 0.25
    assert parsed["i"] == 3
    assert parsed["b"] is True
    assert parsed["c"] == {"re": 1.0, "im": 2.0}
    assert parsed["v"] == [1.0, 2.0]


def test_matrix_round_trip_preserves_entries():
    rng = np.random.default_rng(96)
    rho = random_density(3, rng)
    rebuilt = io.matrix_from_json(io.matrix_to_json(rho.matrix))
    assert np.max(np.abs(rebuilt - rho.matrix)) < 1e-11


def test_vector_round_trip_preserves_entries():
    rng = np.random.default_rng(97)
    psi = random_pure_state(4, rng)
    rebuilt = io.vector_from_json(io.vector_to_json(psi.amplitudes))
    assert np.max(np.abs(rebuilt - psi.amplitudes)) < 1e-11


def test_vector_from_json_keeps_a_negative_zero_real_part():
    v = io.vector_from_json({"dim": 2, "re": [-0.0, 1.0], "im": [0.0, 0.0]})
    assert np.signbit(v.real).tolist() == [True, False]
    assert np.signbit(v.imag).tolist() == [False, False]


def test_load_state_json_dispatches_on_payload_shape():
    vec = io.load_state_json(io.vector_to_json(make_singlet().amplitudes))
    from qcontext.states import DensityOperator, PureState

    assert isinstance(vec, PureState)
    rho = as_density(make_singlet())
    mat = io.load_state_json(io.matrix_to_json(rho.matrix))
    assert isinstance(mat, DensityOperator)


_GOOD_VECTOR = {"dim": 2, "re": [1.0, 0.0], "im": [0.0, 0.0]}


@pytest.mark.parametrize(
    "payload, message",
    [
        ([1, 2], "JSON object"),
        ({**_GOOD_VECTOR, "dim": None}, "integer"),
        ({**_GOOD_VECTOR, "dim": 2.0}, "integer"),
        ({**_GOOD_VECTOR, "dim": True}, "integer"),
        ({**_GOOD_VECTOR, "dim": 0}, "integer"),
        ({"dim": 2, "re": [1.0, 0.0]}, '"im"'),
        ({**_GOOD_VECTOR, "re": "1,0"}, '"re"'),
        ({**_GOOD_VECTOR, "re": [[1.0], [0.0]]}, '"re"'),
        ({**_GOOD_VECTOR, "im": [0.0, {}]}, '"im"'),
        ({**_GOOD_VECTOR, "re": [10**400, 0]}, '"re" entry too large'),
    ],
    ids=[
        "top_level_list", "dim_null", "dim_float", "dim_bool", "dim_zero",
        "im_missing", "re_string", "re_nested", "im_entry_object",
        "re_huge_int",
    ],
)
def test_malformed_payloads_raise_value_error(payload, message):
    # the shape check runs before any entry is read, for all three readers
    with pytest.raises(ValueError, match=message):
        io.vector_from_json(payload)
    with pytest.raises(ValueError, match=message):
        io.matrix_from_json(payload)
    with pytest.raises(ValueError, match=message):
        io.load_state_json(payload)


def test_observable_round_trip_keeps_label_and_matrix():
    obs = observable(np.diag([1.0, 2.0, 3.0]), label="ladder")
    rebuilt = io.observable_from_json(io.observable_to_json(obs))
    assert rebuilt.label == "ladder"
    assert np.max(np.abs(rebuilt.matrix - obs.matrix)) < 1e-11


def test_problem_round_trip_preserves_structure():
    square = mermin_peres_square()
    rebuilt = io.problem_from_json(io.problem_to_json(square))
    assert rebuilt.labels == square.labels
    assert rebuilt.contexts == square.contexts
    assert rebuilt.signs == square.signs
    for a, b in zip(rebuilt.observables, square.observables):
        assert np.max(np.abs(a - b)) < 1e-11


def test_statistics_round_trip():
    stats = measure_statistics(
        as_density(random_pure_state(2, np.random.default_rng(98))),
        mub_qubit(),
        samples=2000,
        seed=3,
    )
    rebuilt = io.statistics_from_json(io.statistics_to_json(stats))
    assert rebuilt.dim == stats.dim
    assert rebuilt.samples == stats.samples
    assert rebuilt.seed == stats.seed
    for r1, r2 in zip(rebuilt.tables, stats.tables):
        assert r1 == pytest.approx(r2, abs=1e-11)


def test_dump_json_is_deterministic_with_trailing_newline(tmp_path):
    payload = {"b": 2.0 / 3.0, "a": [1, 2, 3]}
    t1 = io.dump_json(payload)
    t2 = io.dump_json(payload)
    assert t1 == t2
    assert t1.endswith("\n")
    target = tmp_path / "report.json"
    io.dump_json(payload, path=str(target))
    assert target.read_text() == t1


def test_correlation_csv_layout(tmp_path):
    singlet = as_density(make_singlet())
    rows = []
    for deg in (0.0, 90.0, 180.0):
        record = joint_probabilities(
            singlet, Direction(0.0, 0.0, 1.0), Direction.polar(np.radians(deg))
        )
        rows.append((deg, record))
    target = tmp_path / "sweep.csv"
    io.write_correlation_csv(str(target), rows)
    lines = target.read_text().strip().splitlines()
    assert lines[0] == ",".join(io.CSV_COLUMNS)
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(-1.0, abs=1e-11)
    last = lines[3].split(",")
    assert float(last[1]) == pytest.approx(1.0, abs=1e-11)
    # p_pp + p_pm + p_mp + p_mm = 1 on every row
    for line in lines[1:]:
        cells = [float(c) for c in line.split(",")]
        assert sum(cells[2:]) == pytest.approx(1.0, abs=1e-9)
