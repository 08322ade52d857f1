"""Serialization round trips and the report/CSV formats."""

import hashlib
import json
import warnings

import numpy as np
import pytest

from qcontext import io
from qcontext.contexts import observable
from qcontext.contextuality import mermin_peres_square
from qcontext.correlations import Direction, joint_probabilities
from qcontext.mub import measure_statistics
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
    rebuilt = io.load_state_json(io.vector_to_json(psi.amplitudes)).amplitudes
    assert np.max(np.abs(rebuilt - psi.amplitudes)) < 1e-11


def test_vector_from_json_keeps_a_negative_zero_real_part():
    v = io.load_state_json({"dim": 2, "re": [-0.0, 1.0], "im": [0.0, 0.0]}).amplitudes
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
    # the shape check runs before any entry is read, for both readers
    with pytest.raises(ValueError, match=message):
        io.matrix_from_json(payload)
    with pytest.raises(ValueError, match=message):
        io.load_state_json(payload)


@pytest.mark.parametrize(
    "re",
    [
        [1e200, 1.0, 1.0, 1.0],
        [0.5, 1e155, 1e155, 0.5],
        [1e154, 1e154, 1e154, 1e154],
        [1.0, 0.0, 0.0, float("inf")],
    ],
    ids=["diagonal_1e200", "off_diagonal_1e155", "sum_of_squares_1e154", "infinite"],
)
def test_matrices_whose_norm_overflows_are_refused_without_a_warning(re):
    payload = {"dim": 2, "re": re, "im": [0.0] * 4}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for read in (io.matrix_from_json, io.load_state_json, io.observable_from_json):
            with pytest.raises(ValueError, match="Frobenius norm"):
                read(payload)


def test_large_matrices_whose_norm_fits_are_read():
    m = io.matrix_from_json({"dim": 2, "re": [1e153, 0.0, 0.0, 1e153], "im": [0.0] * 4})
    assert m[0, 0] == 1e153


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


def _seeded_matrix(seed):
    # entries spread over 24 decades, so the 12-digit rounding is exercised
    rng = np.random.default_rng(seed)
    n = seed + 1
    scale = 10.0 ** rng.integers(-12, 12, (n, n))
    return rng.standard_normal((n, n)) * scale + 1j * rng.standard_normal((n, n)) * scale.T


def test_dumped_writer_output_is_pinned_byte_for_byte():
    # The *_to_json writers return exact values and dump_json rounds them
    # once; these bytes are those of writers that rounded too.
    m = np.array([[1 / 3, -0.0], [1e-300 + 2j / 3, -(2**0.5)]])
    assert io.dump_json(io.matrix_to_json(m)) == (
        '{\n  "dim": 2,\n  "re": [\n    0.333333333333,\n    0.0,\n    1e-300,\n'
        '    -1.41421356237\n  ],\n  "im": [\n    0.0,\n    0.0,\n    0.666666666667,\n'
        '    0.0\n  ]\n}\n'
    )
    assert io.dump_json(io.vector_to_json(m[1])) == (
        '{\n  "dim": 2,\n  "re": [\n    1e-300,\n    -1.41421356237\n  ],\n'
        '  "im": [\n    0.666666666667,\n    0.0\n  ]\n}\n'
    )
    digests = {
        1: "c521968f6c58179bfb1e53923434a581e57c98067452b5c1231e7618ea2cc6de",
        2: "098f5e70405b435f2f6f30e55214df8c18faa4bf51092ee81bc0ab64105376ee",
        3: "9c560cdd3d7f5f4a9801b7b8492ef3830521f5b4a7328277850f1a9763c73bc1",
    }
    for seed, digest in digests.items():
        text = io.dump_json(io.matrix_to_json(_seeded_matrix(seed)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, seed
    digests = {
        4: "2c02742bdaccbdc0495df6370d53cd2bfd9f9cb10615b6c57106566b1186fd4f",
        5: "5b82114a7ddbad82ae5ca485ec975628219ec95ffcc64ba01ac6e953986e64c3",
    }
    for seed, digest in digests.items():
        rho = random_density(2, np.random.default_rng(seed))
        text = io.dump_json(io.statistics_to_json(measure_statistics(rho)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, seed


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
