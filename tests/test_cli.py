"""Command line behaviour: exit codes, report shape, determinism."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qcontext import cli, io, linalg
from qcontext.cli import main, parse_direction, parse_observable, parse_state
from qcontext.contexts import observable
from qcontext.states import make_singlet


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(out):
    return json.loads(out)


# argument parsing helpers


def test_parse_state_named_and_product():
    assert parse_state("singlet").dim == 4
    assert parse_state("ghz").dim == 8
    psi = parse_state("product:1,0")
    assert np.array_equal(psi.amplitudes, np.array([0, 0, 1, 0], dtype=complex))


def test_parse_observable_named_and_spin():
    assert parse_observable("sigma_x").label == "sigma_x"
    obs = parse_observable("spin:0,0,1")
    assert np.allclose(obs.matrix, np.diag([1.0, -1.0]))


def test_parse_direction_forms():
    d = parse_direction("deg:90")
    assert (d.x, d.y, d.z) == pytest.approx((1.0, 0.0, 0.0), abs=1e-15)
    d2 = parse_direction("0,1,0")
    assert d2.y == 1.0


# exit codes


def test_passing_command_exits_zero(capsys):
    code, out, err = run(capsys, ["luders", "--state", "plus", "--observable", "sigma_z"])
    assert code == 0
    report = report_of(out)
    assert report["passed"] is True
    assert report["subcommand"] == "luders"
    entries = report["results"]["conditioned_state"]
    assert entries["re"] == pytest.approx([0.5, 0.0, 0.0, 0.5], abs=1e-11)


def test_failed_check_exits_one(capsys):
    code, out, _ = run(capsys, ["chsh", "--state", "singlet", "--tol", "-1"])
    assert code == 1
    report = report_of(out)
    assert report["passed"] is False


def test_missing_state_file_exits_two(capsys):
    code, out, err = run(capsys, ["schmidt", "--state", "no_such_file.json"])
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_dimension_mismatch_exits_two_and_names_both(tmp_path, capsys):
    state = tmp_path / "dim5.json"
    state.write_text(json.dumps(io.vector_to_json(np.eye(5, dtype=complex)[0])))
    code, _, err = run(capsys, ["schmidt", "--state", str(state), "--dims", "2,3"])
    assert code == 2
    assert "6" in err and "5" in err


@pytest.mark.parametrize("command", ["schmidt", "product-check"])
@pytest.mark.parametrize("dims", ["1,64", "64,1"])
def test_one_by_64_split_of_a_64_dimensional_state_exits_zero(tmp_path, capsys, command, dims):
    psi = np.random.default_rng(58).normal(size=64) + 0j
    psi /= np.linalg.norm(psi)
    state = tmp_path / "pure64.json"
    state.write_text(json.dumps(io.vector_to_json(psi)))
    code, out, err = run(capsys, [command, "--state", str(state), "--dims", dims])
    assert code == 0, err
    assert report_of(out)["results"]["dims"] == [int(d) for d in dims.split(",")]


def test_degenerate_observable_refusal_exits_two(tmp_path, capsys):
    obs = tmp_path / "deg.json"
    obs.write_text(json.dumps(io.observable_to_json(observable(np.diag([1.0, 1.0, 2.0])))))
    state = tmp_path / "e0.json"
    state.write_text(json.dumps(io.vector_to_json(np.eye(3, dtype=complex)[0])))
    code, _, err = run(
        capsys, ["representative", "--state", str(state), "--observable", str(obs)]
    )
    assert code == 2
    assert "pure/non-degenerate" in err


def test_unknown_subcommand_exits_two(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_non_unit_direction_exits_two(capsys):
    code, _, err = run(capsys, ["correlate", "--state", "singlet", "--a", "0,0,2"])
    assert code == 2
    assert "unit" in err


@pytest.mark.parametrize("a", ["nan,0,0", "0,inf,0"])
def test_non_finite_direction_exits_two(capsys, a):
    code, out, err = run(
        capsys, ["outcome-dependence", "--state", "singlet", f"--a={a}", "--b=z"]
    )
    assert code == 2
    assert out == ""
    assert "direction components must be finite" in err


@pytest.mark.parametrize("points", ["0", "1", "-3"])
def test_correlate_sweep_needs_two_points(tmp_path, capsys, points):
    target = tmp_path / "sweep.csv"
    code, out, err = run(
        capsys,
        ["correlate", "--state", "singlet", "--csv", str(target), "--points", points],
    )
    assert code == 2
    assert out == ""
    assert "--points" in err
    assert not target.exists()


@pytest.mark.parametrize(
    "argv, state_file",
    [
        (["chsh", "--state", "singlet", "--tol", "nan"], None),
        (["evolve", "--coupling", "inf"], None),
        (["evolve", "--coupling", "1e308"], None),
        (["evolve", "--time", "1e308"], None),
        (["luders", "--state", "plus", "--observable", "spin:1e308,0,0"], None),
        (["remote-state", "--state", "singlet", "--a=1e308,0,0"], None),
        (["mub-tomography", "--state", "plus", "--samples", "99999999999999999999"], None),
        (["schmidt", "--state"], '{"dim": 2, "re": [1, 0], "im": [0, Infinity]}'),
        (["schmidt", "--state"], '{"dim": 2, "re": [1e308, 1e308], "im": [0, 0]}'),
        (
            ["total-spin", "--state"],
            '{"dim": 2, "re": [0.5, 1e308, 1e308, 0.5], "im": [0, 0, 0, 0]}',
        ),
        # Finite entries whose Frobenius norm overflows.
        (
            ["boolean-lattice", "--observable"],
            '{"dim": 2, "re": [1e200, 1, 1, 1], "im": [0, 0, 0, 0]}',
        ),
        (
            ["reduced", "--state"],
            '{"dim": 2, "re": [0.5, 1e200, 1e200, 0.5], "im": [0, 0, 0, 0]}',
        ),
    ],
    ids=[
        "tol_nan", "coupling_inf", "coupling_huge", "time_huge", "observable_huge",
        "direction_huge", "samples_huge", "state_im_infinite", "state_entries_huge",
        "density_sum_overflows", "observable_norm_overflows", "density_norm_overflows",
    ],
)
def test_extreme_numbers_exit_two_without_warnings(tmp_path, argv, state_file):
    # A real process, so that numpy's RuntimeWarnings would reach stderr.
    if state_file is not None:
        path = tmp_path / "state.json"
        path.write_text(state_file)
        argv = [*argv, str(path)]
    proc = _process(argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "error:" in proc.stderr.splitlines()[-1]


def _nearly_hermitian_state(diagonal) -> str:
    """A 4x4 state file: ``diagonal`` plus 1e-10 at (0, 1) alone, which
    the 1e-9 Hermiticity check admits."""
    re = np.diag(diagonal)
    re[0, 1] = 1e-10
    return json.dumps({"dim": 4, "re": re.ravel().tolist(), "im": [0.0] * 16})


@pytest.mark.parametrize(
    "diagonal, code, last_line",
    [
        ((0.6, 0.3, 0.2, -0.1), 2, "error: density operator has negative eigenvalue -1.000e-01"),
        ((0.25, 0.25, 0.25, 0.25), 0, None),
    ],
    ids=["negative", "positive"],
)
def test_nearly_hermitian_states_are_decided_on_their_hermitian_part(
    tmp_path, diagonal, code, last_line
):
    path = tmp_path / "state.json"
    path.write_text(_nearly_hermitian_state(diagonal))
    proc = _process(["total-spin", "--state", str(path)])
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    if last_line is None:
        assert json.loads(proc.stdout)["passed"] is True
    else:
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [last_line]


@pytest.mark.parametrize("angle", ["inf", "-inf", "nan"])
def test_non_finite_angle_exits_two_under_warnings_as_errors(angle):
    # A RuntimeWarning would be raised here and reported with exit 3.
    proc = _process(
        ["correlate", "--state", "singlet", f"--a=deg:{angle}"], warnings="error::RuntimeWarning"
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [
        f"error: polar angle must be a finite real number, got {angle}"
    ]


def _process(argv, warnings="default"):
    """``python -m qcontext argv`` in a real process under ``-W warnings``
    (by default, warnings shown)."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-W", warnings, "-m", "qcontext", *argv],
        capture_output=True, text=True, env=env, check=False, timeout=60,
    )


@pytest.mark.parametrize("flag", ["--steps", "--points"])
def test_loop_counts_above_their_bound_are_refused_before_any_compute(tmp_path, flag):
    target = tmp_path / "sweep.csv"
    command = {
        "--steps": ["evolve"],
        "--points": ["correlate", "--state", "singlet", "--csv", str(target)],
    }[flag]
    proc = _process([*command, flag, str(10**9)])
    assert proc.returncode == 2
    assert proc.stdout == ""
    usage, error = proc.stderr.splitlines()[0], proc.stderr.splitlines()[-1]
    assert usage.startswith("usage: qcontext ")
    assert error.startswith("qcontext ") and f"error: argument {flag}:" in error
    assert "10000" in error
    assert not target.exists()


@pytest.mark.parametrize(
    "argv, accepted, refused",
    [
        (["evolve", "--steps"], ("1", "10000"), ("0", "10001")),
        (["correlate", "--state", "singlet", "--points"], ("2", "10000"), ("1", "10001")),
    ],
    ids=["steps", "points"],
)
def test_loop_count_bounds_are_inclusive(capsys, argv, accepted, refused):
    parser = cli.build_parser()
    for text in accepted:
        args = parser.parse_args([*argv, text])
        assert vars(args)[argv[-1][2:]] == int(text)
    for text in refused:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([*argv, text])
        assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--coupling", "--time"])
def test_magnitude_bounds_are_inclusive(capsys, flag):
    parser = cli.build_parser()
    for text in ("1e100", "-1e100", "-0.0"):
        args = parser.parse_args(["evolve", f"{flag}={text}"])
        assert vars(args)[flag[2:]] == float(text)
    for text in ("1.00000000000001e100", "-1e101", "1e308", "nan"):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["evolve", f"{flag}={text}"])
        assert exc.value.code == 2
    capsys.readouterr()


def test_command_table_names_every_cmd_function():
    functions = {name for name in vars(cli) if name.startswith("cmd_")}
    assert functions == {"cmd_" + name.replace("-", "_") for name in cli.COMMANDS}


def test_duplicate_problem_labels_exit_two(tmp_path, capsys):
    from qcontext.contextuality import mermin_peres_square

    payload = io.problem_to_json(mermin_peres_square().without_context(5))
    payload["labels"] = ["A"] * len(payload["labels"])
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, ["ks-search", "--problem", str(path)])
    assert code == 2
    assert out == ""
    assert "distinct" in err


def test_non_finite_statistics_file_exits_two(tmp_path, capsys):
    path = tmp_path / "stats.json"
    path.write_text('{"dim": 2, "tables": [[NaN, 0.5], [0.5, 0.5], [0.5, 0.5]]}')
    code, out, err = run(capsys, ["mub-tomography", "--stats", str(path)])
    assert code == 2
    assert out == ""
    assert "non-finite" in err


@pytest.mark.parametrize(
    "text",
    [
        '{"dim": null, "re": [1, 0], "im": [0, 0]}',
        "[1, 2]",
        '{"dim": 2, "re": [1, 0]}',
        '{"dim": 2, "re": [1' + "0" * 400 + ', 0], "im": [0, 0]}',
    ],
    ids=["dim_null", "top_level_list", "im_missing", "re_huge_int"],
)
def test_malformed_state_file_exits_two(tmp_path, capsys, text):
    path = tmp_path / "state.json"
    path.write_text(text)
    code, out, err = run(capsys, ["reduced", "--state", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: state ")


@pytest.mark.parametrize(
    "command", [["total-spin"], ["luders", "--observable", "sigma_z"]], ids=["total_spin", "luders"]
)
@pytest.mark.parametrize(
    "text, message",
    [
        ('{"dim": 2, "re": [1, 1], "im": [0, 0]}', "state is not normalised"),
        ('{"dim": 2, "re": [1.5, 0, 0, -0.5], "im": [0, 0, 0, 0]}', "negative eigenvalue"),
    ],
    ids=["unnormalised", "not_positive"],
)
def test_invalid_state_file_exits_two(tmp_path, capsys, command, text, message):
    path = tmp_path / "state.json"
    path.write_text(text)
    code, out, err = run(capsys, [command[0], "--state", str(path), *command[1:]])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


_ONE_OBSERVABLE = '[{"dim": 1, "re": [1], "im": [0]}]'


@pytest.mark.parametrize(
    "option, text, message",
    [
        ("--problem", "[1, 2]", "problem must be a JSON object"),
        (
            "--problem",
            '{"observables": %s, "labels": ["A"], "contexts": [[0]]}' % _ONE_OBSERVABLE,
            'problem is missing "signs"',
        ),
        (
            "--problem",
            '{"observables": %s, "labels": ["A"], "contexts": [[null]], "signs": [1]}'
            % _ONE_OBSERVABLE,
            "contexts must be a list of lists of integers",
        ),
        (
            "--problem",
            '{"observables": %s, "labels": ["A"], "contexts": [0], "signs": [1]}'
            % _ONE_OBSERVABLE,
            "contexts must be a list of lists of integers",
        ),
        ("--problem", "{", "problem file "),
        ("--stats", "[1, 2]", "statistics must be a JSON object"),
        ("--stats", '{"dim": 2}', 'statistics is missing "tables"'),
        (
            "--stats",
            '{"dim": 2, "tables": [[0.5, "half"], [0.5, 0.5], [0.5, 0.5]]}',
            'statistics needs "tables"',
        ),
        ("--stats", '{"dim": 2, "tables": [0.5, 0.5]}', 'statistics needs "tables"'),
        ("--stats", "dim: 2", "statistics file "),
    ],
    ids=[
        "problem_top_level_list", "problem_signs_missing", "problem_context_null",
        "problem_contexts_flat", "problem_not_json", "stats_top_level_list",
        "stats_tables_missing", "stats_entry_string", "stats_tables_flat", "stats_not_json",
    ],
)
def test_malformed_problem_and_statistics_files_exit_two(
    tmp_path, capsys, option, text, message
):
    path = tmp_path / "input.json"
    path.write_text(text)
    command = "ks-search" if option == "--problem" else "mub-tomography"
    code, out, err = run(capsys, [command, option, str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1


def test_eigensolve_that_does_not_converge_exits_two(tmp_path, capsys, monkeypatch):
    # One QL iteration cannot diagonalise this dense 3x3 observable.
    monkeypatch.setattr(linalg, "_QL_MAX_ITERATIONS", 1)
    path = tmp_path / "observable.json"
    path.write_text('{"dim": 3, "re": [1, 2, 3, 2, 4, 5, 3, 5, 6], "im": [0, 0, 0, 0, 0, 0, 0, 0, 0]}')
    code, out, err = run(capsys, ["boolean-lattice", "--observable", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: QL diagonalisation of a dimension-3 matrix")
    assert "after 1 iterations" in err
    assert err.count("\n") == 1


def test_lapack_solve_that_does_not_converge_exits_two(tmp_path, capsys, monkeypatch):
    # From n = 8 LAPACK solves; its LinAlgError is a ConvergenceError.
    def fails(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fails)
    path = tmp_path / "observable.json"
    entries = np.diag(np.arange(8.0)).ravel().tolist()
    path.write_text(json.dumps({"dim": 8, "re": entries, "im": [0.0] * 64}))
    code, out, err = run(capsys, ["boolean-lattice", "--observable", str(path)])
    assert code == 2
    assert out == ""
    assert err == (
        "error: LAPACK diagonalisation of a dimension-8 matrix failed: "
        "Eigenvalues did not converge\n"
    )


def test_nearly_hermitian_observable_is_decomposed(tmp_path, capsys):
    # Hermitian to within 1e-9; its 1e-10 anti-Hermitian part is above
    # the 1e-12 solver floor, so the eigensolver solves its Hermitian part.
    path = tmp_path / "observable.json"
    path.write_text('{"dim": 2, "re": [1, 1e-10, 0, 2], "im": [0, 0, 0, 0]}')
    code, out, err = run(capsys, ["luders", "--state", "plus", "--observable", str(path)])
    assert code == 0
    assert report_of(out)["passed"] is True


# determinism and output hygiene


def test_stdout_is_byte_identical_across_runs(capsys):
    argv = ["mub-tomography", "--state", "plus", "--samples", "20000", "--seed", "11"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_timing_goes_to_stderr_not_stdout(capsys):
    _, out, err = run(capsys, ["ghz"])
    assert "elapsed_ms" in err
    assert "elapsed_ms" not in out
    report_of(out)  # stdout must stay pure JSON


def test_out_flag_writes_the_same_report(tmp_path, capsys):
    target = tmp_path / "report.json"
    _, out, _ = run(capsys, ["ghz", "--out", str(target)])
    assert target.read_text() == out


# individual subcommand sanity


def test_schmidt_singlet_report(capsys):
    code, out, _ = run(capsys, ["schmidt", "--state", "singlet"])
    assert code == 0
    report = report_of(out)
    coeffs = report["results"]["coefficients"]
    assert coeffs == pytest.approx([2**-0.5, 2**-0.5], abs=1e-11)


def test_chsh_default_settings_hit_the_quantum_optimum(capsys):
    code, out, _ = run(capsys, ["chsh", "--state", "singlet"])
    assert code == 0
    report = report_of(out)
    assert report["results"]["abs_S"] == pytest.approx(2 * np.sqrt(2), abs=1e-11)


def test_correlate_csv_sweep(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    code, out, _ = run(
        capsys,
        ["correlate", "--state", "singlet", "--csv", str(target), "--points", "7"],
    )
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0] == ",".join(io.CSV_COLUMNS)
    assert len(lines) == 8
    first_e = float(lines[1].split(",")[1])
    last_e = float(lines[-1].split(",")[1])
    assert first_e == pytest.approx(-1.0, abs=1e-11)
    assert last_e == pytest.approx(1.0, abs=1e-11)


def test_value_dependence_command(tmp_path, capsys):
    import qcontext.linalg as la

    paths = {}
    for name, matrix in (
        ("zz", la.tensor(la.SIGMA_Z, la.SIGMA_Z)),
        ("zi", la.tensor(la.SIGMA_Z, np.eye(2))),
        ("xx", la.tensor(la.SIGMA_X, la.SIGMA_X)),
    ):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(io.observable_to_json(observable(matrix, label=name))))
        paths[name] = str(p)
    code, out, _ = run(
        capsys,
        [
            "value-dependence",
            "--state",
            "product:0,0",
            "--observable",
            paths["zz"],
            "--observable",
            paths["zi"],
            "--observable",
            paths["xx"],
        ],
    )
    assert code == 0
    report = report_of(out)
    distances = report["results"]["preparation_distances"]
    assert distances["plain_vs_after_c"] == pytest.approx(0.5, abs=1e-11)
    assert report["results"]["max_distribution_shift"] < 1e-11


def test_ks_square_command(capsys):
    code, out, _ = run(capsys, ["ks-square"])
    assert code == 0
    report = report_of(out)
    assert report["results"]["assignments_searched"] == 512
    assert report["results"]["satisfying"] == 0


def test_ks_search_reads_problem_file(tmp_path, capsys):
    from qcontext.contextuality import mermin_peres_square

    relaxed = mermin_peres_square().without_context(5)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(io.problem_to_json(relaxed)))
    code, out, _ = run(capsys, ["ks-search", "--problem", str(path)])
    assert code == 0
    report = report_of(out)
    assert report["results"]["satisfying"] == 16


def test_density_matrix_file_as_state_input(tmp_path, capsys):
    rho = make_singlet().to_density()
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(io.matrix_to_json(rho.matrix)))
    code, out, _ = run(capsys, ["total-spin", "--state", str(path)])
    assert code == 0
    report = report_of(out)
    assert report["results"]["total_spin_squared"] == pytest.approx(0.0, abs=1e-11)


def test_mub_tomography_exact_and_from_stats(tmp_path, capsys):
    code, out, _ = run(capsys, ["mub-tomography", "--state", "plus"])
    assert code == 0
    stats_payload = report_of(out)["results"]["statistics"]
    path = tmp_path / "stats.json"
    path.write_text(json.dumps(stats_payload))
    code2, out2, _ = run(capsys, ["mub-tomography", "--stats", str(path)])
    assert code2 == 0
    rebuilt = report_of(out2)["results"]["reconstructed"]
    assert rebuilt["re"] == pytest.approx([0.5, 0.5, 0.5, 0.5], abs=1e-9)


@pytest.mark.parametrize(
    "exc, message",
    [
        (TypeError("first line\nsecond line"), "first line second line"),
        # A KeyError is a fault in the program too, not bad input: every
        # input file is shape-checked before a key is read from it.
        (KeyError("missing"), "'missing'"),
    ],
    ids=["TypeError", "KeyError"],
)
def test_unexpected_exception_exits_three_with_one_error_line(
    monkeypatch, capsys, exc, message
):
    import qcontext.contextuality as contextuality

    def broken():
        raise exc

    # cmd_ghz imports ghz_contradiction from its module when it runs
    monkeypatch.setattr(contextuality, "ghz_contradiction", broken)
    code, out, err = run(capsys, ["ghz"])
    assert code == 3
    assert out == ""
    assert re.fullmatch(
        rf"error: unexpected {type(exc).__name__} at test_cli\.py:\d+: "
        rf"{re.escape(message)}\n",
        err,
    )


def _failed_checks(out):
    return {c["name"]: c["measured"] for c in report_of(out)["checks"] if not c["passed"]}


def test_conditioning_fault_is_a_failed_check(monkeypatch, capsys):
    # Result records check nothing themselves, so a wrong derived value
    # reaches the report with its margin instead of exiting 2 as bad input.
    import qcontext.contexts as contexts

    luders = contexts.luders_nonselective

    def short_weights(ctx):
        cs = luders(ctx)
        weights = {a: 0.9 * p for a, p in cs.outcome_probabilities.items()}
        return dataclasses.replace(cs, outcome_probabilities=weights)

    # cmd_luders imports luders_nonselective from its module when it runs
    monkeypatch.setattr(contexts, "luders_nonselective", short_weights)
    code, out, _ = run(capsys, ["luders", "--state", "plus", "--observable", "sigma_z"])
    assert code == 1
    failed = _failed_checks(out)
    assert list(failed) == ["probabilities_sum_error"]
    assert failed["probabilities_sum_error"] == pytest.approx(0.1)


def test_correlation_fault_is_a_failed_check(monkeypatch, capsys):
    import qcontext.correlations as correlations

    def out_of_range(rho, a, b):
        joint = {(1, 1): 1.2, (1, -1): -0.1, (-1, 1): -0.1, (-1, -1): 0.0}
        return correlations.CorrelationRecord(joint)

    monkeypatch.setattr(correlations, "joint_probabilities", out_of_range)
    code, out, _ = run(capsys, ["correlate", "--state", "singlet", "--a", "z", "--b", "z"])
    assert code == 1
    failed = _failed_checks(out)
    assert failed["expectation_in_range"] == pytest.approx(1.4)


def test_unwritable_out_path_exits_two(tmp_path, capsys):
    code, out, err = run(capsys, ["ghz", "--out", str(tmp_path / "missing" / "r.json")])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_suite_writes_one_timed_line_per_criterion_to_stderr(capsys, eigensolves):
    before = linalg.counts()
    code, _, err = run(capsys, ["suite"])
    assert code == 0
    after = linalg.counts()
    lines = err.splitlines()
    assert len(lines) == 13 and lines[-1].startswith("elapsed_ms=")
    pattern = re.compile(
        r"\[PASS\] criterion (\d+): .+ \(worst: \S+ = \S+ vs \S+\)"
        r" in (\d+\.\d) ms, (\d+) eigensolves \((\d+) sweeps\),"
        r" (\d+) operator and (\d+) Hermiticity checks"
    )
    matches = [pattern.fullmatch(line) for line in lines[:12]]
    assert all(matches), lines
    assert [int(m.group(1)) for m in matches] == list(range(1, 13))
    assert all(float(m.group(2)) >= 0.0 for m in matches)
    assert sum(int(m.group(3)) for m in matches) == len(eigensolves)
    keys = ("eigensolves", "sweeps", "operator_checks", "hermiticity_checks")
    for group, key in enumerate(keys, 3):
        assert sum(int(m.group(group)) for m in matches) == after[key] - before[key], key


def test_suite_command_all_green(capsys):
    code, out, err = run(capsys, ["suite"])
    assert code == 0
    report = report_of(out)
    assert report["passed"] is True
    assert len(report["results"]["criteria"]) == 12
    assert err.count("[PASS]") == 12
