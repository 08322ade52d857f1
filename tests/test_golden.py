"""Golden stdout: recorded CLI reports must come back byte for byte.

Each entry runs ``qcontext.cli.main`` in a scratch directory holding a
copy of ``tests/golden/inputs``, so file arguments are bare names and the
reports echo the same paths on every machine.  ``<name>.out`` holds the
recorded stdout; ``correlate_csv`` also pins the CSV it writes.

``suite_measured.txt`` pins every suite check's ``measured`` value as
``float.hex()``, one line per check.  The reports round to 12 significant
digits, so a change in the last bit of a kernel result would pass the
stdout comparison; it cannot pass this one.

Recording is deliberate and rare: after a change that is meant to alter
a report, rewrite the files with ``PYTHONPATH=src python tests/test_golden.py``
and review the diff.

``work.json`` pins the work each invocation does: its ``linalg.counts()``
deltas (eigensolves, QL iterations at n <= 7, operator and Hermiticity checks),
which depend only on the code path.  It pins the same for each task of
the benchmark's ``scale`` workload (``perfbench/workloads.py``) on the
inputs of its seed 0, as the rows ``scale:<task>``: solves at d = 16-64
and the 2^20-case search, which no golden invocation reaches.  A count
that rises fails.  A count that falls fails too, until the file is
lowered with
``PYTHONPATH=src python tests/test_golden.py --lower-work``, which
refuses to raise any pinned count: the file may only go down.

The pinned last bits depend on the Python build, whose float and complex
arithmetic runs the eigensolver up to n = 7 (Householder reduction, QL
rotations and the phase rule, on Python scalars) and the closed-form 2x2
trace distance, on the numpy version, on the SIMD loops numpy dispatches
to and on the OpenBLAS kernel set.  Recording writes all four to
``RECORDED_WITH.txt``, and a failing comparison prints them next to this
process's own.
"""

import contextlib
import ctypes
import importlib.util
import io
import json
import os
import platform
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from qcontext import linalg
from qcontext.acceptance import run_suite
from qcontext.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
INPUTS = GOLDEN_DIR / "inputs"
SUITE_MEASURED = GOLDEN_DIR / "suite_measured.txt"
RECORDED_WITH = GOLDEN_DIR / "RECORDED_WITH.txt"
WORK = GOLDEN_DIR / "work.json"

# (name, argv, exit code).  The README commands come first, then at least
# one invocation per subcommand.
GOLDEN = (
    ("schmidt_singlet", ["schmidt", "--state", "singlet"], 0),
    ("luders_plus_z", ["luders", "--state", "plus", "--observable", "sigma_z"], 0),
    ("chsh_singlet", ["chsh", "--state", "singlet"], 0),
    ("correlate_csv", ["correlate", "--state", "singlet", "--csv", "sweep.csv"], 0),
    ("ks_square", ["ks-square"], 0),
    ("ghz", ["ghz"], 0),
    ("mub_sampled", ["mub-tomography", "--state", "plus", "--samples", "100000", "--seed", "7"], 0),
    ("suite", ["suite"], 0),
    ("schmidt_file", ["schmidt", "--state", "pure8.json", "--dims", "2,4"], 0),
    ("product_check", ["product-check", "--state", "product:1,0"], 0),
    ("product_check_file", ["product-check", "--state", "pure2.json"], 0),
    ("reduced", ["reduced", "--state", "rho2.json", "--keep", "2"], 0),
    ("total_spin", ["total-spin", "--state", "rho2.json"], 0),
    ("evolve", ["evolve", "--coupling", "0.7", "--time", "0.5"], 0),
    ("representative", ["representative", "--state", "pure1.json", "--observable", "obs1.json"], 0),
    ("equivalence", ["equivalence", "--state", "pure1.json", "--observable", "obs1.json",
                     "--probe", "sigma_x"], 0),
    ("context_distance", ["context-distance", "--state", "pure1.json", "--observable",
                          "obs1.json", "--probe", "sigma_z"], 0),
    ("sequential", ["sequential", "--state", "rho2.json", "--observable", "obs4.json",
                    "--observable", "obs_b.json"], 0),
    ("boolean_lattice", ["boolean-lattice", "--observable", "obs4.json"], 0),
    ("boolean_lattice_seed", ["boolean-lattice", "--observable", "obs4.json", "--seed", "5"], 0),
    ("boolean_lattice_degenerate", ["boolean-lattice", "--observable", "obs_deg.json"], 0),
    ("boolean_lattice_degenerate_seed",
     ["boolean-lattice", "--observable", "obs_deg.json", "--seed", "2"], 0),
    ("boolean_lattice_qubit_seed", ["boolean-lattice", "--observable", "sigma_x", "--seed", "3"], 0),
    ("correlate_table", ["correlate", "--state", "singlet", "--a", "deg:30", "--b", "0,1,0"], 0),
    ("chsh_failed_check", ["chsh", "--state", "singlet", "--tol", "-1"], 1),
    ("no_signalling", ["no-signalling", "--state", "rho2.json", "--setting", "z",
                       "--setting", "deg:45", "--b", "x"], 0),
    ("outcome_dependence", ["outcome-dependence", "--state", "singlet", "--a=x", "--b=deg:60"], 0),
    ("remote_state", ["remote-state", "--state", "pure2.json", "--a=deg:30", "--outcome=-1"], 0),
    ("ks_square_seed", ["ks-square", "--seed", "4"], 0),
    ("ks_search_square", ["ks-search", "--problem", "square.json"], 0),
    ("ks_search_relaxed", ["ks-search", "--problem", "relaxed.json"], 0),
    ("ks_search_relaxed_seed", ["ks-search", "--problem", "relaxed.json", "--seed", "9"], 0),
    ("ks_search_padded", ["ks-search", "--problem", "padded.json"], 0),
    ("value_dependence", ["value-dependence", "--state", "rho2.json", "--observable",
                          "obs_a.json", "--observable", "obs_b.json", "--observable",
                          "obs_c.json"], 0),
    ("mub_exact", ["mub-tomography", "--state", "plus"], 0),
    ("mub_stats", ["mub-tomography", "--stats", "stats.json"], 0),
)

# Files a command writes, pinned next to its stdout as <name>.<suffix>.
WRITTEN = {"correlate_csv": ("sweep.csv", "csv")}


def _load_workloads():
    """``perfbench/workloads.py``, loaded from its file: the benchmark's
    directory is not a package on the test path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


PERFBENCH_WORKLOADS = _load_workloads()

# (row name, input key, call, check) of each scale task.
SCALE = tuple(
    (f"scale:{task}", key, call, check) for task, key, call, check in PERFBENCH_WORKLOADS.SCALE_TASKS
)


def _run(argv, workdir: Path) -> tuple[int, bytes, dict[str, int]]:
    """Exit code, stdout bytes and ``linalg.counts()`` deltas of one
    in-process CLI call in workdir."""
    for f in INPUTS.iterdir():
        shutil.copy(f, workdir)
    here = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            before = linalg.counts()
            code = main(list(argv))
            after = linalg.counts()
    finally:
        os.chdir(here)
    work = {key: after[key] - before[key] for key in after}
    return code, out.getvalue().encode("utf-8"), work


def _scale_work(key, call, check) -> dict[str, int]:
    """``linalg.counts()`` deltas of one scale task on the seed-0 inputs,
    whose output must pass the workload's own check."""
    inputs = PERFBENCH_WORKLOADS.scale_inputs(np.random.default_rng(0))
    before = linalg.counts()
    out = call(inputs[key])
    after = linalg.counts()
    problem = check(inputs, key, out)
    assert problem is None, problem
    return {k: after[k] - before[k] for k in after}


def _rises(pinned: dict[str, int], work: dict[str, int]) -> dict[str, str]:
    """The pinned counts that ``work`` exceeds, as ``"pinned -> now"``."""
    return {k: f"{pinned[k]} -> {v}" for k, v in work.items() if k in pinned and v > pinned[k]}


def _openblas_core() -> str:
    """The kernel set numpy's bundled OpenBLAS chose, or ``unknown``."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                       "openblas_get_corename"):
            corename = getattr(handle, symbol, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return "unknown"


def _environment() -> str:
    """Python, numpy version, SIMD tier and OpenBLAS core of this process."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    found = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    return (
        f"python {platform.python_implementation()} {platform.python_version()}\n"
        f"numpy {np.__version__}\n"
        f"simd baseline {' '.join(umath.__cpu_baseline__)}; dispatched {' '.join(found)}\n"
        f"openblas_core {_openblas_core()}\n"
    )


def _environment_note() -> str:
    """Failure note: the recording environment against this one."""
    return f"recorded with:\n{RECORDED_WITH.read_text()}this run:\n{_environment()}"


def test_every_subcommand_is_recorded():
    from qcontext.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert set(sub.choices) == {argv[0] for _, argv, _ in GOLDEN}


def _pinned_work() -> dict[str, dict[str, int]]:
    return json.loads(WORK.read_text())


def test_every_invocation_has_pinned_work():
    assert list(_pinned_work()) == [name for name, _, _ in GOLDEN] + [name for name, *_ in SCALE]


def _assert_pinned(name, work):
    pinned = _pinned_work()[name]
    rose = _rises(pinned, work)
    assert not rose, f"{name} does more work than {WORK.name} pins: {rose}"
    assert work == pinned, (
        f"{name} does less work than {WORK.name} pins ({pinned} -> {work}); lower the "
        "file in this change: PYTHONPATH=src python tests/test_golden.py --lower-work"
    )


@pytest.mark.parametrize("name, argv, code", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_stdout_matches_golden(name, argv, code, tmp_path):
    got_code, stdout, work = _run(argv, tmp_path)
    assert got_code == code
    assert stdout == (GOLDEN_DIR / f"{name}.out").read_bytes(), _environment_note()
    if name in WRITTEN:
        written, suffix = WRITTEN[name]
        want = (GOLDEN_DIR / f"{name}.{suffix}").read_bytes()
        assert (tmp_path / written).read_bytes() == want, _environment_note()
    _assert_pinned(name, work)


@pytest.mark.parametrize("name, key, call, check", SCALE, ids=[t[0] for t in SCALE])
def test_scale_task_work_matches_pinned(name, key, call, check):
    _assert_pinned(name, _scale_work(key, call, check))


def _suite_measured() -> str:
    """One ``<criterion>\t<check>\t<float.hex(measured)>`` line per check."""
    return "".join(
        f"{result.number}\t{check.name}\t{float(check.measured).hex()}\n"
        for result in run_suite()
        for check in result.checks
    )


def test_suite_measured_values_match_golden_bits():
    assert _suite_measured() == SUITE_MEASURED.read_text(), _environment_note()


def _record() -> None:
    import tempfile

    for name, argv, code in GOLDEN:
        with tempfile.TemporaryDirectory() as tmp:
            got_code, stdout, _ = _run(argv, Path(tmp))
            if got_code != code:
                raise SystemExit(f"{name}: exit {got_code}, expected {code}")
            (GOLDEN_DIR / f"{name}.out").write_bytes(stdout)
            if name in WRITTEN:
                written, suffix = WRITTEN[name]
                shutil.copy(Path(tmp) / written, GOLDEN_DIR / f"{name}.{suffix}")
        print(f"recorded {name}", file=sys.stderr)
    SUITE_MEASURED.write_text(_suite_measured())
    print(f"recorded {SUITE_MEASURED.name}", file=sys.stderr)
    RECORDED_WITH.write_text(_environment())
    print(f"recorded {RECORDED_WITH.name}", file=sys.stderr)


def _lower_work() -> None:
    """Rewrite ``work.json`` from this tree; refuse if a pinned count rose."""
    import tempfile

    pinned = _pinned_work() if WORK.exists() else {}
    lowered = {}
    for name, argv, _ in GOLDEN:
        with tempfile.TemporaryDirectory() as tmp:
            lowered[name] = _run(argv, Path(tmp))[2]
    for name, key, call, check in SCALE:
        lowered[name] = _scale_work(key, call, check)
    for name, work in lowered.items():
        rose = _rises(pinned.get(name, {}), work)
        if rose:
            raise SystemExit(f"{name}: work rose {rose}; {WORK.name} may only go down")
    rows = ",\n".join(f"  {json.dumps(name)}: {json.dumps(w)}" for name, w in lowered.items())
    WORK.write_text("{\n" + rows + "\n}\n")
    print(f"recorded {WORK.name}", file=sys.stderr)


if __name__ == "__main__":
    _lower_work() if sys.argv[1:] == ["--lower-work"] else _record()
