"""The three workloads: their seeded inputs, their passes and their checks.

A pass is one trip through a workload's fixed task list.  ``run_pass``
returns a ``PassResult``: the wall time of each task, the failed tasks
and, for the in-process ``cli`` pass, the bytes written to stdout.
Correctness checks run after the timed calls of a pass.
"""

from __future__ import annotations

import contextlib
import io as pyio
import json
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from qcontext import acceptance, cli, contexts, contextuality, linalg, states
from qcontext import io as qio
from qcontext.mub import MeasurementStatistics

clock = time.perf_counter


@dataclass
class PassResult:
    task_seconds: list[float]
    failures: list[str] = field(default_factory=list)
    stdout_bytes: int = 0

    @property
    def seconds(self) -> float:
        return sum(self.task_seconds)


def child_env(root: str) -> dict:
    """This environment (threads pinned) with the checkout's ``src`` first."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _describe(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _complex_normal(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _unit_vector(rng, n: int) -> np.ndarray:
    v = _complex_normal(rng, n)
    return v / np.linalg.norm(v)


def _hermitian(rng, n: int) -> np.ndarray:
    g = _complex_normal(rng, (n, n))
    return 0.5 * (g + g.conj().T)


def _density(rng, n: int) -> np.ndarray:
    g = _complex_normal(rng, (n, n))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _direction(rng) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# The 3x3 two-qubit observable square without its -1 column: five
# satisfiable context constraints over nine observables (16 solutions).
_SQUARE = ("XI", "IX", "XX", "IY", "YI", "YY", "XY", "YX", "ZZ")
_RELAXED_CONTEXTS = ((0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7))


def _pauli_pair(label: str) -> np.ndarray:
    return np.kron(_PAULI[label[0]], _PAULI[label[1]])


def padded_square(rng, padding: int):
    """Relaxed square plus ``padding`` identity observables, order shuffled."""
    labels = list(_SQUARE) + [f"I{k}" for k in range(padding)]
    mats = [_pauli_pair(lab) for lab in _SQUARE] + [np.eye(4, dtype=complex)] * padding
    order = rng.permutation(len(labels))
    position = {int(old): new for new, old in enumerate(order)}
    return {
        "observables": tuple(mats[i] for i in order),
        "labels": tuple(labels[i] for i in order),
        "contexts": tuple(tuple(position[i] for i in ctx) for ctx in _RELAXED_CONTEXTS),
        "signs": (1,) * len(_RELAXED_CONTEXTS),
    }


# --------------------------------------------------------------------- suite


class Suite:
    """One pass is ``acceptance.run_suite()``; a task is one criterion.

    The criteria carry their own fixed seeds, so the seed is unused.
    """

    name = "suite"

    def __init__(self, root: str, seed: int, work: str):
        self.criterion_names = [f.__name__ for f in acceptance.ALL_CRITERIA]
        self.tasks_per_pass = len(self.criterion_names)

    def setup(self) -> None:
        self.run_pass()

    def run_pass(self) -> PassResult:
        times: list[float] = []

        def timed(criterion):
            def call():
                start = clock()
                try:
                    return criterion()
                finally:
                    times.append(clock() - start)
            return call

        bound = acceptance.ALL_CRITERIA
        acceptance.ALL_CRITERIA = tuple(timed(c) for c in bound)
        try:
            results = acceptance.run_suite()
        except Exception as exc:  # a crash fails every criterion of the pass
            return PassResult(times, [f"run_suite raised {_describe(exc)}"] * self.tasks_per_pass)
        finally:
            acceptance.ALL_CRITERIA = bound
        failures = [r.summary_line() for r in results if not r.passed]
        if len(results) != self.tasks_per_pass:
            failures.append(f"{len(results)} criteria ran, expected {self.tasks_per_pass}")
        return PassResult(times, failures)

    in_process_pass = run_pass

    def layer_times(self, tracer) -> dict[str, float]:
        return {
            f"acceptance.criterion_{k:02d}.ms": tracer.total_s[f"acceptance.{name}"] * 1e3
            for k, name in enumerate(self.criterion_names, start=1)
        }


# ----------------------------------------------------------------------- cli


class Cli:
    """One pass is 22 ``python -m qcontext`` subprocesses, run one at a time.

    The mix is the README commands except ``suite`` plus one call for
    every other subcommand.  File inputs are written in set-up with the
    ``qcontext.io`` writers.  The traced pass calls ``qcontext.cli.main``
    in-process with stdout captured.
    """

    name = "cli"

    def __init__(self, root: str, seed: int, work: str):
        self.root = root
        self.seed = seed
        self.work = work
        self.env = child_env(root)
        self.calls = self._write_inputs()
        self.tasks_per_pass = len(self.calls)
        self.reference: list[bytes | None] = [None] * len(self.calls)

    def _write_inputs(self) -> list[list[str]]:
        rng = np.random.default_rng(self.seed)
        w = lambda name: os.path.join(self.work, name)  # noqa: E731

        def dump(name, payload):
            qio.dump_json(payload, path=w(name))
            return w(name)

        def matrix_file(name, m):
            return dump(name, qio.matrix_to_json(m))

        def observable_file(name, m):
            return dump(name, qio.observable_to_json(contexts.observable(m, label=name)))

        pure2 = dump("pure2.json", qio.vector_to_json(_unit_vector(rng, 4)))
        pure1 = dump("pure1.json", qio.vector_to_json(_unit_vector(rng, 2)))
        rho2 = matrix_file("rho2.json", _density(rng, 4))
        obs1 = observable_file("obs1.json", _hermitian(rng, 2))
        obs4 = observable_file("obs4.json", _hermitian(rng, 4))
        n1, n2 = _direction(rng), _direction(rng)
        spin = lambda n: sum(c * _PAULI[a] for c, a in zip(n, "XYZ"))  # noqa: E731
        obs_a = observable_file("obs_a.json", np.kron(_PAULI["Z"], _PAULI["I"]))
        obs_b = observable_file("obs_b.json", np.kron(_PAULI["I"], spin(n1)))
        obs_c = observable_file("obs_c.json", np.kron(_PAULI["I"], spin(n2)))
        problem = dump(
            "problem.json",
            qio.problem_to_json(
                contextuality.ValueAssignmentProblem(**padded_square(rng, 0))
            ),
        )
        bloch = _direction(rng) * rng.uniform(0.1, 0.9)
        tables = tuple((0.5 * (1 + r), 0.5 * (1 - r)) for r in (bloch[2], bloch[0], bloch[1]))
        stats = dump(
            "stats.json",
            qio.statistics_to_json(MeasurementStatistics(dim=2, tables=tables)),
        )
        triple = lambda n: ",".join(repr(float(x)) for x in n)  # noqa: E731
        a, b = triple(_direction(rng)), triple(_direction(rng))
        coupling = f"{rng.uniform(0.2, 2.0):.4f}"
        return [
            # README commands except suite
            ["schmidt", "--state", "singlet"],
            ["luders", "--state", "plus", "--observable", "sigma_z"],
            ["chsh", "--state", "singlet"],
            ["correlate", "--state", "singlet", "--csv", w("sweep.csv")],
            ["ks-square"],
            ["ghz"],
            ["mub-tomography", "--state", "plus", "--samples", "100000", "--seed", "7"],
            # every other subcommand
            ["product-check", "--state", pure2],
            ["reduced", "--state", rho2, "--keep", "2"],
            ["total-spin", "--state", rho2],
            ["evolve", "--coupling", coupling, "--time", "0.5"],
            ["representative", "--state", pure1, "--observable", obs1],
            ["equivalence", "--state", pure1, "--observable", obs1, "--probe", "sigma_x"],
            ["context-distance", "--state", pure1, "--observable", obs1, "--probe", "sigma_z"],
            ["sequential", "--state", rho2, "--observable", obs4, "--observable", obs_b],
            ["boolean-lattice", "--observable", obs4],
            # "=" keeps a leading minus sign from reading as an option
            ["no-signalling", "--state", rho2, f"--b={a}"],
            ["outcome-dependence", "--state", "singlet", f"--a={a}", f"--b={b}"],
            ["remote-state", "--state", pure2, f"--a={b}", "--outcome=-1"],
            ["ks-search", "--problem", problem],
            ["value-dependence", "--state", rho2, "--observable", obs_a,
             "--observable", obs_b, "--observable", obs_c],
            ["mub-tomography", "--stats", stats],
        ]

    def _check(self, k: int, code: int, out: bytes, err: bytes) -> str | None:
        label = f"call {k} ({self.calls[k][0]})"
        if code != 0:
            return f"{label}: exit {code}: {err.decode(errors='replace').strip()[-300:]}"
        try:
            passed = json.loads(out).get("passed")
        except ValueError as exc:
            return f"{label}: stdout is not JSON ({exc})"
        if passed is not True:
            return f"{label}: report says passed={passed!r}"
        if self.reference[k] is None:
            self.reference[k] = out
        elif out != self.reference[k]:
            return f"{label}: stdout differs from the first pass"
        return None

    def setup(self) -> None:
        # One untimed call per subcommand: warms __pycache__ and records
        # the stdout every later pass must reproduce byte for byte.
        self.run_pass()

    def run_pass(self) -> PassResult:
        result = PassResult([])
        for k, argv in enumerate(self.calls):
            start = clock()
            proc = subprocess.run(
                [sys.executable, "-m", "qcontext", *argv],
                cwd=self.root, env=self.env, capture_output=True, check=False,
            )
            result.task_seconds.append(clock() - start)
            failure = self._check(k, proc.returncode, proc.stdout, proc.stderr)
            if failure:
                result.failures.append(failure)
        return result

    def in_process_pass(self) -> PassResult:
        """The same calls through ``qcontext.cli.main`` in this process."""
        result = PassResult([])
        for k, argv in enumerate(self.calls):
            out, err = pyio.StringIO(), pyio.StringIO()
            start = clock()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except Exception as exc:
                    code, err = 3, pyio.StringIO(_describe(exc))
            result.task_seconds.append(clock() - start)
            text = out.getvalue().encode()
            result.stdout_bytes += len(text)
            failure = self._check(k, code, text, err.getvalue().encode())
            if failure:
                result.failures.append(failure)
        return result

    def layer_times(self, tracer) -> dict[str, float]:
        return {
            "cli.parse_ms": (tracer.total_s["cli.build_parser"] + tracer.total_s["cli.parse_args"]) * 1e3,
            "cli.command_ms": sum(t for n, t in tracer.total_s.items() if n.startswith("cli.cmd_")) * 1e3,
        }


# --------------------------------------------------------------------- scale


def _check_schmidt(inputs, key, dec):
    psi, dims = inputs[key]
    want = np.linalg.svd(psi.reshape(dims), compute_uv=False)
    got = np.array(dec.coefficients)
    if got.size != want.size:
        return f"rank {got.size}, svd gives {want.size}"
    err = float(np.abs(got - want).max())
    return None if err < 1e-10 else f"coefficients differ from svd by {err:.3e}"


def _check_levels(inputs, key, dec):
    want = np.linalg.eigvalsh(inputs[key])
    got = np.array(dec.eigenvalues)
    if got.size != want.size:
        return f"{got.size} levels, eigvalsh gives {want.size}"
    err = float(np.abs(got - want).max())
    return None if err < 1e-9 else f"levels differ from eigvalsh by {err:.3e}"


def _check_density(inputs, key, rho):
    return None if np.array_equal(rho.matrix, inputs[key]) else "matrix changed"


def _check_luders(inputs, key, cs):
    w = cs.state.matrix
    a = cs.context.observable.matrix
    trace_err = abs(complex(np.trace(w)) - 1.0)
    if trace_err > 1e-10:
        return f"conditioned trace off by {trace_err:.3e}"
    comm = float(np.abs(w @ a - a @ w).max())
    return None if comm < 1e-9 else f"conditioned state fails to commute ({comm:.3e})"


def _check_search(inputs, key, res):
    padding = len(inputs[key]["labels"]) - len(_SQUARE)
    want = (2 ** (len(_SQUARE) + padding), 16 * 2 ** padding)
    got = (res.cases_checked, res.satisfying_count)
    return None if got == want else f"(cases, satisfying) = {got}, expected {want}"


def _check_lattice(inputs, key, rep):
    want = 2 ** inputs[key + "_levels"]
    if not rep.all_hold:
        return f"lattice checks fail (max defect {rep.max_defect:.3e})"
    return None if rep.element_count == want else f"{rep.element_count} elements, expected {want}"


def _luders(m, h):
    return contexts.luders_nonselective(contexts.context(m, contexts.observable(h)))


# (task, input key, call, check).  Calls look qcontext up at call time so
# the tracer's wrappers are used when installed.
SCALE_TASKS = (
    ("schmidt_8x8", "psi_a", lambda x: states.schmidt(x[0], x[1]), _check_schmidt),
    ("schmidt_2x32", "psi_b", lambda x: states.schmidt(x[0], x[1]), _check_schmidt),
    ("spectral_d32", "h_mid", lambda h: linalg.spectral_decompose(h), _check_levels),
    ("spectral_d64", "h_big", lambda h: linalg.spectral_decompose(h), _check_levels),
    ("density_d64", "w_big", lambda w: states.DensityOperator(w), _check_density),
    ("luders_d16", "luders_mid", lambda x: _luders(*x), _check_luders),
    ("luders_d64", "luders_big", lambda x: _luders(*x), _check_luders),
    ("search_2^20", "problem", lambda p: contextuality.search_noncontextual_assignment(
        contextuality.ValueAssignmentProblem(**p)), _check_search),
    ("lattice_8", "lattice", lambda h: contexts.boolean_lattice_check(contexts.observable(h)),
     _check_lattice),
)


def scale_inputs(rng, full: bool = True) -> dict:
    """Inputs at the top of the supported range, or small ones for warm-up."""
    big, mid, lo = (64, 32, 16) if full else (8, 4, 4)
    levels = 8 if full else 3
    return {
        "psi_a": (_unit_vector(rng, big), (8, 8) if full else (2, 4)),
        "psi_b": (_unit_vector(rng, big), (2, 32) if full else (2, 4)),
        "h_mid": _hermitian(rng, mid),
        "h_big": _hermitian(rng, big),
        "w_big": _density(rng, big),
        "luders_mid": (_density(rng, lo), _hermitian(rng, lo)),
        "luders_big": (_density(rng, big), _hermitian(rng, big)),
        "problem": padded_square(rng, 11 if full else 0),
        "lattice": _hermitian(rng, levels),
        "lattice_levels": levels,
    }


class Scale:
    """One pass is the ``SCALE_TASKS`` calls on inputs from the seed."""

    name = "scale"

    def __init__(self, root: str, seed: int, work: str):
        self.inputs = scale_inputs(np.random.default_rng(seed))
        self.warm_inputs = scale_inputs(np.random.default_rng(seed + 1), full=False)
        self.tasks_per_pass = len(SCALE_TASKS)

    def setup(self) -> None:
        self._run(self.warm_inputs)

    def run_pass(self) -> PassResult:
        return self._run(self.inputs)

    in_process_pass = run_pass

    def _run(self, inputs) -> PassResult:
        result = PassResult([])
        for task, key, call, check in SCALE_TASKS:
            start = clock()
            try:
                out = call(inputs[key])
            except Exception as exc:
                result.task_seconds.append(clock() - start)
                result.failures.append(f"{task}: {_describe(exc)}")
                continue
            result.task_seconds.append(clock() - start)
            problem = check(inputs, key, out)
            if problem:
                result.failures.append(f"{task}: {problem}")
        return result

    def layer_times(self, tracer) -> dict[str, float]:
        return {}


WORKLOADS = {"suite": Suite, "cli": Cli, "scale": Scale}
