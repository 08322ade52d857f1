"""Command line front end.

Every subcommand writes one JSON report to stdout and exits 0 when all
of its checks pass, 1 when a check fails, 2 on usage or input errors and
3 on any other error, which is a fault in the program; exits 2 and 3
print one ``error:`` line to stderr instead of a report.  Reports are
deterministic: numbers are rounded to 12 significant digits and timing
is written to stderr only, so identical inputs and seed give
byte-identical stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from typing import TYPE_CHECKING

import numpy as np

from . import io, linalg as la
from .checks import Check
from .linalg import ConvergenceError

# Every subcommand reads or builds a state, so ``states`` is imported
# here.  The other domain modules are imported inside the cmd_* functions
# and parse helpers that call them, so a process loads only the modules
# its subcommand uses.
from .states import (
    PureState,
    as_density,
    entangling_evolution_demo,
    is_product,
    make_ghz,
    make_singlet,
    product_basis_state,
    reduced_state,
    schmidt,
    total_spin_squared,
)

if TYPE_CHECKING:
    from .contexts import Observable
    from .correlations import Direction

_NAMED_STATES = {
    "singlet": make_singlet,
    "ghz": make_ghz,
    "zero": lambda: PureState(np.array([1.0, 0.0])),
    "one": lambda: PureState(np.array([0.0, 1.0])),
    "plus": lambda: PureState(np.array([1.0, 1.0]) / np.sqrt(2.0)),
    "minus": lambda: PureState(np.array([1.0, -1.0]) / np.sqrt(2.0)),
}

_NAMED_AXES = {
    "x": (1.0, 0.0, 0.0),
    "y": (0.0, 1.0, 0.0),
    "z": (0.0, 0.0, 1.0),
}


class InputError(ValueError):
    """Bad command input; maps to exit code 2."""


def parse_state(spec: str):
    """Named state, ``product:<i>,<j>`` or a JSON state file."""
    if spec in _NAMED_STATES:
        return _NAMED_STATES[spec]()
    if spec.startswith("product:"):
        try:
            i, j = (int(part) for part in spec.split(":", 1)[1].split(","))
        except ValueError as exc:
            raise InputError(f"bad product state {spec!r}: {exc}") from exc
        return product_basis_state(i, j)
    return io.load_state_json(_load_input(spec, "state"))


def parse_observable(spec: str) -> Observable:
    """Named Pauli, ``spin:<ax>,<ay>,<az>`` or a JSON observable file."""
    from .contexts import observable

    named = {
        "sigma_x": la.SIGMA_X,
        "sigma_y": la.SIGMA_Y,
        "sigma_z": la.SIGMA_Z,
    }
    if spec in named:
        return observable(named[spec], label=spec)
    if spec.startswith("spin:"):
        from .correlations import spin_observable

        direction = parse_direction(spec.split(":", 1)[1])
        return spin_observable(direction)
    return io.observable_from_json(_load_input(spec, "observable"))


def _load_input(spec: str, what: str):
    """The JSON in file ``spec``; InputError if it cannot be read or parsed."""
    try:
        return io.load_json(spec)
    except OSError as exc:
        raise InputError(f"{what} file {spec!r} cannot be read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{what} file {spec!r} is not valid JSON: {exc}") from exc


def parse_direction(spec: str) -> Direction:
    """Axis name, ``ax,ay,az`` unit triple, or ``deg:<angle>`` in the x-z plane."""
    from .correlations import Direction

    if spec in _NAMED_AXES:
        return Direction(*_NAMED_AXES[spec])
    if spec.startswith("deg:"):
        try:
            angle = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise InputError(f"bad angle in {spec!r}") from exc
        return Direction.polar(float(np.deg2rad(angle)))
    parts = spec.split(",")
    if len(parts) != 3:
        raise InputError(
            f"direction {spec!r} must be an axis name, deg:<angle>, or ax,ay,az"
        )
    try:
        x, y, z = (float(p) for p in parts)
    except ValueError as exc:
        raise InputError(f"direction {spec!r} has non-numeric components") from exc
    return Direction(x, y, z)


def _prob_dict(probabilities: dict[float, float]) -> dict[str, float]:
    return {repr(io.round_sig(k)): v for k, v in probabilities.items()}


def _report(args, results: dict, checks: list[Check]) -> dict:
    return {
        "subcommand": args.command,
        "inputs": {
            key: getattr(args, key)
            for key in sorted(vars(args))
            if key not in ("command", "out", "csv")
            and getattr(args, key) is not None
        },
        "seed": args.seed,
        "results": results,
        "checks": [c.as_json() for c in checks],
        "passed": all(c.passed for c in checks),
    }


def _pure_state(args) -> PureState:
    state = parse_state(args.state)
    if not isinstance(state, PureState):
        raise InputError(f"{args.command} needs a pure state vector")
    return state


def _infer_dims(args, dim: int) -> tuple[int, int]:
    if args.dims is not None:
        try:
            d1, d2 = (int(p) for p in args.dims.split(","))
        except ValueError as exc:
            raise InputError(f"bad dims {args.dims!r}; expected d1,d2") from exc
        return d1, d2
    if dim == 4:
        return 2, 2
    raise InputError(
        f"state dimension {dim} needs an explicit --dims d1,d2 factorisation"
    )


# Each cmd_<name> runs subcommand <name> (dashes as underscores) and
# returns its results and checks; ``main`` builds the report.


def cmd_schmidt(args):
    state = _pure_state(args)
    dims = _infer_dims(args, state.dim)
    dec = schmidt(state, dims)
    fidelity = abs(np.vdot(dec.reconstruct(), state.amplitudes)) ** 2
    norm = sum(c * c for c in dec.coefficients)
    results = {
        "dims": list(dims),
        "coefficients": list(dec.coefficients),
        "rank": dec.rank,
        "left_basis": [io.vector_to_json(v) for v in dec.left_basis],
        "right_basis": [io.vector_to_json(v) for v in dec.right_basis],
    }
    checks = [
        Check.below("reconstruction_infidelity", abs(1.0 - fidelity), args.tol),
        Check.below("coefficient_norm_error", abs(norm - 1.0), args.tol),
    ]
    return results, checks


def cmd_product_check(args):
    state = _pure_state(args)
    dims = _infer_dims(args, state.dim)
    flag, factors = is_product(state, dims)
    purity = reduced_state(state, dims, 1).purity()
    results = {
        "dims": list(dims),
        "is_product": flag,
        "reduced_purity": purity,
    }
    if factors is not None:
        results["factor_1"] = io.vector_to_json(factors[0].amplitudes)
        results["factor_2"] = io.vector_to_json(factors[1].amplitudes)
    agreement = flag == (abs(purity - 1.0) < 1e-8)
    return results, [Check("purity_rank_agreement", agreement, purity, 1e-8)]


def cmd_reduced(args):
    state = parse_state(args.state)
    rho = as_density(state)
    dims = _infer_dims(args, rho.dim)
    part = reduced_state(rho, dims, args.keep)
    results = {
        "dims": list(dims),
        "keep": args.keep,
        "reduced": io.matrix_to_json(part.matrix),
        "purity": part.purity(),
    }
    trace_error = abs(float(np.trace(part.matrix).real) - 1.0)
    return results, [Check.below("trace_error", trace_error, args.tol)]


def cmd_total_spin(args):
    state = parse_state(args.state)
    value = total_spin_squared(state)
    results = {"total_spin_squared": value}
    return results, [Check.within("within_physical_range", value, 2.0, args.tol)]


def cmd_evolve(args):
    trace = entangling_evolution_demo(args.coupling, args.time, steps=args.steps)
    points = [
        {
            "time": p.time,
            "coefficients": list(p.coefficients),
            "rank": p.rank,
        }
        for p in trace
    ]
    worst_norm = max(
        abs(sum(c * c for c in p.coefficients) - 1.0) for p in trace
    )
    checks = [
        Check("initial_rank_one", trace[0].rank == 1, float(trace[0].rank), 1.0),
        Check.below("coefficient_norm_error", worst_norm, args.tol),
    ]
    if args.coupling == 0.0:
        worst_second = max(p.coefficients[1] for p in trace)
        checks.append(Check.below("free_second_coefficient", worst_second, 1e-8))
    results = {"coupling": args.coupling, "trace": points}
    return results, checks


def cmd_luders(args):
    from .contexts import context, luders_nonselective, statistical_equivalence

    state = parse_state(args.state)
    obs = parse_observable(args.observable)
    ctx = context(state, obs)
    conditioned = luders_nonselective(ctx)
    equivalence = statistical_equivalence(ctx)
    results = {
        "conditioned_state": io.matrix_to_json(conditioned.state.matrix),
        "outcome_probabilities": _prob_dict(conditioned.outcome_probabilities),
    }
    trace_error = abs(float(np.trace(conditioned.state.matrix).real) - 1.0)
    prob_error = abs(sum(conditioned.outcome_probabilities.values()) - 1.0)
    checks = [
        Check.below("trace_preserved", trace_error, args.tol),
        Check.below("probabilities_sum_error", prob_error, args.tol),
        Check.below("equivalence_delta", equivalence.delta, args.tol),
    ]
    return results, checks


def cmd_representative(args):
    from .contexts import check_representative, context, luders_nonselective

    state = parse_state(args.state)
    obs = parse_observable(args.observable)
    report = check_representative(luders_nonselective(context(state, obs)))
    checks = [
        Check(
            "representative",
            report.representative,
            float(len(report.support_eigenvalues)),
            float(obs.dim),
        ),
    ]
    return dataclasses.asdict(report), checks


def cmd_equivalence(args):
    from .contexts import context, statistical_equivalence

    state = parse_state(args.state)
    obs = parse_observable(args.observable)
    probe = parse_observable(args.probe) if args.probe else None
    ctx = context(state, obs)
    result = statistical_equivalence(ctx, probe=probe)
    compatible = probe is None or la.commutes(obs.matrix, probe.matrix)
    results = {
        "expectation_initial": result.expectation_initial,
        "expectation_conditioned": result.expectation_conditioned,
        "delta": result.delta,
        "probe_compatible": compatible,
    }
    checks = []
    if compatible:
        checks.append(Check.below("equivalence_delta", result.delta, args.tol))
    return results, checks


def cmd_context_distance(args):
    from .contexts import contexts_distance

    state = parse_state(args.state)
    a = parse_observable(args.observable)
    b = parse_observable(args.probe)
    distance = contexts_distance(state, a, b)
    results = {"distance": distance}
    return results, [Check.within("within_unit_interval", distance, 1.0, args.tol)]


def cmd_sequential(args):
    from .contexts import sequential_luders

    state = parse_state(args.state)
    sequence = [parse_observable(spec) for spec in args.observable]
    final = sequential_luders(state, sequence)
    results = {
        "sequence": [obs.label for obs in sequence],
        "final_state": io.matrix_to_json(final.matrix),
        "purity": final.purity(),
    }
    trace_error = abs(float(np.trace(final.matrix).real) - 1.0)
    return results, [Check.below("trace_preserved", trace_error, args.tol)]


def cmd_boolean_lattice(args):
    from .contexts import boolean_lattice_check
    from .sampling import random_density

    obs = parse_observable(args.observable)
    states = None
    if args.seed is not None:
        rng = np.random.default_rng(args.seed)
        states = [random_density(obs.dim, rng) for _ in range(20)]
    report = boolean_lattice_check(obs, states=states, tol=args.tol)
    checks = [
        Check("lattice_checks_hold", report.all_hold, report.max_defect, args.tol),
    ]
    return dataclasses.asdict(report), checks


def _coplanar_partner(a: Direction, theta: float) -> Direction:
    """Unit vector at angle theta from a, in a deterministic plane."""
    from .correlations import Direction

    av = a.as_array()
    seed_axis = min(
        (np.eye(3)[i] for i in range(3)),
        key=lambda e: abs(float(e @ av)),
    )
    u = seed_axis - (seed_axis @ av) * av
    u = u / np.linalg.norm(u)
    b = np.cos(theta) * av + np.sin(theta) * u
    return Direction.normalized(*b)


def cmd_correlate(args):
    from .correlations import joint_probabilities

    state = parse_state(args.state)
    rho = as_density(state)
    a = parse_direction(args.a)
    if args.csv:
        rows = []
        worst_law = 0.0
        for k in range(args.points):
            theta = np.pi * k / (args.points - 1)
            b = _coplanar_partner(a, theta)
            record = joint_probabilities(rho, a, b)
            rows.append((float(np.degrees(theta)), record))
            direct = la._trace_product(rho.matrix, la._tensor(a.spin_matrix(), b.spin_matrix()))
            worst_law = max(worst_law, abs(record.expectation - direct))
        io.write_correlation_csv(args.csv, rows)
        results = {"csv": args.csv, "rows": len(rows)}
        return results, [Check.below("expectation_trace_agreement", worst_law, args.tol)]
    b = parse_direction(args.b)
    record = joint_probabilities(rho, a, b)
    direct = la._trace_product(rho.matrix, la._tensor(a.spin_matrix(), b.spin_matrix()))
    results = {
        "joint": {f"{i:+d},{j:+d}": record.joint[(i, j)] for i in (1, -1) for j in (1, -1)},
        "marginal_1": {f"{i:+d}": record.marginal_1[i] for i in (1, -1)},
        "marginal_2": {f"{j:+d}": record.marginal_2[j] for j in (1, -1)},
        "expectation": record.expectation,
    }
    checks = [
        Check.below("expectation_trace_agreement", abs(record.expectation - direct), args.tol),
        Check(
            "expectation_in_range",
            abs(record.expectation) <= 1.0 + args.tol,
            record.expectation,
            1.0,
        ),
    ]
    return results, checks


def cmd_chsh(args):
    from .correlations import chsh, chsh_optimal_settings

    state = parse_state(args.state)
    defaults = chsh_optimal_settings()
    directions = [
        parse_direction(spec) if spec else default
        for spec, default in zip((args.a, args.a2, args.b, args.b2), defaults)
    ]
    s = chsh(state, *directions)
    bound = 2.0 * np.sqrt(2.0)
    results = {
        "S": s,
        "abs_S": abs(s),
        "settings": [[d.x, d.y, d.z] for d in directions],
    }
    return results, [Check("quantum_bound", abs(s) <= bound + args.tol, abs(s), bound)]


def cmd_no_signalling(args):
    from .correlations import no_signalling_check

    state = parse_state(args.state)
    settings = [parse_direction(spec) for spec in (args.setting or ["z", "x", "y"])]
    b = parse_direction(args.b)
    deviation = no_signalling_check(state, settings, b)
    results = {"max_deviation": deviation, "settings_count": len(settings)}
    return results, [Check.below("no_signalling_deviation", deviation, args.tol)]


def cmd_outcome_dependence(args):
    from .correlations import outcome_dependence

    state = parse_state(args.state)
    a = parse_direction(args.a)
    b = parse_direction(args.b)
    value = outcome_dependence(state, a, b)
    results = {"outcome_dependence": value}
    return results, [Check.within("within_unit_interval", value, 1.0, args.tol)]


def cmd_remote_state(args):
    from .correlations import conditional_remote_state

    state = _pure_state(args)
    a = parse_direction(args.a)
    outcome = {"+1": 1, "+": 1, "1": 1, "-1": -1, "-": -1}.get(args.outcome)
    if outcome is None:
        raise InputError(f"outcome must be +1 or -1, got {args.outcome!r}")
    probability, remote = conditional_remote_state(state, a, outcome)
    results = {
        "probability": probability,
        "remote_state": io.vector_to_json(remote.amplitudes),
    }
    norm_error = abs(float(np.linalg.norm(remote.amplitudes)) - 1.0)
    checks = [
        Check.below("remote_norm_error", norm_error, args.tol),
        Check.within("probability_in_range", probability, 1.0, args.tol),
    ]
    return results, checks


def cmd_ks_square(args):
    from .contextuality import mermin_peres_square, search_noncontextual_assignment

    square = mermin_peres_square()
    search = search_noncontextual_assignment(square)
    results = {
        "labels": list(square.labels),
        "contexts": [list(c) for c in square.contexts],
        "signs": list(square.signs),
        "assignments_searched": search.cases_checked,
        "satisfying": search.satisfying_count,
    }
    checks = [
        Check.below("identity_defect", square.identity_defect, 1e-12),
        Check(
            "no_consistent_assignment",
            search.satisfying_count == 0,
            float(search.satisfying_count),
            0.0,
        ),
    ]
    return results, checks


def cmd_ks_search(args):
    from .contextuality import search_noncontextual_assignment

    problem = io.problem_from_json(_load_input(args.problem, "problem"))
    search = search_noncontextual_assignment(problem)
    results = {
        "observable_count": problem.size,
        "assignments_searched": search.cases_checked,
        "satisfying": search.satisfying_count,
        "example": search.example,
    }
    checks = []
    if search.example is not None:
        satisfies = problem.assignment_satisfies(search.example)
        checks.append(Check("example_satisfies_constraints", satisfies, 1.0, 1.0))
    return results, checks


def cmd_ghz(args):
    from .contextuality import ghz_contradiction

    report = ghz_contradiction()
    results = {
        "constraints": list(report.constraint_labels),
        "eigenvalues": list(report.eigenvalues),
        "residuals": list(report.residuals),
        "forced_product": report.forced_product,
        "constraint_product": report.constraint_product,
    }
    checks = [
        Check.below("eigenvalue_residual", max(report.residuals), args.tol),
        Check(
            "sign_contradiction",
            report.contradiction,
            float(report.constraint_product),
            float(report.forced_product),
        ),
    ]
    return results, checks


def cmd_value_dependence(args):
    from .contextuality import value_dependence_demo

    if len(args.observable) != 3:
        raise InputError(
            "value-dependence needs exactly three --observable flags: A, B, C"
        )
    state = parse_state(args.state)
    a, b, c = (parse_observable(spec) for spec in args.observable)
    report = value_dependence_demo(state, a, b, c, tol=args.tol)
    results = {
        "distribution_plain": _prob_dict(report.distribution_plain),
        "distribution_after_b": _prob_dict(report.distribution_after_b),
        "distribution_after_c": _prob_dict(report.distribution_after_c),
        "max_distribution_shift": report.max_shift,
        "preparation_distances": report.preparation_distances,
    }
    return results, [Check.below("compatible_marginals_fixed", report.max_shift, args.tol)]


def cmd_mub_tomography(args):
    from .mub import measure_statistics, reconstruct

    if args.stats:
        stats = io.statistics_from_json(_load_input(args.stats, "statistics"))
        rebuilt = reconstruct(stats)
        results = {
            "reconstructed": io.matrix_to_json(rebuilt.matrix),
            "purity": rebuilt.purity(),
        }
        trace_error = abs(float(np.trace(rebuilt.matrix).real) - 1.0)
        return results, [Check.below("reconstruction_trace_error", trace_error, args.tol)]
    if args.state is None:
        raise InputError("mub-tomography needs --state or --stats")
    state = parse_state(args.state)
    rho = as_density(state)
    stats = measure_statistics(rho, samples=args.samples, seed=args.seed)
    rebuilt = reconstruct(stats)
    distance = la._trace_distance(rho.matrix, rebuilt.matrix)
    results = {
        "statistics": io.statistics_to_json(stats),
        "reconstructed": io.matrix_to_json(rebuilt.matrix),
        "round_trip_distance": distance,
    }
    if args.samples is None:
        return results, [Check.below("exact_round_trip", distance, args.tol)]
    return results, [Check.below("sampled_round_trip", distance, 0.05)]


def cmd_suite(args):
    from . import acceptance

    last = la.counts()

    def progress(result, seconds):
        now = la.counts()
        done = {key: now[key] - last[key] for key in now}
        last.update(now)
        print(
            f"{result.summary_line()} in {seconds * 1000.0:.1f} ms, {done['eigensolves']} "
            f"eigensolves ({done['sweeps']} sweeps), {done['operator_checks']} operator and "
            f"{done['hermiticity_checks']} Hermiticity checks",
            file=sys.stderr,
        )

    criteria = acceptance.run_suite(progress)
    results = {
        "criteria": [
            {
                "number": r.number,
                "title": r.title,
                "passed": r.passed,
                "checks": [c.as_json() for c in r.checks],
            }
            for r in criteria
        ],
    }
    checks = [Check(f"criterion_{r.number}", r.passed, float(r.number), 0.0) for r in criteria]
    return results, checks


def _bounded(convert, ok, expected: str):
    """An argparse ``type``: ``convert(text)`` if ``ok`` accepts it, else exit 2."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


_FINITE = _bounded(float, math.isfinite, "a finite number")

# Largest |--coupling| and |--time|: the generator's norm and every phase
# lambda * t stay far from overflow, so no eigensolve or exp meets an inf.
MAX_MAGNITUDE = 1e100
_MODERATE = _bounded(
    float, lambda x: abs(x) <= MAX_MAGNITUDE, f"a number of magnitude at most {MAX_MAGNITUDE:g}"
)

# Upper bounds on loop counts, so that no argument asks for unbounded work.
MAX_STEPS = 10_000
MAX_POINTS = 10_000


def _arg(flag: str, **options) -> tuple[str, dict]:
    return flag, options


_STATE = _arg("--state", required=True)
_OBSERVABLE = _arg("--observable", required=True)
_DIMS = _arg("--dims", help="factorisation d1,d2")

# Every subcommand takes these, ahead of its own arguments.
_COMMON = (
    _arg("--tol", type=_FINITE, default=1e-9, help="check tolerance"),
    _arg("--seed", type=int, help="random seed"),
    _arg("--out", help="also write the JSON report here"),
)

# Subcommand -> (help, its own arguments).  ``main`` looks cmd_<name> up
# when it runs, so a wrapper rebound over the module attribute (the
# perfbench tracer's) is the function that runs.
COMMANDS = {
    "schmidt": ("Schmidt decomposition of a bipartite pure state", (_STATE, _DIMS)),
    "product-check": ("decide whether a pure state factorises", (_STATE, _DIMS)),
    "reduced": ("reduced state of one subsystem", (
        _STATE, _DIMS, _arg("--keep", type=int, choices=(1, 2), default=1),
    )),
    "total-spin": ("total spin squared of a two-spin state", (_STATE,)),
    "evolve": ("Schmidt trace of |00> under the coupled-spin generator", (
        _arg("--coupling", type=_MODERATE, default=1.0),
        _arg("--time", type=_MODERATE, default=0.5),
        _arg(
            "--steps",
            type=_bounded(int, lambda n: 1 <= n <= MAX_STEPS, f"an integer from 1 to {MAX_STEPS}"),
            default=10,
            help=f"time steps, 1 to {MAX_STEPS}",
        ),
    )),
    "luders": ("condition a state on a measurement context", (_STATE, _OBSERVABLE)),
    "representative": ("faithfulness of the conditioned expansion", (_STATE, _OBSERVABLE)),
    "equivalence": ("expectations before and after conditioning", (
        _STATE, _OBSERVABLE, _arg("--probe"),
    )),
    "context-distance": ("trace distance between two conditionings", (
        _STATE, _OBSERVABLE, _arg("--probe", required=True),
    )),
    "sequential": ("apply conditionings in order", (
        _STATE, _arg("--observable", action="append", required=True),
    )),
    "boolean-lattice": ("event algebra generated by one observable", (_OBSERVABLE,)),
    "correlate": ("joint outcome table for two spin settings", (
        _STATE,
        _arg("--a", default="z"),
        _arg("--b", default="z"),
        _arg("--csv", help="write a sweep over relative angle instead"),
        _arg(
            "--points",
            type=_bounded(int, lambda n: 2 <= n <= MAX_POINTS, f"an integer from 2 to {MAX_POINTS}"),
            default=37,
            help=f"sweep rows, 2 to {MAX_POINTS}",
        ),
    )),
    "chsh": ("CHSH combination at four settings", (
        _STATE, _arg("--a"), _arg("--a2"), _arg("--b"), _arg("--b2"),
    )),
    "no-signalling": ("distant marginals across setting choices", (
        _STATE, _arg("--setting", action="append"), _arg("--b", default="z"),
    )),
    "outcome-dependence": ("conditional response to a distant outcome", (
        _STATE, _arg("--a", default="z"), _arg("--b", default="z"),
    )),
    "remote-state": ("distant state after a selective measurement", (
        _STATE, _arg("--a", default="z"), _arg("--outcome", default="+1"),
    )),
    "ks-square": ("the 3x3 observable square and its search", ()),
    "ks-search": ("search a value-assignment problem file", (
        _arg("--problem", required=True),
    )),
    "ghz": ("three-spin parity contradiction", ()),
    "value-dependence": ("A-statistics under different partners", (
        _STATE, _arg("--observable", action="append", required=True, help="A, then B, then C"),
    )),
    "mub-tomography": ("reconstruct a qubit from unbiased bases", (
        _arg("--state"),
        _arg("--samples", type=int),
        _arg("--stats", help="statistics JSON instead of a state"),
    )),
    "suite": ("run the full acceptance battery", ()),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser of every subcommand, or of ``command`` alone.

    With ``command``, every subcommand is still registered with its name
    and help, but only ``command`` gets its arguments (``-h`` included),
    so ``--help``, ``command --help`` and the usage errors of a
    ``command`` run read the same as with the full parser.
    """
    parser = argparse.ArgumentParser(
        prog="qcontext",
        description=(
            "Exact desk-scale calculations on compound quantum states: "
            "entanglement structure, measurement contexts, correlations, "
            "contextuality obstructions and state reconstruction."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments) in COMMANDS.items():
        built = command is None or command == name
        p = sub.add_parser(name, help=help_text, add_help=built)
        if built:
            for flag, options in _COMMON + arguments:
                p.add_argument(flag, **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # build_parser and parse_args are looked up when main runs, so a
    # wrapper rebound over either (the perfbench tracer's) sees the call.
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    started = time.perf_counter()
    try:
        report = _report(args, *command(args))
        text = io.dump_json(report, path=args.out)
    except (ValueError, OSError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # A crash must not look like a failed check (exit 1); the line
        # names where it was raised in place of a traceback.
        import traceback

        where = traceback.extract_tb(exc.__traceback__)[-1]
        message = " ".join(str(exc).split())
        print(
            f"error: unexpected {type(exc).__name__} at "
            f"{os.path.basename(where.filename)}:{where.lineno}: {message}",
            file=sys.stderr,
        )
        return 3
    sys.stdout.write(text)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    print(f"elapsed_ms={elapsed_ms:.1f}", file=sys.stderr)
    return 0 if report["passed"] else 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
