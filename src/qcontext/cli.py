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
import json
import os
import sys
import time
import traceback

import numpy as np

from . import acceptance, io, linalg as la
from .contexts import (
    Observable,
    boolean_lattice_check,
    check_representative,
    context,
    contexts_distance,
    luders_nonselective,
    observable,
    sequential_luders,
    statistical_equivalence,
)
from .contextuality import (
    ghz_contradiction,
    mermin_peres_square,
    search_noncontextual_assignment,
    value_dependence_demo,
)
from .correlations import (
    Direction,
    chsh,
    chsh_optimal_settings,
    conditional_remote_state,
    correlation,
    joint_probabilities,
    no_signalling_check,
    outcome_dependence,
    spin_observable,
)
from .linalg import ConvergenceError, DimensionError
from .mub import measure_statistics, mub_qubit, reconstruct
from .sampling import random_density
from .states import (
    DensityOperator,
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
    try:
        payload = io.load_json(spec)
    except OSError as exc:
        raise InputError(
            f"state {spec!r} is neither a named state nor a readable file: {exc}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"state file {spec!r} is not valid JSON: {exc}") from exc
    return io.load_state_json(payload)


def parse_observable(spec: str) -> Observable:
    """Named Pauli, ``spin:<ax>,<ay>,<az>`` or a JSON observable file."""
    named = {
        "sigma_x": la.SIGMA_X,
        "sigma_y": la.SIGMA_Y,
        "sigma_z": la.SIGMA_Z,
    }
    if spec in named:
        return observable(named[spec], label=spec)
    if spec.startswith("spin:"):
        direction = parse_direction(spec.split(":", 1)[1])
        return spin_observable(direction)
    try:
        payload = io.load_json(spec)
    except OSError as exc:
        raise InputError(
            f"observable {spec!r} is neither named nor a readable file: {exc}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"observable file {spec!r} is not valid JSON: {exc}") from exc
    return io.observable_from_json(payload)


def parse_direction(spec: str) -> Direction:
    """Axis name, ``ax,ay,az`` unit triple, or ``deg:<angle>`` in the x-z plane."""
    if spec in _NAMED_AXES:
        return Direction(*_NAMED_AXES[spec])
    if spec.startswith("deg:"):
        try:
            angle = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise InputError(f"bad angle in {spec!r}") from exc
        return Direction.polar(np.deg2rad(angle))
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


def _check(name: str, passed: bool, measured: float, tolerance: float) -> dict:
    return {
        "name": name,
        "passed": bool(passed),
        "measured": float(measured),
        "tolerance": float(tolerance),
    }


def _below(name: str, measured: float, tolerance: float) -> dict:
    return _check(name, measured < tolerance, measured, tolerance)


def _prob_dict(probabilities: dict[float, float]) -> dict[str, float]:
    return {repr(io.round_sig(k)): v for k, v in probabilities.items()}


def _report(args, results: dict, checks: list[dict]) -> dict:
    return {
        "subcommand": args.command,
        "inputs": {
            key: getattr(args, key)
            for key in sorted(vars(args))
            if key not in ("command", "func", "out", "csv")
            and getattr(args, key) is not None
        },
        "seed": getattr(args, "seed", None),
        "results": results,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


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


def cmd_schmidt(args) -> dict:
    state = parse_state(args.state)
    if not isinstance(state, PureState):
        raise InputError("schmidt needs a pure state vector")
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
        _below("reconstruction_infidelity", abs(1.0 - fidelity), args.tol),
        _below("coefficient_norm_error", abs(norm - 1.0), args.tol),
    ]
    return _report(args, results, checks)


def cmd_product_check(args) -> dict:
    state = parse_state(args.state)
    if not isinstance(state, PureState):
        raise InputError("product-check needs a pure state vector")
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
    checks = [
        _check("purity_rank_agreement", agreement, purity, 1e-8),
    ]
    return _report(args, results, checks)


def cmd_reduced(args) -> dict:
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
    checks = [
        _below("trace_error", abs(float(np.trace(part.matrix).real) - 1.0), args.tol),
    ]
    return _report(args, results, checks)


def cmd_total_spin(args) -> dict:
    state = parse_state(args.state)
    value = total_spin_squared(as_density(state))
    results = {"total_spin_squared": value}
    checks = [
        _check("within_physical_range", -args.tol <= value <= 2.0 + args.tol, value, 2.0),
    ]
    return _report(args, results, checks)


def cmd_evolve(args) -> dict:
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
        _check("initial_rank_one", trace[0].rank == 1, float(trace[0].rank), 1.0),
        _below("coefficient_norm_error", worst_norm, args.tol),
    ]
    if args.coupling == 0.0:
        worst_second = max(p.coefficients[1] for p in trace)
        checks.append(_below("free_second_coefficient", worst_second, 1e-8))
    results = {"coupling": args.coupling, "trace": points}
    return _report(args, results, checks)


def cmd_luders(args) -> dict:
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
        _below("trace_preserved", trace_error, args.tol),
        _below("probabilities_sum_error", prob_error, args.tol),
        _below("equivalence_delta", equivalence.delta, args.tol),
    ]
    return _report(args, results, checks)


def cmd_representative(args) -> dict:
    state = parse_state(args.state)
    obs = parse_observable(args.observable)
    report = check_representative(luders_nonselective(context(state, obs)))
    results = {
        "eigenvector_condition": report.eigenvector_condition,
        "orthogonality_condition": report.orthogonality_condition,
        "support_condition": report.support_condition,
        "support_eigenvalues": list(report.support_eigenvalues),
        "excluded_eigenvalues": list(report.excluded_eigenvalues),
    }
    checks = [
        _check(
            "representative",
            report.representative,
            float(len(report.support_eigenvalues)),
            float(obs.dim),
        ),
    ]
    return _report(args, results, checks)


def cmd_equivalence(args) -> dict:
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
        checks.append(_below("equivalence_delta", result.delta, args.tol))
    return _report(args, results, checks)


def cmd_context_distance(args) -> dict:
    state = parse_state(args.state)
    a = parse_observable(args.observable)
    b = parse_observable(args.probe)
    distance = contexts_distance(as_density(state), a, b)
    results = {"distance": distance}
    checks = [
        _check("within_unit_interval", -args.tol <= distance <= 1.0 + args.tol, distance, 1.0),
    ]
    return _report(args, results, checks)


def cmd_sequential(args) -> dict:
    state = parse_state(args.state)
    sequence = [parse_observable(spec) for spec in args.observable]
    final = sequential_luders(as_density(state), sequence)
    results = {
        "sequence": [obs.label for obs in sequence],
        "final_state": io.matrix_to_json(final.matrix),
        "purity": final.purity(),
    }
    checks = [
        _below("trace_preserved", abs(float(np.trace(final.matrix).real) - 1.0), args.tol),
    ]
    return _report(args, results, checks)


def cmd_boolean_lattice(args) -> dict:
    obs = parse_observable(args.observable)
    states = None
    if args.seed is not None:
        rng = np.random.default_rng(args.seed)
        states = [random_density(obs.dim, rng) for _ in range(20)]
    report = boolean_lattice_check(obs, states=states, tol=args.tol)
    results = {
        "element_count": report.element_count,
        "projectors_orthogonal": report.projectors_orthogonal,
        "complete": report.complete,
        "closed_under_meet": report.closed_under_meet,
        "closed_under_join": report.closed_under_join,
        "closed_under_complement": report.closed_under_complement,
        "probabilities_consistent": report.probabilities_consistent,
        "max_defect": report.max_defect,
    }
    checks = [
        _check("lattice_checks_hold", report.all_hold, report.max_defect, args.tol),
    ]
    return _report(args, results, checks)


def _coplanar_partner(a: Direction, theta: float) -> Direction:
    """Unit vector at angle theta from a, in a deterministic plane."""
    av = a.as_array()
    seed_axis = min(
        (np.eye(3)[i] for i in range(3)),
        key=lambda e: abs(float(e @ av)),
    )
    u = seed_axis - (seed_axis @ av) * av
    u = u / np.linalg.norm(u)
    b = np.cos(theta) * av + np.sin(theta) * u
    return Direction.normalized(*b)


def cmd_correlate(args) -> dict:
    state = parse_state(args.state)
    rho = as_density(state)
    a = parse_direction(args.a)
    checks: list[dict] = []
    results: dict = {}
    if args.points < 2:
        raise InputError(f"--points must be at least 2, got {args.points}")
    if args.csv:
        rows = []
        worst_law = 0.0
        for k in range(args.points):
            theta = np.pi * k / (args.points - 1)
            b = _coplanar_partner(a, theta)
            record = joint_probabilities(rho, a, b)
            rows.append((float(np.degrees(theta)), record))
            direct = rho.expectation(
                la.tensor(spin_observable(a).matrix, spin_observable(b).matrix)
            )
            worst_law = max(worst_law, abs(record.expectation - direct))
        io.write_correlation_csv(args.csv, rows)
        results["csv"] = args.csv
        results["rows"] = len(rows)
        checks.append(_below("expectation_trace_agreement", worst_law, args.tol))
    else:
        b = parse_direction(args.b)
        record = joint_probabilities(rho, a, b)
        direct = rho.expectation(
            la.tensor(spin_observable(a).matrix, spin_observable(b).matrix)
        )
        results.update(
            {
                "joint": {f"{i:+d},{j:+d}": record.joint[(i, j)] for i in (1, -1) for j in (1, -1)},
                "marginal_1": {f"{i:+d}": record.marginal_1[i] for i in (1, -1)},
                "marginal_2": {f"{j:+d}": record.marginal_2[j] for j in (1, -1)},
                "expectation": record.expectation,
            }
        )
        checks.append(_below("expectation_trace_agreement", abs(record.expectation - direct), args.tol))
        checks.append(
            _check(
                "expectation_in_range",
                abs(record.expectation) <= 1.0 + args.tol,
                record.expectation,
                1.0,
            )
        )
    return _report(args, results, checks)


def cmd_chsh(args) -> dict:
    state = parse_state(args.state)
    rho = as_density(state)
    defaults = chsh_optimal_settings()
    directions = [
        parse_direction(spec) if spec else default
        for spec, default in zip((args.a, args.a2, args.b, args.b2), defaults)
    ]
    s = chsh(rho, *directions)
    bound = 2.0 * np.sqrt(2.0)
    results = {
        "S": s,
        "abs_S": abs(s),
        "settings": [[d.x, d.y, d.z] for d in directions],
    }
    checks = [
        _check("quantum_bound", abs(s) <= bound + args.tol, abs(s), bound),
    ]
    return _report(args, results, checks)


def cmd_no_signalling(args) -> dict:
    state = parse_state(args.state)
    settings = [parse_direction(spec) for spec in (args.setting or ["z", "x", "y"])]
    b = parse_direction(args.b)
    deviation = no_signalling_check(as_density(state), settings, b)
    results = {"max_deviation": deviation, "settings_count": len(settings)}
    checks = [_below("no_signalling_deviation", deviation, args.tol)]
    return _report(args, results, checks)


def cmd_outcome_dependence(args) -> dict:
    state = parse_state(args.state)
    a = parse_direction(args.a)
    b = parse_direction(args.b)
    value = outcome_dependence(as_density(state), a, b)
    results = {"outcome_dependence": value}
    checks = [
        _check("within_unit_interval", -args.tol <= value <= 1.0 + args.tol, value, 1.0),
    ]
    return _report(args, results, checks)


def cmd_remote_state(args) -> dict:
    state = parse_state(args.state)
    if not isinstance(state, PureState):
        raise InputError("remote-state needs a pure state vector")
    a = parse_direction(args.a)
    outcome = {"+1": 1, "+": 1, "1": 1, "-1": -1, "-": -1}.get(args.outcome)
    if outcome is None:
        raise InputError(f"outcome must be +1 or -1, got {args.outcome!r}")
    probability, remote = conditional_remote_state(state, a, outcome)
    results = {
        "probability": probability,
        "remote_state": io.vector_to_json(remote.amplitudes),
    }
    checks = [
        _below("remote_norm_error", abs(float(np.linalg.norm(remote.amplitudes)) - 1.0), args.tol),
        _check("probability_in_range", -args.tol <= probability <= 1.0 + args.tol, probability, 1.0),
    ]
    return _report(args, results, checks)


def cmd_ks_square(args) -> dict:
    square = mermin_peres_square()
    eye = np.eye(4, dtype=complex)
    worst = 0.0
    for ctx_indices, sign in zip(square.contexts, square.signs):
        product = eye.copy()
        for i in ctx_indices:
            product = product @ square.observables[i]
        worst = max(worst, float(np.abs(product - sign * eye).max()))
    search = search_noncontextual_assignment(square)
    results = {
        "labels": list(square.labels),
        "contexts": [list(c) for c in square.contexts],
        "signs": list(square.signs),
        "assignments_searched": search.cases_checked,
        "satisfying": search.satisfying_count,
    }
    checks = [
        _below("identity_defect", worst, 1e-12),
        _check(
            "no_consistent_assignment",
            search.satisfying_count == 0,
            float(search.satisfying_count),
            0.0,
        ),
    ]
    return _report(args, results, checks)


def cmd_ks_search(args) -> dict:
    payload = io.load_json(args.problem)
    problem = io.problem_from_json(payload)
    search = search_noncontextual_assignment(problem)
    results = {
        "observable_count": problem.size,
        "assignments_searched": search.cases_checked,
        "satisfying": search.satisfying_count,
        "example": search.example,
    }
    checks = []
    if search.example is not None:
        checks.append(
            _check(
                "example_satisfies_constraints",
                problem.assignment_satisfies(search.example),
                1.0,
                1.0,
            )
        )
    return _report(args, results, checks)


def cmd_ghz(args) -> dict:
    report = ghz_contradiction()
    results = {
        "constraints": list(report.constraint_labels),
        "eigenvalues": list(report.eigenvalues),
        "residuals": list(report.residuals),
        "forced_product": report.forced_product,
        "constraint_product": report.constraint_product,
    }
    checks = [
        _below("eigenvalue_residual", max(report.residuals), args.tol),
        _check(
            "sign_contradiction",
            report.contradiction,
            float(report.constraint_product),
            float(report.forced_product),
        ),
    ]
    return _report(args, results, checks)


def cmd_value_dependence(args) -> dict:
    if len(args.observable) != 3:
        raise InputError(
            "value-dependence needs exactly three --observable flags: A, B, C"
        )
    state = parse_state(args.state)
    a, b, c = (parse_observable(spec) for spec in args.observable)
    report = value_dependence_demo(as_density(state), a, b, c, tol=args.tol)
    results = {
        "distribution_plain": _prob_dict(report.distribution_plain),
        "distribution_after_b": _prob_dict(report.distribution_after_b),
        "distribution_after_c": _prob_dict(report.distribution_after_c),
        "max_distribution_shift": report.max_shift,
        "preparation_distances": report.preparation_distances,
    }
    checks = [
        _below("compatible_marginals_fixed", report.max_shift, args.tol),
    ]
    return _report(args, results, checks)


def cmd_mub_tomography(args) -> dict:
    bases = mub_qubit()
    if args.stats:
        stats = io.statistics_from_json(io.load_json(args.stats))
        rebuilt = reconstruct(stats, bases)
        results = {
            "reconstructed": io.matrix_to_json(rebuilt.matrix),
            "purity": rebuilt.purity(),
        }
        checks = [
            _below(
                "reconstruction_trace_error",
                abs(float(np.trace(rebuilt.matrix).real) - 1.0),
                args.tol,
            ),
        ]
        return _report(args, results, checks)
    if args.state is None:
        raise InputError("mub-tomography needs --state or --stats")
    state = parse_state(args.state)
    rho = as_density(state)
    stats = measure_statistics(rho, bases, samples=args.samples, seed=args.seed)
    rebuilt = reconstruct(stats, bases)
    distance = la.trace_distance(rho.matrix, rebuilt.matrix)
    results = {
        "statistics": io.statistics_to_json(stats),
        "reconstructed": io.matrix_to_json(rebuilt.matrix),
        "round_trip_distance": distance,
    }
    if args.samples is None:
        checks = [_below("exact_round_trip", distance, args.tol)]
    else:
        checks = [_below("sampled_round_trip", distance, 0.05)]
    return _report(args, results, checks)


def cmd_suite(args) -> dict:
    def progress(result, seconds):
        print(f"{result.summary_line()} in {seconds * 1000.0:.1f} ms", file=sys.stderr)

    results = acceptance.run_suite(progress)
    payload = {
        "criteria": [
            {
                "number": r.number,
                "title": r.title,
                "passed": r.passed,
                "checks": [
                    {
                        "name": c.name,
                        "passed": c.passed,
                        "measured": c.measured,
                        "tolerance": c.tolerance,
                        "detail": c.detail,
                    }
                    for c in r.checks
                ],
            }
            for r in results
        ],
    }
    checks = [
        _check(f"criterion_{r.number}", r.passed, float(r.number), 0.0)
        for r in results
    ]
    return _report(args, payload, checks)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcontext",
        description=(
            "Exact desk-scale calculations on compound quantum states: "
            "entanglement structure, measurement contexts, correlations, "
            "contextuality obstructions and state reconstruction."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--tol", type=float, default=1e-9, help="check tolerance")
        p.add_argument("--seed", type=int, default=None, help="random seed")
        p.add_argument("--out", default=None, help="also write the JSON report here")
        return p

    p = add("schmidt", cmd_schmidt, "Schmidt decomposition of a bipartite pure state")
    p.add_argument("--state", required=True)
    p.add_argument("--dims", default=None, help="factorisation d1,d2")

    p = add("product-check", cmd_product_check, "decide whether a pure state factorises")
    p.add_argument("--state", required=True)
    p.add_argument("--dims", default=None)

    p = add("reduced", cmd_reduced, "reduced state of one subsystem")
    p.add_argument("--state", required=True)
    p.add_argument("--dims", default=None)
    p.add_argument("--keep", type=int, choices=(1, 2), default=1)

    p = add("total-spin", cmd_total_spin, "total spin squared of a two-spin state")
    p.add_argument("--state", required=True)

    p = add("evolve", cmd_evolve, "Schmidt trace of |00> under the coupled-spin generator")
    p.add_argument("--coupling", type=float, default=1.0)
    p.add_argument("--time", type=float, default=0.5)
    p.add_argument("--steps", type=int, default=10)

    p = add("luders", cmd_luders, "condition a state on a measurement context")
    p.add_argument("--state", required=True)
    p.add_argument("--observable", required=True)

    p = add("representative", cmd_representative, "faithfulness of the conditioned expansion")
    p.add_argument("--state", required=True)
    p.add_argument("--observable", required=True)

    p = add("equivalence", cmd_equivalence, "expectations before and after conditioning")
    p.add_argument("--state", required=True)
    p.add_argument("--observable", required=True)
    p.add_argument("--probe", default=None)

    p = add("context-distance", cmd_context_distance, "trace distance between two conditionings")
    p.add_argument("--state", required=True)
    p.add_argument("--observable", required=True)
    p.add_argument("--probe", required=True)

    p = add("sequential", cmd_sequential, "apply conditionings in order")
    p.add_argument("--state", required=True)
    p.add_argument("--observable", action="append", required=True)

    p = add("boolean-lattice", cmd_boolean_lattice, "event algebra generated by one observable")
    p.add_argument("--observable", required=True)

    p = add("correlate", cmd_correlate, "joint outcome table for two spin settings")
    p.add_argument("--state", required=True)
    p.add_argument("--a", default="z")
    p.add_argument("--b", default="z")
    p.add_argument("--csv", default=None, help="write a sweep over relative angle instead")
    p.add_argument("--points", type=int, default=37, help="sweep rows, at least 2")

    p = add("chsh", cmd_chsh, "CHSH combination at four settings")
    p.add_argument("--state", required=True)
    p.add_argument("--a", default=None)
    p.add_argument("--a2", default=None)
    p.add_argument("--b", default=None)
    p.add_argument("--b2", default=None)

    p = add("no-signalling", cmd_no_signalling, "distant marginals across setting choices")
    p.add_argument("--state", required=True)
    p.add_argument("--setting", action="append", default=None)
    p.add_argument("--b", default="z")

    p = add("outcome-dependence", cmd_outcome_dependence, "conditional response to a distant outcome")
    p.add_argument("--state", required=True)
    p.add_argument("--a", default="z")
    p.add_argument("--b", default="z")

    p = add("remote-state", cmd_remote_state, "distant state after a selective measurement")
    p.add_argument("--state", required=True)
    p.add_argument("--a", default="z")
    p.add_argument("--outcome", default="+1")

    add("ks-square", cmd_ks_square, "the 3x3 observable square and its search")

    p = add("ks-search", cmd_ks_search, "search a value-assignment problem file")
    p.add_argument("--problem", required=True)

    add("ghz", cmd_ghz, "three-spin parity contradiction")

    p = add("value-dependence", cmd_value_dependence, "A-statistics under different partners")
    p.add_argument("--state", required=True)
    p.add_argument("--observable", action="append", required=True, help="A, then B, then C")

    p = add("mub-tomography", cmd_mub_tomography, "reconstruct a qubit from unbiased bases")
    p.add_argument("--state", default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--stats", default=None, help="statistics JSON instead of a state")

    add("suite", cmd_suite, "run the full acceptance battery")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        report = args.func(args)
        text = io.dump_json(report, path=args.out)
    except (
        InputError, DimensionError, ValueError, OSError, KeyError, ConvergenceError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # A crash must not look like a failed check (exit 1); the line
        # names where it was raised in place of a traceback.
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
