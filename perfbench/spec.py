"""What the benchmark measures: workloads, metrics, bounds.

``python3 perfbench/run.py --write-spec`` writes this table to
``BENCHMARK.json`` at the root of the repository.
"""

from __future__ import annotations

import json

RUN_SECONDS = 25

WORKLOADS = {
    "suite": "the 12-criterion battery: thousands of eigensolves at n <= 4 and validation on every construction",
    "cli": "22 python -m qcontext subprocesses, one per subcommand: interpreter start, imports, argparse and io",
    "scale": "dense calls at d = 16 to 64 plus the 2^20-case search and the 256-element lattice",
}

# (name, unit, better, bound).  Every run also prints invocation_p50_ms,
# invocation_p90_ms and failed_ratio, which carry no bound (README.md).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("pass_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]


def _calls_and_self(*names: str) -> list[tuple[str, str]]:
    out = []
    for name in names:
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_ms", "ms"))
    return out


# (name, unit).  Counts are per pass and repeat exactly; times are medians
# over the traced passes of a run.
PER_LAYER = (
    [
        ("linalg.jacobi_eigh.calls", "count"),
        ("linalg.jacobi_eigh.calls.d2", "count"),
        ("linalg.jacobi_eigh.calls.d3-4", "count"),
        ("linalg.jacobi_eigh.calls.d5-16", "count"),
        ("linalg.jacobi_eigh.calls.d17-64", "count"),
        ("linalg.jacobi_eigh.self_ms", "ms"),
        ("linalg.jacobi_eigh.work_n3", "count"),
    ]
    + _calls_and_self(
        "linalg.spectral_decompose",
        "linalg.trace_distance",
        "linalg.tensor",
        "linalg.partial_trace",
        "states.PureState.init",
        "states.DensityOperator.init",
        "states.schmidt",
        "contexts.observable",
        "contexts.luders_nonselective",
        "contexts.boolean_lattice_check",
        "contextuality.search_noncontextual_assignment",
        "correlations.spin_observable",
        "correlations.joint_probabilities",
        "mub.measure_statistics",
        "mub.reconstruct",
    )
    + [
        ("contextuality.search_noncontextual_assignment.cases", "count"),
        ("correlations.spin_observable.distinct_ratio", "ratio"),
        ("sampling.self_ms", "ms"),
    ]
    + [(f"acceptance.criterion_{k:02d}.ms", "ms") for k in range(1, 13)]
    + _calls_and_self("io.dump_json")
    + [
        ("io.load.self_ms", "ms"),
        ("cli.parse_ms", "ms"),
        ("cli.command_ms", "ms"),
        ("cli.stdout_bytes", "bytes"),
        ("import.interpreter_ms", "ms"),
        ("import.numpy_ms", "ms"),
        ("import.qcontext_ms", "ms"),
        ("trace.overhead_ratio", "ratio"),
    ]
)

PER_LAYER_UNITS = dict(PER_LAYER)
END_TO_END_UNITS = {name: unit for name, unit, _, _ in END_TO_END}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": "higher" if n.endswith("distinct_ratio") else "lower"}
            for n, u in PER_LAYER
        ],
    }


def write(path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(benchmark_json(), fh, indent=2)
        fh.write("\n")
