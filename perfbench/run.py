"""Benchmark for the qcontext package in ``src/`` of this checkout.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py                  # all three workloads in turn
    python3 perfbench/run.py --write-spec     # rewrite BENCHMARK.json

A run sets up its workload (imports, seeded inputs, warm-up), runs
closed-loop passes for about ``--seconds`` seconds, checks every output
and prints, as the last line of stdout, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones of ``spec.END_TO_END``; with
``--trace 1`` passes alternate untraced and traced and the metrics are the
per-layer ones of ``spec.PER_LAYER``.  Everything runs in one process on
one thread per BLAS pool; ``cli`` children get the same pinning.

Runs write their record (environment, samples, failures) and the spans of
a traced run under ``.perfbench_out/`` at the root of the checkout.
"""

from __future__ import annotations

import os
import sys
import time

STARTED = time.perf_counter()

PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINNED:  # before numpy is imported, here and in every child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import spec  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

MIN_PASSES = 2
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 5

clock = time.perf_counter


def load_qcontext() -> None:
    """Import qcontext from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "qcontext", "__init__.py")):
        sys.exit(f"perfbench: no qcontext package under {SRC}")
    sys.path.insert(0, SRC)
    import qcontext

    if not os.path.abspath(qcontext.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: qcontext imported from {qcontext.__file__}, not {SRC}")


# ------------------------------------------------------------- environment


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _commit(),
        "pinned": {var: os.environ[var] for var in PINNED},
    }


# ---------------------------------------------------------------- helpers


def _percentile(values: list[float], q: int) -> float:
    """q-th percentile (q in 1..99), interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _setup_probes(args) -> list[float]:
    """Set-up time of fresh processes: import, inputs and warm-up."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _import_times() -> dict[str, float]:
    """Interpreter start, numpy import and qcontext's own import, in ms."""
    from workloads import child_env

    env = child_env(ROOT)
    interpreter, numpy_ms, own_ms = [], [], []
    for _ in range(IMPORT_SAMPLES):
        start = clock()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True)
        interpreter.append((clock() - start) * 1e3)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qcontext"],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]))
        numpy_ms.append(cumulative["numpy"] / 1e3)
        own_ms.append((cumulative["qcontext"] - cumulative["numpy"]) / 1e3)
    return {
        "import.interpreter_ms": statistics.median(interpreter),
        "import.numpy_ms": statistics.median(numpy_ms),
        "import.qcontext_ms": statistics.median(own_ms),
    }


def _layer_values(tracer, workload, result) -> tuple[dict, dict]:
    """Per-pass counts (must repeat exactly) and times of one traced pass."""
    counts = dict(tracer.counts)
    counts["correlations.spin_observable.distinct"] = len(tracer.directions)
    counts["cli.stdout_bytes"] = result.stdout_bytes
    times = {}
    for name, _ in spec.PER_LAYER:
        if name.endswith(".self_ms"):
            times[name] = tracer.self_s[name[: -len(".self_ms")]] * 1e3
    times["sampling.self_ms"] = sum(
        t for n, t in tracer.self_s.items() if n.startswith("sampling.")
    ) * 1e3
    times["io.load.self_ms"] = sum(
        t for n, t in tracer.self_s.items()
        if n.startswith("io.load") or (n.startswith("io.") and n.endswith("_from_json"))
    ) * 1e3
    times.update(workload.layer_times(tracer))
    return counts, times


# ------------------------------------------------------------------- runs


def timed_run(workload, args, setup_s: float) -> tuple[dict, list, dict, list]:
    passes = []
    start = clock()
    while True:
        passes.append(workload.run_pass())
        next_end = clock() - start + statistics.median(p.seconds for p in passes)
        if len(passes) >= MIN_PASSES and next_end > args.seconds:
            break
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    setup = [setup_s] + _setup_probes(args)
    tasks = [t * 1e3 for p in passes for t in p.task_seconds]
    metrics = {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(p.seconds for p in passes),
        "peak_rss_mb": peak_rss_mb,
    }
    # Printed and recorded, not bounded: see README.md.
    shown = [
        ("invocation_p50_ms", statistics.median(tasks), "ms", f"n={len(tasks)}"),
        ("invocation_p90_ms", _percentile(tasks, 90), "ms", f"n={len(tasks)}"),
    ]
    samples = {
        "setup_s": setup,
        "pass_s": [p.seconds for p in passes],
        "task_ms": [[t * 1e3 for t in p.task_seconds] for p in passes],
    }
    return metrics, passes, samples, shown


def traced_run(workload, args) -> tuple[dict, list, dict, list[str]]:
    from tracer import Tracer

    tracer = Tracer()
    untraced, traced, layers = [], [], []
    start = clock()
    while True:
        untraced.append(workload.in_process_pass())
        tracer.install()
        tracer.start_pass(len(traced) + 1)
        try:
            traced.append(workload.in_process_pass())
        finally:
            tracer.uninstall()
        layers.append(_layer_values(tracer, workload, traced[-1]))
        next_end = clock() - start + untraced[-1].seconds + traced[-1].seconds
        if len(traced) >= MIN_PASSES and next_end > args.seconds:
            break
    os.makedirs(OUT, exist_ok=True)
    tracer.write_spans(os.path.join(OUT, f"trace-{workload.name}.jsonl"))

    problems = []
    counts = layers[0][0]
    for k, (other, _) in enumerate(layers[1:], start=2):
        if other != counts:
            differ = sorted(n for n in set(counts) | set(other) if counts.get(n) != other.get(n))
            problems.append(f"traced pass {k} counts differ from pass 1: {differ[:8]}")
    metrics = {}
    calls = counts.get("correlations.spin_observable.calls", 0)
    for name, unit in spec.PER_LAYER:
        if unit == "ms" and not name.startswith("import."):
            metrics[name] = statistics.median(t.get(name, 0.0) for _, t in layers)
        elif unit in ("count", "bytes"):
            metrics[name] = counts.get(name, 0)
    metrics["correlations.spin_observable.distinct_ratio"] = (
        counts["correlations.spin_observable.distinct"] / calls if calls else 0.0
    )
    metrics.update(_import_times())
    metrics["trace.overhead_ratio"] = (
        statistics.median(p.seconds for p in traced)
        / statistics.median(p.seconds for p in untraced)
    )
    samples = {"untraced_pass_s": [p.seconds for p in untraced],
               "traced_pass_s": [p.seconds for p in traced]}
    return metrics, untraced + traced, samples, problems


def run_one(args) -> int:
    load_qcontext()
    import workloads

    work = os.path.join(OUT, f"work-{args.workload}")
    os.makedirs(work, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, work)
    workload.setup()
    setup_s = clock() - STARTED
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    problems: list[str] = []
    shown: list = []
    if args.trace:
        metrics, passes, samples, problems = traced_run(workload, args)
        units = spec.PER_LAYER_UNITS
    else:
        metrics, passes, samples, shown = timed_run(workload, args, setup_s)
        units = spec.END_TO_END_UNITS
    attempted = workload.tasks_per_pass * len(passes)
    failures = [f for p in passes for f in p.failures]
    failed = min(len(failures), attempted)
    correct = not failures and not problems
    shown.append(("failed_ratio", failed / attempted, "ratio", f"{failed}/{attempted}"))
    env = environment()

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} tasks/pass={workload.tasks_per_pass}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:<52} {metrics[name]:>14.6g} {unit}")
    for name, value, unit, note in shown:
        print(f"  {name:<52} {value:>14.6g} {unit}  ({note})")
    for line in (problems + failures)[:20]:
        print(f"perfbench: {line}", file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": env, "metrics": metrics,
        "shown": {name: value for name, value, _, _ in shown}, "samples": samples, "attempted": attempted, "failed": failed,
        "failures": failures[:50], "problems": problems,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, their reports one after another."""
    status = 0
    for name in spec.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench {name}: exit {proc.returncode}")
            status = 1
            continue
        print("\n".join(lines[:-1]))
        if not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS), default=None,
                        help="one workload; all three when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the root and exit")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.write_spec:
        spec.write(os.path.join(ROOT, "BENCHMARK.json"))
        return 0
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
