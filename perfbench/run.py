"""Benchmark of the OMU occupancy-mapping reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload ingest_bulk --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

``--workload all`` runs the four workloads one after another (each in its own
process, so memory peaks stay per workload) and prints every workload's
named end-to-end metrics with their units and sample counts.

One workload per call prints a human-readable report, then, as its last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the run
measures half of ``--seconds`` untraced and half traced (fresh set-up each)
and reports the per-layer metrics, the trace overhead and the layer coverage,
and writes the spans to ``.perfbench_out/``.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("ingest_bulk", "live_mapping", "query_mix", "paper_replay")
#: a run must end within 180 s; past this the run aborts without a result
WATCHDOG_S = 170
#: units of the printed, ungated end-to-end values (the gated ones are in
#: layers.json)
RAW_UNITS = {"setup_raw_s": "s", "throughput_per_s": "1/s", "map_latency_ms": "ms", "slowdown": "ratio"}


def environment() -> dict:
    import numpy

    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit or "unknown (not a git checkout)",
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run_one(args) -> int:
    import layertrace as tracing
    import workloads

    run = workloads.WORKLOADS[args.workload]
    layers = tracing.LAYERS
    print(f"# env {json.dumps(environment())}")
    print(f"# workload {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    if args.trace:
        half = args.seconds / 2.0
        untraced = run(args.seed, half, None, repeats=1)
        tracer = tracing.Tracer()
        outcome = run(args.seed, half, tracer, repeats=1)
        outcomes = [untraced, outcome]
    else:
        outcome = run(args.seed, args.seconds, None)
        outcomes = [outcome]

    ops = workloads.Ops()
    for each in outcomes:
        ops.merge(each.ops)
    failed_ratio = ops.total_failed / ops.total_attempted
    checks = [check for each in outcomes for check in each.checks]

    for name, (value, unit, samples) in outcome.named.items():
        print(f"{name} = {_fmt(value)} {unit} (n={samples})")
    for kind in sorted(ops.attempted):
        done = ops.attempted[kind] - ops.failed[kind]
        print(f"ops {kind}: attempted {ops.attempted[kind]}, succeeded {done}, failed {ops.failed[kind]}")
    print(f"failed_ops_ratio = {_fmt(failed_ratio)} ratio")

    if args.trace:
        facts = dict(outcome.facts, failed_ops_ratio=failed_ratio)
        values = tracing.layer_metrics(tracer, facts)
        values["bench.trace_overhead_ratio"] = (
            untraced.e2e["norm_throughput_per_s"] / outcome.e2e["norm_throughput_per_s"]
        )
        for name, seconds in tracing.layer_self_times(tracer).items():
            print(f"layer self time {name}: {seconds:.4f} s of {tracer.wall_s:.3f} s traced")
        for entry in layers["per_layer"]:
            moves = ", ".join(entry["moves"]) or "-"
            print(f"{entry['name']} = {_fmt(values[entry['name']])} {entry['unit']} [{entry['layer']} -> {moves}]")
        OUT.mkdir(exist_ok=True)
        tracer.write(
            OUT / f"trace-{args.workload}-seed{args.seed}.json",
            {"workload": args.workload, "seed": args.seed, "wall_s": tracer.wall_s, "layer_metrics": values},
        )
        units = {entry["name"]: entry["unit"] for entry in layers["per_layer"]}
    else:
        values = dict(outcome.e2e, ok_ops_ratio=1.0 - failed_ratio)
        units = {name: spec["unit"] for name, spec in layers["end_to_end"].items()}
        for name, value in values.items():
            print(f"{name} = {_fmt(value)} {units.get(name) or RAW_UNITS[name]}")

    # A metric without samples means every operation behind it failed.
    missing = [name for name in units if not math.isfinite(values[name])]
    checks.append(("every metric measured", not missing, ", ".join(missing)))
    for name, ok, detail in checks:
        print(f"check {'PASS' if ok else 'FAIL'}: {name}: {detail}")
    metrics = {
        name: {"value": values[name] if name not in missing else 0.0, "unit": unit}
        for name, unit in units.items()
    }
    print(json.dumps({
        "correct": all(ok for _, ok, _ in checks),
        "attempted": ops.total_attempted,
        "failed": ops.total_failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; the named metrics in one table."""
    named = {}
    correct = True
    for workload in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
        ]
        result = subprocess.run(command, capture_output=True, text=True, timeout=WATCHDOG_S + 10)
        lines = result.stdout.strip().splitlines()
        if result.returncode != 0 or not lines:
            sys.stderr.write(result.stdout + result.stderr)
            print(f"error: workload {workload} exited with {result.returncode}", file=sys.stderr)
            return 1
        summary = json.loads(lines[-1])
        correct = correct and summary["correct"]
        print(f"## {workload}")
        for line in lines[:-1]:
            print(f"   {line}")
            if " = " in line and not line.startswith("#"):
                name, _, rest = line.partition(" = ")
                named.setdefault(name, {})[workload] = rest
    print("## end-to-end metrics named by workload")
    import layertrace as tracing

    for name, spec in tracing.LAYERS["workload_metrics"].items():
        where = WORKLOAD_NAMES if spec["workload"] == "all" else (spec["workload"],)
        for workload in where:
            print(f"{name} @ {workload} = {named.get(name, {}).get(workload, 'missing')}")
    print(f"all correctness checks {'PASS' if correct else 'FAIL'}")
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.workload == "all":
        return run_all(args)

    def expire(signum, frame):
        raise TimeoutError(f"run exceeded {WATCHDOG_S} s")

    # SIGALRM belongs to the workloads' speed probes (workloads.SpeedClock),
    # so the watchdog is a timer thread that signals the main thread.
    signal.signal(signal.SIGUSR1, expire)
    watchdog = threading.Timer(WATCHDOG_S, os.kill, (os.getpid(), signal.SIGUSR1))
    watchdog.daemon = True
    watchdog.start()
    try:
        return run_one(args)
    finally:
        watchdog.cancel()


if __name__ == "__main__":
    sys.exit(main())
