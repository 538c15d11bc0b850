"""Benchmark of the leaktight decision procedure, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload decide-corpus --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in a fresh child process with a fixed hash seed.  The last
line of standard output is one JSON object: `correct`, `attempted`, `failed`
and `metrics` (every end-to-end metric of BENCHMARK.json with `--trace 0`,
every per-layer metric with `--trace 1`).  `--workload all` runs every
workload untraced and traced and prints every metric by name and unit.
Failed cases are listed on standard error with the layer that was running.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from clock import Clock

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("decide-corpus", "decide-scale", "numeric-oracle")
WORK_DIR = ROOT / ".perfbench-work"
SETUP_REPEATS = 3
WARM_UP_CASES = 3
# A child stops starting cases after this long, and is killed a little later,
# so that a run ends within 180 seconds whatever the program does.
RUN_BUDGET_S = 150.0
CHILD_TIMEOUT_S = 170.0


def _definition() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _child(args: argparse.Namespace) -> int:
    source = ROOT / "src"
    if not (source / "leaktight" / "__init__.py").is_file():
        print(f"error: no leaktight package under {source}", file=sys.stderr)
        return 1
    clock = Clock()
    with clock.running():
        imports = clock.now()
        sys.path.insert(0, str(source))
        import leaktight

        if Path(leaktight.__file__).resolve().parent != source / "leaktight":
            print(f"error: imported leaktight from {leaktight.__file__}", file=sys.stderr)
            return 1
        import harness
        import workloads

        setups = [(imports, clock.now())]
        expected = workloads.load_expected(args.workload)
        work_dir = WORK_DIR / args.workload
        for _ in range(SETUP_REPEATS):
            begun = clock.now()
            cases = workloads.build(args.workload, args.seed, work_dir, args.cases)
            for case in cases[:WARM_UP_CASES]:
                workloads.RUN[case.kind](case)
            setups.append((begun, clock.now()))

        runner = harness.Runner(
            cases, expected, workloads.DEADLINE_S[args.workload],
            perf_counter() + RUN_BUDGET_S, clock,
        )
        plain, traced = runner.measure(args.seconds, bool(args.trace), args.seed)
        shutil.rmtree(work_dir, ignore_errors=True)
        if args.trace:
            values = harness.per_layer_metrics(plain, traced, clock)
            listed = _definition()["per_layer"]
        else:
            import_s, *repeats = (clock.seconds(*stamps) for stamps in setups)
            setup_s = import_s + statistics.median(repeats)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            values = harness.end_to_end_metrics(plain, setup_s, peak_rss_mb)
            listed = _definition()["end_to_end"]

    for label, runs in (("untraced", plain), ("traced", [t[0] for t in traced])):
        if runs:
            walls = ", ".join(f"{run.wall:.3f}" for run in runs)
            print(f"{args.workload}: {label} pass walls (reference s): {walls}", file=sys.stderr)
    outcomes = [o for run in plain + [t[0] for t in traced] for o in run.outcomes]
    for outcome in outcomes:
        if outcome.status != "ok":
            print(
                f"failed case {outcome.case_id} ({outcome.status}, "
                f"{outcome.seconds:.3f} s): {outcome.detail}",
                file=sys.stderr,
            )
    if set(values) != {metric["name"] for metric in listed}:
        print(
            f"error: measured {sorted(values)} but BENCHMARK.json lists "
            f"{sorted(metric['name'] for metric in listed)}",
            file=sys.stderr,
        )
        return 1
    result = {
        "correct": all(o.status != "wrong" for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.status != "ok" for o in outcomes),
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in listed
        },
    }
    print(json.dumps(result))
    return 0


def _spawn(workload: str, args: argparse.Namespace, trace: int) -> dict | None:
    """Run one workload in a fresh process; its result, or None if it failed."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.cases is not None:
        command += ["--cases", str(args.cases)]
    environment = dict(os.environ, PYTHONHASHSEED="0")
    try:
        finished = subprocess.run(
            command, cwd=ROOT, env=environment, stdout=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"error: {workload} ran past {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = finished.stdout.strip().splitlines()
    if finished.returncode != 0 or not lines:
        print(f"error: {workload} exited with code {finished.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _all(args: argparse.Namespace) -> int:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        results = [_spawn(workload, args, trace) for trace in (0, 1)]
        if None in results:
            return 1
        untraced = results[0]
        print(f"{workload}: {untraced['attempted']} cases attempted, {untraced['failed']} failed")
        for result in results:
            for name, metric in result["metrics"].items():
                print(f"  {name:40} {metric['value']:>16.6g} {metric['unit']}")
                merged["metrics"][f"{workload}/{name}"] = metric
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long to measure (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cases", type=int, default=None,
                        help="keep only the first cases of each part of a workload")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds is None:
        args.seconds = _definition()["run_seconds"]
    if args.child:
        return _child(args)
    if args.workload == "all":
        return _all(args)
    result = _spawn(args.workload, args, args.trace)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
