"""e2e: the repo's train -> checkpoint -> serve benchmark.

One run of one workload (the form ``BENCHMARK.json`` names; the last
stdout line is the result object)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The whole table — every workload untraced ``--runs`` times (seeds
``N, N+1, ...``) for the end-to-end metrics, then once traced for the
per-layer rows — written to ``benchmarks/e2e/out/``::

    python3 benchmarks/e2e/run.py [--seed N] [--runs R] [--workload NAME ...]

Two such files compared with every metric's bound and direction::

    python3 benchmarks/e2e/run.py --compare A.json B.json

See ``README.md`` beside this file for the metric glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

import numpy as np

import e2e_compare
import e2e_inputs
from e2e_spec import END_TO_END, PER_LAYER, REFERENCE_SECONDS, WORKLOADS, WorkloadSpec, workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SCHEMA = 1
DEFAULT_SEED = 11
#: The contract allows a run 180 s; leave room to report a timeout.
RUNNER_TIMEOUT_SECONDS = 170

#: glibc keeps freed blocks mapped in the runner.  Without this, every
#: large temporary is unmapped on free and faulted in again on the next
#: repetition, and in this VM a fresh page costs ~25x a warm one whenever
#: the host has reclaimed it — identical fits swung 1.2 s / 3.5 s.
RUNNER_MALLOC_ENV = {"MALLOC_MMAP_MAX_": "0", "MALLOC_TRIM_THRESHOLD_": str(1 << 36)}


def single_run(spec: WorkloadSpec, seed: int, seconds: float, trace: int) -> dict:
    """Generate inputs, run the runner subprocess, assemble the result."""
    from repro.bench.timing import stopwatch, wall_timer

    work = os.path.join(OUT, f"work-{os.getpid()}")
    trace_path = os.path.join(OUT, f"trace-{spec.name}.json")
    try:
        with wall_timer() as generation:
            arrays = e2e_inputs.generate(spec, seed, spec.stream_counts(seconds))
            e2e_inputs.write(arrays, os.path.join(work, "inputs"))
        del arrays
        command = [
            sys.executable, os.path.join(HERE, "e2e_runner.py"),
            "--workload", spec.name, "--inputs", os.path.join(work, "inputs"),
            "--workdir", work, "--trace-path", trace_path, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ]
        environment = {
            **os.environ, **RUNNER_MALLOC_ENV, "PYTHONPATH": os.pathsep.join([HERE, SRC]),
        }
        watch = stopwatch()
        # Its own session, so that a timeout can stop the workers with it.
        runner = subprocess.Popen(
            command, env=environment, stdout=subprocess.PIPE, text=True, start_new_session=True
        )
        try:
            output, _ = runner.communicate(timeout=RUNNER_TIMEOUT_SECONDS)
        except subprocess.TimeoutExpired:
            os.killpg(runner.pid, signal.SIGKILL)
            runner.communicate()
            return failed_run(f"runner exceeded {RUNNER_TIMEOUT_SECONDS} s on {spec.name}")
        runner_wall = watch.elapsed()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    details = [
        line for line in output.splitlines() if line.startswith("E2E_DETAIL ")
    ]
    if runner.returncode != 0 or not details:
        sys.stderr.write(output)
        return failed_run(f"runner failed on {spec.name} (exit {runner.returncode})")
    detail = json.loads(details[-1][len("E2E_DETAIL ") :])

    # Everything outside the timed regions: generation, interpreter start
    # and imports (runner wall minus its own main()), and each named step.
    detail["setup_seconds"]["generate"] = generation.seconds
    detail["setup_seconds"]["runner_boot"] = runner_wall - detail["main_seconds"]
    values, samples = dict(detail["values"]), dict(detail["samples"])
    values["setup_s"] = sum(detail["setup_seconds"].values())
    samples["setup_s"] = [values["setup_s"]]
    if trace:
        declared, values = PER_LAYER, detail["layers"]
    else:
        declared = [(name, unit, better) for name, unit, better, _ in END_TO_END]
    metrics = {
        name: {"value": float(values[name]), "unit": unit} for name, unit, _ in declared
    }
    return {
        "correct": not detail["problems"],
        "attempted": int(detail["attempted"]),
        "failed": int(detail["failed"]),
        "metrics": metrics,
        "repeats": samples,
        "setup_seconds": detail["setup_seconds"],
        "problems": detail["problems"],
        "trace_path": os.path.relpath(trace_path, ROOT) if trace else None,
    }


def failed_run(problem: str) -> dict:
    """The result of a run whose runner gave no numbers."""
    return {
        "correct": False, "attempted": 1, "failed": 1, "metrics": {}, "repeats": {},
        "setup_seconds": {}, "problems": [problem], "trace_path": None,
    }


def print_metrics(title: str, metrics: Dict[str, dict]) -> None:
    print(title)
    for name, entry in metrics.items():
        print(f"  {name:<44}{entry['value']:>16.6g} {entry['unit']}")


def contract_run(args: argparse.Namespace) -> int:
    """One workload, one mode; the last line is the contract's JSON object."""
    result = single_run(workload(args.workload[0]), args.seed, args.seconds, args.trace)
    print_metrics(f"{args.workload[0]} seed={args.seed} trace={args.trace}", result["metrics"])
    print("repeats " + json.dumps(result["repeats"], sort_keys=True))
    print("setup_seconds " + json.dumps(result["setup_seconds"], sort_keys=True))
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


def fingerprint(seed: int, runs: int, seconds: float) -> dict:
    """Where and how a result file was produced."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            models = [line.split(":", 1)[1].strip() for line in handle if "model name" in line]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    return {
        "schema": SCHEMA, "git_sha": sha, "seed": seed, "runs": runs, "seconds": seconds,
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
    }


def report_run(args: argparse.Namespace) -> int:
    """Every selected workload: ``--runs`` untraced runs, then one traced."""
    names = args.workload or [spec.name for spec in WORKLOADS]
    envelope = fingerprint(args.seed, args.runs, args.seconds)
    envelope["workloads"] = {}
    correct = True
    for name in names:
        spec = workload(name)
        untraced = [
            single_run(spec, args.seed + index, args.seconds, trace=0)
            for index in range(args.runs)
        ]
        traced = single_run(spec, args.seed, args.seconds, trace=1)
        broken = [
            problem
            for run in [*untraced, traced]
            if not run["metrics"]
            for problem in run["problems"]
        ]
        if broken:
            envelope["workloads"][name] = {"why": spec.why, "problems": broken}
            correct = False
            print(f"== {name}: no table; " + "; ".join(broken))
            continue
        end_to_end = {}
        for metric, unit, _, _ in END_TO_END:
            per_run = [run["metrics"][metric]["value"] for run in untraced]
            end_to_end[metric] = {
                "unit": unit, "value": statistics.median(per_run), "samples": per_run,
                "repeats": [run["repeats"][metric] for run in untraced],
            }
        runs = [*untraced, traced]
        envelope["workloads"][name] = {
            "why": spec.why,
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
            "setup_seconds": [run["setup_seconds"] for run in untraced],
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "problems": [problem for run in runs for problem in run["problems"]],
            "trace_path": traced["trace_path"],
        }
        correct = correct and all(run["correct"] for run in runs)
        print_metrics(f"== {name}: end to end (median of {args.runs} run(s))", end_to_end)
        print_metrics(f"== {name}: per layer (one traced run)", traced["metrics"])
        for problem in envelope["workloads"][name]["problems"]:
            print(f"  CHECK FAILED: {problem}")
    envelope["correct"] = correct
    path = args.out or os.path.join(OUT, f"e2e-seed{args.seed}.json")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(envelope, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}; checks {'passed' if correct else 'FAILED'}")
    return 0 if correct else 1


def compare_run(paths: Sequence[str]) -> int:
    rows = e2e_compare.compare(*paths)
    print(e2e_compare.format_rows(rows))
    regressed = [row for row in rows if row["verdict"] == "regressed"]
    print(f"{len(rows)} pairs, {len(regressed)} regressed")
    return 1 if regressed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append", help="repeatable; default: all four")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=REFERENCE_SECONDS)
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="run the one named workload once, untraced (0) or traced (1)",
    )
    parser.add_argument("--runs", type=int, default=1, help="untraced runs per workload")
    parser.add_argument("--out", help="result file (default: out/e2e-seed<N>.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare_run(args.compare)
    if args.seconds <= 0 or args.runs < 1:
        parser.error("--seconds must be positive and --runs at least 1")
    sys.path.insert(0, SRC)
    if args.trace is None:
        return report_run(args)
    if not args.workload or len(args.workload) != 1:
        parser.error("--trace needs exactly one --workload")
    return contract_run(args)


if __name__ == "__main__":
    sys.exit(main())
