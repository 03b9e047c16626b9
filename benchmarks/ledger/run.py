#!/usr/bin/env python3
"""The repository benchmark: every workload, every metric, one command.

Usage (from the repository root)::

    python3 benchmarks/ledger/run.py --seed 0                 # all workloads
    python3 benchmarks/ledger/run.py --workload small-mixed --seed 1 \\
        --seconds 10 --trace 0
    python3 benchmarks/ledger/run.py --seed 0 --trace --trace-out spans.jsonl
    python3 benchmarks/ledger/run.py --seed 0 --out ledger.json

Each workload runs in a fresh child process, so its peak RSS and set-up
time are its own.  One line per metric is printed as ``workload metric
value unit n=samples``; ``--trace`` runs half the measured time untraced
and half traced, and prints the per-layer metrics instead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``metrics`` holds the
``end_to_end`` metrics of ``BENCHMARK.json`` (``per_layer`` under
``--trace``).  The exit status is 0 only when every correctness check
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
#: A child that runs longer than this is killed (the run then fails).
CHILD_TIMEOUT_S = 170

sys.path[:0] = [str(ROOT / "src"), str(HERE.parent)]

from ledger.metrics import DEFAULT_SECONDS  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured seconds per run (default: "
                             f"{DEFAULT_SECONDS:g} x --scale)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink object counts and run length "
                             "(smoke tests use 0.02)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--trace-out", help="write spans as JSONL here "
                        "(with several workloads, .NAME is appended)")
    parser.add_argument("--out", help="write the full record as JSON here")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def fingerprint(versions: dict) -> dict:
    """Commit, interpreter, numpy and CPU of the machine that ran."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                               "--short", "HEAD"], capture_output=True,
                              text=True, check=False)
        commit = done.stdout.strip() or commit
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            models = [line.split(":", 1)[1].strip() for line in handle
                      if line.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    return {"commit": commit, "python": versions.get("python"),
            "numpy": versions.get("numpy"), "cpu": cpu,
            "nproc": os.cpu_count(), "platform": platform.platform()}


def run_child(job: dict) -> dict | None:
    """Run one workload in a fresh interpreter; None if it failed."""
    env = dict(os.environ)
    # A fixed hash seed makes dict layouts, and so their speed, repeat
    # from run to run.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child",
             json.dumps(job)],
            stdout=subprocess.PIPE, env=env, text=True,
            timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"error: {job['name']} ran past {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"error: {job['name']} exited with {done.returncode}",
              file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    result["run_s"] = time.perf_counter() - start
    return result


def print_result(result: dict) -> None:
    name = result["workload"]
    # A traced run's end-to-end numbers come from a half-length phase;
    # report only its per-layer metrics.
    e2e = {} if "per_layer" in result else result["metrics"]
    for metric, rec in e2e.items():
        tail = f" p={rec['p']}" if "p" in rec else ""
        print(f"{name} {metric} {rec['value']:.6g} {rec['unit']} "
              f"n={rec['n']}{tail}")
    for metric, rec in result.get("per_layer", {}).items():
        print(f"{name} {metric} {rec['value']:.6g} {rec['unit']}")
    verdict = "ok" if result["correct"] else "FAILED"
    print(f"# {name}: correctness {verdict}, {result['attempted']} ops, "
          f"{result['failed']} failed, {result['run_s']:.1f} s, timings "
          f"scaled by {result['speed_factor']:.3f} to nominal speed",
          file=sys.stderr)
    for line in result["details"]:
        print(f"#   {line}", file=sys.stderr)


def summary_line(results: list[dict], trace: bool) -> dict:
    """The last stdout line: BENCHMARK.json's metrics of the run."""
    section = "per_layer" if trace else "end_to_end"
    wanted = json.loads(BENCHMARK.read_text())[section]
    metrics = {}
    for result in results:
        source = result["per_layer"] if trace else result["metrics"]
        prefix = "" if len(results) == 1 else result["workload"] + "/"
        for spec in wanted:
            rec = source[spec["name"]]
            metrics[prefix + spec["name"]] = {"value": rec["value"],
                                              "unit": spec["unit"]}
    return {"correct": all(result["correct"] for result in results),
            "attempted": sum(result["attempted"] for result in results),
            "failed": sum(result["failed"] for result in results),
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        from ledger import workloads
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.child is not None:
        return workloads.main(args.child)
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    unknown = [name for name in names if name not in workloads.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    seconds = (args.seconds if args.seconds is not None
               else DEFAULT_SECONDS * args.scale)
    results = []
    for name in names:
        trace_out = args.trace_out
        if trace_out and len(names) > 1:
            trace_out = f"{trace_out}.{name}"
        result = run_child({"name": name, "seed": args.seed,
                            "seconds": seconds, "scale": args.scale,
                            "trace": bool(args.trace),
                            "trace_out": trace_out})
        if result is None:
            return 2
        print_result(result)
        results.append(result)
    if args.out:
        record = {"fingerprint": fingerprint(results[0]["versions"]),
                  "seed": args.seed, "seconds": seconds,
                  "scale": args.scale, "trace": bool(args.trace),
                  "results": results}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    try:
        line = summary_line(results, bool(args.trace))
    except KeyError as exc:
        print(f"error: a workload did not report {exc}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
