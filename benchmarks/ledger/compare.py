#!/usr/bin/env python3
"""Compare ledger runs of a parent commit with runs of a change.

Usage (from the repository root)::

    python3 benchmarks/ledger/compare.py A1.json A2.json ... -- B1.json ...

``A`` files are the parent's runs and ``B`` files the change's, each a
record written by ``run.py --out`` or a baseline holding a list of them
under ``"runs"``; traced records are skipped.  Runs pair up in the order
given.  One row is printed per workload and end-to-end metric found on
both sides:

* ``improved``: B wins at least 9 of every 10 pairs (ties count for
  neither side) and the medians differ, in B's favour, by more than the
  distance between the quartiles of A's runs;
* ``unresolved``: A's own spread (that quartile distance over its
  median) is wider than the metric's bound, and not every B run reads
  better than every A run;
* ``worse``: B's median is worse than A's by more than the bound;
* ``within bound``: otherwise.

Bounds come from the ledger's table in ``metrics.py``, which
``BENCHMARK.json`` repeats.  The exit status is 1 when a row is worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from ledger.metrics import E2E  # noqa: E402


def load_values(paths: list[str]) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values`` over every untraced run."""
    values: dict[tuple[str, str], list[float]] = {}
    for path in paths:
        data = json.loads(Path(path).read_text())
        for record in data.get("runs", [data]):
            if record.get("trace"):
                continue
            for result in record["results"]:
                for metric, rec in result["metrics"].items():
                    values.setdefault((result["workload"], metric),
                                      []).append(rec["value"])
    return values


def quartile_gap(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def classify(a: list[float], b: list[float], better: str, bound: float,
             absolute: bool = False) -> str:
    """The verdict for one metric (see the module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    gap_a = quartile_gap(a)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    gain = sign * (med_b - med_a)
    if pairs and 10 * wins >= 9 * len(pairs) and gain > gap_a:
        return "improved"
    if absolute:
        spread, allowed = gap_a, bound
    else:
        spread = gap_a / abs(med_a) if med_a else float("inf")
        allowed = bound * abs(med_a)
    b_beats_all = min(b) > max(a) if sign > 0 else max(b) < min(a)
    if spread > bound and not b_beats_all:
        return "unresolved"
    if -gain > allowed:
        return "worse"
    return "within bound"


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    split = argv.index("--")
    a_values, b_values = load_values(argv[:split]), load_values(
        argv[split + 1:])
    worse = False
    for key in sorted(a_values.keys() & b_values.keys()):
        workload, metric = key
        _, better, bound = E2E[metric]
        a, b = a_values[key], b_values[key]
        verdict = classify(a, b, better, bound,
                           absolute=metric == "op_failure_ratio")
        worse |= verdict == "worse"
        med_a, med_b = statistics.median(a), statistics.median(b)
        change = f"{(med_b - med_a) / med_a:+7.1%}" if med_a else "    n/a"
        print(f"{workload:16s} {metric:22s} A={med_a:<11.5g} "
              f"B={med_b:<11.5g} {change}  bound={bound:g}  n={len(a)}/"
              f"{len(b)}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
