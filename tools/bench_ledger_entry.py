#!/usr/bin/env python3
"""Append one entry to ``BENCH_ledger.json``, the repository's record of
end-to-end performance, one entry per performance change.

Usage (from the repository root)::

    python3 tools/bench_ledger_entry.py --title "what changed" \\
        --parent-commit SHA --src-tree TREE \\
        --parent-trace parent-traced.json --change-trace change-traced.json \\
        parent-0.json parent-1.json ... -- change-0.json change-1.json ...

The positional files are untraced ``benchmarks/ledger/run.py --out``
records of the parent and of the change, run as alternating pairs on one
machine; the two ``--*-trace`` files are ``run.py --trace --out``
records.  Each side of the entry is a ``{"runs": [...]}`` object in the
shape ``benchmarks/ledger/compare.py`` loads (``load_values``): one
untraced record holding, per workload, the median of every end-to-end
metric over the side's runs, and one traced record holding the
per-layer metrics in :data:`TRACED`.

An entry belongs to the commit that adds it.  ``parent_commit`` names
the commit it was measured against, and ``src_tree`` the git tree of
the measured ``src/`` (``git rev-parse <commit>:src`` reads the same
hash when the committed code is the measured code).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

from ledger.compare import load_values  # noqa: E402

#: Per-layer metrics an entry keeps from each side's traced run.
TRACED = ("codec.encode.share", "code.encode.calls", "code.decode.calls")


def untraced_medians(paths: list[str]) -> dict:
    """One record of per-workload medians over untraced ``--out`` runs."""
    runs = [json.loads(Path(path).read_text()) for path in paths]
    units, workloads = {}, []
    for run in runs:
        for result in run["results"]:
            if result["workload"] not in workloads:
                workloads.append(result["workload"])
            for metric, rec in result["metrics"].items():
                units[metric] = rec["unit"]
    values = load_values(paths)
    return {
        "fingerprint": runs[0]["fingerprint"],
        "seeds": [run["seed"] for run in runs],
        "trace": False,
        "results": [{
            "workload": workload,
            "metrics": {metric: {"value": statistics.median(found),
                                 "unit": units[metric], "n": len(found)}
                        for (name, metric), found in sorted(values.items())
                        if name == workload}}
            for workload in workloads]}


def traced_layers(path: str) -> dict:
    """The :data:`TRACED` metrics of one ``--trace --out`` run."""
    record = json.loads(Path(path).read_text())
    return {
        "fingerprint": record["fingerprint"],
        "seed": record["seed"],
        "trace": True,
        "results": [{
            "workload": result["workload"],
            "per_layer": {metric: result["per_layer"][metric]
                          for metric in TRACED}}
            for result in record["results"]]}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--title", required=True)
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--src-tree", required=True)
    parser.add_argument("--parent-trace", required=True)
    parser.add_argument("--change-trace", required=True)
    parser.add_argument("--out", default=str(ROOT / "BENCH_ledger.json"))
    parser.add_argument("parent", nargs="+", help="the parent's runs")
    if "--" not in argv:
        parser.error("separate the parent's runs from the change's with --")
    split = argv.index("--")
    args = parser.parse_args(argv[:split])
    parent, change = args.parent, argv[split + 1:]
    if len(parent) != len(change):
        parser.error("give as many change runs as parent runs")
    out = Path(args.out)
    ledger = (json.loads(out.read_text()) if out.exists()
              else {"entries": []})
    ledger["entries"].append({
        "title": args.title,
        "parent_commit": args.parent_commit,
        "src_tree": args.src_tree,
        "pairs": len(parent),
        "parent": {"runs": [untraced_medians(parent),
                            traced_layers(args.parent_trace)]},
        "change": {"runs": [untraced_medians(change),
                            traced_layers(args.change_trace)]}})
    out.write_text(json.dumps(ledger, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
