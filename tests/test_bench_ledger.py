"""``BENCH_ledger.json``, the record of end-to-end performance: both
sides of every entry load through the ledger's own
``compare.load_values``, one median per workload and end-to-end metric,
next to one traced run's per-layer metrics."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

from ledger.compare import load_values  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
ENTRIES = json.loads((ROOT / "BENCH_ledger.json").read_text())["entries"]
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
TRACED = ("codec.encode.share", "code.encode.calls", "code.decode.calls")


@pytest.mark.parametrize("side", ["parent", "change"])
@pytest.mark.parametrize("index", range(len(ENTRIES)))
def test_entry_sides_load_as_ledger_runs(index, side, tmp_path):
    entry = ENTRIES[index]
    assert entry["pairs"] >= 1 and entry["parent_commit"]
    path = tmp_path / f"{side}.json"
    path.write_text(json.dumps(entry[side]))
    values = load_values([str(path)])
    for workload in WORKLOADS:
        for spec in BENCHMARK["end_to_end"]:
            found = values[(workload, spec["name"])]
            assert len(found) == 1 and found[0] > 0, (workload, spec)

    untraced, traced = entry[side]["runs"]
    assert not untraced["trace"] and traced["trace"]
    for record in (untraced, traced):
        assert set(record["fingerprint"]) >= {"commit", "python", "numpy",
                                              "cpu", "nproc"}
    layers = {result["workload"]: result["per_layer"]
              for result in traced["results"]}
    assert list(layers) == WORKLOADS
    for workload, metrics in layers.items():
        assert set(metrics) == set(TRACED), workload
