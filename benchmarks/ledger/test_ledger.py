"""Tests of the ledger benchmark: smoke runs, determinism, tracer
arithmetic, the comparison rule and the correctness gate."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from ledger import compare, workloads
from ledger.metrics import DEFAULT_SECONDS, E2E, PER_LAYER, SCALE_FREE_UNITS
from ledger.speed import NOMINAL_S, Speed
from ledger.trace import Span, Tracer, covered_time, layer_metrics, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=170,
                          check=False)


# --------------------------------------------------------------------------- #
# Smoke runs
# --------------------------------------------------------------------------- #
def test_smoke_every_workload(tmp_path):
    out = tmp_path / "ledger.json"
    done = _run("--scale", "0.02", "--seed", "0", "--out", str(out))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["correct"] and summary["failed"] == 0
    record = json.loads(out.read_text())
    assert set(record["fingerprint"]) >= {"commit", "python", "numpy",
                                          "cpu", "nproc"}
    for result in record["results"]:
        name = result["workload"]
        assert result["correct"], (name, result["details"])
        for spec in BENCHMARK["end_to_end"]:
            assert result["metrics"][spec["name"]]["value"] > 0, \
                (name, spec["name"])
        for metric, rec in result["metrics"].items():
            assert f"{name} {metric} " in done.stdout
            assert rec["unit"] == E2E[metric][0]
    names = [result["workload"] for result in record["results"]]
    assert names == list(workloads.WORKLOADS)


def test_traced_smoke_reports_every_per_layer_metric(tmp_path):
    spans, out = tmp_path / "spans.jsonl", tmp_path / "traced.json"
    done = _run("--scale", "0.02", "--seed", "1", "--trace",
                "--trace-out", str(spans), "--out", str(out))
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    listed = [spec["name"] for spec in BENCHMARK["per_layer"]]
    assert set(summary["metrics"]) == {f"{name}/{metric}"
                                       for name in workloads.WORKLOADS
                                       for metric in listed}
    results = json.loads(out.read_text())["results"]
    for result in results:
        for metric in PER_LAYER:
            assert f"{result['workload']} {metric} " in done.stdout
    # BENCHMARK.json's per_layer rule: a listed metric reads 0 only on a
    # workload that never enters its layer, so each one is nonzero on
    # some workload, and none is a count or a time that grows with the
    # traced phase.
    for metric in listed:
        values = [result["per_layer"][metric]["value"] for result in results]
        assert all(math.isfinite(value) for value in values), metric
        assert any(values), metric
        assert PER_LAYER[metric] in SCALE_FREE_UNITS, metric
    first = json.loads(spans.with_name("spans.jsonl.degraded-repair")
                       .read_text().splitlines()[0])
    assert set(first) >= {"name", "start", "end", "parent", "request"}


def test_unknown_workload_fails_without_a_result():
    done = _run("--workload", "no-such-workload")
    assert done.returncode != 0
    assert not done.stdout.strip()


# --------------------------------------------------------------------------- #
# Determinism and BENCHMARK.json consistency
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", [name for name, load
                                  in workloads.WORKLOADS.items()
                                  if isinstance(load, workloads.StoreLoad)])
def test_schedule_is_a_function_of_the_seed(name):
    load = workloads.WORKLOADS[name]

    def digest(seed):
        return workloads.make_schedule(name, load, seed, scale=0.02,
                                       ops=4096).digest()
    assert digest(0) == digest(0)
    assert digest(0) != digest(1)


def test_sim_cell_seeds_are_a_function_of_the_seed():
    load = workloads.WORKLOADS["sim-engines"]
    one, again, other = (workloads.SimRun(load, seed) for seed in (0, 0, 1))
    assert one.cell_seed("rare", 3) == again.cell_seed("rare", 3)
    assert one.cell_seed("rare", 3) != other.cell_seed("rare", 3)
    assert one.cell_seed("rare", 3) != one.cell_seed("events", 3)


def test_benchmark_json_agrees_with_the_ledger_tables():
    assert BENCHMARK["run_seconds"] == DEFAULT_SECONDS
    assert BENCHMARK["paths"] == ["benchmarks/ledger"]
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: load.why for name, load in workloads.WORKLOADS.items()}
    for spec in BENCHMARK["end_to_end"]:
        assert (spec["unit"], spec["better"], spec["bound"]) == \
            E2E[spec["name"]]
    for spec in BENCHMARK["per_layer"]:
        assert spec["unit"] == PER_LAYER[spec["name"]]


def test_bounds_stay_within_ten_percent_and_setup_has_the_largest():
    bounds = [bound for _, _, bound in E2E.values()]
    assert max(bounds) <= 0.10
    assert E2E["setup_s"][2] == max(bounds)


# --------------------------------------------------------------------------- #
# Speed scaling
# --------------------------------------------------------------------------- #
def test_scaled_windows_undo_a_machine_that_halves_its_speed():
    speed = Speed()
    assert speed.factor(0.0, 1.0) == 1.0
    # The probe costs twice the nominal from t = 10 s on, and ops take
    # twice as long: 100 ops 0.1 s apart, then 50 ops 0.2 s apart.
    speed.at = [0.25 + 0.5 * k for k in range(40)]
    speed.cost = [NOMINAL_S * (1 if t < 10 else 2) for t in speed.at]
    done = [0.1 * (i + 1) for i in range(100)] + \
        [10.0 + 0.2 * (i + 1) for i in range(50)]
    latencies = [0.1] * 100 + [0.2] * 50
    timed = workloads.scaled(0.0, done, latencies, speed)
    assert timed.rate == pytest.approx(10.0)
    assert timed.p50 == pytest.approx(0.1)
    assert timed.latencies == pytest.approx([0.1] * 150)
    # An interval without a probe takes the last one before it.
    assert speed.factor(19.9, 19.95) == pytest.approx(0.5)


# --------------------------------------------------------------------------- #
# Tracer arithmetic
# --------------------------------------------------------------------------- #
def test_covered_time_merges_overlaps_and_clips():
    assert covered_time(0, 10, [(1, 4), (3, 6), (9, 12), (-2, 0.5)]) == \
        pytest.approx(0.5 + 5 + 1)
    assert covered_time(0, 10, []) == 0


def test_self_time_of_synthetic_spans():
    spans = [
        Span(1, "codec.encode", 0.0, 10.0),
        Span(2, "code.encode", 2.0, 8.0, parent=1, nbytes=600),
        Span(3, "gf", 3.0, 5.0, parent=2, nbytes=4000),
        Span(4, "gf", 4.0, 7.0, parent=2, nbytes=2000),  # overlaps span 3
        # An async span that ran 3 s of its 10: 1 s of it inline in a
        # sync child, while another task's child covered 4 s.
        Span(5, "cluster.put", 20.0, 30.0, task=7, busy=3.0),
        Span(6, "codec.encode", 21.0, 22.0, parent=5, task=7),
        Span(7, "node.put", 24.0, 28.0, parent=5, task=8, busy=0.5),
    ]
    info = self_times(spans)
    assert info[1][0] == pytest.approx(4.0)          # 10 - 6
    assert info[2][0] == pytest.approx(2.0)          # 6 - union(3..7)
    assert info[3][0] == pytest.approx(2.0)
    assert info[5][0] == pytest.approx(5.0)          # 10 - (1 + 4)
    assert info[5][1] == pytest.approx(2.0)          # cpu: 3 - 1 inline
    assert info[5][2] == pytest.approx(5.0)          # covered

    m = layer_metrics(spans, wall_s=40.0)
    assert m["codec.encode.busy_s"] == pytest.approx(11.0)
    assert m["codec.encode.self_s"] == pytest.approx(5.0)
    assert m["codec.encode.self_share"] == pytest.approx(5.0 / 11.0)
    assert m["code.encode.self_s"] == pytest.approx(2.0)
    assert m["code.encode.mbps"] == pytest.approx(600 / 6.0 / 1e6)
    assert m["gf.calls"] == 2
    assert m["gf.mbps"] == pytest.approx(6000 / 5.0 / 1e6)
    assert m["cluster.put.self_s"] == pytest.approx(5.0)
    assert m["cluster.put.cpu_s"] == pytest.approx(2.0)
    assert m["cluster.put.wait_s"] == pytest.approx(7.0)
    assert m["cluster.put.work_share"] == pytest.approx(0.7)
    assert m["gf.share"] == pytest.approx(5.0 / 40.0)


def test_nested_spans_of_one_layer_count_once():
    spans = [Span(1, "codec.read", 0.0, 4.0),
             Span(2, "codec.read", 1.0, 2.0, parent=1)]
    m = layer_metrics(spans, wall_s=4.0)
    assert m["codec.read.busy_s"] == pytest.approx(4.0)
    assert m["codec.read.self_s"] == pytest.approx(3.0)


def test_tracer_uninstall_restores_every_function():
    from repro.codes.registry import parse_code_spec
    from repro.store.cluster import KeyShards, StoreCluster
    from repro.store.codec import ObjectCodec

    code = parse_code_spec(workloads.CODE)
    before = (StoreCluster.__dict__["put"], KeyShards.__dict__["lock"],
              ObjectCodec.__dict__["encode_object"],
              type(code).__dict__["encode"])
    tracer = Tracer()
    tracer.install_store(code)
    assert StoreCluster.__dict__["put"] is not before[0]
    tracer.uninstall()
    assert (StoreCluster.__dict__["put"], KeyShards.__dict__["lock"],
            ObjectCodec.__dict__["encode_object"],
            type(code).__dict__["encode"]) == before


# --------------------------------------------------------------------------- #
# The comparison rule
# --------------------------------------------------------------------------- #
PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def test_classify_improved_worse_within_and_unresolved():
    better = [value * 1.2 for value in PARENT]
    assert compare.classify(PARENT, better, "higher", 0.05) == "improved"
    assert compare.classify(PARENT, better, "lower", 0.05) == "worse"
    slightly = [value * 0.98 for value in PARENT]
    assert compare.classify(PARENT, slightly, "higher", 0.05) == \
        "within bound"
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0,
             100.0]
    assert compare.classify(noisy, [v * 0.9 for v in noisy], "higher",
                            0.05) == "unresolved"
    # Every change run beats every parent run: resolved despite the spread.
    assert compare.classify(noisy, [200.0] * 10, "higher", 0.05) == \
        "improved"


def test_classify_failure_ratio_bound_is_absolute():
    zeros = [0.0] * 10
    assert compare.classify(zeros, zeros, "lower", 0.0, absolute=True) == \
        "within bound"
    assert compare.classify(zeros, [0.0] * 9 + [0.001], "lower", 0.0,
                            absolute=True) == "within bound"
    assert compare.classify(zeros, [0.001] * 10, "lower", 0.0,
                            absolute=True) == "worse"


def _record(values: dict[str, float], trace: bool = False) -> dict:
    return {"trace": trace, "results": [{
        "workload": "small-mixed",
        "metrics": {name: {"value": value, "unit": E2E[name][0], "n": 1}
                    for name, value in values.items()}}]}


def test_compare_main_prints_one_row_per_metric(tmp_path, capsys):
    a_files, b_files = [], []
    for i, value in enumerate(PARENT):
        for side, files, scale in (("a", a_files, 1.0),
                                   ("b", b_files, 0.7)):
            path = tmp_path / f"{side}{i}.json"
            path.write_text(json.dumps(_record(
                {"ops_per_s": value * scale, "op_p50_ms": 1.0})))
            files.append(str(path))
    # A traced record is ignored.
    traced = tmp_path / "traced.json"
    traced.write_text(json.dumps(_record({"ops_per_s": 1.0}, trace=True)))
    status = compare.main(a_files + [str(traced), "--"] + b_files)
    rows = capsys.readouterr().out.strip().splitlines()
    assert status == 1
    assert len(rows) == 2
    assert rows[0].startswith("small-mixed") and "op_p50_ms" in rows[0]
    assert rows[0].endswith("within bound")
    assert "ops_per_s" in rows[1] and rows[1].endswith("worse")


# --------------------------------------------------------------------------- #
# The correctness gate
# --------------------------------------------------------------------------- #
def test_gate_catches_one_flipped_byte(monkeypatch):
    from repro.store.cluster import GetTicket

    original = GetTicket.data
    flipped = []

    async def data(self):
        payload = await original(self)
        if not flipped:
            flipped.append(self.key)
            payload = bytes([payload[0] ^ 0x01]) + payload[1:]
        return payload

    monkeypatch.setattr(GetTicket, "data", data)
    result = workloads.run_workload("small-mixed", seed=0, seconds=0.2,
                                    scale=0.02)
    assert flipped
    assert result["failed"] == 1
    assert not result["checks"]["ops_ok"]
    assert not result["correct"]
    assert any("wrong bytes" in line for line in result["details"])


async def _refuse(*args, **kwargs):
    raise RuntimeError("refused")


@pytest.mark.parametrize("refused", [("data",), ("data", "settled")])
def test_gate_fails_cleanly_when_ops_raise(monkeypatch, refused):
    from repro.store.cluster import GetTicket, PutTicket

    for attr in refused:
        owner = GetTicket if attr == "data" else PutTicket
        monkeypatch.setattr(owner, attr, _refuse)
    result = workloads.run_workload("small-mixed", seed=0, seconds=0.2,
                                    scale=0.02)
    assert not result["correct"]
    assert not result["checks"]["readback_ok"]
    assert result["failed"] > 0
    ratio = result["metrics"]["op_failure_ratio"]["value"]
    if len(refused) == 2:
        # No op completed: the windowed rate has nothing to measure.
        assert ratio == 1.0
        assert result["metrics"]["ops_per_s"]["value"] == 0.0
    else:
        assert 0.0 < ratio < 1.0


def test_sim_gate_fails_cleanly_when_every_cell_raises(monkeypatch):
    original = workloads.SimRun.cell

    def cell(self, engine, seed):
        if seed >= workloads.WARMUP_SEED:
            return original(self, engine, seed)
        raise RuntimeError("refused")

    monkeypatch.setattr(workloads.SimRun, "cell", cell)
    result = workloads.run_workload("sim-engines", seed=0, seconds=0.1)
    assert not result["correct"]
    assert not result["checks"]["mttdl_agrees"]
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["op_failure_ratio"]["value"] == 1.0
