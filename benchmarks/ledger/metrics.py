"""The ledger's run length and metric tables (no imports, so
``compare.py`` and ``run.py --help`` run anywhere).

``BENCHMARK.json`` repeats the run length, the end-to-end metrics every
workload reports and the per-layer metrics an optimisation is most
likely to move, with the same units and bounds; ``test_ledger.py``
checks that they agree.
"""

#: Measured seconds of one run when ``--seconds`` is not given.
DEFAULT_SECONDS = 15.0

#: Ledger end-to-end metrics: unit, better, bound.  A bound is the share
#: of the parent's median a metric may worsen by (``op_failure_ratio``'s
#: is absolute).  No bound exceeds 10 %: where a metric's run-to-run
#: spread came near that, the benchmark was made to measure more (several
#: repair windows a run, nine simulator set-ups) and to scale its timings
#: to nominal machine speed (``speed.py``) rather than widen the bound,
#: and ``compare.py`` reports a metric whose spread still exceeds its
#: bound as unresolved.  ``setup_s`` has the largest bound, so that work
#: moved into set-up shows.
E2E: dict[str, tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.10),
    "ops_per_s": ("1/s", "higher", 0.10),
    "op_p50_ms": ("ms", "lower", 0.10),
    "op_tail_ms": ("ms", "lower", 0.10),
    "put_p50_ms": ("ms", "lower", 0.10),
    "put_tail_ms": ("ms", "lower", 0.10),
    "get_p50_ms": ("ms", "lower", 0.10),
    "get_tail_ms": ("ms", "lower", 0.10),
    "degraded_get_p50_ms": ("ms", "lower", 0.10),
    "degraded_get_tail_ms": ("ms", "lower", 0.10),
    "repair_window_s": ("s", "lower", 0.10),
    "op_failure_ratio": ("ratio", "lower", 0.0),
    "peak_rss_mb": ("MiB", "lower", 0.05),
    "sim_events_per_s": ("1/s", "higher", 0.10),
    "sim_lifetimes_per_s": ("1/s", "higher", 0.10),
    "sim_cycles_per_s": ("1/s", "higher", 0.10),
}

#: Per-layer metrics of a traced run and their units; every traced run
#: reports all of them (0 where the workload never enters the layer).
PER_LAYER: dict[str, str] = {
    "gf.calls": "count", "gf.busy_s": "s", "gf.share": "ratio",
    "gf.mbps": "MB/s",
    "code.encode.calls": "count", "code.encode.busy_s": "s",
    "code.encode.self_s": "s", "code.encode.mbps": "MB/s",
    "code.decode.calls": "count", "code.decode.busy_s": "s",
    "code.decode.mbps": "MB/s",
    "codec.encode.busy_s": "s", "codec.encode.self_s": "s",
    "codec.encode.self_share": "ratio", "codec.encode.share": "ratio",
    "codec.read.busy_s": "s", "codec.read.self_s": "s",
    "codec.read.share": "ratio",
    "codec.rebuild.busy_s": "s", "codec.rebuild.share": "ratio",
    "cluster.put.self_s": "s", "cluster.put.cpu_s": "s",
    "cluster.put.wait_s": "s", "cluster.put.cpu_share": "ratio",
    "cluster.put.work_share": "ratio",
    "cluster.get_submit.self_s": "s", "cluster.get_submit.cpu_s": "s",
    "cluster.get_submit.wait_s": "s",
    "cluster.get_submit.cpu_share": "ratio",
    "cluster.lock.wait_s": "s", "cluster.lock.wait_share": "ratio",
    "cluster.lock.wait_p99_ms": "ms",
    "cluster.damaged_stripes.calls": "count",
    "cluster.damaged_stripes.busy_s": "s",
    "cluster.damaged_stripes.share": "ratio",
    "cluster.repair.passes": "count", "cluster.repair.stripes": "count",
    "cluster.repair.useful_ratio": "ratio",
    "node.put.calls": "count", "node.put.bytes": "bytes",
    "node.fetch.calls": "count", "node.fetch.bytes": "bytes",
    "node.read_amplification": "ratio", "node.write_amplification": "ratio",
    "node.space_amplification": "ratio",
    "dataplane.put_wait_s": "s", "dataplane.put_wait_share": "ratio",
    "dataplane.get_wait_s": "s", "dataplane.get_wait_share": "ratio",
    "rpc.calls": "count", "rpc.bytes_out": "bytes",
    "rpc.round_trip_p50_ms": "ms",
    "sim.events.busy_s": "s", "sim.montecarlo.busy_s": "s",
    "sim.rare.busy_s": "s",
    "sim.events.per_s": "1/s", "sim.montecarlo.lifetimes_per_s": "1/s",
    "sim.rare.cycles_per_s": "1/s", "sim.rare.ess_per_s": "1/s",
    "bench.busy_s": "s", "bench.share": "ratio",
    "trace.overhead": "ratio",
}

#: Units of the per-layer metrics ``BENCHMARK.json`` may list: shares,
#: amplifications and rates, which do not grow with the length of the
#: traced phase as counts and busy seconds do.
SCALE_FREE_UNITS = frozenset({"ratio", "MB/s", "1/s"})
