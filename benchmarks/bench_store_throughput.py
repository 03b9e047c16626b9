"""Throughput floors of the object-store serving layer.

The store's hot paths are thin wrappers over the bulk coding kernels
(:mod:`repro.gf.regions`): a put encodes one or more stripes and fans
chunks out to the nodes, a healthy get slices data columns without
decoding, a degraded get pays one ``code.decode`` per stripe, and a
repair pass rebuilds whole columns.  These floors pin the wrapper
overhead so an accidental per-operation slowdown (extra copies, lock
contention, per-chunk churn) fails CI rather than landing silently:

* >= 300 puts/s of 4 KiB objects through ``rs(n=6,r=4,m=2)``;
* >= 2000 healthy gets/s (no decode on the fast path);
* >= 500 degraded gets/s with one data column lost;
* >= 350 stripe repairs/s in a single repair pass;
* >= 60 puts/s through the subprocess backend (RPC framing + pipes);
* >= 400 healthy gets/s through the subprocess backend;
* >= 20000 sharded metadata lookups/s at a 100k-key population.

Measured at floor-setting time: ~2700 puts/s, ~18000 gets/s, ~4400
degraded gets/s, ~3100 repairs/s (so every floor carries ~8x
headroom).  The hard assertions use wall-clock directly, same as
``bench_coding_throughput.py``.
"""

import asyncio
import time

import numpy as np

from repro.codes.registry import parse_code_spec
from repro.store import StoreCluster

OBJECTS = 200
OBJECT_BYTES = 4096
SYMBOL_BYTES = 256

PUT_FLOOR_OPS = 300.0
GET_FLOOR_OPS = 2000.0
DEGRADED_GET_FLOOR_OPS = 500.0
REPAIR_FLOOR_STRIPES = 350.0


def _loaded_cluster() -> StoreCluster:
    cluster = StoreCluster(parse_code_spec("rs(n=6,r=4,m=2)"),
                           symbol_bytes=SYMBOL_BYTES)
    rng = np.random.default_rng(0)
    payloads = [rng.bytes(OBJECT_BYTES) for _ in range(OBJECTS)]

    async def load():
        for i, payload in enumerate(payloads):
            await cluster.put(f"obj-{i}", payload)

    asyncio.run(load())
    return cluster


def _best_of(coro_factory, runs=3):
    """Best wall-clock of ``runs`` fresh event-loop executions."""
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        asyncio.run(coro_factory())
        best = min(best, time.perf_counter() - start)
    return best


def test_put_throughput_meets_floor():
    cluster = StoreCluster(parse_code_spec("rs(n=6,r=4,m=2)"),
                           symbol_bytes=SYMBOL_BYTES)
    rng = np.random.default_rng(1)
    payloads = [rng.bytes(OBJECT_BYTES) for _ in range(OBJECTS)]

    async def puts():
        for i, payload in enumerate(payloads):
            await cluster.put(f"obj-{i}", payload)

    elapsed = _best_of(puts)
    rate = OBJECTS / elapsed
    assert rate >= PUT_FLOOR_OPS, (
        f"puts: {rate:.0f} ops/s < floor {PUT_FLOOR_OPS} "
        f"({OBJECTS} x {OBJECT_BYTES} B objects)")


def test_healthy_get_throughput_meets_floor():
    cluster = _loaded_cluster()

    async def gets():
        for i in range(OBJECTS):
            await cluster.get(f"obj-{i}")

    elapsed = _best_of(gets)
    rate = OBJECTS / elapsed
    assert rate >= GET_FLOOR_OPS, (
        f"healthy gets: {rate:.0f} ops/s < floor {GET_FLOOR_OPS}")
    assert cluster.report.degraded_reads == 0


def test_degraded_get_throughput_meets_floor():
    cluster = _loaded_cluster()
    cluster.crash_node(0)  # column 0 carries data for rs(6,4,2)

    async def gets():
        for i in range(OBJECTS):
            await cluster.get(f"obj-{i}")

    elapsed = _best_of(gets)
    rate = OBJECTS / elapsed
    assert cluster.report.degraded_reads >= OBJECTS  # decode path taken
    assert rate >= DEGRADED_GET_FLOOR_OPS, (
        f"degraded gets: {rate:.0f} ops/s < floor "
        f"{DEGRADED_GET_FLOOR_OPS}")


def test_repair_throughput_meets_floor():
    stripes = None
    best = float("inf")
    for _ in range(3):
        cluster = _loaded_cluster()
        cluster.crash_node(0)

        async def pass_once():
            return await cluster.repair_once()

        start = time.perf_counter()
        stripes = asyncio.run(pass_once())
        best = min(best, time.perf_counter() - start)
    assert stripes and stripes >= OBJECTS  # every object one stripe min
    rate = stripes / best
    assert rate >= REPAIR_FLOOR_STRIPES, (
        f"repair: {rate:.0f} stripes/s < floor {REPAIR_FLOOR_STRIPES}")


# --------------------------------------------------------------------------- #
# PR 10 floors: the subprocess backend and sharded-metadata scaling
# --------------------------------------------------------------------------- #
# Measured at floor-setting time: ~315 process-backend puts/s (pipe
# frames + acks dominate) and ~220k sharded metadata lookups/s, so the
# floors below carry ~5x and ~11x headroom respectively.
PROCESS_PUT_FLOOR_OPS = 60.0
#: Healthy gets over the subprocess backend measured ~1900 ops/s (one
#: fetch frame per data column, 2-vCPU VM), so this floor carries ~5x
#: headroom too.
PROCESS_GET_FLOOR_OPS = 400.0
SHARDED_KEYS = 100_000
SHARDED_LOOKUPS = 20_000
SHARDED_GET_FLOOR_OPS = 20_000.0


def test_process_backend_put_throughput_meets_floor():
    """Puts through one subprocess per node: the RPC framing, the
    pipelined client and the pipe transport are all on this path, so a
    per-frame regression (extra drain, lost pipelining) lands here."""
    from repro.store import ProcessTransport
    from repro.store.node import StoreNode

    rng = np.random.default_rng(2)
    payloads = [rng.bytes(OBJECT_BYTES) for _ in range(OBJECTS)]
    code = parse_code_spec("rs(n=6,r=4,m=2)")

    async def run_once() -> float:
        transports = await asyncio.gather(*[
            ProcessTransport.spawn() for _ in range(code.n)])
        nodes = [StoreNode(j, transport=transports[j])
                 for j in range(code.n)]
        async with StoreCluster(code, symbol_bytes=SYMBOL_BYTES,
                                nodes=nodes) as cluster:
            start = time.perf_counter()
            for i, payload in enumerate(payloads):
                await cluster.put(f"obj-{i}", payload)
            await cluster.flush()  # every byte physically delivered
            elapsed = time.perf_counter() - start
            assert not cluster.dataplane_errors()
            return elapsed

    best = min(asyncio.run(run_once()) for _ in range(2))
    rate = OBJECTS / best
    assert rate >= PROCESS_PUT_FLOOR_OPS, (
        f"process-backend puts: {rate:.0f} ops/s < floor "
        f"{PROCESS_PUT_FLOOR_OPS} ({OBJECTS} x {OBJECT_BYTES} B objects)")


def test_process_backend_get_throughput_meets_floor():
    """Healthy gets through one subprocess per node: each get is one
    fetch frame per data column and one reply each, so a regression to
    a frame per chunk, or lost pipelining, lands here."""
    from repro.store import ProcessTransport
    from repro.store.node import StoreNode

    rng = np.random.default_rng(4)
    payloads = [rng.bytes(OBJECT_BYTES) for _ in range(OBJECTS)]
    code = parse_code_spec("rs(n=6,r=4,m=2)")

    async def run_once() -> float:
        transports = await asyncio.gather(*[
            ProcessTransport.spawn() for _ in range(code.n)])
        nodes = [StoreNode(j, transport=transports[j])
                 for j in range(code.n)]
        async with StoreCluster(code, symbol_bytes=SYMBOL_BYTES,
                                nodes=nodes) as cluster:
            for i, payload in enumerate(payloads):
                await cluster.put(f"obj-{i}", payload)
            await cluster.flush()
            start = time.perf_counter()
            for i, payload in enumerate(payloads):
                assert await cluster.get(f"obj-{i}") == payload
            elapsed = time.perf_counter() - start
            assert cluster.report.degraded_reads == 0
            return elapsed

    best = min(asyncio.run(run_once()) for _ in range(2))
    rate = OBJECTS / best
    assert rate >= PROCESS_GET_FLOOR_OPS, (
        f"process-backend healthy gets: {rate:.0f} ops/s < floor "
        f"{PROCESS_GET_FLOOR_OPS} ({OBJECTS} x {OBJECT_BYTES} B objects)")


def test_sharded_metadata_get_scaling_meets_floor():
    """The metadata half of a get (shard lookup + per-key lock round
    trip) at a 100k-key population: sharding must keep this O(1)-ish --
    a lock table that stops reclaiming or a shard map that degenerates
    to a scan fails this floor long before it fails a workload test."""
    from repro.store import KeyShards
    from repro.store.cluster import ObjectMeta

    shards = KeyShards(16)
    for i in range(SHARDED_KEYS):
        shards.set_meta(f"obj-{i:06d}", ObjectMeta(size=64, stripes=1))
    picks = np.random.default_rng(3).integers(0, SHARDED_KEYS,
                                              size=SHARDED_LOOKUPS)
    keys = [f"obj-{int(k):06d}" for k in picks]

    async def lookups():
        for key in keys:
            async with shards.lock(key):
                assert shards.meta(key).size == 64

    elapsed = _best_of(lookups)
    rate = SHARDED_LOOKUPS / elapsed
    assert shards.live_locks == 0  # the tables reclaimed everything
    assert rate >= SHARDED_GET_FLOOR_OPS, (
        f"sharded metadata gets: {rate:.0f} ops/s < floor "
        f"{SHARDED_GET_FLOOR_OPS} at {SHARDED_KEYS} keys")
