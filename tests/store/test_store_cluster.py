"""Unit coverage of :class:`repro.store.cluster.StoreCluster`.

Healthy and degraded reads, repair semantics (budget, auto-replace,
unrecoverable stripes), partial puts onto down nodes, and the report
counters each path feeds.
"""

import asyncio
import itertools
import math

import numpy as np
import pytest

from repro.codes.registry import parse_code_spec
from repro.gf.regions import ReferenceRegionOps
from repro.store.cluster import ObjectLostError, StoreCluster
from repro.store.codec import ObjectCodec, StoreError
from repro.sim.cluster import CoverageModel
from repro.store.node import (ChunkIntegrityError, LocalTransport,
                              ProcessTransport, StoreNode)
from repro.store.rpc import NodeProcessError


def run(coro):
    return asyncio.run(coro)


def make_cluster(spec="rs(n=6,r=4,m=2)", **kwargs) -> StoreCluster:
    kwargs.setdefault("symbol_bytes", 16)
    return StoreCluster(parse_code_spec(spec), **kwargs)


def payload(size: int, seed: int = 0) -> bytes:
    return np.random.default_rng(seed).bytes(size)


# --------------------------------------------------------------------------- #
# Construction
# --------------------------------------------------------------------------- #
def test_needs_one_node_per_column():
    with pytest.raises(StoreError, match="exactly 6 nodes"):
        make_cluster(nodes=[StoreNode(j) for j in range(4)])


def test_repair_streams_must_be_positive():
    with pytest.raises(StoreError, match="repair_streams"):
        make_cluster(repair_streams=0)


def test_fractional_repair_budget_rounds_up():
    assert make_cluster(repair_streams=1.5).repair_slots == 2
    assert make_cluster(repair_streams=1.0).repair_slots == 1
    assert make_cluster().repair_slots == 6  # None = unbudgeted


# --------------------------------------------------------------------------- #
# Healthy path
# --------------------------------------------------------------------------- #
def test_put_get_round_trip_multi_stripe():
    cluster = make_cluster()
    data = payload(3 * cluster.codec.stripe_payload_bytes + 5)

    async def flow():
        await cluster.put("k", data)
        return await cluster.get("k")

    assert run(flow()) == data
    assert cluster.report.puts == 1
    assert cluster.report.gets == 1
    assert cluster.report.degraded_reads == 0
    assert cluster.fully_redundant()


def test_unknown_key_raises_keyerror():
    cluster = make_cluster()
    with pytest.raises(KeyError):
        run(cluster.get("nope"))


def test_healthy_reads_touch_only_data_columns():
    cluster = make_cluster()
    data = payload(cluster.codec.stripe_payload_bytes)

    async def flow():
        await cluster.put("k", data)
        await cluster.get("k")

    run(flow())
    for j, node in enumerate(cluster.nodes):
        expected = 1 if j in cluster.codec.data_columns else 0
        assert node.chunks_read == expected
    assert cluster.report.bytes_read_nodes_healthy == \
        len(cluster.codec.data_columns) * cluster.codec.chunk_bytes


def test_overwrite_replaces_and_shrinks():
    cluster = make_cluster()
    big = payload(2 * cluster.codec.stripe_payload_bytes, seed=1)
    small = payload(10, seed=2)

    async def flow():
        await cluster.put("k", big)
        await cluster.put("k", small)
        return await cluster.get("k")

    assert run(flow()) == small


@pytest.mark.parametrize("backend", ["inprocess", "process"])
def test_shrinking_overwrite_drops_surplus_stripes(backend):
    """A 5000 B object is five 1 KiB stripes of rs(n=6,r=4,m=2) at 64 B
    symbols; overwriting it with 10 B keeps one chunk per node, in the
    mirror and in the data plane.  A repair pass that listed the old
    stripes before the overwrite must not count them as lost."""
    code = parse_code_spec("rs(n=6,r=4,m=2)")

    async def flow():
        if backend == "process":
            transports = [await ProcessTransport.spawn()
                          for _ in range(code.n)]
        else:
            transports = [LocalTransport() for _ in range(code.n)]
        nodes = [StoreNode(j, transport=transports[j])
                 for j in range(code.n)]
        async with StoreCluster(code, symbol_bytes=64,
                                nodes=nodes) as cluster:
            await cluster.put("k", payload(5000, seed=1))
            assert nodes[1].mirror_stat()[0] == 5
            cluster.crash_node(0)
            small = payload(10, seed=2)
            await asyncio.gather(cluster.repair_once(),
                                 cluster.put("k", small))
            await cluster.flush()
            one_chunk = (1, cluster.codec.chunk_bytes)
            for node in nodes:
                assert node.mirror_stat() == one_chunk, node.index
                assert await node.stat() == one_chunk, node.index
            assert not await cluster.audit_data_plane()
            assert await cluster.get("k") == small
            assert cluster.fully_redundant()
            assert cluster.report.unrecoverable_stripes == 0
            assert not cluster.dataplane_errors()

    run(flow())


def test_zero_byte_object_round_trips():
    cluster = make_cluster()

    async def flow():
        await cluster.put("empty", b"")
        return await cluster.get("empty")

    assert run(flow()) == b""
    assert cluster.fully_redundant()


# --------------------------------------------------------------------------- #
# Degraded reads
# --------------------------------------------------------------------------- #
def test_degraded_read_is_byte_identical_up_to_coverage():
    cluster = make_cluster()  # m = 2
    data = payload(2 * cluster.codec.stripe_payload_bytes + 3, seed=3)

    async def flow(kill):
        await cluster.put("k", data)
        for j in kill:
            cluster.crash_node(j)
        return await cluster.get("k")

    assert run(flow([0])) == data
    assert cluster.report.degraded_reads == 1
    cluster2 = make_cluster()

    async def flow2():
        await cluster2.put("k", data)
        cluster2.crash_node(0)
        cluster2.crash_node(5)
        return await cluster2.get("k")

    assert run(flow2()) == data


def test_beyond_coverage_is_object_lost():
    cluster = make_cluster("rs(n=5,r=3,m=2)")
    data = payload(cluster.codec.stripe_payload_bytes, seed=4)

    async def flow():
        await cluster.put("k", data)
        for j in (0, 1, 2):  # three losses > m = 2
            cluster.crash_node(j)
        await cluster.get("k")

    with pytest.raises(ObjectLostError):
        run(flow())
    assert cluster.report.failed_reads == 1


@pytest.mark.parametrize("backend", ["inprocess", "process"])
def test_recoverable_column_pairs_beyond_coverage_are_served(backend):
    """sd(n=6,r=2,m=1,s=3) loses 4 symbols with any two columns and has
    5 independent parity checks over them, although its chunk-level
    coverage (m = 1) stops at one column: the store asks the code's
    exact predicate, so it reads and repairs through every pair."""
    code = parse_code_spec("sd(n=6,r=2,m=1,s=3)")
    assert not CoverageModel.from_code(code).tolerates_counts((0,) * 4, 2)

    async def flow():
        if backend == "process":
            transports = [await ProcessTransport.spawn()
                          for _ in range(code.n)]
        else:
            transports = [LocalTransport() for _ in range(code.n)]
        nodes = [StoreNode(j, transport=transports[j])
                 for j in range(code.n)]
        async with StoreCluster(code, symbol_bytes=16,
                                nodes=nodes) as cluster:
            data = payload(3 * cluster.codec.stripe_payload_bytes + 5,
                           seed=8)
            await cluster.put("k", data)
            for pair in itertools.combinations(range(code.n), 2):
                for j in pair:
                    cluster.crash_node(j)
                assert await cluster.get("k") == data, pair
                assert await cluster.repair_once() == 4, pair
                await cluster.flush()
                assert cluster.fully_redundant(), pair
                assert not await cluster.audit_data_plane(), pair
            assert cluster.report.failed_reads == 0
            assert cluster.report.unrecoverable_stripes == 0

    run(flow())


@pytest.mark.parametrize("ops", ["bulk", "reference"])
@pytest.mark.parametrize("backend", ["inprocess", "process"])
def test_degraded_get_decodes_each_erasure_pattern_once(backend, ops):
    """A four-stripe object is written healthy, then node 0 loses the
    chunk of stripe 0.  With node 1 crashed too, the stripes miss
    columns {0, 1} and {1}: the read decodes each pattern in one run
    and returns the exact bytes."""
    code = parse_code_spec("rs(n=6,r=4,m=2)")
    if ops == "reference":
        code.ops_class = ReferenceRegionOps

    async def flow():
        if backend == "process":
            transports = [await ProcessTransport.spawn()
                          for _ in range(code.n)]
        else:
            transports = [LocalTransport() for _ in range(code.n)]
        nodes = [StoreNode(j, transport=transports[j])
                 for j in range(code.n)]
        async with StoreCluster(code, symbol_bytes=16,
                                nodes=nodes) as cluster:
            data = payload(3 * cluster.codec.stripe_payload_bytes + 5,
                           seed=9)
            await cluster.put("k", data)
            nodes[0].drop_chunk("k", 0)
            cluster.crash_node(1)
            assert cluster.damaged_stripes() == [
                ("k", 0, (0, 1)), ("k", 1, (1,)), ("k", 2, (1,)),
                ("k", 3, (1,))]
            runs = []
            decode_stripe = cluster.codec.decode_stripe
            cluster.codec.decode_stripe = lambda columns: (
                runs.append(tuple(j for j, chunk in enumerate(columns)
                                  if chunk is None))
                or decode_stripe(columns))
            assert await cluster.get("k") == data
            assert sorted(runs) == [(0, 1), (1,)]
            assert cluster.report.failed_reads == 0

    run(flow())


def test_degraded_amplification_exceeds_healthy():
    cluster = make_cluster()
    data = payload(4 * cluster.codec.stripe_payload_bytes, seed=5)

    async def flow():
        await cluster.put("k", data)
        await cluster.get("k")             # healthy
        cluster.crash_node(0)
        await cluster.get("k")             # degraded

    run(flow())
    report = cluster.report
    assert report.healthy_read_amplification >= 1.0
    assert report.degraded_read_amplification >= \
        report.healthy_read_amplification


# --------------------------------------------------------------------------- #
# Repair
# --------------------------------------------------------------------------- #
def test_repair_restores_full_redundancy():
    cluster = make_cluster()
    data = payload(3 * cluster.codec.stripe_payload_bytes, seed=6)

    async def flow():
        await cluster.put("k", data)
        cluster.crash_node(2)
        assert not cluster.fully_redundant()
        repaired = await cluster.repair_once()
        assert repaired == 3  # one per stripe
        assert cluster.fully_redundant()
        return await cluster.get("k")

    assert run(flow()) == data
    assert cluster.report.degraded_reads == 0  # repaired before the read
    assert cluster.report.repaired_stripes == 3
    assert cluster.report.repaired_chunks == 3
    assert cluster.report.repair_bytes == 3 * cluster.codec.chunk_bytes


def test_repair_without_auto_replace_waits_for_restore():
    cluster = make_cluster(auto_replace=False)
    data = payload(cluster.codec.stripe_payload_bytes, seed=7)

    async def flow():
        await cluster.put("k", data)
        cluster.crash_node(1)
        assert await cluster.repair_once() == 0  # nowhere to write
        cluster.restore_node(1)
        assert await cluster.repair_once() == 1
        return cluster.fully_redundant()

    assert run(flow())


def test_partial_put_onto_down_node_is_repaired():
    cluster = make_cluster()
    cluster.crash_node(4)
    data = payload(2 * cluster.codec.stripe_payload_bytes, seed=8)

    async def flow():
        await cluster.put("k", data)      # node 4 misses its chunks
        assert cluster.report.partial_put_stripes == 2
        got = await cluster.get("k")      # healthy or degraded per layout
        await cluster.repair_once()
        return got, await cluster.get("k")

    before, after = run(flow())
    assert before == data
    assert after == data
    assert cluster.fully_redundant()


def test_unrecoverable_stripes_are_counted_not_raised():
    cluster = make_cluster("rs(n=5,r=3,m=2)")
    data = payload(cluster.codec.stripe_payload_bytes, seed=9)

    async def flow():
        await cluster.put("k", data)
        for j in (0, 1, 2):
            cluster.crash_node(j)
        return await cluster.repair_once()

    assert run(flow()) == 0
    assert cluster.report.unrecoverable_stripes == 1


@pytest.mark.parametrize("backend", ["inprocess", "process"])
def test_failed_rebuild_surfaces_and_teardown_finishes(backend,
                                                       monkeypatch):
    """A rebuild that raises in the data plane fails the deferred
    payloads it owed: the failure is reported, the targets leave the
    mirror again so a read of the key degrades around them and returns
    the exact bytes, the next repair pass rebuilds them once the codec
    works, the node still serves other keys, and teardown finishes."""
    code = parse_code_spec("rs(n=6,r=4,m=2)")
    working = ObjectCodec.rebuild_columns

    def broken(self, columns, targets):
        raise RuntimeError("rebuild exploded")

    async def flow():
        if backend == "process":
            transports = [await ProcessTransport.spawn()
                          for _ in range(code.n)]
        else:
            transports = [LocalTransport() for _ in range(code.n)]
        nodes = [StoreNode(j, transport=transports[j])
                 for j in range(code.n)]
        cluster = StoreCluster(code, symbol_bytes=16, nodes=nodes)
        try:
            data = payload(100, seed=10)
            await cluster.put("k", data)
            cluster.crash_node(0)  # a data column: reads need it back
            monkeypatch.setattr(ObjectCodec, "rebuild_columns", broken)
            assert await cluster.repair_once() == 1
            await cluster.flush()
            assert any(isinstance(err, ChunkIntegrityError)
                       for err in cluster.dataplane_errors())
            assert not cluster.nodes[0].has_chunk("k", 0)
            assert cluster.damage_suspected()
            assert await asyncio.wait_for(cluster.get("k"),
                                          timeout=15.0) == data
            assert cluster.report.degraded_reads == 1
            monkeypatch.setattr(ObjectCodec, "rebuild_columns", working)
            assert await cluster.repair_once() == 1
            await cluster.flush()
            assert cluster.fully_redundant()
            assert not await cluster.audit_data_plane()
            assert await cluster.get("k") == data
            # Node 0 (a data column, repaired back up) takes and serves
            # a fresh key exactly.
            assert cluster.nodes[0].up
            fresh = payload(100, seed=11)
            await cluster.put("other", fresh)
            assert await asyncio.wait_for(cluster.get("other"),
                                          timeout=15.0) == fresh
            await cluster.flush()
        finally:
            await asyncio.wait_for(cluster.aclose(), timeout=15.0)

    run(flow())


def test_failed_rebuild_of_an_overwritten_key_keeps_the_new_chunks(
        monkeypatch):
    """The un-marking of a failed rebuild's targets only applies while
    the key still holds the object the repair decided on: an overwrite
    in between owns those chunks now."""
    cluster = make_cluster()

    def broken(self, columns, targets):
        raise RuntimeError("rebuild exploded")

    async def flow():
        await cluster.put("k", payload(100, seed=12))
        cluster.crash_node(0)
        monkeypatch.setattr(ObjectCodec, "rebuild_columns", broken)
        # Hold the survivors' promise of column 1 so the decode waits
        # until after the overwrite below.
        fetch_chunks = cluster.nodes[1].fetch_chunks
        gate = asyncio.get_running_loop().create_future()

        def gated(key, stripes):
            inner = fetch_chunks(key, stripes)
            out = asyncio.get_running_loop().create_future()
            gate.add_done_callback(lambda _: inner.add_done_callback(
                lambda done: out.set_result(done.result())))
            return out

        cluster.nodes[1].fetch_chunks = gated
        assert await cluster.repair_once() == 1
        fresh = payload(100, seed=13)
        await cluster.put("k", fresh)
        gate.set_result(None)
        await cluster.flush()
        assert cluster.dataplane_errors()
        assert cluster.nodes[0].has_chunk("k", 0)
        assert await cluster.get("k") == fresh

    run(flow())


def test_repair_budget_bounds_concurrency():
    cluster = make_cluster(repair_streams=2)
    assert cluster.repair_slots == 2
    samples = []

    def hook(key, stripe):
        # The hook fires while this stripe's repair is still counted in
        # flight, so the sample is the instantaneous concurrency.
        samples.append(cluster._repairs_in_flight)

    async def flow():
        for obj in range(6):
            await cluster.put(f"k{obj}",
                              payload(cluster.codec.stripe_payload_bytes,
                                      seed=10 + obj))
        cluster.crash_node(0)
        await cluster.repair_once(on_stripe=hook)

    run(flow())
    assert len(samples) == 6
    assert all(1 <= s <= cluster.repair_slots for s in samples)
    assert cluster.fully_redundant()


def test_repair_is_not_starved_by_client_gets():
    """Repair and client operations each decide in one step after one
    yield, so a background repair keeps pace with busy clients: on the
    ledger code, two clients looping gets complete at most two
    operations per stripe repaired before the damage clears.  A repair
    that yields once per chunk lets them complete over three."""
    cluster = StoreCluster(parse_code_spec("stair(n=8,r=4,m=2,e=(1,1))"),
                           symbol_bytes=128, repair_streams=2)
    keys = [f"k{i}" for i in range(256)]
    done = 0

    async def client(offset: int) -> None:
        nonlocal done
        index = offset
        while cluster.damage_suspected():
            await cluster.get(keys[index % len(keys)])
            index += 7
            done += 1

    async def flow():
        for i, key in enumerate(keys):
            await cluster.put(key, payload(4096, seed=i))
        cluster.crash_node(0)
        cluster.crash_node(1)
        repair = asyncio.create_task(cluster.repair_forever())
        await asyncio.gather(client(0), client(3))
        cluster.stop_repair()
        await repair
        await cluster.flush()

    run(flow())
    assert cluster.fully_redundant()
    assert cluster.report.repaired_stripes == 2 * len(keys)
    assert done <= 2 * cluster.report.repaired_stripes, done


def test_repair_forever_wakes_on_damage():
    cluster = make_cluster()
    data = payload(cluster.codec.stripe_payload_bytes, seed=20)

    async def flow():
        task = asyncio.create_task(cluster.repair_forever())
        await cluster.put("k", data)
        cluster.crash_node(3)
        # Yield until the background loop finishes the rebuild.
        for _ in range(200):
            await asyncio.sleep(0)
            if cluster.fully_redundant():
                break
        cluster.stop_repair()
        await task
        return cluster.fully_redundant()

    assert run(flow())
    assert cluster.report.repaired_stripes == 1


def test_interference_counter_sees_ops_during_repair():
    cluster = make_cluster()
    data = payload(4 * cluster.codec.stripe_payload_bytes, seed=21)

    async def flow():
        await cluster.put("a", data)
        await cluster.put("b", data)
        cluster.crash_node(0)
        repair = asyncio.create_task(cluster.repair_once())
        # Let the repair actually start before reading.
        for _ in range(3):
            await asyncio.sleep(0)
        await cluster.get("b")
        await repair

    run(flow())
    assert cluster.report.interfered_ops >= 1


def test_amplification_is_nan_without_traffic():
    report = make_cluster().report
    assert math.isnan(report.degraded_read_amplification)
    assert math.isnan(report.healthy_read_amplification)
