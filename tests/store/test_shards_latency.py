"""Unit tests for the sharded metadata/lock layer and latency samplers.

The shard map must be stable across *processes* (the subprocess
backend depends on both sides agreeing), the per-key lock tables must
reclaim entries instead of growing monotonically, and the latency
samplers must be pure functions of the seed while leaving the
deterministic digest untouched (covered end-to-end in
``test_integration.py``).
"""

import asyncio
import zlib

import numpy as np
import pytest

from repro.scenario.spec import StoreSection
from repro.store import KeyShards, NodeLatency
from repro.store.cluster import ObjectMeta
from repro.store.latency import node_latencies


# --------------------------------------------------------------------------- #
# KeyShards
# --------------------------------------------------------------------------- #
def test_shard_of_is_crc32_stable_across_processes():
    # hash() is salted per process; the shard map must not be.  Pin the
    # function itself so a future "optimisation" cannot silently break
    # subprocess agreement.
    shards = KeyShards(16)
    for key in ("obj-000001", "a", "κλειδί", "x" * 200):
        assert shards.shard_of(key) == \
            zlib.crc32(key.encode("utf-8")) % 16


def test_meta_round_trip_and_iteration_order():
    shards = KeyShards(4)
    keys = [f"k{i}" for i in range(40)]
    for i, key in enumerate(keys):
        shards.set_meta(key, ObjectMeta(size=i, stripes=1))
    assert len(shards) == 40
    assert all(key in shards for key in keys)
    assert shards.meta("k7").size == 7
    # items() walks shard by shard, insertion-ordered within each --
    # deterministic, and every key appears exactly once.
    seen = [key for key, _ in shards.items()]
    assert sorted(seen) == sorted(keys)
    assert len(set(seen)) == 40


def test_lock_tables_reclaim_released_entries():
    shards = KeyShards(2)

    async def flow():
        async with shards.lock("a"):
            async with shards.lock("b"):
                assert shards.live_locks == 2
        assert shards.live_locks == 0  # both reclaimed, not leaked

        # Contended: the entry must survive until the *last* holder
        # releases, then vanish.
        order = []

        async def holder(tag):
            async with shards.lock("same"):
                order.append(tag)
                await asyncio.sleep(0)

        await asyncio.gather(holder(1), holder(2), holder(3))
        assert order == [1, 2, 3]  # FIFO: the lock really serialized
        assert shards.live_locks == 0

    asyncio.run(flow())


def test_keys_spread_across_shards():
    shards = KeyShards(16)
    counts = [0] * 16
    for i in range(4096):
        counts[shards.shard_of(f"obj-{i:06d}")] += 1
    assert min(counts) > 0  # no empty shard at this population
    assert max(counts) < 4096 / 4  # and no shard owns the key space


def test_shard_count_one_still_works():
    shards = KeyShards(1)
    shards.set_meta("k", ObjectMeta(size=1, stripes=1))
    assert shards.shard_of("anything") == 0
    assert "k" in shards and len(shards) == 1


# --------------------------------------------------------------------------- #
# Latency samplers
# --------------------------------------------------------------------------- #
def test_each_term_is_base_plus_exponential_jitter():
    fixed = NodeLatency(StoreSection(latency_disk_ms=3.0),
                        np.random.SeedSequence(0))
    assert fixed.sample_s() == 3.0 / 1000.0
    jittered = NodeLatency(
        StoreSection(latency_disk_ms=3.0, latency_disk_jitter_ms=2.0),
        np.random.SeedSequence(0))
    samples = [jittered.sample_s() * 1000.0 for _ in range(2000)]
    assert all(s >= 3.0 for s in samples)
    assert np.mean(samples) == pytest.approx(5.0, rel=0.1)


def test_from_store_section_returns_none_when_all_knobs_are_zero():
    seed = np.random.SeedSequence(0)
    assert node_latencies(StoreSection(), 2, seed) == [None, None]
    samplers = node_latencies(StoreSection(latency_disk_ms=1.5), 2, seed)
    assert all(isinstance(s, NodeLatency) for s in samplers)
    # The zero network term adds nothing: every sample is the disk's.
    assert samplers[0].sample_s() == 1.5 / 1000.0


def test_node_latency_samples_are_a_pure_function_of_the_seed():
    store = StoreSection(latency_net_rtt_ms=1.0, latency_net_jitter_ms=0.5,
                         latency_disk_ms=0.5, latency_disk_jitter_ms=0.25)
    a = NodeLatency(store, np.random.SeedSequence(42))
    b = NodeLatency(store, np.random.SeedSequence(42))
    assert [a.sample_s() for _ in range(100)] == \
        [b.sample_s() for _ in range(100)]


def test_node_latencies_are_independent_per_node():
    store = StoreSection(latency_net_rtt_ms=1.0, latency_net_jitter_ms=1.0)
    samplers = node_latencies(store, 4, np.random.SeedSequence(7))
    draws = [tuple(s.sample_s() for _ in range(10)) for s in samplers]
    assert len(set(draws)) == 4  # distinct streams
    # And the whole fan-out replays from the same root seed.
    replay = node_latencies(store, 4, np.random.SeedSequence(7))
    assert draws[0] == tuple(replay[0].sample_s() for _ in range(10))


def test_node_latencies_disabled_model_yields_nones():
    assert node_latencies(StoreSection(), 3, np.random.SeedSequence(0)) == \
        [None, None, None]
