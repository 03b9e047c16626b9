"""Node-level latency: :class:`StoreNode` is the one place a sampled
delay is applied.

The mirror decides at once; only the transport's future is held back
until decision time + the sample, and an answer arriving after that
deadline is released at once.  The flat :class:`NodeLatency` sampler
must reproduce the two-term ``base + Exp(jitter)`` formula draw for
draw.
"""

import asyncio

import numpy as np
import pytest

from repro.scenario.spec import StoreSection
from repro.store.latency import NodeLatency
from repro.store.node import LocalTransport, StoreNode

DELAY_S = 0.030
#: Slack for timer granularity and scheduling on a loaded machine.
SLACK_S = 0.015


class _Fixed:
    """A sampler that always answers ``DELAY_S``."""

    def sample_s(self) -> float:
        return DELAY_S


def run(coro):
    return asyncio.run(coro)


def test_mirror_decides_at_once_and_futures_wait_for_the_deadline():
    async def flow():
        loop = asyncio.get_running_loop()
        node = StoreNode(0, latency=_Fixed())
        start = loop.time()
        ack = node.put_chunk("k", 0, b"x" * 8)
        # The mirror and its counters moved at decision time.
        assert node.has_chunk("k", 0)
        assert node.mirror_stat() == (1, 8)
        assert (node.chunks_written, node.bytes_written) == (1, 8)
        fetched = node.fetch_chunk("k", 0)
        assert (node.chunks_read, node.bytes_read) == (1, 8)
        assert not ack.done() and not fetched.done()
        await asyncio.sleep(DELAY_S / 2)
        assert not ack.done() and not fetched.done()
        assert await fetched == b"x" * 8
        await ack
        assert loop.time() - start >= DELAY_S - 1e-3

    run(flow())


def test_answer_after_the_deadline_is_released_at_once():
    async def flow():
        loop = asyncio.get_running_loop()
        node = StoreNode(0, transport=LocalTransport(), latency=_Fixed())
        payload = loop.create_future()
        ack = node.put_chunk_deferred("k", 0, payload, 4)
        fetched = node.fetch_chunk("k", 0)
        assert node.mirror_stat() == (1, 4)
        # Both deadlines pass while the bytes do not exist yet.
        await asyncio.sleep(2 * DELAY_S)
        assert not ack.done() and not fetched.done()
        answered = loop.time()
        payload.set_result(b"late")
        assert await fetched == b"late"
        await ack
        # Released on arrival, not one more sampled delay later.
        assert loop.time() - answered < SLACK_S

    run(flow())


def test_zero_latency_node_returns_the_transports_future():
    async def flow():
        node = StoreNode(0)
        ack = node.put_chunk("k", 0, b"abc")
        assert ack.done()
        fetched = node.fetch_chunk("k", 0)
        assert fetched.done() and fetched.result() == b"abc"

    run(flow())


def test_one_latency_draw_per_batch_and_counters_per_chunk():
    """A node operation over several stripes is one decision: one
    sampled delay and one ack, while the counters still count chunks."""
    class Counting(_Fixed):
        draws = 0

        def sample_s(self) -> float:
            Counting.draws += 1
            return 0.0

    async def flow():
        node = StoreNode(0, latency=Counting())
        ack = node.put_chunks("k", [0, 1, 2], [b"a" * 4, b"b" * 4, b"c"])
        assert Counting.draws == 1
        assert (node.chunks_written, node.bytes_written) == (3, 9)
        fetched = node.fetch_chunks("k", [2, 0])
        assert Counting.draws == 2
        assert (node.chunks_read, node.bytes_read) == (2, 5)
        assert await fetched == [b"c", b"a" * 4]
        await ack

    run(flow())


def test_local_batch_read_is_a_snapshot_of_deferred_entries():
    """A batch read that captured a deferred entry returns the bytes
    that entry resolves to, though an overwrite landed in between."""
    async def flow():
        loop = asyncio.get_running_loop()
        node = StoreNode(0, transport=LocalTransport())
        node.put_chunk("k", 0, b"old0")
        payload = loop.create_future()
        node.put_chunk_deferred("k", 1, payload, 4)
        fetched = node.fetch_chunks("k", [0, 1])
        node.put_chunks("k", [0, 1], [b"new0", b"new1"])
        assert not fetched.done()
        payload.set_result(b"old1")
        assert await fetched == [b"old0", b"old1"]
        assert await node.fetch_chunks("k", [0, 1]) == [b"new0", b"new1"]

    run(flow())


def _parent_formula(knobs, seed, draws):
    """Network RTT + disk time, each ``base + Exp(jitter)`` ms, drawn
    network first from one generator, summed, in seconds."""
    net_base, net_jitter, disk_base, disk_jitter = knobs
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(draws):
        net = net_base
        if net_jitter > 0.0:
            net += float(rng.exponential(net_jitter))
        disk = disk_base
        if disk_jitter > 0.0:
            disk += float(rng.exponential(disk_jitter))
        out.append((net + disk) / 1000.0)
    return out


@pytest.mark.parametrize("knobs", [
    (2.0, 0.5, 1.0, 0.5),
    (2.0, 0.0, 1.0, 0.0),
    (0.0, 0.75, 0.0, 0.0),
    (0.0, 0.0, 1.5, 0.25),
])
def test_flat_sampler_matches_the_two_term_formula_bit_for_bit(knobs):
    store = StoreSection(
        latency_net_rtt_ms=knobs[0], latency_net_jitter_ms=knobs[1],
        latency_disk_ms=knobs[2], latency_disk_jitter_ms=knobs[3])
    sampler = NodeLatency(store, np.random.SeedSequence(11))
    expected = _parent_formula(knobs, np.random.SeedSequence(11), 200)
    assert [sampler.sample_s() for _ in range(200)] == expected
