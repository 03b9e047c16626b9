"""The traffic generator: self-verifying payloads and seeded schedules."""

import asyncio

import numpy as np
import pytest

from repro.codes.registry import parse_code_spec
from repro.scenario.spec import StoreSection
from repro.store.cluster import StoreCluster
from repro.store.latency import node_latencies
from repro.store.node import StoreNode
from repro.store.traffic import TrafficGenerator, make_payload, verify_payload


# --------------------------------------------------------------------------- #
# Payloads
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("size", [0, 1, 8, 9, 100, 4096])
def test_payloads_are_deterministic_and_self_verifying(size):
    a = make_payload(1234, size)
    b = make_payload(1234, size)
    assert a == b
    assert len(a) == size
    assert verify_payload(a)
    if size > 8:
        assert make_payload(99, size) != a


def test_corruption_is_detected():
    data = bytearray(make_payload(5, 256))
    data[200] ^= 0xFF
    assert not verify_payload(bytes(data))


def test_tiny_payloads_verify_vacuously():
    # Too short to carry the seed header: integrity is size-checked by
    # the cluster metadata instead.
    assert verify_payload(b"abc")


# --------------------------------------------------------------------------- #
# Schedules
# --------------------------------------------------------------------------- #
def make_traffic(seed=0, **kwargs) -> TrafficGenerator:
    store = StoreSection(**{
        "objects": 20, "object_bytes": 512, "symbol_bytes": 16,
        "operations": 200, "clients": 2, **kwargs})
    cluster = StoreCluster(parse_code_spec("rs(n=6,r=4,m=2)"),
                           symbol_bytes=store.symbol_bytes)
    return TrafficGenerator(cluster, store, np.random.SeedSequence(seed))


def test_schedule_is_a_pure_function_of_the_seed():
    a, b = make_traffic(seed=7), make_traffic(seed=7)
    assert a._ops == b._ops
    assert np.array_equal(a._sizes, b._sizes)
    assert np.array_equal(a._payload_seeds, b._payload_seeds)
    c = make_traffic(seed=8)
    assert a._ops != c._ops


def test_read_fraction_mixes_ops():
    traffic = make_traffic(read_fraction=0.5, operations=1000)
    gets = sum(1 for kind, _ in traffic._ops if kind == "get")
    assert 350 < gets < 650
    all_reads = make_traffic(read_fraction=1.0)
    assert all(kind == "get" for kind, _ in all_reads._ops)


def test_zipf_skews_popularity_and_zero_alpha_is_uniform():
    skewed = make_traffic(zipf_alpha=1.5, operations=2000)
    hits = np.bincount([obj for _, obj in skewed._ops], minlength=20)
    assert hits[0] > hits[10]

    uniform = make_traffic(zipf_alpha=0.0, operations=2000)
    hits = np.bincount([obj for _, obj in uniform._ops], minlength=20)
    assert hits.min() > 0.5 * hits.max()


def test_min_object_bytes_draws_a_size_range():
    traffic = make_traffic(min_object_bytes=10, object_bytes=100)
    assert traffic._sizes.min() >= 10
    assert traffic._sizes.max() <= 100
    fixed = make_traffic(object_bytes=64)
    assert set(fixed._sizes.tolist()) == {64}


# --------------------------------------------------------------------------- #
# Execution
# --------------------------------------------------------------------------- #
def test_closed_loop_run_counts_every_operation():
    traffic = make_traffic(seed=3, operations=80, clients=4)

    async def flow():
        await traffic.load()
        await traffic.run()

    asyncio.run(flow())
    report = traffic.report
    # Preload puts + every scheduled op, no more, no less.
    assert report.puts + report.gets == 20 + 80
    assert report.puts == 20 + sum(
        1 for kind, _ in traffic._ops if kind == "put")
    assert report.verify_failures == 0
    assert report.failed_reads == 0
    assert len(report.put_latencies) == report.puts - 20
    assert len(report.get_latencies) == report.gets


def test_load_settles_the_preload_data_plane():
    """The measured run starts with no preload delivery in flight: every
    put's ack is drained, even with node latency holding them back."""
    store = StoreSection(objects=12, object_bytes=512, symbol_bytes=16,
                         operations=10, clients=2, latency_disk_ms=5.0)
    code = parse_code_spec("rs(n=6,r=4,m=2)")
    latencies = node_latencies(store, code.n, np.random.SeedSequence(1))
    nodes = [StoreNode(j, latency=latencies[j]) for j in range(code.n)]

    async def flow():
        cluster = StoreCluster(code, symbol_bytes=store.symbol_bytes,
                               nodes=nodes)
        traffic = TrafficGenerator(cluster, store,
                                   np.random.SeedSequence(3))
        await traffic.load()
        in_flight = sum(len(node._acks._outstanding) for node in nodes)
        tasks = len(cluster._tasks._outstanding)
        await cluster.aclose()
        return in_flight, tasks

    assert asyncio.run(flow()) == (0, 0)
