"""Closed-loop, seeded Zipf traffic against a :class:`StoreCluster`.

The generator precomputes the whole workload -- operation types, target
keys, object sizes and payload seeds -- from ``SeedSequence``-derived
RNGs *before* the first request flies, then lets ``clients`` concurrent
workers drain the schedule.  That split is what makes store runs
replayable exactly like sweep cells: the schedule is a pure function of
the seed, independent of event-loop interleaving, and no draw ever
touches the wall clock or the global :mod:`random` state.

Payloads are *self-verifying*: the first 8 bytes carry a little-endian
seed and the rest is that seed's deterministic PCG byte stream, so any
reader can check integrity without an oracle that chases concurrent
overwrites.  Key popularity is Zipf (``p(rank) ~ (rank+1)^-alpha``
over the fixed object population, ``alpha = 0`` = uniform); reads and
overwrites mix per ``read_fraction``.

Workers are closed-loop on *decisions* and open-loop on *data*: each
worker awaits the cluster's control-plane submit (lock, placement,
counters) and then hands the data-plane tail -- awaiting chunk
delivery, verifying payloads, recording latency -- to a tracked
background task.  Pacing on decisions keeps the deterministic plane
identical across backends (a worker never blocks on a subprocess
round-trip or a sampled physical delay); the runner flushes the
tracked tails before the report is read, so every verify and latency
sample still lands.

Latencies are recorded around the full decision-to-delivery span with
``perf_counter`` -- wall-clock telemetry only, feeding nothing back
into behaviour.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from repro.scenario.spec import StoreSection
from repro.store.cluster import ObjectLostError, StoreCluster
from repro.store.injector import FailureInjector
from repro.store.report import StoreReport

#: Bytes of the payload's embedded seed header.
_HEADER = 8


def make_payload(seed: int, size: int) -> bytes:
    """A deterministic, self-verifying payload of exactly ``size``
    bytes (objects shorter than the 8-byte header are raw stream
    bytes -- still deterministic, just not self-checkable)."""
    if size <= _HEADER:
        return np.random.default_rng(seed).bytes(size)
    header = int(seed).to_bytes(_HEADER, "little")
    return header + np.random.default_rng(seed).bytes(size - _HEADER)


def verify_payload(data: bytes) -> bool:
    """Check a payload against its embedded seed (vacuously true for
    objects too short to carry the header)."""
    if len(data) <= _HEADER:
        return True
    seed = int.from_bytes(data[:_HEADER], "little")
    return data[_HEADER:] == np.random.default_rng(seed).bytes(
        len(data) - _HEADER)


class TrafficGenerator:
    """Preload + closed-loop workload, fully determined by one seed."""

    def __init__(self, cluster: StoreCluster, store: StoreSection,
                 seed_seq: np.random.SeedSequence,
                 injector: FailureInjector | None = None,
                 verify: bool = True) -> None:
        self.cluster = cluster
        self.store = store
        self.injector = injector
        self.verify = verify
        self.report: StoreReport = cluster.report
        self.report.objects = store.objects
        self.report.operations = store.operations
        schedule_rng, payload_rng = [
            np.random.default_rng(child) for child in seed_seq.spawn(2)]
        self._sizes = self._draw_sizes(schedule_rng)
        self._ops = self._draw_ops(schedule_rng)
        #: Fresh payload seed per (preload or overwrite) put.
        self._payload_seeds = payload_rng.integers(
            0, 2 ** 63, size=store.objects + store.operations)

    # ------------------------------------------------------------------ #
    # Schedule construction (pure function of the seed)
    # ------------------------------------------------------------------ #
    def _draw_sizes(self, rng: np.random.Generator) -> np.ndarray:
        store = self.store
        if store.min_object_bytes is None:
            return np.full(store.objects, store.object_bytes, dtype=np.int64)
        return rng.integers(store.min_object_bytes,
                            store.object_bytes + 1, size=store.objects)

    def _draw_ops(self, rng: np.random.Generator) -> list[tuple[str, int]]:
        """``(kind, object_index)`` per operation, Zipf-popular keys."""
        store = self.store
        ranks = np.arange(1, store.objects + 1, dtype=float)
        weights = ranks ** -store.zipf_alpha
        pmf = weights / weights.sum()
        keys = rng.choice(store.objects, size=store.operations, p=pmf)
        reads = rng.random(store.operations) < store.read_fraction
        return [("get" if is_read else "put", int(obj))
                for is_read, obj in zip(reads, keys)]

    @staticmethod
    def key_name(obj: int) -> str:
        return f"obj-{obj:06d}"

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    async def load(self) -> None:
        """Preload every object (not latency-measured, not injected)
        and settle the preload's data plane, so the measured run does
        not start behind it (or behind node subprocesses booting)."""
        for obj in range(self.store.objects):
            payload = make_payload(int(self._payload_seeds[obj]),
                                   int(self._sizes[obj]))
            await self.cluster.put(self.key_name(obj), payload)
        await self.cluster.flush()

    async def run(self) -> None:
        """Drain the closed-loop schedule with ``clients`` workers.

        The shared cursor hands out operation indices in order; the
        injector ticks on every hand-out, so crashes land at exact
        operation indices regardless of how workers interleave.
        """
        cursor = iter(range(self.store.operations))

        async def worker() -> None:
            while True:
                try:
                    op_index = next(cursor)
                except StopIteration:
                    return
                if self.injector is not None:
                    self.injector.tick(op_index, self.cluster)
                    for event in self.injector.fired[
                            len(self.report.failures):]:
                        self.report.failures.append(
                            (event.at_op, event.node, event.cause))
                self.report.note_damage(op_index,
                                        self.cluster.damage_suspected())
                kind, obj = self._ops[op_index]
                if kind == "get":
                    await self._one_get(obj)
                else:
                    await self._one_put(op_index, obj)

        await asyncio.gather(*[worker()
                               for _ in range(self.store.clients)])

    async def _one_get(self, obj: int) -> None:
        start = time.perf_counter()
        try:
            ticket = await self.cluster.get_submit(self.key_name(obj))
        except ObjectLostError:
            # failed_reads already counted by the cluster.
            return
        self.cluster.track(self._finish_get(ticket, start))

    async def _finish_get(self, ticket, start: float) -> None:
        try:
            data = await ticket.data()
        except Exception:
            # The control plane promised these bytes; failure to
            # deliver them is a data-plane integrity problem, never a
            # legitimate read outcome.
            self.report.chunk_integrity_failures += 1
            return
        elapsed = time.perf_counter() - start
        self.report.get_latencies.append(elapsed)
        if ticket.degraded:
            self.report.degraded_get_latencies.append(elapsed)
        if self.verify and not verify_payload(data):
            self.report.verify_failures += 1

    async def _one_put(self, op_index: int, obj: int) -> None:
        size = int(self._sizes[obj])
        payload = make_payload(
            int(self._payload_seeds[self.store.objects + op_index]), size)
        start = time.perf_counter()
        ticket = await self.cluster.put(self.key_name(obj), payload)
        self.cluster.track(self._finish_put(ticket, start))

    async def _finish_put(self, ticket, start: float) -> None:
        try:
            await ticket.settled()
        except Exception:
            self.report.chunk_integrity_failures += 1
            return
        self.report.put_latencies.append(time.perf_counter() - start)
