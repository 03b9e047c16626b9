"""Seeded physical-latency samplers for store nodes.

Without latency the store's p50/p99s are whatever the event loop
happens to cost.  This module injects *physical* time at the node
boundary so they track parameters you can reason about: a chunk
operation pays one network round trip plus one disk service time, each
a ``base + Exp(jitter)`` draw in ms from the ``[store]`` section's
``latency_*`` knobs.  One flat :class:`NodeLatency` per node holds the
knobs and its seeded generator.

Determinism contract: the *sample values* are drawn synchronously at
operation-decision time from a per-node ``SeedSequence``-derived
generator, so the draw sequence is a pure function of the spec + seed
and identical across the in-process and subprocess backends.  Only the
wall-clock *delivery* of chunk bytes is delayed (the node holds the
transport's future back until the sampled deadline); the deterministic
mirror never waits on a sample, so digests are latency-independent.
"""

from __future__ import annotations

import numpy as np


class NodeLatency:
    """One node's sampler: network RTT + disk service time, each
    ``base + Exp(jitter)`` ms, drawn from one seeded generator.

    ``sample_s`` is called synchronously at decision time (determinism
    contract above); the caller turns the returned seconds into a
    delivery deadline for the chunk's data future.
    """

    def __init__(self, store, seed: np.random.SeedSequence) -> None:
        #: (base_ms, jitter_ms) per term, in draw order.
        self.terms = ((store.latency_net_rtt_ms, store.latency_net_jitter_ms),
                      (store.latency_disk_ms, store.latency_disk_jitter_ms))
        self._rng = np.random.default_rng(seed)

    def sample_s(self) -> float:
        total = 0.0
        for base_ms, jitter_ms in self.terms:
            delay = base_ms
            if jitter_ms > 0.0:
                delay += float(self._rng.exponential(jitter_ms))
            total += delay
        return total / 1000.0


def node_latencies(store, num_nodes: int,
                   seed: "np.random.SeedSequence | None",
                   ) -> "list[NodeLatency | None]":
    """One independently seeded sampler per node from a ``[store]``
    section; all ``None`` when every latency knob is zero (the node
    then returns the transport's futures untouched)."""
    knobs = (store.latency_net_rtt_ms, store.latency_net_jitter_ms,
             store.latency_disk_ms, store.latency_disk_jitter_ms)
    if all(knob <= 0.0 for knob in knobs):
        return [None] * num_nodes
    if seed is None:
        seed = np.random.SeedSequence(0)
    return [NodeLatency(store, child) for child in seed.spawn(num_nodes)]
