"""What one store run measured: latency tails, amplification, repair.

A :class:`StoreReport` accumulates two kinds of telemetry:

* **deterministic counters** -- operation/byte/repair/degraded-read
  counts that are a pure function of the spec and its seed.  Two runs
  of the same spec produce identical
  :meth:`~StoreReport.deterministic_summary` dicts, the same guarantee
  sweep cells give (and the replay test asserts);
* **wall-clock latencies** -- per-operation ``perf_counter`` deltas,
  summarised as p50/p99.  Real time is inherently noisy, so latencies
  live outside the deterministic digest; they answer the ROADMAP's
  tail-latency question, not the reproducibility one.

``degraded_read_amplification`` is bytes fetched from nodes per user
byte returned on degraded reads (a degraded read must pull surviving
parity columns too, so it is strictly worse than the healthy ratio);
``interfered_ops`` counts client operations that started while at least
one stripe repair was in flight (the repair-interference signal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any


def percentile(samples: list[float], q: float) -> float:
    """The q-th percentile (0..100) by linear interpolation; NaN when
    no samples were recorded."""
    if not samples:
        return math.nan
    data = sorted(samples)
    if len(data) == 1:
        return data[0]
    rank = (q / 100.0) * (len(data) - 1)
    low = int(math.floor(rank))
    high = min(low + 1, len(data) - 1)
    frac = rank - low
    return data[low] * (1.0 - frac) + data[high] * frac


@dataclass
class StoreReport:
    """Aggregated outcome of one object-store workload."""

    # -- workload shape (echoed from the spec) ------------------------- #
    objects: int = 0
    operations: int = 0

    # -- deterministic counters ---------------------------------------- #
    puts: int = 0
    gets: int = 0
    degraded_reads: int = 0
    failed_reads: int = 0
    verify_failures: int = 0
    bytes_put: int = 0
    bytes_read_user: int = 0
    #: Node bytes fetched by healthy reads (data columns only).
    bytes_read_nodes_healthy: int = 0
    #: Node bytes fetched by degraded reads (every surviving column).
    bytes_read_nodes_degraded: int = 0
    #: User bytes returned by degraded reads.
    bytes_read_user_degraded: int = 0
    partial_put_stripes: int = 0
    repaired_stripes: int = 0
    repaired_chunks: int = 0
    repair_bytes: int = 0
    repair_rounds: int = 0
    unrecoverable_stripes: int = 0
    interfered_ops: int = 0
    node_crashes: int = 0
    #: ``(op_index, node, cause)`` for every injected failure that fired.
    failures: list[tuple[int, int, str]] = field(default_factory=list)
    #: Measured degraded window, in op indices: first/last operation
    #: issued while the cluster suspected a degraded stripe (see
    #: ``StoreCluster.damage_suspected``).  ``None`` when the whole run
    #: stayed healthy.  Mirror-driven, hence part of the digest -- and
    #: the store-side half of the store-vs-simulator cross-check.
    first_damaged_op: int | None = None
    last_damaged_op: int | None = None

    # -- data-plane health (excluded from the deterministic digest, so
    # -- a physically broken backend differs in *health*, not digest) -- #
    backend: str = "inprocess"
    chunk_integrity_failures: int = 0

    # -- wall-clock telemetry (excluded from the deterministic digest) - #
    put_latencies: list[float] = field(default_factory=list)
    get_latencies: list[float] = field(default_factory=list)
    degraded_get_latencies: list[float] = field(default_factory=list)

    def note_damage(self, op_index: int, suspected: bool) -> None:
        """Record one per-op damage sample into the measured window."""
        if not suspected:
            return
        if self.first_damaged_op is None:
            self.first_damaged_op = op_index
        self.last_damaged_op = op_index

    # ------------------------------------------------------------------ #
    @property
    def degraded_read_amplification(self) -> float:
        """Node bytes fetched per user byte served, degraded reads only
        (NaN when no degraded read happened)."""
        if self.bytes_read_user_degraded == 0:
            return math.nan
        return self.bytes_read_nodes_degraded / self.bytes_read_user_degraded

    @property
    def healthy_read_amplification(self) -> float:
        """Node bytes fetched per user byte served on healthy reads."""
        healthy_user = self.bytes_read_user - self.bytes_read_user_degraded
        if healthy_user == 0:
            return math.nan
        return self.bytes_read_nodes_healthy / healthy_user

    def latency_percentiles(self) -> dict[str, float]:
        """p50/p99 (seconds) of puts, gets and degraded gets."""
        return {
            "put_p50_s": percentile(self.put_latencies, 50),
            "put_p99_s": percentile(self.put_latencies, 99),
            "get_p50_s": percentile(self.get_latencies, 50),
            "get_p99_s": percentile(self.get_latencies, 99),
            "degraded_get_p50_s": percentile(self.degraded_get_latencies, 50),
            "degraded_get_p99_s": percentile(self.degraded_get_latencies, 99),
        }

    def deterministic_summary(self) -> dict[str, Any]:
        """The seed-reproducible digest: counters only, no wall clock.

        Equal specs (same seed) produce equal dicts -- the store-level
        analogue of the sweep cache's bitwise-equal summaries.
        """
        return {
            "objects": self.objects,
            "operations": self.operations,
            "puts": self.puts,
            "gets": self.gets,
            "degraded_reads": self.degraded_reads,
            "failed_reads": self.failed_reads,
            "verify_failures": self.verify_failures,
            "bytes_put": self.bytes_put,
            "bytes_read_user": self.bytes_read_user,
            "bytes_read_nodes_healthy": self.bytes_read_nodes_healthy,
            "bytes_read_nodes_degraded": self.bytes_read_nodes_degraded,
            "bytes_read_user_degraded": self.bytes_read_user_degraded,
            "partial_put_stripes": self.partial_put_stripes,
            "repaired_stripes": self.repaired_stripes,
            "repaired_chunks": self.repaired_chunks,
            "repair_bytes": self.repair_bytes,
            "unrecoverable_stripes": self.unrecoverable_stripes,
            "node_crashes": self.node_crashes,
            "failures": list(self.failures),
            "first_damaged_op": self.first_damaged_op,
            "last_damaged_op": self.last_damaged_op,
        }

    def summary(self) -> dict[str, Any]:
        """Everything: the deterministic digest plus backend health,
        latency tails and amplification ratios (JSON-safe)."""
        out = self.deterministic_summary()
        out["backend"] = self.backend
        out["chunk_integrity_failures"] = self.chunk_integrity_failures
        out["repair_rounds"] = self.repair_rounds
        out["interfered_ops"] = self.interfered_ops
        out["degraded_read_amplification"] = _json_float(
            self.degraded_read_amplification)
        out["healthy_read_amplification"] = _json_float(
            self.healthy_read_amplification)
        out.update({key: _json_float(value)
                    for key, value in self.latency_percentiles().items()})
        return out


def _json_float(value: float) -> float | None:
    """NaN -> None so summaries stay strict-JSON safe."""
    return None if isinstance(value, float) and math.isnan(value) else value
