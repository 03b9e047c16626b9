"""``run_store(spec)``: one spec-driven store workload, end to end.

The store-side sibling of :func:`repro.scenario.runner.run_scenario`:
it takes a :class:`~repro.scenario.spec.ScenarioSpec` carrying a
``[store]`` section, builds the cluster -- code via the registry, one
node per column on the backend the spec selects (``backend =
"inprocess"`` keeps chunk bytes in this event loop; ``"process"``
spawns one ``python -m repro.store.rpc`` subprocess per node), repair
budget from ``[repair].rebuild_streams``, metadata sharded
``meta_shards`` ways, optional physical latency from the
``latency_*`` knobs -- plus the failure injector and the traffic
generator, all seeded from ``[estimator].seed`` through one
``SeedSequence``, and drives:

1. preload ``objects`` objects,
2. the closed-loop workload (injector crashes land mid-flight; the
   background repair loop races the traffic when ``repair = true``),
3. a final drain: repair runs to quiescence, the data plane is flushed
   (every decided chunk physically delivered, verified and timed), and
   each node's physical byte inventory is audited against its mirror,
4. teardown: every task, timer and node subprocess is stopped before
   the loop closes -- nothing pending survives the run.

Because every deterministic counter is decided in the control plane,
the outcome's ``report.deterministic_summary()`` is bit-identical
across backends for equal specs and seeds; backend health
(``chunk_integrity_failures``, the mirror audit) and latencies are
reported separately.

Usage::

    from repro.scenario import ScenarioSpec
    from repro.store import run_store

    spec = ScenarioSpec.from_dict({
        "version": 1,
        "code": {"spec": "rs(n=6,r=4,m=2)"},
        "store": {"objects": 8, "object_bytes": 1024,
                  "operations": 32, "kill_nodes": 1,
                  "backend": "process"},
    })
    outcome = run_store(spec)
    outcome.report.deterministic_summary()
    outcome.fully_redundant
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

import numpy as np

from repro.codes.registry import parse_code_spec
from repro.scenario.spec import ScenarioSpec, ScenarioSpecError
from repro.store.cluster import StoreCluster
from repro.store.injector import FailureInjector
from repro.store.latency import node_latencies
from repro.store.node import LocalTransport, ProcessTransport, StoreNode
from repro.store.report import StoreReport
from repro.store.traffic import TrafficGenerator


@dataclass
class StoreOutcome:
    """Everything one store run produced."""

    spec: ScenarioSpec
    report: StoreReport
    cluster: StoreCluster
    injector: FailureInjector
    #: Mirror-vs-physical mismatches found by the closing audit
    #: (empty = the data plane held exactly what the mirror decided).
    audit_mismatches: list[str] = field(default_factory=list)

    @property
    def fully_redundant(self) -> bool:
        """Did the drain leave every stripe at full redundancy?"""
        return self.cluster.fully_redundant()

    @property
    def zero_data_loss(self) -> bool:
        """No read failed, no payload mis-verified, no stripe was
        unrecoverable, and the data plane delivered every byte the
        control plane promised."""
        report = self.report
        return (report.failed_reads == 0 and report.verify_failures == 0
                and report.unrecoverable_stripes == 0
                and report.chunk_integrity_failures == 0
                and not self.audit_mismatches)

    def summary(self) -> dict:
        out = self.report.summary()
        out["fully_redundant"] = self.fully_redundant
        out["zero_data_loss"] = self.zero_data_loss
        out["audit_mismatches"] = list(self.audit_mismatches)
        return out


async def build_cluster(spec: ScenarioSpec) -> StoreCluster:
    """The spec's cluster: backend, shards, latency, repair budget."""
    store = spec.store
    code = parse_code_spec(spec.code.spec)
    root = np.random.SeedSequence(spec.estimator.seed)
    # Children 0 and 1 feed traffic and the injector (see
    # run_store_async); child 2 seeds the latency samplers.  Spawning
    # is index-keyed, so adding child 2 left 0 and 1 unchanged.
    latency_seed = root.spawn(3)[2]
    latencies = node_latencies(store, code.n, latency_seed)
    if store.backend == "process":
        transports = await asyncio.gather(*[
            ProcessTransport.spawn() for _ in range(code.n)])
    else:
        transports = [LocalTransport() for _ in range(code.n)]
    nodes = [StoreNode(j, transport=transports[j], latency=latencies[j])
             for j in range(code.n)]
    cluster = StoreCluster(
        code,
        symbol_bytes=store.symbol_bytes,
        nodes=nodes,
        repair_streams=spec.repair.rebuild_streams,
        meta_shards=store.meta_shards,
    )
    cluster.report.backend = store.backend
    return cluster


async def run_store_async(spec: ScenarioSpec, *, check: bool = True
                          ) -> StoreOutcome:
    """The async entry point (compose it into a larger loop)."""
    if check:
        spec.validate()
    if spec.store is None:
        raise ScenarioSpecError(
            "run_store needs a [store] section describing the workload")
    store = spec.store
    cluster = await build_cluster(spec)
    try:
        root = np.random.SeedSequence(spec.estimator.seed)
        traffic_seed, injector_seed = root.spawn(2)
        injector = FailureInjector.from_spec(spec, injector_seed)
        traffic = TrafficGenerator(cluster, store, traffic_seed,
                                   injector=injector)

        await traffic.load()
        repair_task = (asyncio.create_task(cluster.repair_forever())
                       if store.repair else None)
        try:
            await traffic.run()
        finally:
            if repair_task is not None:
                cluster.stop_repair()
                await repair_task
        # Drain: fire any stragglers scheduled at the final op
        # boundary, then repair to quiescence so the redundancy verdict
        # is final; the closing damage sample extends the measured
        # degraded window if the run ended damaged.
        injector.tick(store.operations, cluster)
        if store.repair:
            while await cluster.repair_once():
                pass
        cluster.report.note_damage(store.operations,
                                   cluster.damage_suspected())
        # Flush the data plane (deliveries, verifies, latency samples)
        # and audit physical bytes against the mirror.
        await cluster.flush()
        cluster.report.chunk_integrity_failures += \
            len(cluster.dataplane_errors())
        mismatches = await cluster.audit_data_plane()
        return StoreOutcome(spec=spec, report=cluster.report,
                            cluster=cluster, injector=injector,
                            audit_mismatches=mismatches)
    finally:
        await cluster.aclose()


def run_store(spec: ScenarioSpec, *, check: bool = True) -> StoreOutcome:
    """Synchronous wrapper: run the whole workload on a fresh loop."""
    return asyncio.run(run_store_async(spec, check=check))
