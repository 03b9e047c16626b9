"""An asyncio object store serving STAIR/RS/SD-encoded objects.

The serving layer the ROADMAP's flagship item asks for: the same codes
the paper analyses, behind a put/get interface with transparent
degraded reads and a budgeted background repair loop, driven by the
same declarative :class:`~repro.scenario.spec.ScenarioSpec` machinery
as the simulator (a ``[store]`` section describes the workload; the
``[lifetime]``/``[trace]``/``[domains]`` sections it already carries
become the failure injection).

* :mod:`repro.store.node` -- one simulated device: async chunk
  storage, crash (data loss) / restore (empty replacement), with chunk
  bytes either in-process or in one subprocess per node;
* :mod:`repro.store.rpc` -- the length-prefixed chunk RPC protocol and
  the stdlib-only chunk-server subprocess entry point;
* :mod:`repro.store.latency` -- one flat, seeded physical-latency
  sampler per node (network RTT + disk time), applied at the node
  boundary (digest-neutral);
* :mod:`repro.store.codec` -- object bytes <-> per-node chunks through
  any registry stripe code, healthy reads without decoding;
* :mod:`repro.store.cluster` -- put / get (degraded reads through
  ``code.decode``) / budgeted repair, per-key ordering locks;
* :mod:`repro.store.injector` -- seed-deterministic crash schedules
  from the spec's lifetime model, domain shocks and explicit kills;
* :mod:`repro.store.traffic` -- closed-loop Zipf workload with
  self-verifying payloads, precomputed from one ``SeedSequence``;
* :mod:`repro.store.report` -- p50/p99 latency, degraded-read
  amplification, repair-interference counters, and the deterministic
  digest two equal-seed runs reproduce exactly;
* :mod:`repro.store.runner` / :mod:`repro.store.cli` -- spec-driven
  end-to-end runs (``python -m repro.store.cli --spec ...``);
* :mod:`repro.store.crosscheck` -- replay the injector's crash
  schedule through :mod:`repro.sim.events` and assert the engine's
  predicted degraded window brackets the live store's measured one.

Tutorial: ``docs/store.md``.
"""

from repro.store.cluster import (GetTicket, KeyShards, ObjectLostError,
                                 ObjectMeta, PutTicket, StoreCluster)
from repro.store.codec import ObjectCodec, StoreError
from repro.store.injector import FailureEvent, FailureInjector
from repro.store.latency import NodeLatency
from repro.store.node import (ChunkIntegrityError, ChunkMissingError,
                              LocalTransport, NodeDownError,
                              ProcessTransport, StoreNode)
from repro.store.report import StoreReport
from repro.store.runner import (StoreOutcome, build_cluster, run_store,
                                run_store_async)
from repro.store.traffic import TrafficGenerator, make_payload, verify_payload

__all__ = [
    "ChunkIntegrityError",
    "ChunkMissingError",
    "FailureEvent",
    "FailureInjector",
    "GetTicket",
    "KeyShards",
    "LocalTransport",
    "NodeDownError",
    "NodeLatency",
    "ObjectCodec",
    "ObjectLostError",
    "ObjectMeta",
    "ProcessTransport",
    "PutTicket",
    "StoreCluster",
    "StoreError",
    "StoreNode",
    "StoreOutcome",
    "StoreReport",
    "TrafficGenerator",
    "build_cluster",
    "make_payload",
    "run_store",
    "run_store_async",
    "verify_payload",
]
