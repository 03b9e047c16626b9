"""The object store's control plane: put / get / degraded read / repair.

A :class:`StoreCluster` stripes every object across one
:class:`~repro.store.node.StoreNode` per stripe-code column.  Since the
out-of-process backend landed, the cluster is explicitly a **control
plane**: every placement and read decision is made synchronously
against the nodes' deterministic mirrors and the bytes themselves flow
through a **data plane** of chunk promises (local dict or node
subprocess, see :mod:`repro.store.node`).  The split is what makes the
two backends produce bit-identical deterministic digests -- every
counter in the digest is written at decision time, and decisions never
wait on data.

Serving paths:

* ``put(key, data)`` -- encode through the bulk-kernel path, yield once,
  then hand every up node all of its chunks in one ``put_chunks`` call
  (one RPC frame per node on the process backend); a down node simply
  misses its chunks (the stripes start life degraded and the repair
  loop owes them a rebuild).  Returns a :class:`PutTicket` whose
  ``settled()`` awaits physical delivery;
* ``get_submit(key)`` -- the two-phase read.  After one yield the
  submit decides, under the key's lock and without yielding again,
  which columns serve each stripe (healthy reads touch only
  data-carrying columns and never decode; degraded reads capture every
  surviving column and are served iff the code's exact
  ``recoverable`` predicate accepts the missing columns) and captures
  one snapshot promise per node for all the stripes it serves.  The
  returned :class:`GetTicket` assembles them (decoding degraded
  stripes) entirely in the data plane, so a later crash or overwrite
  cannot tear an already-decided read;
* ``get(key)`` -- submit + assemble, for direct callers;
* ``repair_once()`` / ``repair_forever()`` -- budgeted repair: at most
  ``ceil(repair_streams)`` stripes in flight (the store-level reading
  of the simulator's processor-sharing budget).  A stripe's captures
  and the placement of its rebuilt chunks are decided in one step; the
  decode producing their bytes runs as a tracked data-plane task that
  resolves the deferred payloads.

Metadata and per-key ordering locks are sharded by key CRC across
``meta_shards`` independent tables, so millions-of-keys populations
don't funnel through one dict or leak one ``asyncio.Lock`` per key
ever touched (lock entries are reclaimed when released and
uncontended).

The cluster draws no randomness and never sleeps on the wall clock;
all nondeterminism in a store run comes from the (seeded) traffic and
injector layers, and all *wall-clock* time lives in the data plane.

Usage::

    cluster = StoreCluster(parse_code_spec("rs(n=6,r=4,m=2)"),
                           symbol_bytes=64)
    await cluster.put("k", b"payload")
    cluster.crash_node(0)
    await cluster.get("k")          # degraded read, bytes identical
    await cluster.repair_once()     # full redundancy restored
    await cluster.aclose()          # flush data plane, stop everything
"""

from __future__ import annotations

import asyncio
import math
import zlib
from contextlib import asynccontextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.codes.base import StripeCode
from repro.store.codec import ObjectCodec, StoreError
from repro.store.node import ChunkIntegrityError, InFlight, StoreNode
from repro.store.report import StoreReport


class ObjectLostError(RuntimeError):
    """A stripe's erasure pattern is not recoverable: data loss."""


@dataclass(frozen=True)
class ObjectMeta:
    """Authoritative per-object record (size drives unpadding)."""

    size: int
    stripes: int


class KeyShards:
    """CRC-sharded metadata and per-key ordering locks.

    ``shard_of`` hashes with ``zlib.crc32`` -- stable across processes
    and runs, unlike the interpreter's randomized ``hash()`` -- so both
    backends (and any future multi-process metadata service) agree on
    placement.  Lock entries are refcounted and reclaimed as soon as no
    task holds or awaits them: a workload touching a million keys keeps
    a million metadata records but only O(in-flight) lock objects.
    """

    def __init__(self, num_shards: int = 16) -> None:
        if num_shards < 1:
            raise StoreError("meta_shards must be >= 1")
        self.num_shards = num_shards
        self._meta: list[dict[str, ObjectMeta]] = [
            {} for _ in range(num_shards)]
        self._locks: list[dict[str, list]] = [
            {} for _ in range(num_shards)]

    def shard_of(self, key: str) -> int:
        return zlib.crc32(key.encode("utf-8")) % self.num_shards

    def meta(self, key: str) -> ObjectMeta:
        return self._meta[self.shard_of(key)][key]

    def set_meta(self, key: str, meta: ObjectMeta) -> None:
        self._meta[self.shard_of(key)][key] = meta

    def __contains__(self, key: str) -> bool:
        return key in self._meta[self.shard_of(key)]

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._meta)

    def items(self):
        """Every (key, meta), shard by shard, insertion-ordered within
        each shard -- deterministic for a deterministic put sequence."""
        for shard in self._meta:
            yield from shard.items()

    @property
    def live_locks(self) -> int:
        """Lock entries currently held or awaited (reclaim telemetry)."""
        return sum(len(shard) for shard in self._locks)

    @asynccontextmanager
    async def lock(self, key: str):
        table = self._locks[self.shard_of(key)]
        entry = table.get(key)
        if entry is None:
            entry = table[key] = [asyncio.Lock(), 0]
        entry[1] += 1
        try:
            async with entry[0]:
                yield
        finally:
            entry[1] -= 1
            if entry[1] == 0 and table.get(key) is entry:
                del table[key]


@dataclass
class GetTicket:
    """A decided read; ``data()`` assembles the bytes in the data plane."""

    key: str
    size: int
    degraded: bool
    _codec: ObjectCodec
    #: Per stripe, whether it decodes and the columns its read captured
    #: (the data columns when healthy, every survivor when degraded).
    _plans: list[tuple[bool, tuple[int, ...]]] = field(default_factory=list)
    #: Column -> one promise for that node's captured chunks, in stripe
    #: order.
    _promises: dict[int, "asyncio.Future[list[bytes]]"] = field(
        default_factory=dict)

    async def data(self) -> bytes:
        """Await the captured chunks and assemble the object.

        Healthy stripes are sliced out of their data columns one by
        one: nothing is decoded, and joining their chunks into runs
        would copy a large object once more for no gain.  Degraded
        stripes that captured the same columns form one run, which
        ``decode_stripe`` decodes in folded code calls.
        """
        n, payload = self._codec.code.n, self._codec.stripe_payload_bytes
        chunks = {col: iter(await promise)
                  for col, promise in self._promises.items()}
        pieces: list = [b""] * len(self._plans)
        runs: dict[tuple[int, ...], list[tuple[int, list]]] = {}
        for index, (degraded, captured) in enumerate(self._plans):
            columns: list[Optional[bytes]] = [None] * n
            for col in captured:
                columns[col] = next(chunks[col])
            if degraded:
                runs.setdefault(captured, []).append((index, columns))
            else:
                pieces[index] = self._codec.extract_payload(columns)
        for captured, members in runs.items():
            run: list[Optional[bytes]] = [None] * n
            for col in captured:
                run[col] = b"".join([columns[col] for _, columns in members])
            decoded = memoryview(self._codec.decode_stripe(run))
            for rank, (index, _) in enumerate(members):
                pieces[index] = decoded[rank * payload:(rank + 1) * payload]
        return b"".join(pieces)[:self.size]


@dataclass
class PutTicket:
    """A decided write; ``settled()`` awaits physical delivery."""

    key: str
    _acks: list["asyncio.Future[None]"] = field(default_factory=list)

    async def settled(self) -> None:
        for ack in self._acks:
            await ack


class StoreCluster:
    """A cluster of one node per stripe-code column, any backend."""

    def __init__(self, code: StripeCode, *, symbol_bytes: int = 512,
                 nodes: Sequence[StoreNode] | None = None,
                 repair_streams: float | None = None,
                 auto_replace: bool = True,
                 meta_shards: int = 16,
                 report: StoreReport | None = None) -> None:
        self.code = code
        self.codec = ObjectCodec(code, symbol_bytes)
        if nodes is None:
            nodes = [StoreNode(j) for j in range(code.n)]
        if len(nodes) != code.n:
            raise StoreError(
                f"need exactly {code.n} nodes (one per column), "
                f"got {len(nodes)}")
        self.nodes = list(nodes)
        if repair_streams is not None and repair_streams <= 0:
            raise StoreError(
                "repair_streams must be positive (None = unbudgeted)")
        #: Max stripes repaired concurrently -- ceil of the fractional
        #: processor-sharing budget (a 1.5-stream budget admits 2
        #: in-flight repairs, matching the event engine's reading that
        #: fractional budgets still make progress on every stream).
        self.repair_slots = (math.ceil(repair_streams)
                             if repair_streams is not None else code.n)
        self.auto_replace = auto_replace
        self.report = report if report is not None else StoreReport()
        self.shards = KeyShards(meta_shards)
        self._repairs_in_flight = 0
        self._damage = asyncio.Event()
        self._stop_repair = False
        #: Incremental damage suspicion (cheap, conservative): stripes
        #: known short of ``n`` chunks, plus nodes that crashed and
        #: haven't been confirmed rebuilt by a clean repair scan.
        self._suspect_stripes: set[tuple[str, int]] = set()
        self._suspect_nodes: set[int] = set()
        #: Tracked data-plane tasks (stripe decodes, finishers) and the
        #: exceptions they surfaced.
        self._tasks = InFlight()
        self._closed = False

    # ------------------------------------------------------------------ #
    # Failure injection hooks (synchronous -- callable from anywhere)
    # ------------------------------------------------------------------ #
    def crash_node(self, index: int) -> None:
        """Fail node ``index``, losing its chunks, and wake the repair
        loop."""
        self.nodes[index].crash()
        self.report.node_crashes += 1
        self._suspect_nodes.add(index)
        self._damage.set()

    def restore_node(self, index: int) -> None:
        """Bring slot ``index`` back as an empty replacement device."""
        self.nodes[index].restore()
        self._damage.set()

    # ------------------------------------------------------------------ #
    # Client operations
    # ------------------------------------------------------------------ #
    async def put(self, key: str, data: bytes) -> PutTicket:
        """Store (or overwrite) an object.

        Returns once placement is decided (mirrors updated, writes
        enqueued in order); the ticket's ``settled()`` awaits the
        data-plane delivery acks.  The decision is one step: every up
        node gets all of its chunks in one ``put_chunks`` call, and a
        down node misses every stripe.  An overwrite with fewer stripes
        drops the old surplus stripes from every node.
        """
        ticket = PutTicket(key)
        if self._repairs_in_flight:
            self.report.interfered_ops += 1
        async with self.shards.lock(key):
            chunks = self.codec.encode_object(data)
            await asyncio.sleep(0)
            old_stripes = (self.shards.meta(key).stripes
                           if key in self.shards else 0)
            stripes = range(len(chunks))
            missed = 0
            for node in self.nodes:
                if not node.up:
                    missed += 1
                elif chunks:
                    ticket._acks.append(node.put_chunks(
                        key, stripes,
                        [columns[node.index] for columns in chunks]))
            if missed and chunks:
                self.report.partial_put_stripes += len(chunks)
                self._suspect_stripes.update(
                    (key, stripe) for stripe in stripes)
                self._damage.set()
            else:
                self._suspect_stripes.difference_update(
                    (key, stripe) for stripe in stripes)
            surplus = range(len(chunks), old_stripes)
            if surplus:
                for node in self.nodes:
                    node.drop_chunks(key, surplus)
                self._suspect_stripes.difference_update(
                    (key, stripe) for stripe in surplus)
            self.shards.set_meta(
                key, ObjectMeta(size=len(data), stripes=len(chunks)))
            self.report.puts += 1
            self.report.bytes_put += len(data)
        return ticket

    async def get(self, key: str) -> bytes:
        """Fetch an object; degrades transparently under failures.

        Raises ``KeyError`` for unknown keys and
        :class:`ObjectLostError` when some stripe is not recoverable
        (counted in ``report.failed_reads``).
        """
        ticket = await self.get_submit(key)
        return await ticket.data()

    async def get_submit(self, key: str) -> GetTicket:
        """Decide a read and capture its chunk promises (phase one).

        Runs entirely in the control plane: by the time this returns,
        every counter the read will ever touch is counted and the bytes
        it will return are pinned -- ``ticket.data()`` merely awaits
        and assembles them.  After one yield, every stripe is planned
        from the mirrors and each node gets one ``fetch_chunks`` call
        for all the stripes that read it.
        """
        if self._repairs_in_flight:
            self.report.interfered_ops += 1
        async with self.shards.lock(key):
            meta = self.shards.meta(key)
            await asyncio.sleep(0)
            ticket = GetTicket(key=key, size=meta.size, degraded=False,
                               _codec=self.codec)
            wanted: dict[int, list[int]] = {}
            for stripe_index in range(meta.stripes):
                plan = self._plan_stripe_read(key, stripe_index)
                ticket._plans.append(plan)
                for col in plan[1]:
                    wanted.setdefault(col, []).append(stripe_index)
            for col, stripes in wanted.items():
                ticket._promises[col] = self.nodes[col].fetch_chunks(
                    key, stripes)
            chunk = self.codec.chunk_bytes
            for degraded, captured in ticket._plans:
                if degraded:
                    ticket.degraded = True
                    self.report.bytes_read_nodes_degraded += \
                        chunk * len(captured)
                else:
                    self.report.bytes_read_nodes_healthy += \
                        chunk * len(captured)
            self.report.gets += 1
            self.report.bytes_read_user += meta.size
            if ticket.degraded:
                self.report.degraded_reads += 1
                self.report.bytes_read_user_degraded += meta.size
            return ticket

    def _plan_stripe_read(self, key: str, stripe_index: int
                          ) -> tuple[bool, tuple[int, ...]]:
        """``(degraded, columns to read)`` for one stripe, from the
        mirrors: the data columns when they are all present, else every
        survivor, if the code can recover from them."""
        if all(self.nodes[col].has_chunk(key, stripe_index)
               for col in self.codec.data_columns):
            return False, self.codec.data_columns
        have = tuple(j for j, node in enumerate(self.nodes)
                     if node.has_chunk(key, stripe_index))
        if not self._recoverable(have):
            self.report.failed_reads += 1
            raise ObjectLostError(
                f"object {key!r} stripe {stripe_index} is not "
                f"recoverable ({self.code.n - len(have)} of "
                f"{self.code.n} columns missing)")
        return True, have

    def _recoverable(self, captured: Sequence[int]) -> bool:
        """The decision predicate of degraded reads and repair: the
        code's exact :meth:`~repro.codes.base.StripeCode.recoverable`
        over every symbol of the columns not ``captured``.  A decode
        failing where this said yes is an integrity bug."""
        return self.code.recoverable([
            (i, j) for j in range(self.code.n) if j not in captured
            for i in range(self.code.r)])

    # ------------------------------------------------------------------ #
    # Redundancy accounting and repair
    # ------------------------------------------------------------------ #
    def damage_suspected(self) -> bool:
        """Cheap (O(n)) conservative damage probe, for per-op sampling.

        True whenever the cluster might hold a degraded stripe: some
        node is down, a put was partial, or a crashed node's rebuild
        has not yet been confirmed by a clean repair scan.  Purely
        mirror-driven, hence identical across backends.
        """
        return bool(self._suspect_stripes) or bool(self._suspect_nodes) \
            or any(not node.up for node in self.nodes)

    def damaged_stripes(self) -> list[tuple[str, int, tuple[int, ...]]]:
        """Every ``(key, stripe, missing_columns)`` short of ``n``
        live chunks."""
        out = []
        for key, meta in self.shards.items():
            for stripe_index in range(meta.stripes):
                missing = tuple(
                    j for j, node in enumerate(self.nodes)
                    if not node.has_chunk(key, stripe_index))
                if missing:
                    out.append((key, stripe_index, missing))
        return out

    def fully_redundant(self) -> bool:
        """True when every node is up and every stripe holds all ``n``
        chunks."""
        return all(node.up for node in self.nodes) \
            and not self.damaged_stripes()

    async def repair_once(
            self,
            on_stripe: Callable[[str, int], None] | None = None) -> int:
        """One repair pass; returns the number of stripes repaired.

        ``on_stripe(key, stripe)`` fires after each stripe's placement
        completes -- the hook the crash-during-repair tests use to fail
        another node mid-pass.  Stripes whose erasure pattern is not
        recoverable are counted (``report.unrecoverable_stripes``) and
        skipped, not raised: a repair pass must visit every stripe it
        can still save.
        """
        if self.auto_replace:
            for node in self.nodes:
                if not node.up:
                    self.restore_node(node.index)
        damaged = self.damaged_stripes()
        if not damaged:
            self._suspect_stripes.clear()
            if all(node.up for node in self.nodes):
                self._suspect_nodes.clear()
            return 0
        self.report.repair_rounds += 1
        # ``repair_slots`` workers share one queue of stripes, so at most
        # that many are in flight and a worker moves to its next stripe
        # without waiting for a slot to be handed over.
        queue = iter(damaged)

        async def worker() -> int:
            repaired = 0
            for key, stripe_index, _ in queue:
                repaired += await self._repair_stripe(key, stripe_index,
                                                      on_stripe)
            return repaired

        repaired = await asyncio.gather(*[
            worker() for _ in range(min(self.repair_slots, len(damaged)))])
        if not self.damaged_stripes():
            self._suspect_stripes.clear()
            if all(node.up for node in self.nodes):
                self._suspect_nodes.clear()
        return sum(repaired)

    async def _repair_stripe(self, key: str, stripe_index: int,
                             on_stripe: Callable[[str, int], None] | None
                             ) -> bool:
        # The key lock orders the repair against overwrites of the same
        # object: rebuilding from a half-overwritten stripe would
        # "repair" a torn mix of old and new chunks.  Like a client
        # operation, a stripe's repair yields once and then decides in
        # one step.  It is in flight from the moment a worker takes it.
        self._repairs_in_flight += 1
        try:
            async with self.shards.lock(key):
                await asyncio.sleep(0)
                return self._repair_stripe_locked(key, stripe_index,
                                                  on_stripe)
        finally:
            self._repairs_in_flight -= 1

    def _repair_stripe_locked(
            self, key: str, stripe_index: int,
            on_stripe: Callable[[str, int], None] | None) -> bool:
        # Re-derive damage at execution time: an earlier repair, a fresh
        # crash or an overwrite that shrank the object may have changed
        # the picture.  Captures and placements are decided in this one
        # step, so no other operation sees half a repair.
        meta = self.shards.meta(key)
        if stripe_index >= meta.stripes:
            self._suspect_stripes.discard((key, stripe_index))
            return False
        missing = [j for j, node in enumerate(self.nodes)
                   if not node.has_chunk(key, stripe_index)]
        targets = [j for j in missing if self.nodes[j].up]
        if not targets:
            if not missing:
                self._suspect_stripes.discard((key, stripe_index))
            return False
        survivors = [j for j in range(self.code.n) if j not in missing]
        if not self._recoverable(survivors):
            self.report.unrecoverable_stripes += 1
            return False
        captured = {j: self.nodes[j].fetch_chunks(key, (stripe_index,))
                    for j in survivors}
        # Placement is decided now; the rebuilt bytes arrive later.
        # Each target gets a deferred payload the decode task resolves;
        # the transports hold subsequent frames behind it, so ordering
        # survives the detour through the data plane.
        loop = asyncio.get_running_loop()
        payloads: dict[int, asyncio.Future] = {}
        for j in targets:
            payloads[j] = loop.create_future()
            self.nodes[j].put_chunk_deferred(
                key, stripe_index, payloads[j], self.codec.chunk_bytes)
        self.report.repaired_chunks += len(targets)
        self.report.repair_bytes += len(targets) * self.codec.chunk_bytes
        self.report.repaired_stripes += 1
        self.track(self._decode_rebuilt(key, stripe_index, meta, captured,
                                        payloads))
        if len(targets) == len(missing):
            self._suspect_stripes.discard((key, stripe_index))
        if on_stripe is not None:
            on_stripe(key, stripe_index)
        return True

    async def _decode_rebuilt(
            self, key: str, stripe_index: int, meta: ObjectMeta,
            captured: dict[int, "asyncio.Future[list[bytes]]"],
            payloads: dict[int, "asyncio.Future[bytes]"]) -> None:
        """Data-plane tail of a repair: decode survivors, fill payloads.

        A failed rebuild fails its payloads (the transports drop those
        chunks) and, unless the object was overwritten meanwhile, takes
        the targets back out of the mirrors and re-suspects the stripe,
        so reads degrade around it and repair tries again.
        """
        try:
            columns: list[Optional[bytes]] = [None] * self.code.n
            for j, promise in captured.items():
                columns[j] = (await promise)[0]
            rebuilt = self.codec.rebuild_columns(columns,
                                                 list(payloads.keys()))
        except BaseException as exc:  # noqa: BLE001 - routed to payloads
            failure = ChunkIntegrityError(
                f"rebuild of {key!r} stripe {stripe_index} failed in "
                f"the data plane: {exc!r}")
            for payload in payloads.values():
                if not payload.done():
                    payload.set_exception(failure)
            if self.shards.meta(key) is meta:
                for j in payloads:
                    self.nodes[j].drop_chunk(key, stripe_index)
                self._suspect_stripes.add((key, stripe_index))
                self._damage.set()
            raise failure from exc
        for j, payload in payloads.items():
            if not payload.done():
                payload.set_result(rebuilt[j])

    async def repair_forever(self) -> None:
        """Background loop: wait for damage, repair, repeat.

        Stop it with :meth:`stop_repair` (the runner does this after
        the workload drains).
        """
        while not self._stop_repair:
            await self._damage.wait()
            self._damage.clear()
            if self._stop_repair:
                return
            await self.repair_once()

    def stop_repair(self) -> None:
        self._stop_repair = True
        self._damage.set()

    # ------------------------------------------------------------------ #
    # Data plane bookkeeping and teardown
    # ------------------------------------------------------------------ #
    def track(self, coro) -> asyncio.Task:
        """Run ``coro`` as a tracked data-plane task.

        Tracked tasks are awaited by :meth:`flush`; their exceptions
        are collected (never lost to "exception was never retrieved")
        and surface through :meth:`dataplane_errors`.
        """
        return self._tasks.track(asyncio.ensure_future(coro))

    async def flush(self) -> None:
        """Wait until every decided operation physically completed:
        tracked tasks done, every node's delivery acks drained."""
        await self._tasks.drain()
        for node in self.nodes:
            await node.drain()

    def dataplane_errors(self) -> list[BaseException]:
        """Every data-plane failure seen so far (node acks plus
        tracked tasks).  Empty in a healthy run -- on either backend."""
        errors = list(self._tasks.errors)
        for node in self.nodes:
            errors.extend(node.dataplane_errors)
        return errors

    async def audit_data_plane(self) -> list[str]:
        """Compare each node's physical stat against its mirror.

        Returns human-readable mismatch descriptions (empty = clean).
        Call after :meth:`flush`; pending deliveries would otherwise
        show up as false mismatches.
        """
        mismatches = []
        for node in self.nodes:
            want_chunks, want_bytes = node.mirror_stat()
            got_chunks, got_bytes = await node.stat()
            if (want_chunks, want_bytes) != (got_chunks, got_bytes):
                mismatches.append(
                    f"node {node.index}: mirror says {want_chunks} "
                    f"chunks / {want_bytes} B, data plane holds "
                    f"{got_chunks} chunks / {got_bytes} B")
        return mismatches

    async def aclose(self) -> None:
        """Stop repair, flush the data plane, shut every node down.

        Idempotent; afterwards no task, timer or subprocess of this
        cluster is left running (the "Task was destroyed but it is
        pending" guarantee).
        """
        if self._closed:
            return
        self._closed = True
        self.stop_repair()
        await self.flush()
        for node in self.nodes:
            await node.aclose()

    async def __aenter__(self) -> "StoreCluster":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()
