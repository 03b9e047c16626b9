"""One storage device slot: a deterministic mirror over a transport.

A :class:`StoreNode` is split in two:

* the **mirror** (this class) is the control plane: which chunks the
  device holds (key, stripe -> size), whether it is up, and every
  counter.  All of it updates synchronously at decision time -- no
  method of the mirror awaits anything -- and the code is
  *byte-identical across backends*, which is why the in-process and
  subprocess backends produce bit-identical deterministic digests: the
  digest is a pure function of the mirror, and the mirror never waits
  on data;
* the **transport** is the data plane and only moves bytes.
  :class:`LocalTransport` keeps them in a dict; :class:`ProcessTransport`
  ships them to a ``python -m repro.store.rpc`` subprocess over
  length-prefixed asyncio-stream frames.  Operations are enqueued
  synchronously at mirror-decision time, so the per-node order the
  warehouse applies is exactly the order the mirror decided -- the two
  can never disagree about which write a read observes.

A node operation acts on a *stripe list*: ``put_chunks`` writes every
chunk of one object that this node stores and ``fetch_chunks`` reads
them, as one decision, one transport call and (on the process backend)
one RPC frame; ``put_chunk`` / ``fetch_chunk`` are the one-stripe
forms.  Reads are *snapshot* reads: ``fetch_chunks`` captures a promise
for the bytes as of the decision instant; a later crash or overwrite
does not retroactively change what an already-decided read returns
(locally the captured entries keep their bytes; remotely the GET frame
is ordered before the CRASH/PUT frame).  A repair may mark a rebuilt
chunk present before its bytes exist -- ``put_chunk_deferred``
enqueues the write with a payload future the decode task resolves
later, and the transport holds subsequent frames behind it so ordering
is preserved.

Everything besides moving bytes happens here, once for both
transports: the node tracks every write and control acknowledgement in
an :class:`InFlight` tracker (``drain()`` / ``dataplane_errors``), and
a :class:`~repro.store.latency.NodeLatency` sampler, when attached,
draws one delay per node operation (however many stripes it lists) at
decision time and holds the transport's future back until that
deadline (never a mirror decision), so p50/p99s track physical
parameters while digests stay latency-independent.  Without a sampler
the transport's future is returned untouched.

Usage::

    node = StoreNode(3)                       # in-process backend
    node = StoreNode(3, transport=await ProcessTransport.spawn())
    await node.put_chunks("key", [0, 1], [b"...", b"..."])
    await node.fetch_chunks("key", [0, 1])    # [b"...", b"..."]
    node.drop_chunk("key", 1)  # an overwrite shrank the object
    node.crash()          # chunks gone, node down
    node.restore()        # back up, empty (a replacement device)
"""

from __future__ import annotations

import asyncio
import sys
from pathlib import Path
from typing import Sequence, Union

from repro.store.latency import NodeLatency
from repro.store import rpc
from repro.store.rpc import (MAX_FRAME_BYTES, NodeProcessError, Request,
                             RpcClient)


class NodeDownError(RuntimeError):
    """An operation reached a node that is down."""


class ChunkMissingError(KeyError):
    """The node is up but does not hold the requested chunk."""


class ChunkIntegrityError(RuntimeError):
    """The data plane disagreed with the mirror (missing/corrupt bytes,
    dead subprocess): never silent, surfaced through ``drain()``."""


Payload = Union[bytes, "asyncio.Future[bytes]"]


def _settle(target: "asyncio.Future", transform,
            source: "asyncio.Future") -> None:
    """Resolve ``target`` as the done ``source`` resolved, passing a
    result through ``transform`` (``None`` = as is)."""
    if target.done():
        return
    if source.cancelled():
        target.cancel()
        return
    exc = source.exception()
    if exc is None:
        try:
            value = source.result()
            target.set_result(value if transform is None
                              else transform(value))
            return
        except BaseException as err:  # noqa: BLE001 - forwarded, not lost
            exc = err
    target.set_exception(exc)


def _chain(source: "asyncio.Future", transform=None) -> "asyncio.Future":
    """A new future that resolves like ``source``, through
    ``transform``."""
    target = asyncio.get_running_loop().create_future()
    if source.done():
        _settle(target, transform, source)
    else:
        source.add_done_callback(
            lambda done: _settle(target, transform, done))
    return target


class InFlight:
    """Outstanding data-plane futures and the failures they surfaced.

    Every tracked future is awaited by :meth:`drain`; its exception is
    retrieved (never lost to "exception was never retrieved") and kept
    in :attr:`errors`.  Nodes track their acks with one, the cluster its
    data-plane tasks.
    """

    def __init__(self) -> None:
        self._outstanding: set[asyncio.Future] = set()
        self.errors: list[BaseException] = []

    def track(self, future: "asyncio.Future") -> "asyncio.Future":
        self._outstanding.add(future)
        future.add_done_callback(self._done)
        return future

    def _done(self, future: "asyncio.Future") -> None:
        self._outstanding.discard(future)
        if not future.cancelled():
            exc = future.exception()
            if exc is not None:
                self.errors.append(exc)

    async def drain(self) -> None:
        while self._outstanding:
            pending = list(self._outstanding)
            await asyncio.gather(*pending, return_exceptions=True)


def _gather(futures: Sequence["asyncio.Future"],
            transform) -> "asyncio.Future":
    """One future for several: resolves to ``transform`` of their
    results in order, or fails as the first of them to fail."""
    if len(futures) == 1:
        return _chain(futures[0], lambda value: transform([value]))
    return _chain(asyncio.gather(*futures), transform)


class LocalTransport:
    """Chunk bytes in a dict inside this very event loop."""

    def __init__(self) -> None:
        self._entries: dict[tuple[str, int], Payload] = {}

    def put(self, key: str, stripes: Sequence[int],
            payloads: Sequence[Payload]) -> "asyncio.Future":
        deferred = []
        for stripe, payload in zip(stripes, payloads):
            self._entries[(key, stripe)] = payload
            if isinstance(payload, asyncio.Future):
                deferred.append(payload)
        if deferred:
            return _gather(deferred, lambda _: None)
        ack = asyncio.get_running_loop().create_future()
        ack.set_result(None)
        return ack

    def fetch(self, key: str, stripes: Sequence[int],
              sizes: Sequence[int]) -> "asyncio.Future[list[bytes]]":
        # The mirror already decided the chunks are present; entries
        # track the mirror synchronously, so a miss here is an integrity
        # bug.  Deferred entries are captured now: a later overwrite
        # cannot change what this read returns.
        entries = [self._entries.get((key, stripe)) for stripe in stripes]
        out = asyncio.get_running_loop().create_future()
        if None in entries:
            stripe = stripes[entries.index(None)]
            out.set_exception(ChunkIntegrityError(
                f"local entry for {(key, stripe)} missing though the "
                "mirror marked it present"))
            return out

        def resolved(_=None) -> list[bytes]:
            return [entry.result() if isinstance(entry, asyncio.Future)
                    else entry for entry in entries]

        # Entries settled earlier (perhaps under another event loop) are
        # read at once; only pending ones are waited for.
        pending = [entry for entry in entries
                   if isinstance(entry, asyncio.Future) and not entry.done()]
        if pending:
            return _gather(pending, resolved)
        try:
            out.set_result(resolved())
        except Exception as exc:  # noqa: BLE001 - a failed deferred write
            out.set_exception(exc)
        return out

    def drop(self, key: str, stripes: Sequence[int]) -> None:
        for stripe in stripes:
            self._entries.pop((key, stripe), None)

    def crash(self) -> None:
        self._entries.clear()

    def restore(self) -> None:
        pass

    async def stat(self) -> tuple[int, int]:
        """(chunks, bytes) actually held -- awaits pending payloads."""
        chunks, total = 0, 0
        for entry in list(self._entries.values()):
            if isinstance(entry, asyncio.Future):
                entry = await entry
            chunks += 1
            total += len(entry)
        return chunks, total

    async def aclose(self) -> None:
        pass


class ProcessTransport:
    """Chunk bytes in one node subprocess, reached over stream RPC.

    Every mirror decision enqueues its frames synchronously through the
    pipelined :class:`~repro.store.rpc.RpcClient`, whose write loop
    preserves call order (holding later frames behind a deferred
    payload), and the server applies frames strictly in order -- so
    the warehouse replays the mirror's decision sequence exactly.  A
    put or fetch of several stripes is one frame, split only where it
    would pass the frame ceiling; a put's payloads are either all bytes
    or one deferred chunk, which travels in a frame of its own.
    ``drop``, ``crash`` and ``restore`` return the server's ack, which
    the node tracks.
    """

    def __init__(self, process: "asyncio.subprocess.Process",
                 client: RpcClient) -> None:
        self.process = process
        self.client = client
        self._closed = False

    @classmethod
    async def spawn(cls, max_frame: int = MAX_FRAME_BYTES,
                    ) -> "ProcessTransport":
        # Exec the server file directly rather than `-m repro.store.rpc`:
        # the module is deliberately stdlib-only, and running it as a
        # bare script keeps the subprocess from importing the whole
        # package (numpy and all), so node processes start in tens of
        # milliseconds.
        server = str(Path(rpc.__file__).resolve())
        process = await asyncio.create_subprocess_exec(
            sys.executable, server, "--max-frame-bytes", str(max_frame),
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE)
        client = RpcClient(process.stdout, process.stdin, max_frame)
        return cls(process, client)

    @staticmethod
    def _answer(response: tuple[int, bytes]) -> bytes:
        """The payload of an OK answer; any other status is an
        integrity failure."""
        status, payload = response
        if status == rpc.STATUS_OK:
            return payload
        if status == rpc.STATUS_MISSING:
            raise ChunkIntegrityError(
                "node process is missing a chunk the mirror marked "
                "present")
        raise ChunkIntegrityError(
            f"node process answered status {status}: {payload[:128]!r}")

    def _send(self, request: Request, transform=None
              ) -> "asyncio.Future[bytes]":
        answer = self._answer if transform is None \
            else lambda response: transform(self._answer(response))
        return _chain(self.client.call(request), answer)

    def put(self, key: str, stripes: Sequence[int],
            payloads: Sequence[Payload]) -> "asyncio.Future":
        if payloads and isinstance(payloads[0], asyncio.Future):
            # A deferred payload is one chunk, in a frame of its own.
            acks = [self._send(Request(
                rpc.OP_PUT, key, stripes,
                _chain(payloads[0], lambda chunk: rpc.pack_parts([chunk]))))]
        else:
            acks = [
                self._send(Request(rpc.OP_PUT, key, stripes[run],
                                   rpc.pack_parts(payloads[run])))
                for run in rpc.batches(key, [len(p) for p in payloads],
                                       self.client.max_frame)]
        return _gather(acks, lambda _: None)

    def fetch(self, key: str, stripes: Sequence[int],
              sizes: Sequence[int]) -> "asyncio.Future[list[bytes]]":
        replies = [
            self._send(Request(rpc.OP_GET, key, stripes[run]),
                       lambda payload, count=len(stripes[run]):
                       rpc.unpack_parts(payload, count))
            for run in rpc.batches(key, sizes, self.client.max_frame)]
        return _gather(replies, lambda runs: [
            chunk for run in runs for chunk in run])

    def drop(self, key: str, stripes: Sequence[int]) -> "asyncio.Future":
        return self._send(Request(rpc.OP_DROP, key, stripes))

    def crash(self) -> "asyncio.Future":
        return self._send(Request(rpc.OP_CRASH))

    def restore(self) -> "asyncio.Future":
        return self._send(Request(rpc.OP_RESTORE))

    async def stat(self) -> tuple[int, int]:
        return rpc.decode_stat(await self._send(Request(rpc.OP_STAT)))

    async def aclose(self) -> None:
        """Graceful shutdown; escalates to terminate/kill on silence.

        The SHUTDOWN frame queues behind every frame already enqueued,
        so the server applies those first."""
        if self._closed:
            return
        self._closed = True
        try:
            response = self.client.call(Request(rpc.OP_SHUTDOWN))
            await asyncio.wait_for(asyncio.shield(response), timeout=5.0)
        except (NodeProcessError, asyncio.TimeoutError, OSError):
            pass
        await self.client.aclose()
        if self.process.returncode is None:
            try:
                self.process.terminate()
            except ProcessLookupError:
                pass
        try:
            await asyncio.wait_for(self.process.wait(), timeout=5.0)
        except asyncio.TimeoutError:  # pragma: no cover - last resort
            self.process.kill()
            await self.process.wait()


class StoreNode:
    """Deterministic mirror of one device slot of the cluster."""

    def __init__(self, index: int, *,
                 transport: "LocalTransport | ProcessTransport | None"
                 = None,
                 latency: NodeLatency | None = None) -> None:
        self.index = index
        self.up = True
        self.transport = transport if transport is not None \
            else LocalTransport()
        self.latency = latency
        self._acks = InFlight()
        #: Mirror of held chunks: (key, stripe) -> size in bytes.
        self._present: dict[tuple[str, int], int] = {}
        #: Lifetime telemetry (monotonic across crashes/restores).
        self.crashes = 0
        self.restores = 0
        self.chunks_written = 0
        self.chunks_read = 0
        self.bytes_written = 0
        self.bytes_read = 0

    def _hold(self, future: "asyncio.Future") -> "asyncio.Future":
        """Release ``future`` no earlier than one sampled delay from now.

        The sample is drawn now, at decision time (deterministic draw
        order); only the wall-clock release waits, so latency can never
        reorder control-plane decisions.  An answer arriving after the
        deadline is released at once.
        """
        if self.latency is None:
            return future
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.latency.sample_s()
        out = loop.create_future()

        def release(done: "asyncio.Future") -> None:
            remaining = deadline - loop.time()
            if remaining <= 0:
                _settle(out, None, done)
            else:
                loop.call_later(remaining, _settle, out, None, done)

        if future.done():
            release(future)
        else:
            future.add_done_callback(release)
        return out

    # ------------------------------------------------------------------ #
    # Chunk interface: synchronous decisions, data-plane futures
    # ------------------------------------------------------------------ #
    def _write(self, key: str, stripes: Sequence[int],
               payloads: Sequence[Payload],
               sizes: Sequence[int]) -> "asyncio.Future[None]":
        self._require_up()
        for stripe, size in zip(stripes, sizes):
            self._present[(key, stripe)] = size
        self.chunks_written += len(sizes)
        self.bytes_written += sum(sizes)
        return self._acks.track(
            self._hold(self.transport.put(key, stripes, payloads)))

    def put_chunks(self, key: str, stripes: Sequence[int],
                   chunks: Sequence[bytes]) -> "asyncio.Future[None]":
        """Decide the writes of ``chunks`` (one per stripe); returns
        the data-plane delivery ack.

        The mirror and the counters move now, per chunk, and the writes
        are enqueued in order before returning; the one ack resolves
        when every byte physically landed.  Callers may ignore it --
        the node tracks every ack for ``drain()``.
        """
        return self._write(key, stripes, chunks,
                           [len(chunk) for chunk in chunks])

    def fetch_chunks(self, key: str, stripes: Sequence[int]
                     ) -> "asyncio.Future[list[bytes]]":
        """Decide the reads of ``stripes``; returns one promise for
        their bytes, in order.

        The decision (up? all present? counters) is the deterministic
        part; the promise resolves with the chunks as of this instant,
        regardless of later crashes or overwrites.
        """
        self._require_up()
        try:
            sizes = [self._present[(key, stripe)] for stripe in stripes]
        except KeyError as missing:
            raise ChunkMissingError(missing.args[0]) from None
        self.chunks_read += len(sizes)
        self.bytes_read += sum(sizes)
        return self._hold(self.transport.fetch(key, stripes, sizes))

    def put_chunk(self, key: str, stripe: int,
                  data: bytes) -> "asyncio.Future[None]":
        """:meth:`put_chunks` of one chunk."""
        return self.put_chunks(key, (stripe,), (data,))

    def put_chunk_deferred(self, key: str, stripe: int,
                           payload: "asyncio.Future[bytes]",
                           size: int) -> "asyncio.Future[None]":
        """Mark a chunk present whose bytes a decode will deliver later.

        The repair path decides placements before the rebuilt bytes
        exist; the transport enqueues the write immediately (keeping
        per-node order) and holds later frames until ``payload``
        resolves.
        """
        return self._write(key, (stripe,), (payload,), (size,))

    def fetch_chunk(self, key: str, stripe: int) -> "asyncio.Future[bytes]":
        """:meth:`fetch_chunks` of one chunk: a promise for its bytes."""
        return _chain(self.fetch_chunks(key, (stripe,)),
                      lambda chunks: chunks[0])

    # ------------------------------------------------------------------ #
    # Synchronous state inspection / failure injection
    # ------------------------------------------------------------------ #
    def has_chunk(self, key: str, stripe: int) -> bool:
        return self.up and (key, stripe) in self._present

    def _track(self, ack: "asyncio.Future | None") -> None:
        if ack is not None:
            self._acks.track(ack)

    def drop_chunks(self, key: str, stripes: Sequence[int]) -> None:
        """Forget chunks their object no longer uses (an overwrite
        shrank it, a rebuild failed); the transport drops the bytes in
        decision order."""
        held = [stripe for stripe in stripes
                if self._present.pop((key, stripe), None) is not None]
        if held:
            self._track(self.transport.drop(key, held))

    def drop_chunk(self, key: str, stripe: int) -> None:
        """:meth:`drop_chunks` of one chunk."""
        self.drop_chunks(key, (stripe,))

    def crash(self) -> None:
        """Fail the device: all stored chunks are lost."""
        self.up = False
        self._present.clear()
        self.crashes += 1
        self._track(self.transport.crash())

    def restore(self) -> None:
        """Bring the slot back as an empty replacement device."""
        if self.up:
            return
        self.up = True
        self.restores += 1
        self._track(self.transport.restore())

    def _require_up(self) -> None:
        if not self.up:
            raise NodeDownError(f"node {self.index} is down")

    # ------------------------------------------------------------------ #
    # Data-plane bookkeeping
    # ------------------------------------------------------------------ #
    @property
    def dataplane_errors(self) -> list[BaseException]:
        return self._acks.errors

    def mirror_stat(self) -> tuple[int, int]:
        """(chunks, bytes) the mirror *believes* the device holds."""
        return len(self._present), sum(self._present.values())

    async def stat(self) -> tuple[int, int]:
        """(chunks, bytes) the *data plane* actually holds -- the
        cross-check against the mirror's view."""
        return await self.transport.stat()

    async def drain(self) -> None:
        await self._acks.drain()

    async def aclose(self) -> None:
        await self.drain()
        await self.transport.aclose()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "DOWN"
        return (f"StoreNode({self.index}, {state}, "
                f"{len(self._present)} chunks)")
