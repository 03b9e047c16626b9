"""Length-prefixed chunk RPC: a pipelined asyncio client, a blocking server.

This module is both halves of the store's out-of-process data plane:

* the **wire protocol** -- every message is a 4-byte big-endian length
  prefix followed by exactly that many body bytes, so a reader either
  delivers a whole frame or raises :class:`RpcProtocolError`; torn
  chunks are structurally impossible.  Requests are ``put_chunks`` /
  ``get_chunks`` / ``crash`` / ``restore`` / ``stat`` / ``shutdown`` /
  ``drop_chunks`` (opcode 3 is retired); responses are ``OK`` (with an
  optional payload), ``MISSING`` or ``ERR``.  Chunk requests carry a
  *stripe list*: one put frame holds every chunk of one object that
  one node stores, and one get frame fetches them all (a single chunk
  is a list of one).  Chunk bytes travel as length-prefixed *parts*;
  a body whose parts or stripe list do not add up is rejected whole,
  before any chunk is applied;
* the **chunk server** -- the ``python -m repro.store.rpc`` entry point
  a :class:`~repro.store.node.ProcessTransport` spawns, one subprocess
  per store node.  The server is a deliberately dumb byte warehouse
  (dict of ``(key, stripe) -> bytes`` plus an up/down flag): every
  placement *decision* lives client-side in the deterministic mirror.
  It is one blocking loop over stdin and stdout -- read a frame, apply
  it, write and flush the answer -- with no event loop: the server's
  cost is CPU per frame, not bytes moved.  Frames are handled strictly
  in arrival order, so the server's byte state replays the mirror's
  decision order exactly;
* the **pipelined client** -- :class:`RpcClient` writes frames in call
  order and matches responses FIFO (the server replies in order), so
  many requests overlap in flight while the per-node ordering the
  mirror relies on is preserved.

The server imports only the standard library -- no numpy -- so node
subprocesses start in tens of milliseconds.

Usage (client side)::

    client = RpcClient(reader, writer)
    future = client.call(Request(OP_PUT, "k", (0, 1),
                                 pack_parts([b"chunk0", b"chunk1"])))
    status, payload = await future
    status, payload = await client.call(Request(OP_GET, "k", (0, 1)))
    unpack_parts(payload, 2)        # [b"chunk0", b"chunk1"]
"""

from __future__ import annotations

import asyncio
import os
import sys
from dataclasses import dataclass
from typing import BinaryIO, Sequence, Union

#: Frame length prefix: 4 bytes, big-endian, body length only.
LENGTH_BYTES = 4
#: Default ceiling on one frame's body; an oversized length prefix is
#: rejected *before* any allocation or read.
MAX_FRAME_BYTES = 64 * 1024 * 1024

# Request opcodes (first body byte).
OP_PUT = 1
OP_GET = 2
OP_CRASH = 4
OP_RESTORE = 5
OP_STAT = 6
OP_SHUTDOWN = 7
OP_DROP = 8

_KNOWN_OPS = (OP_PUT, OP_GET, OP_CRASH, OP_RESTORE, OP_STAT, OP_SHUTDOWN,
              OP_DROP)

# Response status codes (first body byte).
STATUS_OK = 0
STATUS_MISSING = 1
STATUS_ERR = 2


class RpcProtocolError(RuntimeError):
    """A malformed, truncated or oversized frame (either direction)."""


class NodeProcessError(RuntimeError):
    """The peer died (EOF / broken pipe) with requests outstanding."""


# --------------------------------------------------------------------------- #
# Frame codec
# --------------------------------------------------------------------------- #
def encode_frame(body: bytes) -> bytes:
    """Prefix ``body`` with its length; the unit every read expects."""
    if not body:
        raise RpcProtocolError("refusing to send an empty frame")
    if len(body) > MAX_FRAME_BYTES:
        raise RpcProtocolError(
            f"frame body of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte ceiling")
    return len(body).to_bytes(LENGTH_BYTES, "big") + body


def _body_length(header: bytes, max_frame: int) -> int | None:
    """The body length a prefix announces; ``None`` if ``header`` is
    empty (clean EOF at a frame boundary).  Both readers check every
    prefix here, before reading the body, so a hostile prefix cannot
    force an allocation."""
    if not header:
        return None
    if len(header) < LENGTH_BYTES:
        raise RpcProtocolError(
            f"peer closed mid-prefix ({len(header)} of "
            f"{LENGTH_BYTES} length bytes)")
    length = int.from_bytes(header, "big")
    if length == 0:
        raise RpcProtocolError("zero-length frame")
    if length > max_frame:
        raise RpcProtocolError(
            f"length prefix {length} exceeds the {max_frame}-byte frame "
            "ceiling")
    return length


def _whole_body(body: bytes, length: int) -> bytes:
    """``body``, unless EOF cut it short: partial bytes never pass."""
    if len(body) < length:
        raise RpcProtocolError(
            f"peer closed mid-frame ({len(body)} of {length} body bytes)")
    return body


async def read_frame(reader: asyncio.StreamReader,
                     max_frame: int = MAX_FRAME_BYTES) -> bytes | None:
    """Read one whole frame body; ``None`` on clean EOF at a boundary.
    A bad prefix or EOF mid-body raises :class:`RpcProtocolError`."""
    try:
        header = await reader.readexactly(LENGTH_BYTES)
    except asyncio.IncompleteReadError as exc:
        header = exc.partial
    length = _body_length(header, max_frame)
    if length is None:
        return None
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        body = exc.partial
    return _whole_body(body, length)


#: Bytes of a request body before its stripe list: opcode, key length,
#: stripe count (the key itself comes on top).
_REQUEST_HEAD = 1 + 2 + 4
#: Per-stripe bytes a put frame adds besides the chunk itself: the
#: stripe number and the part's length prefix.
_PART_OVERHEAD = 4 + 4


def pack_parts(parts: Sequence[bytes]) -> bytes:
    """Chunks back to back, each behind a 4-byte length: the payload of
    a put request and of a get answer."""
    return b"".join([piece for part in parts
                     for piece in (len(part).to_bytes(4, "big"), part)])


def unpack_parts(payload: bytes, count: int) -> list[bytes]:
    """Invert :func:`pack_parts`; the payload must hold exactly
    ``count`` parts, or :class:`RpcProtocolError` is raised and no part
    is delivered."""
    view = memoryview(payload)
    parts, offset = [], 0
    for _ in range(count):
        if offset + 4 > len(view):
            raise RpcProtocolError(
                f"parts truncated: {len(parts)} of {count} present")
        size = int.from_bytes(view[offset:offset + 4], "big")
        offset += 4
        if offset + size > len(view):
            raise RpcProtocolError(
                f"part {len(parts)} claims {size} bytes past the end of "
                f"a {len(view)}-byte payload")
        parts.append(bytes(view[offset:offset + size]))
        offset += size
    if offset != len(view):
        raise RpcProtocolError(
            f"{len(view) - offset} bytes trail the {count} parts")
    return parts


def batches(key: str, sizes: Sequence[int],
            max_frame: int) -> list[slice]:
    """Split a stripe list into runs whose frames fit ``max_frame``.

    The bound counts a put frame (header, stripe list, length-prefixed
    parts), which also bounds the get request and the get answer for
    the same chunks.  A chunk too large for any frame goes alone, so
    the server's ceiling check rejects it loudly.
    """
    head = _REQUEST_HEAD + len(key.encode("utf-8"))
    runs, start, body = [], 0, head
    for index, size in enumerate(sizes):
        cost = _PART_OVERHEAD + size
        if index > start and body + cost > max_frame:
            runs.append(slice(start, index))
            start, body = index, head
        body += cost
    runs.append(slice(start, len(sizes)))
    return runs


@dataclass
class Request:
    """One request; ``payload`` may be a future for deferred data.

    ``stripes`` lists the chunks a put, get or drop acts on (empty for
    node-wide ops); a put's payload is :func:`pack_parts` of their
    bytes, in stripe-list order.  A repair marks a rebuilt chunk
    present in the mirror *before* the decode that produces its bytes
    has run; the transport enqueues the request immediately (preserving
    per-node order) with a payload future the decode task resolves
    later.
    """

    op: int
    key: str = ""
    stripes: Sequence[int] = ()
    payload: Union[bytes, "asyncio.Future[bytes]"] = b""

    def encode(self, payload: bytes) -> bytes:
        key_bytes = self.key.encode("utf-8")
        if len(key_bytes) > 0xFFFF:
            raise RpcProtocolError("key longer than 65535 bytes")
        return b"".join([
            bytes([self.op]), len(key_bytes).to_bytes(2, "big"),
            key_bytes, len(self.stripes).to_bytes(4, "big"),
            *[int(stripe).to_bytes(4, "big") for stripe in self.stripes],
            payload])


def decode_request(body: bytes) -> tuple[int, str, tuple[int, ...],
                                         list[bytes]]:
    """Parse a request body -> ``(op, key, stripes, parts)``.

    ``parts`` holds a put's chunks, one per stripe; every other op
    carries no payload.  The whole body is checked before anything is
    returned, so a corrupt batch is rejected whole, never half-applied.
    """
    if len(body) < 1:
        raise RpcProtocolError("empty request body")
    op = body[0]
    if op not in _KNOWN_OPS:
        raise RpcProtocolError(f"unknown opcode {op}")
    if len(body) < 3:
        raise RpcProtocolError("request truncated before key length")
    key_len = int.from_bytes(body[1:3], "big")
    offset = 3 + key_len
    if len(body) < offset + 4:
        raise RpcProtocolError(
            f"request body of {len(body)} bytes too short for a "
            f"{key_len}-byte key")
    try:
        key = body[3:offset].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise RpcProtocolError(f"undecodable key: {exc}") from None
    count = int.from_bytes(body[offset:offset + 4], "big")
    offset += 4
    if len(body) < offset + 4 * count:
        raise RpcProtocolError(
            f"stripe list truncated: {count} stripes need "
            f"{4 * count} bytes, {len(body) - offset} left")
    stripes = tuple(int.from_bytes(body[at:at + 4], "big")
                    for at in range(offset, offset + 4 * count, 4))
    payload = body[offset + 4 * count:]
    if op == OP_PUT:
        return op, key, stripes, unpack_parts(payload, count)
    if payload:
        raise RpcProtocolError(
            f"opcode {op} carries no payload, got {len(payload)} bytes")
    return op, key, stripes, []


def encode_response(status: int, payload: bytes = b"") -> bytes:
    return bytes([status]) + payload


def decode_response(body: bytes) -> tuple[int, bytes]:
    if len(body) < 1:
        raise RpcProtocolError("empty response body")
    status = body[0]
    if status not in (STATUS_OK, STATUS_MISSING, STATUS_ERR):
        raise RpcProtocolError(f"unknown response status {status}")
    return status, body[1:]


def encode_stat(chunks: int, total_bytes: int) -> bytes:
    return chunks.to_bytes(8, "big") + total_bytes.to_bytes(8, "big")


def decode_stat(payload: bytes) -> tuple[int, int]:
    if len(payload) != 16:
        raise RpcProtocolError(
            f"stat payload must be 16 bytes, got {len(payload)}")
    return (int.from_bytes(payload[:8], "big"),
            int.from_bytes(payload[8:], "big"))


# --------------------------------------------------------------------------- #
# Pipelined client
# --------------------------------------------------------------------------- #
class RpcClient:
    """FIFO request/response pipelining over one stream pair.

    ``call`` enqueues a request and returns a future for its
    ``(status, payload)`` response.  Frames go out strictly in call
    order (a request whose payload is itself a pending future blocks
    the queue until the bytes exist -- later requests wait, preserving
    the order the deterministic mirror decided); the server answers in
    order, so responses match pending futures FIFO.  A deferred payload
    that fails fails only its own call: the frame goes out as a
    ``DROP`` of that chunk instead, whose answer is discarded, so the
    warehouse holds no stale bytes for it and the FIFO stays aligned.
    Peer death fails every outstanding and future call with
    :class:`NodeProcessError` instead of hanging.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter,
                 max_frame: int = MAX_FRAME_BYTES) -> None:
        self._reader = reader
        self._writer = writer
        #: Ceiling on one frame body, both ways; callers split batches
        #: to fit it (:func:`batches`).
        self.max_frame = max_frame
        self._outbox: asyncio.Queue[
            tuple[Request, asyncio.Future] | None] = asyncio.Queue()
        self._pending: list[asyncio.Future[tuple[int, bytes]]] = []
        self._dead: BaseException | None = None
        self._tasks = [
            asyncio.create_task(self._write_loop(), name="rpc-writer"),
            asyncio.create_task(self._read_loop(), name="rpc-reader"),
        ]

    def call(self, request: Request) -> "asyncio.Future[tuple[int, bytes]]":
        """Enqueue ``request`` (synchronously) and return its response
        future."""
        future: asyncio.Future[tuple[int, bytes]] = \
            asyncio.get_running_loop().create_future()
        if self._dead is not None:
            future.set_exception(NodeProcessError(str(self._dead)))
            return future
        self._pending.append(future)
        self._outbox.put_nowait((request, future))
        return future

    async def _write_loop(self) -> None:
        try:
            while True:
                item = await self._outbox.get()
                if item is None:
                    return
                request, future = item
                payload = request.payload
                if isinstance(payload, asyncio.Future):
                    try:
                        payload = await payload
                    except Exception as exc:
                        if not future.done():
                            future.set_exception(exc)
                        request = Request(OP_DROP, request.key,
                                          request.stripes)
                        payload = b""
                self._writer.write(
                    encode_frame(request.encode(payload)))
                await self._writer.drain()
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self._fail(exc)

    async def _read_loop(self) -> None:
        try:
            while True:
                body = await read_frame(self._reader, self.max_frame)
                if body is None:
                    if self._pending:
                        self._fail(NodeProcessError(
                            "peer closed with "
                            f"{len(self._pending)} responses outstanding"))
                    return
                if not self._pending:
                    raise RpcProtocolError("response with no request "
                                           "outstanding")
                future = self._pending.pop(0)
                if not future.done():
                    future.set_result(decode_response(body))
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self._fail(exc)

    def _fail(self, exc: BaseException) -> None:
        if self._dead is None:
            self._dead = exc
        for future in self._pending:
            if not future.done():
                future.set_exception(NodeProcessError(str(exc)))
        self._pending.clear()

    async def aclose(self) -> None:
        """Stop both loops and close the writer; idempotent."""
        self._outbox.put_nowait(None)
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        try:
            self._writer.close()
        except Exception:
            pass


# --------------------------------------------------------------------------- #
# The chunk server (subprocess entry point)
# --------------------------------------------------------------------------- #
class ChunkServer:
    """The byte warehouse one node subprocess runs.

    All *policy* -- who may read what, which writes should fail --
    lives in the client-side mirror; the server just applies frames in
    arrival order.  ``crash`` drops every chunk (a failed device loses
    its data) and marks the slot down; a ``put`` arriving while down is
    answered with ``ERR`` because the mirror never sends one -- seeing
    it means the two sides disagree, and the client surfaces that as an
    integrity failure rather than guessing.
    """

    def __init__(self) -> None:
        self.chunks: dict[tuple[str, int], bytes] = {}
        self.up = True

    def handle(self, op: int, key: str, stripes: Sequence[int],
               parts: Sequence[bytes]) -> tuple[bytes, bool]:
        """Apply one request; returns ``(response_body, keep_serving)``.

        A get answers ``MISSING`` if any listed chunk is absent: the
        mirror only asks for chunks it marked present.
        """
        if op in (OP_PUT, OP_GET, OP_DROP) and not self.up:
            verb = {OP_PUT: "put", OP_GET: "get", OP_DROP: "drop"}[op]
            return encode_response(
                STATUS_ERR,
                f"{verb} while down (mirror desync)".encode()), True
        if op == OP_PUT:
            for stripe, part in zip(stripes, parts):
                self.chunks[(key, stripe)] = part
            return encode_response(STATUS_OK), True
        if op == OP_GET:
            found = [self.chunks.get((key, stripe)) for stripe in stripes]
            if None in found:
                return encode_response(STATUS_MISSING), True
            return encode_response(STATUS_OK, pack_parts(found)), True
        if op == OP_DROP:
            for stripe in stripes:
                self.chunks.pop((key, stripe), None)
            return encode_response(STATUS_OK), True
        if op == OP_CRASH:
            self.chunks.clear()
            self.up = False
            return encode_response(STATUS_OK), True
        if op == OP_RESTORE:
            self.up = True
            return encode_response(STATUS_OK), True
        if op == OP_STAT:
            total = sum(len(data) for data in self.chunks.values())
            return encode_response(
                STATUS_OK, encode_stat(len(self.chunks), total)), True
        if op == OP_SHUTDOWN:
            return encode_response(STATUS_OK), False
        return encode_response(STATUS_ERR, f"opcode {op}".encode()), True


def serve(reader: BinaryIO, writer: BinaryIO,
          max_frame: int = MAX_FRAME_BYTES) -> None:
    """Serve one connection until EOF, shutdown or a protocol error.

    A protocol error is answered ``ERR`` and stops serving: the stream
    offset can no longer be trusted, so going on would risk torn data.
    Each answer is flushed at once (coalescing answers measured slower).
    """
    server = ChunkServer()
    while True:
        try:
            length = _body_length(reader.read(LENGTH_BYTES), max_frame)
            if length is None:
                return
            body = _whole_body(reader.read(length), length)
            response, keep_serving = server.handle(*decode_request(body))
        except RpcProtocolError as exc:
            response, keep_serving = encode_response(
                STATUS_ERR, str(exc).encode()), False
        writer.write(encode_frame(response))
        writer.flush()
        if not keep_serving:
            return


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.store.rpc",
        description="Chunk-server subprocess of the out-of-process "
                    "object-store backend (speaks the length-prefixed "
                    "frame protocol on stdin/stdout).")
    parser.add_argument("--max-frame-bytes", type=int,
                        default=MAX_FRAME_BYTES)
    args = parser.parse_args(argv)
    try:
        serve(sys.stdin.buffer, sys.stdout.buffer, args.max_frame_bytes)
    except BrokenPipeError:
        # The client stopped reading: send stdout's shutdown flush to null.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
