"""Property-fuzz the chunk-RPC wire protocol (frames, client, server).

The invariant under attack: a reader either delivers a *whole* frame
or raises :class:`RpcProtocolError` -- truncated prefixes, mid-body
EOF, oversized length prefixes and random byte corruption must all
surface as clean errors, never as hangs or torn chunks.  Every fuzz
loop is seeded (``np.random.default_rng``), so failures replay.
"""

import asyncio
import socket

import numpy as np
import pytest

from repro.store import rpc
from repro.store.node import ProcessTransport
from repro.store.rpc import (
    ChunkServer,
    NodeProcessError,
    Request,
    RpcClient,
    RpcProtocolError,
    decode_request,
    decode_response,
    decode_stat,
    encode_frame,
    encode_response,
    encode_stat,
    read_frame,
    serve,
)

#: Every test below must finish well inside this; a hang is a failure.
TIMEOUT_S = 10.0


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, TIMEOUT_S))


def fed_reader(*chunks: bytes, eof: bool = True) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    for chunk in chunks:
        reader.feed_data(chunk)
    if eof:
        reader.feed_eof()
    return reader


async def stream_pair():
    """Two connected (reader, writer) pairs over a local socketpair."""
    left, right = socket.socketpair()
    a = await asyncio.open_connection(sock=left)
    b = await asyncio.open_connection(sock=right)
    return a, b


# --------------------------------------------------------------------------- #
# Frame codec
# --------------------------------------------------------------------------- #
def test_frame_round_trip():
    async def flow():
        body = b"\x01\x00\x03abc\x00\x00\x00\x07payload"
        reader = fed_reader(encode_frame(body))
        assert await read_frame(reader) == body
        assert await read_frame(reader) is None  # clean EOF after

    run(flow())


def test_clean_eof_at_frame_boundary_is_none():
    async def flow():
        assert await read_frame(fed_reader()) is None

    run(flow())


def test_truncated_length_prefix_raises():
    async def flow():
        with pytest.raises(RpcProtocolError, match="mid-prefix"):
            await read_frame(fed_reader(b"\x00\x00"))

    run(flow())


def test_zero_length_frame_raises():
    async def flow():
        with pytest.raises(RpcProtocolError, match="zero-length"):
            await read_frame(fed_reader(b"\x00\x00\x00\x00"))

    run(flow())


def test_oversized_length_prefix_rejected_before_the_body():
    async def flow():
        # The prefix claims 2 GiB; only the 4 prefix bytes are fed, so
        # the rejection must come from the prefix check, not a read of
        # data that will never arrive.
        huge = (2 ** 31).to_bytes(4, "big")
        with pytest.raises(RpcProtocolError, match="exceeds"):
            await read_frame(fed_reader(huge, eof=False), max_frame=1024)

    run(flow())


def test_peer_death_mid_body_raises_not_hangs():
    async def flow():
        frame = encode_frame(b"x" * 100)
        with pytest.raises(RpcProtocolError, match="mid-frame"):
            await read_frame(fed_reader(frame[:40]))

    run(flow())


def test_sending_an_empty_frame_is_refused():
    with pytest.raises(RpcProtocolError, match="empty"):
        encode_frame(b"")


def test_oversized_body_is_refused_at_encode_time(monkeypatch):
    monkeypatch.setattr(rpc, "MAX_FRAME_BYTES", 64)
    with pytest.raises(RpcProtocolError, match="ceiling"):
        encode_frame(b"y" * 65)


# --------------------------------------------------------------------------- #
# Request / response codec properties (seeded fuzz)
# --------------------------------------------------------------------------- #
def test_request_encode_decode_round_trips_fuzzed():
    rng = np.random.default_rng(2024)
    ops = (rpc.OP_PUT, rpc.OP_GET, rpc.OP_CRASH,
           rpc.OP_RESTORE, rpc.OP_STAT, rpc.OP_SHUTDOWN, rpc.OP_DROP)
    for _ in range(200):
        op = ops[rng.integers(len(ops))]
        key = "".join(chr(c) for c in
                      rng.integers(32, 0x2FFF, size=rng.integers(0, 40)))
        stripe = int(rng.integers(0, 2 ** 32))
        payload = rng.bytes(int(rng.integers(0, 512)))
        body = Request(op, key, stripe, payload).encode(payload)
        assert decode_request(body) == (op, key, stripe, payload)


def test_corrupted_request_bodies_error_cleanly_fuzzed():
    """Random single-byte mutations and truncations of valid request
    bodies either decode to *some* request or raise RpcProtocolError --
    no other exception type, and (checked by decode being pure) no torn
    half-parse."""
    rng = np.random.default_rng(7)
    for _ in range(300):
        payload = rng.bytes(int(rng.integers(0, 64)))
        body = bytearray(Request(rpc.OP_PUT, "key-αβ", 3,
                                 payload).encode(payload))
        if rng.random() < 0.5 and len(body) > 1:
            body = body[:rng.integers(1, len(body))]  # truncate
        else:
            body[rng.integers(len(body))] = rng.integers(256)  # mutate
        try:
            op, key, stripe, decoded = decode_request(bytes(body))
        except RpcProtocolError:
            continue
        assert op in (rpc.OP_PUT, rpc.OP_GET, rpc.OP_CRASH,
                      rpc.OP_RESTORE, rpc.OP_STAT, rpc.OP_SHUTDOWN,
                      rpc.OP_DROP)
        assert isinstance(key, str) and isinstance(decoded, bytes)


def test_unknown_opcode_and_undecodable_key_are_rejected():
    with pytest.raises(RpcProtocolError, match="unknown opcode"):
        decode_request(bytes([99]) + b"\x00\x00" + b"\x00" * 4)
    with pytest.raises(RpcProtocolError, match="undecodable key"):
        decode_request(bytes([rpc.OP_GET]) + b"\x00\x02\xff\xfe"
                       + b"\x00" * 4)
    with pytest.raises(RpcProtocolError, match="truncated"):
        decode_request(bytes([rpc.OP_GET]) + b"\x00")
    with pytest.raises(RpcProtocolError, match="too short"):
        decode_request(bytes([rpc.OP_GET]) + b"\xff\xff" + b"k")


def test_response_and_stat_codecs():
    assert decode_response(encode_response(rpc.STATUS_OK, b"d")) \
        == (rpc.STATUS_OK, b"d")
    with pytest.raises(RpcProtocolError, match="unknown response"):
        decode_response(b"\x09")
    with pytest.raises(RpcProtocolError, match="empty response"):
        decode_response(b"")
    assert decode_stat(encode_stat(12, 3456)) == (12, 3456)
    with pytest.raises(RpcProtocolError, match="16 bytes"):
        decode_stat(b"\x00" * 7)


def test_oversized_key_is_refused():
    request = Request(rpc.OP_PUT, "k" * 70_000, 0, b"")
    with pytest.raises(RpcProtocolError, match="65535"):
        request.encode(b"")


# --------------------------------------------------------------------------- #
# The server under fuzzed byte streams
# --------------------------------------------------------------------------- #
def test_server_survives_fuzzed_garbage_without_hanging():
    """Feed the server random garbage streams: it must terminate (error
    reply or EOF) within the timeout and every reply it does send must
    itself be a well-formed frame."""
    rng = np.random.default_rng(31)

    async def one_round(garbage: bytes) -> None:
        (client_r, client_w), (server_r, server_w) = await stream_pair()
        task = asyncio.create_task(serve(server_r, server_w,
                                         max_frame=4096))
        client_w.write(garbage)
        client_w.write_eof()
        await task             # the server must terminate on its own
        server_w.write_eof()   # then replies end in a clean EOF
        while True:  # every reply frame must decode cleanly
            try:
                body = await read_frame(client_r, 4096)
            except RpcProtocolError:
                pytest.fail("server sent a torn frame")
            if body is None:
                break
            decode_response(body)
        client_w.close()
        server_w.close()

    async def flow():
        for _ in range(25):
            await one_round(rng.bytes(int(rng.integers(1, 200))))

    run(flow())


def test_server_stops_after_a_framing_error_with_an_err_reply():
    async def flow():
        (client_r, client_w), (server_r, server_w) = await stream_pair()
        task = asyncio.create_task(serve(server_r, server_w))
        # A valid put, then a frame that dies mid-body.
        put = Request(rpc.OP_PUT, "k", 0, b"data")
        client_w.write(encode_frame(put.encode(b"data")))
        client_w.write(encode_frame(b"x" * 50)[:20])
        client_w.write_eof()
        await task             # framing error stops the server
        server_w.write_eof()
        assert decode_response(await read_frame(client_r)) \
            == (rpc.STATUS_OK, b"")
        status, message = decode_response(await read_frame(client_r))
        assert status == rpc.STATUS_ERR
        assert b"mid-frame" in message
        assert await read_frame(client_r) is None  # server hung up
        client_w.close()
        server_w.close()

    run(flow())


# --------------------------------------------------------------------------- #
# ChunkServer semantics
# --------------------------------------------------------------------------- #
def test_chunk_server_put_get_delete_crash_restore():
    server = ChunkServer()

    def call(op, key="", stripe=0, payload=b""):
        body, keep = server.handle(op, key, stripe, payload)
        return decode_response(body), keep

    assert call(rpc.OP_PUT, "k", 0, b"alpha")[0] == (rpc.STATUS_OK, b"")
    assert call(rpc.OP_GET, "k", 0)[0] == (rpc.STATUS_OK, b"alpha")
    assert call(rpc.OP_GET, "k", 1)[0] == (rpc.STATUS_MISSING, b"")
    assert call(rpc.OP_STAT)[0] == (rpc.STATUS_OK, encode_stat(1, 5))

    # Crash loses all bytes and marks the slot down ...
    assert call(rpc.OP_CRASH)[0] == (rpc.STATUS_OK, b"")
    status, message = call(rpc.OP_PUT, "k", 0, b"beta")[0]
    assert status == rpc.STATUS_ERR and b"mirror desync" in message
    status, message = call(rpc.OP_GET, "k", 0)[0]
    assert status == rpc.STATUS_ERR
    status, message = call(rpc.OP_DROP, "k", 0)[0]
    assert status == rpc.STATUS_ERR and b"mirror desync" in message

    # ... and restore brings an *empty* replacement back up.
    assert call(rpc.OP_RESTORE)[0] == (rpc.STATUS_OK, b"")
    assert call(rpc.OP_GET, "k", 0)[0] == (rpc.STATUS_MISSING, b"")

    assert call(rpc.OP_PUT, "k", 0, b"beta")[0] == (rpc.STATUS_OK, b"")
    assert call(rpc.OP_PUT, "k", 1, b"gamma")[0] == (rpc.STATUS_OK, b"")

    # Drop forgets one chunk; dropping an absent chunk is a no-op.
    assert call(rpc.OP_DROP, "k", 1)[0] == (rpc.STATUS_OK, b"")
    assert call(rpc.OP_GET, "k", 1)[0] == (rpc.STATUS_MISSING, b"")
    assert call(rpc.OP_DROP, "k", 1)[0] == (rpc.STATUS_OK, b"")
    assert call(rpc.OP_STAT)[0] == (rpc.STATUS_OK, encode_stat(1, 4))

    response, keep = call(rpc.OP_SHUTDOWN)
    assert response == (rpc.STATUS_OK, b"") and keep is False


# --------------------------------------------------------------------------- #
# The pipelined client
# --------------------------------------------------------------------------- #
def test_client_pipelines_and_matches_responses_fifo():
    async def flow():
        (client_r, client_w), (server_r, server_w) = await stream_pair()
        task = asyncio.create_task(serve(server_r, server_w))
        client = RpcClient(client_r, client_w)
        puts = [client.call(Request(rpc.OP_PUT, f"k{i}", i,
                                    bytes([i]) * 8))
                for i in range(32)]
        gets = [client.call(Request(rpc.OP_GET, f"k{i}", i))
                for i in range(32)]
        for put in puts:
            assert await put == (rpc.STATUS_OK, b"")
        for i, get in enumerate(gets):
            assert await get == (rpc.STATUS_OK, bytes([i]) * 8)
        await client.aclose()
        server_w.close()
        await task

    run(flow())


def test_deferred_payload_future_preserves_frame_order():
    """A put whose bytes do not exist yet must still hold its place in
    the outbox: the following get (enqueued later) sees the bytes."""
    async def flow():
        (client_r, client_w), (server_r, server_w) = await stream_pair()
        task = asyncio.create_task(serve(server_r, server_w))
        client = RpcClient(client_r, client_w)
        pending = asyncio.get_running_loop().create_future()
        put = client.call(Request(rpc.OP_PUT, "late", 0, pending))
        get = client.call(Request(rpc.OP_GET, "late", 0))
        await asyncio.sleep(0.01)  # let the write loop block on it
        pending.set_result(b"finally")
        assert await put == (rpc.STATUS_OK, b"")
        assert await get == (rpc.STATUS_OK, b"finally")
        await client.aclose()
        server_w.close()
        await task

    run(flow())


def test_failed_deferred_payload_fails_only_its_call():
    """A deferred payload that raises fails its own put; the chunk is
    dropped rather than left stale, and every later call still gets its
    own answer."""
    async def flow():
        (client_r, client_w), (server_r, server_w) = await stream_pair()
        task = asyncio.create_task(serve(server_r, server_w))
        client = RpcClient(client_r, client_w)
        assert await client.call(Request(rpc.OP_PUT, "k", 0, b"stale")) \
            == (rpc.STATUS_OK, b"")
        pending = asyncio.get_running_loop().create_future()
        put = client.call(Request(rpc.OP_PUT, "k", 0, pending))
        get = client.call(Request(rpc.OP_GET, "k", 0))
        other = client.call(Request(rpc.OP_PUT, "x", 1, b"fresh"))
        await asyncio.sleep(0.01)  # let the write loop block on it
        pending.set_exception(RuntimeError("rebuild exploded"))
        with pytest.raises(RuntimeError, match="rebuild exploded"):
            await put
        assert await get == (rpc.STATUS_MISSING, b"")
        assert await other == (rpc.STATUS_OK, b"")
        assert await client.call(Request(rpc.OP_GET, "x", 1)) \
            == (rpc.STATUS_OK, b"fresh")
        await client.aclose()
        server_w.close()
        await task

    run(flow())


def test_peer_death_fails_every_outstanding_call():
    async def flow():
        (client_r, client_w), (server_r, server_w) = await stream_pair()
        client = RpcClient(client_r, client_w)
        first = client.call(Request(rpc.OP_GET, "k", 0))
        # Read the request but die mid-response-frame.
        await read_frame(server_r)
        server_w.write(encode_frame(encode_response(rpc.STATUS_OK))[:3])
        server_w.close()
        with pytest.raises(NodeProcessError):
            await first
        # Once dead, later calls fail immediately instead of queueing.
        with pytest.raises(NodeProcessError):
            await client.call(Request(rpc.OP_GET, "k", 0))
        await client.aclose()
        client_w.close()

    run(flow())


def test_unsolicited_response_is_a_protocol_error():
    async def flow():
        (client_r, client_w), (server_r, server_w) = await stream_pair()
        client = RpcClient(client_r, client_w)
        server_w.write(encode_frame(encode_response(rpc.STATUS_OK)))
        await server_w.drain()
        await asyncio.sleep(0.05)
        # The client marked itself dead; new calls fail fast.
        with pytest.raises(NodeProcessError):
            await client.call(Request(rpc.OP_GET, "k", 0))
        await client.aclose()
        server_w.close()
        client_w.close()

    run(flow())


# --------------------------------------------------------------------------- #
# Against the real subprocess
# --------------------------------------------------------------------------- #
def test_real_subprocess_round_trip_and_kill_mid_flight():
    async def flow():
        transport = await ProcessTransport.spawn()
        try:
            await transport.put("k", 0, b"x" * 64)
            assert await transport.fetch("k", 0) == b"x" * 64
            assert await transport.stat() == (1, 64)
            # Kill the subprocess with a request in flight: the call
            # errors cleanly instead of hanging.
            pending = transport.fetch("k", 0)
            transport.process.kill()
            with pytest.raises((NodeProcessError, ChunkError)):
                await pending
        finally:
            await transport.aclose()

    from repro.store.node import ChunkIntegrityError as ChunkError
    run(flow())


def test_real_subprocess_rejects_oversized_frames():
    from repro.store.node import ChunkIntegrityError

    async def flow():
        transport = await ProcessTransport.spawn(max_frame=1024)
        try:
            # The server refuses the frame *before* reading its body and
            # answers ERR; the client surfaces that as a clean integrity
            # failure, never a hang or a torn write.
            with pytest.raises(ChunkIntegrityError, match="ceiling"):
                await transport.put("k", 0, b"z" * 2048)
        finally:
            await transport.aclose()

    run(flow())
