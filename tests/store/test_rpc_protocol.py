"""Property-fuzz the chunk-RPC wire protocol (frames, client, server).

The invariant under attack: a reader either delivers a *whole* frame
or raises :class:`RpcProtocolError` -- truncated prefixes, mid-body
EOF, oversized length prefixes and random byte corruption must all
surface as clean errors, never as hangs or torn chunks.  Every fuzz
loop is seeded (``np.random.default_rng``), so failures replay.
"""

import asyncio
import contextlib
import io
import socket
import subprocess
import sys

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
    batches,
    decode_stat,
    encode_frame,
    encode_response,
    encode_stat,
    pack_parts,
    read_frame,
    serve,
    unpack_parts,
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


def serve_bytes(stream: bytes, max_frame: int = rpc.MAX_FRAME_BYTES
                ) -> tuple[list[bytes], io.BytesIO]:
    """Run the blocking server over ``stream`` to completion; returns
    its reply bodies and the (consumed) input."""
    inp, out = io.BytesIO(stream), io.BytesIO()
    serve(inp, out, max_frame)

    async def replies():
        reader, bodies = fed_reader(out.getvalue()), []
        while (body := await read_frame(reader, max_frame)) is not None:
            bodies.append(body)
        return bodies

    return run(replies()), inp


@contextlib.asynccontextmanager
async def real_server():
    """An :class:`RpcClient` talking to a real chunk-server subprocess."""
    transport = await ProcessTransport.spawn()
    try:
        yield transport.client
    finally:
        await transport.aclose()


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
ALL_OPS = (rpc.OP_PUT, rpc.OP_GET, rpc.OP_CRASH, rpc.OP_RESTORE,
           rpc.OP_STAT, rpc.OP_SHUTDOWN, rpc.OP_DROP)


def test_request_encode_decode_round_trips_fuzzed():
    """Batch bodies: a put carries one part per listed stripe (a
    single chunk is a list of one), every other op a bare list."""
    rng = np.random.default_rng(2024)
    for _ in range(200):
        op = ALL_OPS[rng.integers(len(ALL_OPS))]
        key = "".join(chr(c) for c in
                      rng.integers(32, 0x2FFF, size=rng.integers(0, 40)))
        stripes = tuple(int(s) for s in rng.integers(
            0, 2 ** 32, size=rng.integers(0, 6)))
        parts = ([rng.bytes(int(rng.integers(0, 512))) for _ in stripes]
                 if op == rpc.OP_PUT else [])
        payload = pack_parts(parts) if op == rpc.OP_PUT else b""
        body = Request(op, key, stripes, payload).encode(payload)
        assert decode_request(body) == (op, key, stripes, parts)


def test_corrupted_request_bodies_error_cleanly_fuzzed():
    """Random single-byte mutations and truncations of valid batch put
    bodies either decode to *some* whole request or raise
    RpcProtocolError -- no other exception type, and never a torn
    half-parse: a decoded put has exactly one part per stripe."""
    rng = np.random.default_rng(7)
    for _ in range(300):
        parts = [rng.bytes(int(rng.integers(0, 64)))
                 for _ in range(int(rng.integers(1, 4)))]
        body = bytearray(Request(rpc.OP_PUT, "key-αβ",
                                 tuple(range(3, 3 + len(parts))),
                                 b"").encode(pack_parts(parts)))
        if rng.random() < 0.5 and len(body) > 1:
            body = body[:rng.integers(1, len(body))]  # truncate
        else:
            body[rng.integers(len(body))] = rng.integers(256)  # mutate
        try:
            op, key, stripes, decoded = decode_request(bytes(body))
        except RpcProtocolError:
            continue
        assert op in ALL_OPS
        assert isinstance(key, str)
        assert all(isinstance(part, bytes) for part in decoded)
        assert len(decoded) == (len(stripes) if op == rpc.OP_PUT else 0)


def test_corrupted_batch_bodies_are_answered_err():
    """A part length running past the end, a truncated stripe list or
    a missing part is rejected whole: the server answers ERR and stops,
    and applied none of the batch."""
    good = Request(rpc.OP_PUT, "k", (0, 1), b"").encode(
        pack_parts([b"alpha", b"beta"]))
    head = 1 + 2 + 1 + 4            # op, key length, "k", stripe count
    past_end = bytearray(good)
    past_end[head + 8:head + 12] = (1000).to_bytes(4, "big")
    truncated_list = good[:head + 6]
    one_part_short = Request(rpc.OP_PUT, "k", (0, 1), b"").encode(
        pack_parts([b"alpha"]))
    cases = [(bytes(past_end), "past the end"),
             (truncated_list, "stripe list truncated"),
             (one_part_short, "parts truncated")]
    for body, message in cases:
        with pytest.raises(RpcProtocolError, match=message):
            decode_request(body)

    get = encode_frame(Request(rpc.OP_GET, "k", (0,)).encode(b""))
    for body, _ in cases:
        # The corrupt frame stops the server: one ERR, nothing after it.
        replies, _ = serve_bytes(encode_frame(body) + get)
        assert [decode_response(reply)[0] for reply in replies] \
            == [rpc.STATUS_ERR]
    with pytest.raises(RpcProtocolError, match="carries no payload"):
        decode_request(Request(rpc.OP_GET, "k", (0,)).encode(b"junk"))


def test_parts_codec_and_frame_batches():
    parts = [b"", b"a", b"bc" * 100]
    assert unpack_parts(pack_parts(parts), 3) == parts
    with pytest.raises(RpcProtocolError, match="trail"):
        unpack_parts(pack_parts(parts) + b"x", 3)
    # Each chunk costs 8 bytes of stripe number and part length; the
    # header is 7 bytes plus the key.
    assert batches("k", [10] * 6, 8 + 3 * 18) == [
        slice(0, 3), slice(3, 6)]
    assert batches("k", [10] * 6, 7 + 3 * 18) == [
        slice(0, 2), slice(2, 4), slice(4, 6)]
    # A chunk no frame can hold still goes out alone, to be refused.
    assert batches("k", [5, 100, 5], 40) == [
        slice(0, 1), slice(1, 2), slice(2, 3)]
    assert batches("k", [], 40) == [slice(0, 0)]


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
    request = Request(rpc.OP_PUT, "k" * 70_000, (0,), b"")
    with pytest.raises(RpcProtocolError, match="65535"):
        request.encode(b"")


# --------------------------------------------------------------------------- #
# The server under fuzzed byte streams
# --------------------------------------------------------------------------- #
def test_server_survives_fuzzed_garbage_without_hanging():
    """Feed the server random garbage streams: it must terminate (error
    reply or EOF) and every reply it does send must itself be a
    well-formed frame."""
    rng = np.random.default_rng(31)
    for _ in range(25):
        garbage = rng.bytes(int(rng.integers(1, 200)))
        try:
            replies, _ = serve_bytes(garbage, max_frame=4096)
        except RpcProtocolError:
            pytest.fail("server sent a torn frame")
        for reply in replies:  # every reply frame must decode cleanly
            decode_response(reply)


def test_server_stops_after_a_framing_error_with_an_err_reply():
    # A valid put, then a frame that dies mid-body.
    put = Request(rpc.OP_PUT, "k", (0,), pack_parts([b"data"]))
    replies, _ = serve_bytes(encode_frame(put.encode(put.payload))
                             + encode_frame(b"x" * 50)[:20])
    assert decode_response(replies[0]) == (rpc.STATUS_OK, b"")
    status, message = decode_response(replies[1])
    assert status == rpc.STATUS_ERR
    assert b"mid-frame" in message
    assert len(replies) == 2  # server hung up


def test_server_refuses_an_oversized_prefix_before_the_body():
    """A 4 GiB length prefix is answered with one ERR naming the
    ceiling; the server stops without reading a byte of the body."""
    replies, inp = serve_bytes(b"\xff\xff\xff\xff" + b"x" * 100)
    assert len(replies) == 1
    status, message = decode_response(replies[0])
    assert status == rpc.STATUS_ERR
    assert b"ceiling" in message
    assert inp.tell() == rpc.LENGTH_BYTES


# --------------------------------------------------------------------------- #
# ChunkServer semantics
# --------------------------------------------------------------------------- #
def test_chunk_server_put_get_delete_crash_restore():
    server = ChunkServer()

    def call(op, key="", stripes=(), parts=()):
        body, keep = server.handle(op, key, stripes, parts)
        return decode_response(body), keep

    ok = (rpc.STATUS_OK, b"")
    assert call(rpc.OP_PUT, "k", (0,), (b"alpha",))[0] == ok
    assert call(rpc.OP_GET, "k", (0,))[0] \
        == (rpc.STATUS_OK, pack_parts([b"alpha"]))
    assert call(rpc.OP_GET, "k", (1,))[0] == (rpc.STATUS_MISSING, b"")
    assert call(rpc.OP_STAT)[0] == (rpc.STATUS_OK, encode_stat(1, 5))

    # Crash loses all bytes and marks the slot down ...
    assert call(rpc.OP_CRASH)[0] == ok
    status, message = call(rpc.OP_PUT, "k", (0,), (b"beta",))[0]
    assert status == rpc.STATUS_ERR and b"mirror desync" in message
    status, message = call(rpc.OP_GET, "k", (0,))[0]
    assert status == rpc.STATUS_ERR
    status, message = call(rpc.OP_DROP, "k", (0,))[0]
    assert status == rpc.STATUS_ERR and b"mirror desync" in message

    # ... and restore brings an *empty* replacement back up.
    assert call(rpc.OP_RESTORE)[0] == ok
    assert call(rpc.OP_GET, "k", (0,))[0] == (rpc.STATUS_MISSING, b"")

    # One batch writes several stripes; one get reads them in order,
    # and is MISSING as a whole if any listed chunk is absent.
    assert call(rpc.OP_PUT, "k", (0, 1, 2),
                (b"beta", b"gamma", b"delta"))[0] == ok
    assert call(rpc.OP_GET, "k", (2, 0))[0] \
        == (rpc.STATUS_OK, pack_parts([b"delta", b"beta"]))
    assert call(rpc.OP_GET, "k", (0, 7))[0] == (rpc.STATUS_MISSING, b"")

    # Drop forgets chunks; dropping an absent chunk is a no-op.
    assert call(rpc.OP_DROP, "k", (1, 2))[0] == ok
    assert call(rpc.OP_GET, "k", (1,))[0] == (rpc.STATUS_MISSING, b"")
    assert call(rpc.OP_DROP, "k", (1,))[0] == ok
    assert call(rpc.OP_STAT)[0] == (rpc.STATUS_OK, encode_stat(1, 4))

    response, keep = call(rpc.OP_SHUTDOWN)
    assert response == ok and keep is False


# --------------------------------------------------------------------------- #
# The pipelined client
# --------------------------------------------------------------------------- #
def test_client_pipelines_and_matches_responses_fifo():
    async def flow():
        async with real_server() as client:
            puts = [client.call(Request(rpc.OP_PUT, f"k{i}", (i,),
                                        pack_parts([bytes([i]) * 8])))
                    for i in range(32)]
            gets = [client.call(Request(rpc.OP_GET, f"k{i}", (i,)))
                    for i in range(32)]
            for put in puts:
                assert await put == (rpc.STATUS_OK, b"")
            for i, get in enumerate(gets):
                assert await get == (rpc.STATUS_OK,
                                     pack_parts([bytes([i]) * 8]))

    run(flow())


def test_deferred_payload_future_preserves_frame_order():
    """A put whose bytes do not exist yet must still hold its place in
    the outbox: the following get (enqueued later) sees the bytes."""
    async def flow():
        async with real_server() as client:
            pending = asyncio.get_running_loop().create_future()
            put = client.call(Request(rpc.OP_PUT, "late", (0,), pending))
            get = client.call(Request(rpc.OP_GET, "late", (0,)))
            await asyncio.sleep(0.01)  # let the write loop block on it
            pending.set_result(pack_parts([b"finally"]))
            assert await put == (rpc.STATUS_OK, b"")
            assert await get == (rpc.STATUS_OK, pack_parts([b"finally"]))

    run(flow())


def test_failed_deferred_payload_fails_only_its_call():
    """A deferred payload that raises fails its own put; the chunk is
    dropped rather than left stale, and every later call still gets its
    own answer."""
    async def flow():
        async with real_server() as client:
            assert await client.call(Request(
                rpc.OP_PUT, "k", (0,), pack_parts([b"stale"]))) \
                == (rpc.STATUS_OK, b"")
            pending = asyncio.get_running_loop().create_future()
            put = client.call(Request(rpc.OP_PUT, "k", (0,), pending))
            get = client.call(Request(rpc.OP_GET, "k", (0,)))
            other = client.call(Request(rpc.OP_PUT, "x", (1,),
                                        pack_parts([b"fresh"])))
            await asyncio.sleep(0.01)  # let the write loop block on it
            pending.set_exception(RuntimeError("rebuild exploded"))
            with pytest.raises(RuntimeError, match="rebuild exploded"):
                await put
            assert await get == (rpc.STATUS_MISSING, b"")
            assert await other == (rpc.STATUS_OK, b"")
            assert await client.call(Request(rpc.OP_GET, "x", (1,))) \
                == (rpc.STATUS_OK, pack_parts([b"fresh"]))

    run(flow())


def test_peer_death_fails_every_outstanding_call():
    async def flow():
        (client_r, client_w), (server_r, server_w) = await stream_pair()
        client = RpcClient(client_r, client_w)
        first = client.call(Request(rpc.OP_GET, "k", (0,)))
        # Read the request but die mid-response-frame.
        await read_frame(server_r)
        server_w.write(encode_frame(encode_response(rpc.STATUS_OK))[:3])
        server_w.close()
        with pytest.raises(NodeProcessError):
            await first
        # Once dead, later calls fail immediately instead of queueing.
        with pytest.raises(NodeProcessError):
            await client.call(Request(rpc.OP_GET, "k", (0,)))
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
            await client.call(Request(rpc.OP_GET, "k", (0,)))
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
            await transport.put("k", (0,), (b"x" * 64,))
            assert await transport.fetch("k", (0,), (64,)) == [b"x" * 64]
            assert await transport.stat() == (1, 64)
            # Kill the subprocess with a request in flight: the call
            # errors cleanly instead of hanging.
            pending = transport.fetch("k", (0,), (64,))
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
                await transport.put("k", (0,), (b"z" * 2048,))
        finally:
            await transport.aclose()

    run(flow())


def _count_frames(transport: ProcessTransport) -> list:
    """Record every request ``transport`` sends, in order."""
    sent = []
    call = transport.client.call

    def counting(request):
        sent.append(request)
        return call(request)

    transport.client.call = counting
    return sent


def test_real_subprocess_splits_an_over_ceiling_batch():
    """Six 300-byte chunks cannot share one 1 KiB frame: the put and
    the get each split into frames that fit, and the get still returns
    every chunk in stripe order."""
    async def flow():
        transport = await ProcessTransport.spawn(max_frame=1024)
        sent = _count_frames(transport)
        chunks = [bytes([i]) * 300 for i in range(6)]
        try:
            await transport.put("k", range(6), chunks)
            puts = [request.stripes for request in sent]
            assert [list(stripes) for stripes in puts] == [
                [0, 1, 2], [3, 4, 5]]
            assert await transport.fetch("k", range(6), [300] * 6) \
                == chunks
            assert len(sent) == 4
            assert await transport.stat() == (6, 1800)
        finally:
            await transport.aclose()

    run(flow())


def test_process_cluster_sends_one_frame_per_node_per_object():
    """A 3-stripe put is ``n`` frames and a healthy get of it is one
    frame per data column, not one per chunk."""
    from repro.codes.registry import parse_code_spec
    from repro.store.cluster import StoreCluster
    from repro.store.node import StoreNode

    code = parse_code_spec("rs(n=6,r=4,m=2)")

    async def flow():
        transports = [await ProcessTransport.spawn()
                      for _ in range(code.n)]
        sent = [_count_frames(transport) for transport in transports]
        nodes = [StoreNode(j, transport=transports[j])
                 for j in range(code.n)]
        async with StoreCluster(code, symbol_bytes=16,
                                nodes=nodes) as cluster:
            data = bytes(range(256)) * 2 + bytes(200)
            assert cluster.codec.num_stripes(len(data)) == 3
            await cluster.put("k", data)
            assert sum(map(len, sent)) == code.n
            for frames in sent:
                frames.clear()
            assert await cluster.get("k") == data
            assert sum(map(len, sent)) == len(cluster.codec.data_columns)
            assert all(list(request.stripes) == [0, 1, 2]
                       for frames in sent for request in frames)

    run(flow())


@contextlib.contextmanager
def _server_process(*args: str):
    """The chunk server run as a bare script, as ProcessTransport does;
    killed and reaped on exit, so a hung server outlives no test."""
    process = subprocess.Popen([sys.executable, *args, rpc.__file__],
                               stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE)
    try:
        yield process
    finally:
        process.kill()
        with process:  # closes the pipes and waits
            pass


PUT_FRAME = encode_frame(Request(rpc.OP_PUT, "k", (0,), b"").encode(
    pack_parts([b"chunk"])))


def test_server_exits_cleanly_when_stdin_closes():
    with _server_process() as process:
        out, err = process.communicate(PUT_FRAME, timeout=TIMEOUT_S)
    assert process.returncode == 0
    assert err == b""
    assert out == encode_frame(encode_response(rpc.STATUS_OK))


def test_server_exits_quietly_when_the_client_stops_reading():
    """Closing the client's read end before the server answers breaks
    the server's pipe: it exits without a traceback."""
    with _server_process() as process:
        process.stdout.close()
        process.stdin.write(PUT_FRAME)
        process.stdin.close()
        assert process.wait(timeout=TIMEOUT_S) == 0
        assert process.stderr.read() == b""


def test_server_script_imports_neither_numpy_nor_the_package():
    """Node subprocesses start fast because the script is stdlib-only."""
    with _server_process("-X", "importtime") as process:
        _, err = process.communicate(b"", timeout=TIMEOUT_S)
    assert process.returncode == 0
    imported = [line.rsplit("|", 1)[-1].strip()
                for line in err.decode().splitlines()
                if line.startswith("import time:")]
    assert "argparse" in imported  # the listing was parsed
    assert not [name for name in imported
                if name.split(".")[0] in ("numpy", "repro")]
