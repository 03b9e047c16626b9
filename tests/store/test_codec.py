"""Unit coverage of :class:`repro.store.codec.ObjectCodec`.

Geometry, healthy/degraded round trips across every registry code
family, the parity-only repair path, configuration errors, and the
folded codec against a per-stripe reference.
"""

import numpy as np
import pytest

import repro.store.codec as codec_module
from repro.codes import IDRScheme, SDCode, StairStripeCode
from repro.codes.reed_solomon import ReedSolomonStripeCode
from repro.codes.registry import parse_code_spec
from repro.gf.field import get_field
from repro.gf.regions import ReferenceRegionOps
from repro.store.codec import ObjectCodec, StoreError

CODE_SPECS = [
    "stair(n=4,r=4,m=1,e=(1,))",
    "rs(n=5,r=3,m=2)",
    "sd(n=5,r=4,m=1,s=1)",
    "idr(n=5,r=4,m=1,epsilon=2)",
]


def _codec(spec: str, symbol_bytes: int = 32) -> ObjectCodec:
    return ObjectCodec(parse_code_spec(spec), symbol_bytes=symbol_bytes)


# --------------------------------------------------------------------------- #
# Geometry
# --------------------------------------------------------------------------- #
def test_geometry_matches_the_code():
    codec = _codec("rs(n=6,r=4,m=2)", symbol_bytes=64)
    assert codec.chunk_bytes == 4 * 64
    assert codec.stripe_payload_bytes == codec.code.num_data_symbols * 64
    assert codec.num_stripes(0) == 0
    assert codec.num_stripes(1) == 1
    assert codec.num_stripes(codec.stripe_payload_bytes) == 1
    assert codec.num_stripes(codec.stripe_payload_bytes + 1) == 2


def test_data_columns_are_the_healthy_read_set():
    codec = _codec("rs(n=6,r=4,m=2)")
    # RS puts data in the first n - m columns, parity in the rest.
    assert codec.data_columns == (0, 1, 2, 3)
    stair = _codec("stair(n=4,r=4,m=1,e=(1,))")
    assert set(stair.data_columns) == {
        col for _, col in stair.code.data_positions()}


# --------------------------------------------------------------------------- #
# Round trips
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("spec", CODE_SPECS)
def test_round_trip_healthy_and_degraded(spec):
    codec = _codec(spec)
    rng = np.random.default_rng(7)
    data = rng.bytes(2 * codec.stripe_payload_bytes + 17)
    chunks = codec.encode_object(data)
    assert len(chunks) == codec.num_stripes(len(data))

    healthy = b"".join(codec.decode_stripe(s) for s in chunks)
    assert healthy[:len(data)] == data
    # Padding is deterministic zeros.
    assert healthy[len(data):] == b"\x00" * (len(healthy) - len(data))

    # Degraded: erase one data column everywhere.
    victim = codec.data_columns[0]
    degraded = b"".join(
        codec.decode_stripe([None if j == victim else c
                             for j, c in enumerate(s)])
        for s in chunks)
    assert degraded == healthy


@pytest.mark.parametrize("spec", CODE_SPECS)
def test_rebuild_columns_reconstructs_any_column(spec):
    codec = _codec(spec)
    rng = np.random.default_rng(11)
    stripe = codec.encode_object(rng.bytes(codec.stripe_payload_bytes))[0]
    for victim in range(codec.code.n):
        damaged = [None if j == victim else c for j, c in enumerate(stripe)]
        rebuilt = codec.rebuild_columns(damaged, [victim])
        assert rebuilt == {victim: stripe[victim]}


def test_w16_round_trip_little_endian():
    code = ReedSolomonStripeCode(n=5, r=2, m=2, field=get_field(16))
    codec = ObjectCodec(code, symbol_bytes=32)
    rng = np.random.default_rng(3)
    data = rng.bytes(codec.stripe_payload_bytes)
    stripe = codec.encode_object(data)[0]
    assert codec.decode_stripe(stripe) == data
    # A data chunk is the payload's bytes verbatim (little-endian wire
    # layout round-trips through from_bytes/to_bytes untouched).
    assert codec.decode_stripe([None, *stripe[1:]]) == data


def test_empty_object_is_zero_stripes():
    codec = _codec("rs(n=5,r=3,m=2)")
    assert codec.encode_object(b"") == []


def test_extract_payload_requires_every_data_column():
    codec = _codec("rs(n=5,r=3,m=2)")
    stripe = codec.encode_object(b"x" * codec.stripe_payload_bytes)[0]
    broken = [None, *stripe[1:]]
    with pytest.raises(StoreError, match="decode_stripe"):
        codec.extract_payload(broken)
    # decode_stripe handles the same pattern transparently.
    assert codec.decode_stripe(broken) == b"x" * codec.stripe_payload_bytes


# --------------------------------------------------------------------------- #
# Configuration and shape errors
# --------------------------------------------------------------------------- #
def test_symbol_bytes_must_be_positive():
    with pytest.raises(StoreError, match="symbol_bytes"):
        ObjectCodec(parse_code_spec("rs(n=5,r=3,m=2)"), symbol_bytes=0)


def test_w16_rejects_odd_symbol_bytes():
    code = ReedSolomonStripeCode(n=5, r=2, m=2, field=get_field(16))
    with pytest.raises(StoreError, match="multiple"):
        ObjectCodec(code, symbol_bytes=33)


def test_wrong_column_count_is_rejected():
    codec = _codec("rs(n=5,r=3,m=2)")
    with pytest.raises(StoreError, match="expected 5 columns"):
        codec.decode_stripe([None] * 4)


def test_wrong_chunk_size_is_rejected():
    codec = _codec("rs(n=5,r=3,m=2)")
    stripe = codec.encode_object(b"y" * codec.stripe_payload_bytes)[0]
    stripe[0] = stripe[0][:-1]
    stripe[1] = None  # force the grid path, which validates shapes
    with pytest.raises(StoreError, match="bytes"):
        codec.decode_stripe(stripe)


# --------------------------------------------------------------------------- #
# Folding: one code call per run of stripes, bytes of one call per stripe
# --------------------------------------------------------------------------- #
FAMILIES = {
    ("stair", 8): lambda: parse_code_spec("stair(n=4,r=4,m=1,e=(1,))"),
    ("rs", 8): lambda: parse_code_spec("rs(n=5,r=3,m=2)"),
    ("sd", 8): lambda: parse_code_spec("sd(n=5,r=4,m=1,s=1)"),
    ("idr", 8): lambda: parse_code_spec("idr(n=5,r=4,m=1,epsilon=2)"),
    # STAIR picks its own word size: r + e_max = 257 needs w = 16.
    ("stair", 16): lambda: StairStripeCode(n=3, r=255, m=1, e=(2,)),
    ("rs", 16): lambda: ReedSolomonStripeCode(n=5, r=3, m=2,
                                              field=get_field(16)),
    ("sd", 16): lambda: SDCode.construct(5, 4, 1, 1, field=get_field(16)),
    ("idr", 16): lambda: IDRScheme(5, 4, 1, 2, field=get_field(16)),
}
#: FOLD_MAX_BYTES under test, at 4-byte symbols, and the stripes each
#: code call then folds: three, and one (a symbol longer than the cap).
FOLDS = {"fold3": (13, 3), "fold1": (3, 1)}


def _wire(code) -> np.dtype:
    return np.dtype("<u2" if code.field.w == 16 else "u1")


def _reference_encode(code, symbol_bytes: int, data: bytes):
    """Per-stripe reference: one ``code.encode`` per zero-padded stripe
    payload, every symbol converted on its own."""
    k, wire = code.num_data_symbols, _wire(code)
    payload = k * symbol_bytes
    stripes = []
    for start in range(0, len(data), payload):
        piece = data[start:start + payload].ljust(payload, b"\x00")
        grid = code.encode([
            np.frombuffer(piece[i * symbol_bytes:(i + 1) * symbol_bytes],
                          dtype=wire).astype(code.field.element_dtype)
            for i in range(k)])
        stripes.append([b"".join(np.asarray(grid[i][j]).astype(wire).tobytes()
                                 for i in range(code.r))
                        for j in range(code.n)])
    return stripes


def _reference_decode(code, symbol_bytes: int, columns):
    """Per-stripe reference: one ``code.decode`` of one stripe's grid;
    returns (payload bytes, {column: chunk bytes})."""
    wire = _wire(code)
    grid = [[None if columns[j] is None else np.frombuffer(
                columns[j][i * symbol_bytes:(i + 1) * symbol_bytes],
                dtype=wire).astype(code.field.element_dtype)
             for j in range(code.n)] for i in range(code.r)]
    full = code.decode(grid)
    payload = b"".join(np.asarray(full[i][j]).astype(wire).tobytes()
                       for i, j in code.data_positions())
    chunks = {j: b"".join(np.asarray(full[i][j]).astype(wire).tobytes()
                          for i in range(code.r))
              for j in range(code.n)}
    return payload, chunks


@pytest.mark.parametrize("fold", list(FOLDS), ids=list(FOLDS))
@pytest.mark.parametrize("backend", ["bulk", "reference"])
@pytest.mark.parametrize("family,w", list(FAMILIES),
                         ids=[f"{name}-w{w}" for name, w in FAMILIES])
def test_folded_codec_matches_per_stripe_reference(family, w, backend, fold,
                                                   monkeypatch):
    """Every size around the stripe and the run boundaries: folded
    ``encode_object``, ``decode_stripe`` of a whole run (healthy and
    with a data column lost) and ``rebuild_columns`` equal one code call
    per stripe, byte for byte."""
    code = FAMILIES[(family, w)]()
    assert code.field.w == w
    if backend == "reference":
        getattr(code, "code", code).ops_class = ReferenceRegionOps
    symbol_bytes, (fold_bytes, fold_stripes) = 4, FOLDS[fold]
    monkeypatch.setattr(codec_module, "FOLD_MAX_BYTES", fold_bytes)
    codec = ObjectCodec(code, symbol_bytes=symbol_bytes)
    assert codec.fold_stripes == fold_stripes
    payload = codec.stripe_payload_bytes
    run = codec.fold_stripes * payload
    sizes = [0, 1, payload - 1, payload, payload + 1, run, run + 1,
             2 * run + payload + 5]
    victim = codec.data_columns[-1]
    rng = np.random.default_rng(5)
    for size in sizes:
        data = rng.bytes(size)
        stripes = _reference_encode(code, symbol_bytes, data)
        assert codec.encode_object(data) == stripes, size
        if not stripes:
            continue
        columns = [b"".join(stripe[j] for stripe in stripes)
                   for j in range(code.n)]
        assert codec.decode_stripe(columns) == \
            data.ljust(len(stripes) * payload, b"\x00"), size
        lost = [None if j == victim else chunk
                for j, chunk in enumerate(columns)]
        reference = [_reference_decode(
            code, symbol_bytes,
            [None if j == victim else chunk for j, chunk in enumerate(s)])
            for s in stripes]
        assert codec.decode_stripe(lost) == \
            b"".join(piece for piece, _ in reference), size
        assert codec.rebuild_columns(lost, [victim, 0]) == {
            j: b"".join(chunks[j] for _, chunks in reference)
            for j in (victim, 0)}, size


def test_decode_runs_fold_into_few_code_calls(monkeypatch):
    """A degraded run of seven stripes decodes in ceil(7 / 3) code
    calls when three stripes fold into one."""
    code = parse_code_spec("rs(n=5,r=3,m=2)")
    monkeypatch.setattr(codec_module, "FOLD_MAX_BYTES", 3 * 16)
    codec = ObjectCodec(code, symbol_bytes=16)
    data = np.random.default_rng(2).bytes(7 * codec.stripe_payload_bytes)
    calls = {"encode": 0, "decode": 0}
    for name in calls:
        def spy(*args, _name=name, _real=getattr(code, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(code, name, spy)
    stripes = codec.encode_object(data)
    columns = [b"".join(stripe[j] for stripe in stripes) if j else None
               for j in range(code.n)]
    assert codec.decode_stripe(columns) == data
    assert calls == {"encode": 3, "decode": 3}


def test_runs_must_hold_whole_equal_chunks():
    codec = _codec("rs(n=5,r=3,m=2)")
    stripes = codec.encode_object(b"z" * 2 * codec.stripe_payload_bytes)
    columns = [stripes[0][j] + stripes[1][j] for j in range(5)]
    columns[2] = stripes[0][2]
    with pytest.raises(StoreError, match="expected one multiple"):
        codec.decode_stripe(columns)
    with pytest.raises(StoreError, match="every column is missing"):
        codec.rebuild_columns([None] * 5, [0])
