"""Object bytes <-> coded node chunks, through any :class:`StripeCode`.

The store's unit of placement is the *chunk*: column ``j`` of one
encoded stripe, i.e. the ``r`` symbols a stripe puts on device ``j``,
serialised back to back (``r * symbol_bytes`` bytes, little-endian for
w = 16 fields).  An object is split into fixed-size stripe payloads of
``num_data_symbols * symbol_bytes`` bytes (the last one zero-padded;
the object's true length lives in the cluster's metadata), each payload
is encoded with the stripe code -- STAIR, RS, SD or IDR, all through
the PR 6 bulk kernels -- and chunk ``j`` of every stripe lands on node
``j``.

Reads invert the mapping.  The *healthy* path never decodes: it fetches
only the columns that carry data symbols and slices the payload
straight out of them.  The *degraded* path (any needed column missing)
fetches every surviving column, rebuilds the full grid with
``code.decode`` -- the same ``recover_many``-backed machinery the
simulator's repair model counts -- and extracts the data positions.

The codec is deliberately stateless: everything is a pure function of
``(code, symbol_bytes)``, so two codecs built from equal specs agree
byte for byte (the property the round-trip fuzz suite pins down on both
``ops_class`` backends).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.codes.base import StripeCode
from repro.gf.regions import RegionOps


class StoreError(ValueError):
    """An object-store configuration or usage error."""


class ObjectCodec:
    """Split/join object bytes through one stripe code.

    Usage::

        from repro.codes.registry import parse_code_spec
        from repro.store.codec import ObjectCodec

        codec = ObjectCodec(parse_code_spec("rs(n=6,r=4,m=2)"),
                            symbol_bytes=64)
        chunks = codec.encode_object(b"payload")   # [stripe][column]
        codec.decode_stripe(chunks[0])             # payload, padded
    """

    def __init__(self, code: StripeCode, symbol_bytes: int = 512) -> None:
        if symbol_bytes < 1:
            raise StoreError("symbol_bytes must be >= 1")
        width = getattr(code, "field", None)
        width = width.w if width is not None else 8
        if width not in (8, 16):
            raise StoreError(
                f"the store serialises w=8 and w=16 symbols only "
                f"(code field has w={width})")
        self._element_bytes = 2 if width == 16 else 1
        if symbol_bytes % self._element_bytes:
            raise StoreError(
                f"symbol_bytes = {symbol_bytes} must be a multiple of "
                f"the element size ({self._element_bytes} bytes for "
                f"w={width})")
        self.code = code
        self.symbol_bytes = symbol_bytes
        self._ops = RegionOps(code.field)
        #: Columns that carry at least one data symbol -- the only
        #: columns a healthy read touches.
        self.data_columns: tuple[int, ...] = tuple(sorted(
            {col for _, col in code.data_positions()}))

    # ------------------------------------------------------------------ #
    # Geometry
    # ------------------------------------------------------------------ #
    @property
    def chunk_bytes(self) -> int:
        """Bytes of one node chunk (a full stripe column)."""
        return self.code.r * self.symbol_bytes

    @property
    def stripe_payload_bytes(self) -> int:
        """User bytes carried by one stripe."""
        return self.code.num_data_symbols * self.symbol_bytes

    def num_stripes(self, size: int) -> int:
        """Stripes needed for a ``size``-byte object (0 for 0 bytes)."""
        payload = self.stripe_payload_bytes
        return (size + payload - 1) // payload

    # ------------------------------------------------------------------ #
    # Encode
    # ------------------------------------------------------------------ #
    def encode_object(self, data: bytes) -> list[list[bytes]]:
        """Encode an object into ``[stripe][column] -> chunk bytes``."""
        payload = self.stripe_payload_bytes
        out: list[list[bytes]] = []
        for start in range(0, len(data), payload):
            piece = data[start:start + payload]
            if len(piece) < payload:
                piece = piece + b"\x00" * (payload - len(piece))
            out.append(self._encode_stripe(piece))
        return out

    def _encode_stripe(self, payload: bytes) -> list[bytes]:
        symbols = [
            self._ops.from_bytes(
                payload[k * self.symbol_bytes:(k + 1) * self.symbol_bytes])
            for k in range(self.code.num_data_symbols)]
        grid = self.code.encode(symbols)
        return [
            b"".join(self._ops.to_bytes(grid[i][j])
                     for i in range(self.code.r))
            for j in range(self.code.n)]

    # ------------------------------------------------------------------ #
    # Decode
    # ------------------------------------------------------------------ #
    def extract_payload(self, columns: Sequence[Optional[bytes]]) -> bytes:
        """The healthy fast path: slice data symbols out of their
        columns, no decoding.  Every column in :attr:`data_columns`
        must be present."""
        parts = []
        for row, col in self.code.data_positions():
            chunk = columns[col]
            if chunk is None:
                raise StoreError(
                    f"data column {col} is missing; use decode_stripe "
                    "for degraded reads")
            start = row * self.symbol_bytes
            parts.append(chunk[start:start + self.symbol_bytes])
        return b"".join(parts)

    def decode_stripe(self, columns: Sequence[Optional[bytes]]) -> bytes:
        """Recover one stripe's payload from surviving columns.

        Missing columns (``None``) are reconstructed through
        ``code.decode``; raises the code's own
        :class:`~repro.core.exceptions.DecodingFailureError` (or
        equivalent) when the erasure pattern is not recoverable.
        """
        if all(columns[col] is not None for col in self.data_columns):
            return self.extract_payload(columns)
        grid = self._grid_from_columns(columns)
        recovered = self.code.decode(grid)
        data = self.code.extract_data(recovered)
        return b"".join(self._ops.to_bytes(symbol) for symbol in data)

    def rebuild_columns(self, columns: Sequence[Optional[bytes]],
                        wanted: Sequence[int]) -> dict[int, bytes]:
        """Reconstruct whole missing columns (the repair path).

        Returns ``{column -> chunk bytes}`` for every column in
        ``wanted``, decoding the full stripe once.
        """
        grid = self._grid_from_columns(columns)
        recovered = self.code.decode(grid)
        out = {}
        for j in wanted:
            out[j] = b"".join(self._ops.to_bytes(recovered[i][j])
                              for i in range(self.code.r))
        return out

    def _grid_from_columns(self, columns: Sequence[Optional[bytes]]):
        if len(columns) != self.code.n:
            raise StoreError(
                f"expected {self.code.n} columns, got {len(columns)}")
        grid: list[list[Optional[np.ndarray]]] = [
            [None] * self.code.n for _ in range(self.code.r)]
        for j, chunk in enumerate(columns):
            if chunk is None:
                continue
            if len(chunk) != self.chunk_bytes:
                raise StoreError(
                    f"column {j} has {len(chunk)} bytes, expected "
                    f"{self.chunk_bytes}")
            for i in range(self.code.r):
                start = i * self.symbol_bytes
                grid[i][j] = self._ops.from_bytes(
                    chunk[start:start + self.symbol_bytes])
        return grid
