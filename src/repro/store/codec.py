"""Object bytes <-> coded node chunks, through any :class:`StripeCode`.

The store's unit of placement is the *chunk*: column ``j`` of one
encoded stripe, i.e. the ``r`` symbols a stripe puts on device ``j``,
serialised back to back (``r * symbol_bytes`` bytes, little-endian for
w = 16 fields).  An object is split into fixed-size stripe payloads of
``num_data_symbols * symbol_bytes`` bytes (the last one zero-padded;
the object's true length lives in the cluster's metadata), and chunk
``j`` of every stripe lands on node ``j``.

Every family (STAIR, RS, SD, IDR) is linear and acts on a symbol
element by element, so ``g`` stripes of ``B``-byte symbols code exactly
like one stripe of ``g * B``-byte symbols.  The codec *folds* stripes
that way: it views a run of ``g`` stripe payloads as a ``(g, k, B)``
array, transposes it to ``(k, g * B)`` and makes one ``code.encode``
call for the run.  Runs are as long as :data:`FOLD_MAX_BYTES` allows
(``g = max(1, FOLD_MAX_BYTES // symbol_bytes)``), so small objects take
one code call and 16 KiB symbols take one per stripe.  The chunks are
cut out of the coded run with no per-symbol loop.

Reads invert the mapping, and take a *run* of stripes too: each column
holds the chunks of one or more stripes back to back.  The *healthy*
path never decodes: it needs only the columns that carry data symbols
and slices the payloads straight out of them.  The *degraded* path (a
data column missing) rebuilds the run with ``code.decode``, folded into
one call per :attr:`ObjectCodec.fold_stripes` stripes, so the stripes
of a run must share one erasure pattern.  ``rebuild_columns`` (the
repair path) decodes the same way.

The codec is deliberately stateless: everything is a pure function of
``(code, symbol_bytes)``, so two codecs built from equal specs agree
byte for byte (the property the round-trip fuzz suite pins down on both
``ops_class`` backends).
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

from repro.codes.base import StripeCode

#: Longest folded symbol, in bytes, that one code call works on.  Read
#: off the fold sweep in ``benchmarks/bench_coding_throughput.py`` (the
#: store's code, 2-vCPU Xeon VM): folding 128 B to 2 KiB symbols into
#: 16 KiB rows cuts the time per stripe 2.7-22x; 64 KiB rows gained at
#: most 1.8x more, 256 KiB rows lost again, and 16 KiB symbols gained
#: under 10 %, while a run's transient copies grow with the row.  So
#: 16 KiB symbols code one stripe per call.
FOLD_MAX_BYTES = 16384


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
        width = code.field.w
        if width not in (8, 16):
            raise StoreError(
                f"the store serialises w=8 and w=16 symbols only "
                f"(code field has w={width})")
        element_bytes = 2 if width == 16 else 1
        if symbol_bytes % element_bytes:
            raise StoreError(
                f"symbol_bytes = {symbol_bytes} must be a multiple of "
                f"the element size ({element_bytes} bytes for "
                f"w={width})")
        self.code = code
        self.symbol_bytes = symbol_bytes
        #: Bytes of one node chunk (a full stripe column).
        self.chunk_bytes = code.r * symbol_bytes
        #: User bytes carried by one stripe.
        self.stripe_payload_bytes = code.num_data_symbols * symbol_bytes
        #: Elements per symbol, their dtype in the code and on the wire.
        self._elements = symbol_bytes // element_bytes
        self._dtype = code.field.element_dtype
        self._wire = np.dtype("<u2" if width == 16 else "u1")
        #: Columns that carry at least one data symbol -- the only
        #: columns a healthy read touches.
        self.data_columns: tuple[int, ...] = tuple(sorted(
            {col for _, col in code.data_positions()}))
        #: Data positions in linear order, and their byte offsets in
        #: their column's chunk.
        self._data_rows, self._data_cols = np.array(
            code.data_positions()).T
        self._data_offsets = [(col, row * symbol_bytes)
                              for row, col in code.data_positions()]

    # ------------------------------------------------------------------ #
    # Geometry
    # ------------------------------------------------------------------ #
    @property
    def fold_stripes(self) -> int:
        """Stripes folded into one code call."""
        return max(1, FOLD_MAX_BYTES // self.symbol_bytes)

    def num_stripes(self, size: int) -> int:
        """Stripes needed for a ``size``-byte object (0 for 0 bytes)."""
        payload = self.stripe_payload_bytes
        return (size + payload - 1) // payload

    # ------------------------------------------------------------------ #
    # Encode
    # ------------------------------------------------------------------ #
    def encode_object(self, data: bytes) -> list[list[bytes]]:
        """Encode an object into ``[stripe][column] -> chunk bytes``.

        One ``code.encode`` call per run of :attr:`fold_stripes`
        stripes.  Full runs are read in place; only the last run is
        copied, to zero-pad it.
        """
        payload = self.stripe_payload_bytes
        k, elements = self.code.num_data_symbols, self._elements
        view = memoryview(data).cast("B")
        out: list[list[bytes]] = []
        for start in range(0, len(view), self.fold_stripes * payload):
            run = view[start:start + self.fold_stripes * payload]
            stripes = -(-len(run) // payload)
            if len(run) < stripes * payload:
                padded = bytearray(stripes * payload)
                padded[:len(run)] = run
                run = padded
            block = self._symbols(run).reshape(stripes, k, elements)
            grid = self.code.encode(list(
                block.transpose(1, 0, 2).reshape(k, stripes * elements)))
            coded = self._unfold(grid, stripes)
            out.extend([coded[:, j, s].tobytes()
                        for j in range(self.code.n)]
                       for s in range(stripes))
        return out

    # ------------------------------------------------------------------ #
    # Decode
    # ------------------------------------------------------------------ #
    def extract_payload(self, columns: Sequence[Optional[bytes]]) -> bytes:
        """The healthy fast path: slice the data symbols of a run of
        stripes out of their columns, no decoding.  Every column in
        :attr:`data_columns` must be present.

        Symbols are sliced out and joined, copying each byte twice; a
        gather through numpy would copy the run three times."""
        for col in self.data_columns:
            if columns[col] is None:
                raise StoreError(
                    f"data column {col} is missing; use decode_stripe "
                    "for degraded reads")
        size, chunk = self.symbol_bytes, self.chunk_bytes
        return b"".join([
            columns[col][base + start:base + start + size]
            for base in range(0, self._run_length(columns) * chunk, chunk)
            for col, start in self._data_offsets])

    def decode_stripe(self, columns: Sequence[Optional[bytes]]) -> bytes:
        """Recover the payloads of a run of stripes from surviving
        columns, back to back.

        Each column holds the run's chunks back to back (one chunk for
        a single stripe), so the stripes share one erasure pattern.
        Missing columns (``None``) are reconstructed through
        ``code.decode``; raises the code's own
        :class:`~repro.core.exceptions.DecodingFailureError` (or
        equivalent) when the erasure pattern is not recoverable.
        """
        if all(columns[col] is not None for col in self.data_columns):
            return self.extract_payload(columns)
        return b"".join(
            self._serialise(stripes[self._data_rows, self._data_cols])
            for stripes in self._decoded(columns))

    def rebuild_columns(self, columns: Sequence[Optional[bytes]],
                        wanted: Sequence[int]) -> dict[int, bytes]:
        """Reconstruct whole missing columns (the repair path).

        Returns ``{column -> chunk bytes}`` for every column in
        ``wanted``, decoding the run once; ``columns`` is laid out as
        for :meth:`decode_stripe`.
        """
        decoded = list(self._decoded(columns))
        return {j: b"".join(self._serialise(stripes[:, j])
                            for stripes in decoded)
                for j in wanted}

    # ------------------------------------------------------------------ #
    # Folding
    # ------------------------------------------------------------------ #
    def _symbols(self, raw) -> np.ndarray:
        """Wire bytes as a flat array of field elements."""
        return np.frombuffer(raw, dtype=self._wire).astype(self._dtype,
                                                           copy=False)

    def _unfold(self, grid, stripes: int) -> np.ndarray:
        """A coded grid of folded symbols as an ``(r, n, stripes,
        elements)`` array of wire elements."""
        return np.array(grid).astype(self._wire, copy=False).reshape(
            self.code.r, self.code.n, stripes, self._elements)

    def _serialise(self, symbols: np.ndarray) -> bytes:
        """Wire bytes of an ``(rows, stripes, elements)`` unfolded
        array, stripe by stripe."""
        return symbols.transpose(1, 0, 2).tobytes()

    def _run_length(self, columns: Sequence[Optional[bytes]]) -> int:
        """Stripes in a run of columns; every present column must hold
        that many chunks."""
        if len(columns) != self.code.n:
            raise StoreError(
                f"expected {self.code.n} columns, got {len(columns)}")
        sizes = {len(chunk) for chunk in columns if chunk is not None}
        if not sizes:
            raise StoreError("every column is missing")
        stripes, rest = divmod(max(sizes), self.chunk_bytes)
        if len(sizes) > 1 or rest or not stripes:
            raise StoreError(
                f"columns hold {sorted(sizes)} bytes, expected one "
                f"multiple of the {self.chunk_bytes}-byte chunk")
        return stripes

    def _decoded(self, columns: Sequence[Optional[bytes]]
                 ) -> Iterator[np.ndarray]:
        """Decode a run of stripes, :attr:`fold_stripes` at a time:
        yields each group's ``(r, n, stripes, elements)`` array."""
        r, n, elements = self.code.r, self.code.n, self._elements
        stripes = self._run_length(columns)
        planes = {j: self._symbols(chunk).reshape(stripes, r, elements)
                  for j, chunk in enumerate(columns) if chunk is not None}
        for first in range(0, stripes, self.fold_stripes):
            group = min(self.fold_stripes, stripes - first)
            folded = {j: plane[first:first + group].transpose(1, 0, 2)
                      .reshape(r, group * elements)
                      for j, plane in planes.items()}
            grid = [[folded[j][i] if j in folded else None
                     for j in range(n)] for i in range(r)]
            yield self._unfold(self.code.decode(grid), group)
