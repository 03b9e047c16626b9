"""Vectorised region operations over Galois fields.

The STAIR paper expresses the cost of every encoding method in units of
``Mult_XOR(R1, R2, a)``: multiply a region ``R1`` of bytes by a field
constant ``a`` and XOR the product into a target region ``R2``.  This
module provides that operation together with an :class:`OperationCounter`
so higher layers can report per-stripe Mult_XOR counts and compare them
against the paper's analytical formulas (Eq. 5 and Eq. 6).

Two execution paths share one counting contract:

* the **bulk stripe-planar path** (:class:`RegionOps`, the default):
  symbols are stacked into a 2-D ``(num_symbols, region_len)`` byte
  plane and whole linear combinations are computed with one table-row
  gather per coefficient row followed by ``np.bitwise_xor.reduce``.
  The gather is :meth:`~repro.gf.field.GField.mul_rows` or
  :meth:`~repro.gf.field.GField.mul_gather`: one 2-D fancy index into
  ``mul_table`` below
  :data:`~repro.gf.field.TAKE_GATHER_MIN_ELEMENTS` elements per call,
  where its single call is cheapest, and one 1-D ``np.take`` per
  coefficient from there on, where its lower per-element cost wins; and
* the **scalar reference path** (:class:`ReferenceRegionOps`): every
  field multiplication is performed element-at-a-time through
  :meth:`~repro.gf.field.GField.mul`.  It is deliberately simple and
  obviously correct -- the differential fuzz harness
  (``tests/gf/test_kernels_differential.py``) proves the bulk kernels
  bit-exact against it, and ``benchmarks/bench_coding_throughput.py``
  commits the >= 100x speed gap between the two as a CI floor.

Counter semantics (shared by both paths, asserted by the harness):

* a coefficient of **0** performs no work and counts nothing -- no
  ``mult_xors``, no ``xors`` and no ``bytes_processed``;
* a coefficient of **1** counts one ``xor`` plus the region's bytes;
* any other coefficient counts one ``mult_xor`` plus the region's bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Sequence

import numpy as np

from repro.gf.field import GField, default_field


@dataclass
class OperationCounter:
    """Counts the basic region operations performed by an encoder/decoder.

    ``mult_xors`` is the paper's cost unit; ``xors`` counts the cheaper
    pure-XOR accumulations (multiplication by the constant 1), which the
    paper folds into the same unit -- we keep them separate so tests can
    still reproduce the aggregate number exactly via :meth:`total`.

    ``bytes_processed`` accumulates the source-region bytes touched by
    every *counted* operation.  A zero coefficient is an early return:
    it touches no bytes and therefore adds nothing, not even to
    ``bytes_processed`` -- the bulk kernels implement the identical
    rule, which is what lets the differential harness require equal
    counters between the two paths.
    """

    mult_xors: int = 0
    xors: int = 0
    bytes_processed: int = dataclass_field(default=0)

    def total(self) -> int:
        """Total Mult_XOR-equivalent operations (paper's counting unit)."""
        return self.mult_xors + self.xors

    def reset(self) -> None:
        """Zero all counters."""
        self.mult_xors = 0
        self.xors = 0
        self.bytes_processed = 0

    def merge(self, other: "OperationCounter") -> None:
        """Accumulate another counter into this one."""
        self.mult_xors += other.mult_xors
        self.xors += other.xors
        self.bytes_processed += other.bytes_processed

    def snapshot(self) -> tuple[int, int, int]:
        """``(mult_xors, xors, bytes_processed)`` -- handy for differential
        assertions."""
        return (self.mult_xors, self.xors, self.bytes_processed)


class RegionOps:
    """Region (sector-sized buffer) arithmetic bound to one field.

    A *symbol* throughout the project is a 1-D ``numpy`` array of the
    field's element dtype (``uint8`` for GF(2^8)).  All symbols in a
    stripe share the same length (the sector size in field elements).
    A *plane* is a 2-D ``(num_symbols, region_len)`` array stacking many
    symbols; the bulk kernels operate on planes so a whole stripe's worth
    of parity falls out of a handful of NumPy gathers.
    """

    def __init__(self, field: GField | None = None,
                 counter: OperationCounter | None = None) -> None:
        self.field = field or default_field()
        self.counter = counter or OperationCounter()

    # ------------------------------------------------------------------ #
    # Symbol construction helpers
    # ------------------------------------------------------------------ #
    def zeros(self, size: int) -> np.ndarray:
        """Return an all-zero symbol of ``size`` field elements."""
        return np.zeros(size, dtype=self.field.element_dtype)

    def from_bytes(self, data: bytes) -> np.ndarray:
        """Interpret raw bytes as a symbol.

        Multi-byte element widths use an explicit **little-endian** wire
        layout so a serialised symbol round-trips identically on any
        host, regardless of native byte order.
        """
        arr = np.frombuffer(data, dtype=np.uint8)
        if self.field.w == 8:
            return arr.copy()
        if self.field.w == 16:
            if len(data) % 2:
                raise ValueError("byte length must be even for w=16 symbols")
            return arr.view(np.dtype("<u2")).astype(np.uint16)
        raise NotImplementedError(f"from_bytes unsupported for w={self.field.w}")

    def to_bytes(self, symbol: np.ndarray) -> bytes:
        """Serialise a symbol back to raw bytes (little-endian for w=16)."""
        if self.field.w == 16:
            return np.asarray(symbol).astype(np.dtype("<u2"), copy=False).tobytes()
        return symbol.astype(self.field.element_dtype, copy=False).tobytes()

    def random(self, size: int, rng: np.random.Generator | None = None) -> np.ndarray:
        """Return a uniformly random symbol (useful for tests/benchmarks)."""
        rng = rng or np.random.default_rng()
        return rng.integers(0, self.field.order, size=size,
                            dtype=self.field.element_dtype)

    # ------------------------------------------------------------------ #
    # Plane construction
    # ------------------------------------------------------------------ #
    def as_plane(self, symbols: Sequence[np.ndarray]) -> np.ndarray:
        """Stack equal-length symbols into a ``(num_symbols, L)`` plane.

        A 2-D array passes through (cast to the element dtype, no copy
        when already contiguous in that dtype).
        """
        if isinstance(symbols, np.ndarray) and symbols.ndim == 2:
            return np.ascontiguousarray(symbols).astype(
                self.field.element_dtype, copy=False)
        if not len(symbols):
            raise ValueError("cannot build a plane from an empty symbol list")
        plane = np.stack([np.asarray(s) for s in symbols])
        return plane.astype(self.field.element_dtype, copy=False)

    # ------------------------------------------------------------------ #
    # The basic cost unit: Mult_XOR
    # ------------------------------------------------------------------ #
    def mult_xor(self, src: np.ndarray, dst: np.ndarray, constant: int) -> None:
        """``dst ^= constant * src`` over the field, in place.

        This is the paper's ``Mult_XOR(R1, R2, a)`` operation and the unit
        in which all encoding complexities are counted.  ``constant == 0``
        is an early return: nothing is computed and nothing is counted
        (see the module docstring for the full counting contract).
        """
        if constant == 0:
            return
        if constant == 1:
            dst ^= src
            self.counter.xors += 1
        else:
            dst ^= self.field.mul_vector(constant, src)
            self.counter.mult_xors += 1
        self.counter.bytes_processed += src.nbytes

    def mult(self, src: np.ndarray, constant: int) -> np.ndarray:
        """Return ``constant * src`` as a new symbol (no accumulation)."""
        return self.field.mul_vector(constant, src)

    def xor_into(self, src: np.ndarray, dst: np.ndarray) -> None:
        """``dst ^= src`` (multiplication by 1)."""
        dst ^= src
        self.counter.xors += 1
        self.counter.bytes_processed += src.nbytes

    # ------------------------------------------------------------------ #
    # Bulk stripe-planar kernels
    # ------------------------------------------------------------------ #
    def _count_coefficients(self, coeffs: np.ndarray, region_nbytes: int,
                            repeat: int = 1) -> None:
        """Apply the counting contract for one coefficient row (or matrix)."""
        nonzero = int(np.count_nonzero(coeffs))
        ones = int(np.count_nonzero(coeffs == 1))
        self.counter.xors += ones * repeat
        self.counter.mult_xors += (nonzero - ones) * repeat
        self.counter.bytes_processed += nonzero * region_nbytes * repeat

    def mult_xor_plane(self, src: np.ndarray, dst: np.ndarray,
                       constants: Sequence[int]) -> None:
        """Per-row Mult_XOR on planes: ``dst[i] ^= constants[i] * src[i]``.

        ``src`` and ``dst`` are ``(S, L)`` planes; ``constants`` holds one
        field constant per row.  Rows with a zero constant are skipped
        entirely (and not counted), matching :meth:`mult_xor`.
        """
        src = np.asarray(src)
        constants = np.asarray(constants, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 2:
            raise ValueError("src and dst must be equal-shape 2-D planes")
        if constants.shape != (src.shape[0],):
            raise ValueError("need exactly one constant per plane row")
        active = constants != 0
        if active.any():
            dst[active] ^= self.field.mul_rows(constants[active], src[active])
        self._count_coefficients(constants, src.shape[1] * src.itemsize)

    def xor_accumulate_plane(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Bulk XOR-accumulate: ``dst ^= src[0] ^ src[1] ^ ...``.

        Folds every row of an ``(S, L)`` plane into the 1-D symbol
        ``dst``; each row counts as one ``xor`` (multiplication by 1).
        """
        src = np.asarray(src)
        if src.ndim != 2:
            raise ValueError("src must be a 2-D plane")
        dst ^= np.bitwise_xor.reduce(src, axis=0)
        self.counter.xors += src.shape[0]
        self.counter.bytes_processed += src.nbytes

    def matrix_vector_plane(self, matrix: np.ndarray,
                            plane: np.ndarray) -> np.ndarray:
        """Apply a GF coefficient matrix to a symbol plane.

        ``matrix`` has shape ``(P, S)`` and ``plane`` shape ``(S, L)``;
        the result is the ``(P, L)`` plane whose row ``p`` is
        ``sum_j matrix[p, j] * plane[j]``.  Each output row costs one
        :meth:`~repro.gf.field.GField.mul_rows` gather over the non-zero
        coefficients plus one ``np.bitwise_xor.reduce`` -- the kernel the
        whole coding layer routes through.
        """
        matrix = np.asarray(matrix, dtype=np.int64)
        plane = np.asarray(plane)
        if matrix.ndim != 2 or plane.ndim != 2 or matrix.shape[1] != plane.shape[0]:
            raise ValueError(
                f"matrix shape {matrix.shape} incompatible with plane shape "
                f"{plane.shape}")
        num_out, length = matrix.shape[0], plane.shape[1]
        out = np.zeros((num_out, length), dtype=self.field.element_dtype)
        for p in range(num_out):
            row = matrix[p]
            nz = np.nonzero(row)[0]
            if nz.size == 0:
                continue
            products = self.field.mul_rows(row[nz], plane[nz])
            out[p] = np.bitwise_xor.reduce(products, axis=0)
        self._count_coefficients(matrix, length * plane.itemsize)
        return out

    def matrix_vector_planes(self, matrix: np.ndarray,
                             planes: np.ndarray) -> np.ndarray:
        """Apply one coefficient matrix to a batch of symbol planes.

        ``planes`` has shape ``(B, S, L)`` -- B independent codewords
        sharing the same erasure pattern -- and ``matrix`` shape
        ``(P, S)``.  Returns the ``(B, P, L)`` batch of outputs computed
        with one gather per non-zero matrix column (vectorised across the
        whole batch), counting exactly ``B`` times the single-plane cost.
        """
        matrix = np.asarray(matrix, dtype=np.int64)
        planes = np.asarray(planes)
        if planes.ndim != 3 or matrix.ndim != 2 or matrix.shape[1] != planes.shape[1]:
            raise ValueError(
                f"matrix shape {matrix.shape} incompatible with planes shape "
                f"{planes.shape}")
        batch, _, length = planes.shape
        num_out = matrix.shape[0]
        out = np.zeros((batch, num_out, length), dtype=self.field.element_dtype)
        for k in range(matrix.shape[1]):
            col = matrix[:, k]
            if not col.any():
                continue
            # (P, B, L) gather of coefficient column k against symbol k of
            # every codeword in the batch, accumulated batch-major.
            products = self.field.mul_gather(col, planes[:, k, :])
            out ^= products.transpose(1, 0, 2)
        self._count_coefficients(matrix, length * planes.itemsize, repeat=batch)
        return out

    # ------------------------------------------------------------------ #
    # Linear combinations (the API the coding layers are written against)
    # ------------------------------------------------------------------ #
    def linear_combination(self, coeffs: Sequence[int],
                           symbols: Sequence[np.ndarray],
                           size: int | None = None) -> np.ndarray:
        """Return ``sum_i coeffs[i] * symbols[i]`` as a fresh symbol.

        Each non-zero coefficient contributes one Mult_XOR (or XOR when
        the coefficient is 1), matching how the paper counts the cost of
        generating one parity symbol from ``k`` inputs as ``k`` Mult_XORs.
        """
        if len(coeffs) != len(symbols):
            raise ValueError("coeffs and symbols must have equal length")
        if size is None:
            if not len(symbols):
                raise ValueError("cannot infer symbol size from empty input")
            size = len(symbols[0])
        coeff_arr = np.asarray(list(coeffs), dtype=np.int64)
        if not len(symbols) or not coeff_arr.any():
            return self.zeros(size)
        plane = self.as_plane(symbols)
        return self.matrix_vector_plane(coeff_arr.reshape(1, -1), plane)[0]

    def matrix_vector(self, matrix: np.ndarray,
                      symbols: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Apply a GF matrix to a vector of symbols.

        Row ``i`` of ``matrix`` produces output symbol ``i`` as the linear
        combination of the input symbols with that row's coefficients.
        """
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[1] != len(symbols):
            raise ValueError(
                f"matrix shape {matrix.shape} incompatible with {len(symbols)} symbols"
            )
        if not len(symbols):
            return [self.zeros(0) for _ in range(matrix.shape[0])]
        plane = self.as_plane(symbols)
        out = self.matrix_vector_plane(matrix, plane)
        return list(out)

    def matrix_vector_batch(self, matrix: np.ndarray,
                            symbol_lists: Sequence[Sequence[np.ndarray]],
                            ) -> list[list[np.ndarray]]:
        """Apply one GF matrix to many symbol vectors at once.

        Every inner sequence must have the same number of equal-length
        symbols; the result is one list of output symbols per input
        vector, identical (bits and counts) to calling
        :meth:`matrix_vector` once per vector.  A batch of one takes
        :meth:`matrix_vector` directly, which skips stacking the batch.
        """
        if len(symbol_lists) == 1:
            return [self.matrix_vector(matrix, symbol_lists[0])]
        matrix = np.asarray(matrix)
        if not len(symbol_lists):
            return []
        planes = np.stack([self.as_plane(symbols) for symbols in symbol_lists])
        out = self.matrix_vector_planes(matrix, planes)
        return [list(batch) for batch in out]


class ReferenceRegionOps(RegionOps):
    """The retained scalar reference path: element-at-a-time field ops.

    Every multiplication goes through :meth:`GField.mul` on Python ints,
    one region element at a time.  Orders of magnitude slower than the
    bulk kernels but obviously correct -- the differential fuzz harness
    uses it as the ground truth the stripe-planar kernels must match
    bit-for-bit, counter-for-counter.
    """

    def mult_xor(self, src: np.ndarray, dst: np.ndarray, constant: int) -> None:
        if constant == 0:
            return
        if constant == 1:
            for idx in range(len(src)):
                dst[idx] ^= src[idx]
            self.counter.xors += 1
        else:
            mul = self.field.mul
            for idx in range(len(src)):
                dst[idx] ^= mul(constant, int(src[idx]))
            self.counter.mult_xors += 1
        self.counter.bytes_processed += src.nbytes

    def mult(self, src: np.ndarray, constant: int) -> np.ndarray:
        mul = self.field.mul
        return np.array([mul(constant, int(v)) for v in np.asarray(src)],
                        dtype=np.asarray(src).dtype)

    def xor_into(self, src: np.ndarray, dst: np.ndarray) -> None:
        for idx in range(len(src)):
            dst[idx] ^= src[idx]
        self.counter.xors += 1
        self.counter.bytes_processed += src.nbytes

    def linear_combination(self, coeffs: Sequence[int],
                           symbols: Sequence[np.ndarray],
                           size: int | None = None) -> np.ndarray:
        if len(coeffs) != len(symbols):
            raise ValueError("coeffs and symbols must have equal length")
        if size is None:
            if not len(symbols):
                raise ValueError("cannot infer symbol size from empty input")
            size = len(symbols[0])
        out = self.zeros(size)
        for c, sym in zip(coeffs, symbols):
            self.mult_xor(np.asarray(sym), out, int(c))
        return out

    def matrix_vector(self, matrix: np.ndarray,
                      symbols: Sequence[np.ndarray]) -> list[np.ndarray]:
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[1] != len(symbols):
            raise ValueError(
                f"matrix shape {matrix.shape} incompatible with {len(symbols)} symbols"
            )
        size = len(symbols[0]) if len(symbols) else 0
        return [self.linear_combination(row, symbols, size=size)
                for row in matrix]

    def matrix_vector_batch(self, matrix: np.ndarray,
                            symbol_lists: Sequence[Sequence[np.ndarray]],
                            ) -> list[list[np.ndarray]]:
        return [self.matrix_vector(matrix, symbols)
                for symbols in symbol_lists]
