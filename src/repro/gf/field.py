"""Scalar Galois-field arithmetic for GF(2^w).

:class:`GField` wraps the lookup tables in :mod:`repro.gf.tables` and
exposes the element-level operations every other layer is written
against.  Elements are plain Python ints in ``[0, 2**w)``; the field
object itself is immutable and cached per word size.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

import numpy as np

from repro.gf.tables import SUPPORTED_WORD_SIZES, get_tables

#: Elements per gather call from which :meth:`GField.mul_rows` and
#: :meth:`GField.mul_gather` switch from one 2-D fancy index into the full
#: multiplication table to one 1-D ``np.take`` per coefficient.  The fancy
#: index costs one call but more per element; ``np.take`` costs a Python
#: iteration per coefficient but gathers ~4x faster per element.  At 512
#: elements the two break even; at 1024 ``np.take`` wins by 1.3-1.7x.
#: ``test_gather_crossover_summary`` in
#: ``benchmarks/bench_coding_throughput.py`` prints the sweep.
TAKE_GATHER_MIN_ELEMENTS = 1024


class GField:
    """The finite field GF(2^w) for w in {4, 8, 16}.

    Addition and subtraction are XOR.  Multiplication and division use
    log/antilog tables; for ``w <= 8`` a full multiplication table is also
    available and is what the vectorised region operations index into.

    Parameters
    ----------
    w:
        Word size in bits.
    """

    def __init__(self, w: int = 8) -> None:
        tables = get_tables(w)
        self.w = w
        self.order = tables.order
        self.prim_poly = tables.prim_poly
        self._exp = tables.exp
        self._log = tables.log
        self._inv = tables.inv
        self._mul_table = tables.mul_table
        self._div_table = tables.div_table

    # ------------------------------------------------------------------ #
    # Basic element arithmetic
    # ------------------------------------------------------------------ #
    def add(self, a: int, b: int) -> int:
        """Field addition (XOR)."""
        return a ^ b

    def sub(self, a: int, b: int) -> int:
        """Field subtraction (identical to addition in characteristic 2)."""
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        """Field multiplication."""
        if a == 0 or b == 0:
            return 0
        return int(self._exp[int(self._log[a]) + int(self._log[b])])

    def div(self, a: int, b: int) -> int:
        """Field division ``a / b``.  Raises ``ZeroDivisionError`` if b == 0."""
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(2^w)")
        if a == 0:
            return 0
        diff = (int(self._log[a]) - int(self._log[b])) % (self.order - 1)
        return int(self._exp[diff])

    def inv(self, a: int) -> int:
        """Multiplicative inverse.  Raises ``ZeroDivisionError`` for 0."""
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return int(self._inv[a])

    def pow(self, a: int, e: int) -> int:
        """Raise ``a`` to the (possibly negative) integer power ``e``."""
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("zero to a negative power")
            return 0
        exponent = (int(self._log[a]) * e) % (self.order - 1)
        return int(self._exp[exponent])

    def exp(self, e: int) -> int:
        """Return alpha**e where alpha is the primitive element."""
        return int(self._exp[e % (self.order - 1)])

    def log(self, a: int) -> int:
        """Discrete logarithm base the primitive element."""
        if a == 0:
            raise ValueError("log of zero is undefined")
        return int(self._log[a])

    # ------------------------------------------------------------------ #
    # Vector helpers (1-D NumPy arrays of field elements)
    # ------------------------------------------------------------------ #
    @property
    def element_dtype(self) -> np.dtype:
        """NumPy dtype used to store field elements of this word size."""
        return np.dtype(np.uint8) if self.w <= 8 else np.dtype(np.uint16)

    def mul_table_row(self, c: int) -> np.ndarray:
        """Return the lookup array mapping every element ``b`` to ``c * b``.

        Only available for ``w <= 8`` (where the full table exists); the
        region operations for w = 16 use the log/antilog path instead.
        """
        if self._mul_table is None:
            raise NotImplementedError(
                "full multiplication table only built for w <= 8"
            )
        return self._mul_table[c]

    def mul_vector(self, c: int, vec: np.ndarray) -> np.ndarray:
        """Multiply a vector of field elements by the constant ``c``."""
        vec = np.asarray(vec)
        if c == 0:
            return np.zeros_like(vec)
        if c == 1:
            return vec.copy()
        if self._mul_table is not None:
            return self._mul_table[c][vec]
        # Log/antilog path (w = 16).
        out = np.zeros_like(vec)
        nz = vec != 0
        logs = self._log[vec[nz]].astype(np.int64) + int(self._log[c])
        out[nz] = self._exp[logs].astype(vec.dtype)
        return out

    # ------------------------------------------------------------------ #
    # Bulk (plane) helpers: whole-array multiplies in one or two gathers
    # ------------------------------------------------------------------ #
    def mul_rows(self, constants: np.ndarray, plane: np.ndarray) -> np.ndarray:
        """Multiply row ``i`` of a 2-D ``plane`` by ``constants[i]``.

        ``constants`` has shape ``(S,)`` and ``plane`` shape ``(S, L)``;
        the result has the plane's shape and the field's element dtype.
        For ``w <= 8`` rows shorter than :data:`TAKE_GATHER_MIN_ELEMENTS`
        take a single fancy-index gather into the full multiplication
        table, and longer rows one 1-D ``np.take`` per constant.  For
        w = 16 it goes through the log/antilog tables with explicit zero
        masking.
        """
        constants = np.asarray(constants, dtype=np.int64)
        if self._mul_table is not None:
            if plane.shape[-1] < TAKE_GATHER_MIN_ELEMENTS:
                return self._mul_table[constants[:, None], plane]
            out = np.empty(plane.shape, dtype=self._mul_table.dtype)
            # mode="raise" keeps an out-of-range element an IndexError, as
            # in the fancy index; "wrap" or "clip" would return wrong
            # products silently.
            for row, src, dst in zip(self._mul_table[constants], plane, out):
                np.take(row, src, out=dst, mode="raise")
            return out
        logs = (self._log[plane].astype(np.int64)
                + self._log[constants].astype(np.int64)[:, None])
        out = self._exp[logs].astype(self.element_dtype)
        out[plane == 0] = 0
        out[constants == 0, :] = 0
        return out

    def mul_gather(self, constants: np.ndarray, data: np.ndarray) -> np.ndarray:
        """Outer product gather: ``out[i, ...] = constants[i] * data[...]``.

        ``constants`` has shape ``(T,)``; the result has shape
        ``(T, *data.shape)``.  With 1-D ``data`` this is the classical
        GF outer product used by the vectorised Gaussian elimination.
        For ``w <= 8``, ``data`` smaller than
        :data:`TAKE_GATHER_MIN_ELEMENTS` is gathered in one fancy index
        and larger ``data`` with one ``np.take`` per constant.
        """
        constants = np.asarray(constants, dtype=np.int64)
        if self._mul_table is not None:
            if data.size < TAKE_GATHER_MIN_ELEMENTS:
                # mul_table[c] is the per-constant lookup row; indexing it
                # by the data array broadcasts to (T, *data.shape) at once.
                return self._mul_table[constants][:, data]
            out = np.empty((len(constants),) + data.shape,
                           dtype=self._mul_table.dtype)
            for row, dst in zip(self._mul_table[constants], out):
                np.take(row, data, out=dst, mode="raise")
            return out
        logs = (self._log[data].astype(np.int64)[None, ...]
                + self._log[constants].astype(np.int64).reshape(
                    (-1,) + (1,) * data.ndim))
        out = self._exp[logs].astype(self.element_dtype)
        out[:, data == 0] = 0
        out[constants == 0] = 0
        return out

    def mul_elementwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Element-wise product of two broadcastable arrays of elements."""
        a, b = np.broadcast_arrays(np.asarray(a, dtype=np.int64),
                                   np.asarray(b, dtype=np.int64))
        if self._mul_table is not None:
            return self._mul_table[a, b]
        logs = self._log[a].astype(np.int64) + self._log[b].astype(np.int64)
        out = self._exp[logs].astype(self.element_dtype)
        out[(a == 0) | (b == 0)] = 0
        return out

    def dot(self, coeffs: Iterable[int], vectors: Iterable[np.ndarray]) -> np.ndarray:
        """Return ``sum_i coeffs[i] * vectors[i]`` over the field.

        All vectors must share the same shape and dtype.
        """
        result: np.ndarray | None = None
        for c, v in zip(coeffs, vectors):
            if c == 0:
                continue
            term = self.mul_vector(c, v)
            result = term if result is None else result ^ term
        if result is None:
            first = next(iter(vectors))
            return np.zeros_like(first)
        return result

    # ------------------------------------------------------------------ #
    # Misc
    # ------------------------------------------------------------------ #
    def elements(self) -> range:
        """Iterate over all field elements (0 .. order-1)."""
        return range(self.order)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GField(2^{self.w})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GField) and other.w == self.w

    def __hash__(self) -> int:
        return hash(("GField", self.w))


@lru_cache(maxsize=None)
def get_field(w: int) -> GField:
    """Return the cached :class:`GField` instance for word size ``w``."""
    if w not in SUPPORTED_WORD_SIZES:
        raise ValueError(f"unsupported word size {w}; supported: {SUPPORTED_WORD_SIZES}")
    return GField(w)


def default_field() -> GField:
    """The project-wide default field, GF(2^8).

    The STAIR paper uses w = 8 for all of its experiments because
    ``n + m' <= 256`` and ``r + e_max <= 256`` hold for every configuration
    it considers; we follow the same choice.
    """
    return get_field(8)
