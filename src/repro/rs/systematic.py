"""Systematic MDS code base class.

A systematic (η, κ) MDS code is defined here by a κ x η generator matrix
whose first κ columns form the identity.  Encoding multiplies the data
row-vector by the generator; decoding recovers erased symbols from any κ
surviving ones by inverting the corresponding κ x κ sub-matrix.

Two views are provided:

* the *region* view (``encode``, ``recover``), operating on NumPy symbol
  buffers through :class:`~repro.gf.regions.RegionOps` so that the cost in
  Mult_XORs can be counted; and
* the *coefficient* view (``parity_matrix``, ``decode_matrix``), operating
  on scalar coefficients, used by the STAIR schedulers and by the symbolic
  generator-matrix derivation.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.gf.field import GField, default_field
from repro.gf.matrix import GFMatrix, SingularMatrixError
from repro.gf.regions import RegionOps


class UnrecoverableErasureError(ValueError):
    """Raised when fewer than κ symbols of a codeword are available."""


class SystematicMDSCode:
    """A systematic (η, κ) MDS erasure code defined by its generator matrix.

    Parameters
    ----------
    length:
        Codeword length η (number of symbols).
    dimension:
        Number of data symbols κ.
    generator:
        κ x η generator matrix whose left κ x κ block is the identity.
    field:
        The Galois field the code is defined over.
    """

    def __init__(self, length: int, dimension: int, generator: GFMatrix,
                 field: GField | None = None) -> None:
        if dimension <= 0 or length <= dimension:
            raise ValueError(
                f"invalid code parameters: length={length}, dimension={dimension}"
            )
        self.field = field or default_field()
        if generator.shape != (dimension, length):
            raise ValueError(
                f"generator shape {generator.shape} != ({dimension}, {length})"
            )
        identity = GFMatrix.identity(dimension, self.field)
        if not np.array_equal(generator.data[:, :dimension], identity.data):
            raise ValueError("generator matrix is not in systematic form")
        self.length = length
        self.dimension = dimension
        self.generator = generator
        self._decode_cache: dict[tuple[tuple[int, ...], tuple[int, ...]], np.ndarray] = {}

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_parities(self) -> int:
        """Number of parity symbols η - κ."""
        return self.length - self.dimension

    def parity_matrix(self) -> GFMatrix:
        """Return the κ x (η - κ) parity-coefficient block of the generator."""
        return GFMatrix(self.generator.data[:, self.dimension:], self.field)

    def coefficient_for(self, data_index: int, position: int) -> int:
        """Generator coefficient linking data symbol ``data_index`` to codeword
        ``position``."""
        return int(self.generator.data[data_index, position])

    # ------------------------------------------------------------------ #
    # Region view
    # ------------------------------------------------------------------ #
    def encode(self, data: Sequence[np.ndarray],
               ops: RegionOps | None = None) -> list[np.ndarray]:
        """Encode κ data symbols, returning the η - κ parity symbols.

        All parities are produced by one bulk matrix-times-plane kernel
        (the data symbols are stacked into a plane once, each parity row
        is a single table gather plus an XOR reduction).
        """
        self._check_data(data)
        ops = ops or RegionOps(self.field)
        parity = self.parity_matrix()
        return ops.matrix_vector(parity.data.T, data)

    def encode_codeword(self, data: Sequence[np.ndarray],
                        ops: RegionOps | None = None) -> list[np.ndarray]:
        """Encode κ data symbols, returning the full codeword of η symbols."""
        parities = self.encode(data, ops)
        return [np.copy(d) for d in data] + parities

    def recover(self, codeword: Sequence[Optional[np.ndarray]],
                ops: RegionOps | None = None,
                wanted: Sequence[int] | None = None) -> dict[int, np.ndarray]:
        """Recover erased symbols of one codeword.

        ``codeword`` is a length-η sequence with ``None`` at the missing
        symbols; ``wanted`` optionally restricts recovery to a subset of
        positions (default: every missing one), which is what lets the
        STAIR schedulers recover only the virtual symbols they need.
        Returns a dict mapping recovered position -> symbol; see
        :meth:`recover_many`, which does the work.
        """
        return self.recover_many([codeword], ops, [wanted])[0]

    def recover_many(self, codewords: Sequence[Sequence[Optional[np.ndarray]]],
                     ops: RegionOps | None = None,
                     wanted: Sequence[Sequence[int] | None] | None = None,
                     ) -> list[dict[int, np.ndarray]]:
        """Recover erased symbols of many codewords, one dict per codeword.

        ``wanted[k]``, when given and not ``None``, restricts codeword
        ``k`` to those positions; known positions in it are ignored.
        Codewords are grouped by (erasure pattern, targets): each group
        computes its decode matrix once and applies it with one
        ``matrix_vector_batch`` call, so the rows of a stripe lost on
        the same devices repair in a single bulk-kernel call.  Bit-
        and counter-identical to recovering the codewords one by one.

        Raises
        ------
        ValueError
            If a codeword does not have η symbols.
        UnrecoverableErasureError
            If a codeword with something to recover has fewer than κ
            known symbols.
        """
        ops = ops or RegionOps(self.field)
        # (missing, targets) -> (basis, member indices, their basis symbols)
        groups: dict[tuple[tuple[int, ...], tuple[int, ...]],
                     tuple[list[int], list[int], list[list[np.ndarray]]]] = {}
        results: list[dict[int, np.ndarray]] = []
        for index, codeword in enumerate(codewords):
            if len(codeword) != self.length:
                raise ValueError(
                    f"codeword length {len(codeword)} != {self.length}"
                )
            results.append({})
            missing = tuple([i for i, sym in enumerate(codeword) if sym is None])
            targets = None if wanted is None else wanted[index]
            targets = missing if targets is None else tuple(
                [t for t in targets if codeword[t] is None])
            if not targets:
                continue
            group = groups.get((missing, targets))
            if group is None:
                known = [i for i, sym in enumerate(codeword) if sym is not None]
                if len(known) < self.dimension:
                    raise UnrecoverableErasureError(
                        f"only {len(known)} of {self.dimension} required "
                        "symbols available"
                    )
                group = groups[missing, targets] = (known[: self.dimension], [], [])
            basis, members, symbols = group
            members.append(index)
            symbols.append([codeword[i] for i in basis])
        for (_, targets), (basis, members, symbols) in groups.items():
            outputs = ops.matrix_vector_batch(
                self.decode_matrix(basis, targets), symbols)
            for k, recovered in zip(members, outputs):
                results[k] = dict(zip(targets, recovered))
        return results

    def recover_all(self, codeword: Sequence[Optional[np.ndarray]],
                    ops: RegionOps | None = None) -> list[np.ndarray]:
        """Return the full codeword with every erasure filled in."""
        recovered = self.recover(codeword, ops)
        full: list[np.ndarray] = []
        for i, sym in enumerate(codeword):
            full.append(np.copy(sym) if sym is not None else recovered[i])
        return full

    # ------------------------------------------------------------------ #
    # Coefficient view
    # ------------------------------------------------------------------ #
    def decode_matrix(self, known_positions: Sequence[int],
                      unknown_positions: Sequence[int]) -> np.ndarray:
        """Coefficients expressing unknown symbols from κ known symbols.

        ``known_positions`` must contain exactly κ distinct positions.  The
        returned array has shape ``(len(unknown_positions), κ)``: row ``i``
        gives the coefficients of the known symbols whose linear
        combination equals the symbol at ``unknown_positions[i]``.

        Results are cached per (known, unknown) tuple because the STAIR
        schedulers repeat the same recovery pattern for every row/column
        of a stripe.
        """
        known = tuple(int(p) for p in known_positions)
        unknown = tuple(int(p) for p in unknown_positions)
        if len(known) != self.dimension:
            raise ValueError(
                f"need exactly {self.dimension} known positions, got {len(known)}"
            )
        if len(set(known)) != len(known):
            raise ValueError("known positions must be distinct")
        key = (known, unknown)
        cached = self._decode_cache.get(key)
        if cached is not None:
            return cached

        sub_known = self.generator.submatrix(range(self.dimension), known)
        try:
            inv = sub_known.inverse()
        except SingularMatrixError as exc:  # pragma: no cover - MDS guarantees
            raise UnrecoverableErasureError(
                "known-position sub-matrix is singular; code is not MDS"
            ) from exc
        sub_unknown = self.generator.submatrix(range(self.dimension), unknown)
        # unknown = data @ G_U and data = known @ G_K^{-1}
        # => unknown = known @ (G_K^{-1} @ G_U)
        mapping = inv.matmul(sub_unknown)          # κ x |unknown|
        coeffs = mapping.data.T.copy()             # |unknown| x κ
        self._decode_cache[key] = coeffs
        return coeffs

    def scalar_encode(self, data: Sequence[int]) -> list[int]:
        """Encode a vector of scalar field elements (coefficient view)."""
        if len(data) != self.dimension:
            raise ValueError("data length mismatch")
        f = self.field
        out = []
        for j in range(self.length):
            acc = 0
            for i, d in enumerate(data):
                if d:
                    c = int(self.generator.data[i, j])
                    if c:
                        acc ^= f.mul(d, c)
            out.append(acc)
        return out

    # ------------------------------------------------------------------ #
    def _check_data(self, data: Sequence[np.ndarray]) -> None:
        if len(data) != self.dimension:
            raise ValueError(
                f"expected {self.dimension} data symbols, got {len(data)}"
            )
        sizes = {len(d) for d in data}
        if len(sizes) > 1:
            raise ValueError("all data symbols must have the same size")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{type(self).__name__}(length={self.length}, "
                f"dimension={self.dimension}, GF(2^{self.field.w}))")
