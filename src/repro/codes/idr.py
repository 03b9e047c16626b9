"""Intra-device redundancy (IDR) scheme [Dholakia et al., TOS '08].

Each data chunk reserves its bottom ``epsilon`` sectors for an
intra-chunk (r, r - epsilon) MDS code, protecting against up to
``epsilon`` sector failures *per chunk*; ``m`` whole devices additionally
hold row parities protecting against device failures.  The paper shows
(§2) that this is equivalent to a STAIR code with
``e = (epsilon, ..., epsilon)`` and ``m' = n - m``, and is therefore less
space-efficient than a general STAIR configuration.

Decoding is the generic syndrome solve of :meth:`StripeCode.solve`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.codes.base import Grid, StripeCode
from repro.core.exceptions import EncodingInputError
from repro.gf.field import GField, get_field
from repro.gf.regions import OperationCounter, RegionOps
from repro.rs.cauchy import CauchyRSCode


class IDRScheme(StripeCode):
    """Intra-device redundancy plus device-level RS parity."""

    name = "IDR"

    def __init__(self, n: int, r: int, m: int, epsilon: int,
                 field: GField | None = None) -> None:
        if not (0 < m < n):
            raise EncodingInputError(f"require 0 < m < n, got m={m}, n={n}")
        if not (0 < epsilon < r):
            raise EncodingInputError(
                f"require 0 < epsilon < r, got epsilon={epsilon}, r={r}"
            )
        self._n, self._r, self.m, self.epsilon = n, r, m, epsilon
        self.field = field or get_field(8 if max(n, r) <= 256 else 16)
        self.row_code = CauchyRSCode(n, n - m, self.field)
        self.chunk_code = CauchyRSCode(r, r - epsilon, self.field)
        self.counter = OperationCounter()
        #: Region-operation backend; swap in ReferenceRegionOps to drive
        #: the scalar reference path (differential tests do this).
        self.ops_class: type[RegionOps] = RegionOps

    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        return self._n

    @property
    def r(self) -> int:
        return self._r

    @property
    def num_data_symbols(self) -> int:
        return (self._r - self.epsilon) * (self._n - self.m)

    def data_positions(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self._r - self.epsilon)
                for j in range(self._n - self.m)]

    # ------------------------------------------------------------------ #
    def encode(self, data: Sequence[np.ndarray]) -> Grid:
        if len(data) != self.num_data_symbols:
            raise EncodingInputError(
                f"expected {self.num_data_symbols} data symbols, got {len(data)}"
            )
        ops = self.ops_class(self.field, self.counter)
        k_cols = self._n - self.m
        k_rows = self._r - self.epsilon
        grid: Grid = [[None] * self._n for _ in range(self._r)]
        for i in range(k_rows):
            for j in range(k_cols):
                grid[i][j] = np.asarray(data[i * k_cols + j])
        # Intra-chunk parities for every data chunk.
        for j in range(k_cols):
            column = [grid[i][j] for i in range(k_rows)]
            parities = self.chunk_code.encode(column, ops)
            for h, symbol in enumerate(parities):
                grid[k_rows + h][j] = symbol
        # Device-level row parities over all r rows (they protect the IDR
        # parities as well).
        for i in range(self._r):
            row_data = [grid[i][j] for j in range(k_cols)]
            parities = self.row_code.encode(row_data, ops)
            for k, symbol in enumerate(parities):
                grid[i][k_cols + k] = symbol
        return grid

    def redundant_sectors(self) -> int:
        """Redundant sectors per stripe (the §2 space comparison vs STAIR)."""
        return self.epsilon * (self._n - self.m) + self.m * self._r
