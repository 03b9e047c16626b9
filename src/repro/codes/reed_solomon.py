"""Device-level Reed-Solomon stripe code (the traditional baseline).

Each of the r rows of the stripe is an independent codeword of a
systematic (n, n-m) MDS code: m entire devices are devoted to parity and
the code tolerates any m device failures.  Sector failures are only
covered as long as no row loses more than m symbols -- which is exactly
why the paper argues device-level redundancy is a wasteful way to handle
them (§1, §6.1, §7).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.codes.base import Grid, StripeCode
from repro.core.exceptions import DecodingFailureError, EncodingInputError
from repro.gf.field import GField, get_field
from repro.gf.regions import OperationCounter, RegionOps
from repro.rs.cauchy import CauchyRSCode


class ReedSolomonStripeCode(StripeCode):
    """Traditional erasure coding: m parity devices, row-by-row RS."""

    name = "RS"

    def __init__(self, n: int, r: int, m: int,
                 field: GField | None = None) -> None:
        if not (0 < m < n):
            raise EncodingInputError(f"require 0 < m < n, got m={m}, n={n}")
        if r < 1:
            raise EncodingInputError(f"require r >= 1, got r={r}")
        self._n, self._r, self.m = n, r, m
        self.field = field or get_field(8 if n <= 256 else 16)
        self.code = CauchyRSCode(n, n - m, self.field)
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
        return self._r * (self._n - self.m)

    def data_positions(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self._r) for j in range(self._n - self.m)]

    # ------------------------------------------------------------------ #
    def encode(self, data: Sequence[np.ndarray]) -> Grid:
        if len(data) != self.num_data_symbols:
            raise EncodingInputError(
                f"expected {self.num_data_symbols} data symbols, got {len(data)}"
            )
        ops = self.ops_class(self.field, self.counter)
        k = self._n - self.m
        grid: Grid = []
        for i in range(self._r):
            row_data = [np.asarray(data[i * k + j]) for j in range(k)]
            parities = self.code.encode(row_data, ops)
            grid.append([np.copy(sym) for sym in row_data] + parities)
        return grid

    def decode(self, stripe: Grid) -> Grid:
        rows = [list(row) for row in stripe]
        for i, row in enumerate(rows):
            missing = [j for j in range(self._n) if row[j] is None]
            if len(missing) > self.m:
                raise DecodingFailureError(
                    f"row {i} has {len(missing)} lost symbols; "
                    f"RS with m={self.m} parity devices cannot recover it",
                    unrecovered=[(i, j) for j in missing],
                )
        ops = self.ops_class(self.field, self.counter)
        for row, recovered in zip(rows, self.code.recover_many(rows, ops)):
            for j, symbol in recovered.items():
                row[j] = symbol
        return [[np.asarray(cell) for cell in row] for row in rows]

    def update_penalty(self) -> float:
        """Every data symbol contributes to exactly m row parity symbols."""
        return float(self.m)
