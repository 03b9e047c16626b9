"""Sector-disk (SD) codes [Plank & Blaum, FAST '13 / TOS '14].

SD codes devote ``m`` entire devices plus ``s`` individual sectors of a
stripe to parity and tolerate the failure of any ``m`` devices plus any
``s`` sectors.  They are the paper's main point of comparison: more
space-efficient than device-level RS, but only known to exist for
``s <= 3`` and encoded (in the authors' released implementation) "in a
decoding manner without any parity reuse" -- which is why STAIR codes
out-run them.

This module reproduces that baseline:

* the stripe layout (``m`` parity devices; ``s`` parity sectors in the
  last row of the right-most data devices);
* a parity-check construction with per-row MDS equations plus ``s``
  Vandermonde-style global equations.  The published SD constructions
  rely on exhaustive coefficient searches; we provide
  :func:`SDCode.construct`, which searches a small family of coefficient
  bases and *verifies* the SD property exhaustively for small
  configurations.  For large benchmark configurations the default
  coefficients are used unverified -- exactly the situation of the
  original codes beyond their published parameter range -- because the
  performance comparison only exercises the encoding/decoding algorithm;
* a no-reuse encoder (every parity symbol is a dense combination of data
  symbols obtained by solving the parity-check system once); decoding is
  the generic syndrome solve of :meth:`StripeCode.solve` over this
  parity-check matrix.

The word size is chosen as the smallest of {8, 16} for which the stripe's
``r*n`` symbols have distinct Vandermonde coefficients, mirroring the
paper's observation that SD codes sometimes need ``w > 8`` while STAIR
codes always fit in GF(2^8).
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

import numpy as np

from repro.codes.base import Grid, StripeCode
from repro.core.exceptions import EncodingInputError
from repro.gf.field import GField, get_field
from repro.gf.matrix import GFMatrix, SingularMatrixError
from repro.gf.regions import OperationCounter, RegionOps
from repro.rs.cauchy import CauchyRSCode


class SDConstructionError(ValueError):
    """Raised when no verified SD construction is found by the search."""


class SDCode(StripeCode):
    """A sector-disk code with ``m`` parity devices and ``s`` parity sectors."""

    name = "SD"

    def __init__(self, n: int, r: int, m: int, s: int,
                 field: GField | None = None, global_base: int = 2,
                 global_rows: np.ndarray | None = None) -> None:
        if not (0 <= m < n):
            raise EncodingInputError(f"require 0 <= m < n, got m={m}, n={n}")
        if r < 1 or s < 0:
            raise EncodingInputError("require r >= 1 and s >= 0")
        if s > n - m:
            raise EncodingInputError(
                f"s={s} parity sectors cannot exceed the n-m={n - m} data devices "
                "in the last row"
            )
        self._n, self._r, self.m, self.s = n, r, m, s
        if field is None:
            # Need r*n distinct non-zero powers of the primitive element for
            # the global equations, hence the order must exceed r*n.
            field = get_field(8) if r * n < 256 else get_field(16)
        self.field = field
        self.global_base = global_base
        if global_rows is not None:
            global_rows = np.asarray(global_rows, dtype=np.int64)
            if global_rows.shape != (s, r * n):
                raise EncodingInputError(
                    f"global_rows must have shape ({s}, {r * n})"
                )
        self.global_rows = global_rows
        self.row_code = CauchyRSCode(n, n - m, self.field) if m else None
        self.counter = OperationCounter()
        #: Region-operation backend; swap in ReferenceRegionOps to drive
        #: the scalar reference path (differential tests do this).
        self.ops_class: type[RegionOps] = RegionOps

        self._parity_positions = self._build_parity_positions()
        self._parity_lookup = {pos: k for k, pos in enumerate(self._parity_positions)}
        self._data_positions = [
            (i, j) for i in range(r) for j in range(n)
            if (i, j) not in self._parity_lookup
        ]
        self._data_lookup = {pos: k for k, pos in enumerate(self._data_positions)}
        self._check_matrix = self._build_check_matrix()
        self._encoding_matrix: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # Layout
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        return self._n

    @property
    def r(self) -> int:
        return self._r

    @property
    def num_data_symbols(self) -> int:
        return self._r * self._n - len(self._parity_positions)

    def data_positions(self) -> list[tuple[int, int]]:
        return list(self._data_positions)

    def parity_positions(self) -> list[tuple[int, int]]:
        """Stripe coordinates of all parity symbols (row parities then globals)."""
        return list(self._parity_positions)

    def _build_parity_positions(self) -> list[tuple[int, int]]:
        positions = [(i, j) for i in range(self._r)
                     for j in range(self._n - self.m, self._n)]
        # Global parity sectors: the last row of the right-most data devices.
        for q in range(self.s):
            positions.append((self._r - 1, self._n - self.m - self.s + q))
        return positions

    # ------------------------------------------------------------------ #
    # Parity-check matrix
    # ------------------------------------------------------------------ #
    def _symbol_index(self, row: int, col: int) -> int:
        return row * self._n + col

    def check_matrix(self) -> np.ndarray:
        return self._check_matrix

    def _build_check_matrix(self) -> np.ndarray:
        """(m*r + s) x (r*n) parity-check matrix over the field."""
        f = self.field
        equations = self.m * self._r + self.s
        h = np.zeros((equations, self._r * self._n), dtype=np.int64)

        # Per-row MDS equations: parity k of row i equals the Cauchy
        # combination of that row's data symbols.
        if self.m:
            parity_block = self.row_code.parity_matrix().data  # (n-m) x m
            for i in range(self._r):
                for k in range(self.m):
                    eq = i * self.m + k
                    for j in range(self._n - self.m):
                        h[eq, self._symbol_index(i, j)] = parity_block[j, k]
                    h[eq, self._symbol_index(i, self._n - self.m + k)] = 1

        # Global equations: explicit coefficient rows if supplied, otherwise
        # Vandermonde rows over the chosen base.
        for q in range(self.s):
            eq = self.m * self._r + q
            if self.global_rows is not None:
                h[eq, :] = self.global_rows[q]
                continue
            for i in range(self._r):
                for j in range(self._n):
                    idx = self._symbol_index(i, j)
                    h[eq, idx] = f.pow(self.global_base, (q + 1) * idx)
        return h

    # ------------------------------------------------------------------ #
    # Encoding (no parity reuse: dense solve of the check system)
    # ------------------------------------------------------------------ #
    def encoding_matrix(self) -> np.ndarray:
        """(num_parities x num_data) dense matrix mapping data to parities.

        Obtained by solving the parity-check system with the parity
        positions treated as erasures; cached after the first call.
        """
        if self._encoding_matrix is not None:
            return self._encoding_matrix
        parity_idx = [self._symbol_index(*pos) for pos in self._parity_positions]
        data_idx = [self._symbol_index(*pos) for pos in self._data_positions]
        h_parity = GFMatrix(self._check_matrix[:, parity_idx], self.field)
        h_data = GFMatrix(self._check_matrix[:, data_idx], self.field)
        try:
            inv = h_parity.inverse()
        except SingularMatrixError as exc:
            raise SDConstructionError(
                "parity-position sub-matrix is singular; the SD coefficients "
                "do not form a valid code for this configuration"
            ) from exc
        self._encoding_matrix = inv.matmul(h_data).data
        return self._encoding_matrix

    def encode(self, data: Sequence[np.ndarray]) -> Grid:
        if len(data) != self.num_data_symbols:
            raise EncodingInputError(
                f"expected {self.num_data_symbols} data symbols, got {len(data)}"
            )
        ops = self.ops_class(self.field, self.counter)
        matrix = self.encoding_matrix()
        grid: Grid = [[None] * self._n for _ in range(self._r)]
        data_list = [np.asarray(d) for d in data]
        for pos, symbol in zip(self._data_positions, data_list):
            grid[pos[0]][pos[1]] = symbol
        # All parities (row parities and global sectors) in one bulk
        # matrix-times-plane kernel over the stacked data symbols.
        parities = ops.matrix_vector(matrix, data_list)
        for (row, col), symbol in zip(self._parity_positions, parities):
            grid[row][col] = symbol
        return grid

    # ------------------------------------------------------------------ #
    # SD-property verification and construction search
    # ------------------------------------------------------------------ #
    def verify_sd_property(self, max_patterns: int | None = 4000,
                           rng: np.random.Generator | None = None) -> bool:
        """Check that every m-device + s-sector failure pattern is decodable.

        Exhaustive for small stripes; falls back to ``max_patterns`` random
        patterns when the space is larger.
        """
        device_patterns = list(combinations(range(self._n), self.m))
        rng = rng or np.random.default_rng(7)
        for devices in device_patterns:
            device_cells = [(i, j) for j in devices for i in range(self._r)]
            surviving = [(i, j) for i in range(self._r) for j in range(self._n)
                         if j not in devices]
            sector_patterns = list(combinations(surviving, self.s))
            if max_patterns is not None and len(sector_patterns) > max_patterns:
                chosen = rng.choice(len(sector_patterns),
                                    size=max_patterns, replace=False)
                sector_patterns = [sector_patterns[int(c)] for c in chosen]
            for sectors in sector_patterns:
                if not self.tolerates(device_cells + list(sectors)):
                    return False
        return True

    @classmethod
    def construct(cls, n: int, r: int, m: int, s: int,
                  field: GField | None = None,
                  bases: Sequence[int] = (2, 3, 4, 5, 6, 7, 9, 11, 13, 19),
                  random_trials: int = 40, seed: int = 2014,
                  max_patterns: int | None = 2000) -> "SDCode":
        """Search for a verified SD construction.

        Mirrors the exhaustive-search flavour of the published SD
        constructions: Vandermonde-style global equations over a family of
        bases are tried first, then ``random_trials`` random global
        coefficient rows, until one candidate passes
        :meth:`verify_sd_property`.  Only intended for small
        configurations; the verification cost grows combinatorially.
        """
        candidates: list[SDCode] = []

        def try_candidate(**kwargs) -> SDCode | None:
            try:
                code = cls(n, r, m, s, field=field, **kwargs)
                code.encoding_matrix()
            except (SDConstructionError, SingularMatrixError, ValueError):
                return None
            candidates.append(code)
            if code.verify_sd_property(max_patterns=max_patterns):
                return code
            return None

        for base in bases:
            found = try_candidate(global_base=base)
            if found is not None:
                return found

        rng = np.random.default_rng(seed)
        if field is None:
            field_for_order = get_field(8) if r * n < 256 else get_field(16)
        else:
            field_for_order = field
        order = field_for_order.order
        for _ in range(random_trials):
            rows = rng.integers(1, order, size=(s, r * n), dtype=np.int64)
            found = try_candidate(global_rows=rows)
            if found is not None:
                return found

        if not candidates:
            raise SDConstructionError(
                f"no SD construction found for n={n}, r={r}, m={m}, s={s}"
            )
        raise SDConstructionError(
            f"no *verified* SD construction found for n={n}, r={r}, m={m}, s={s}; "
            "the unverified default may still be used for performance studies"
        )

    # ------------------------------------------------------------------ #
    # Analysis helpers
    # ------------------------------------------------------------------ #
    def update_penalty(self) -> float:
        """Average parity symbols touched per data-symbol update."""
        matrix = self.encoding_matrix()
        k = self.num_data_symbols
        return int(np.count_nonzero(matrix)) / k if k else 0.0

    def mult_xor_count(self) -> int:
        """Mult_XORs per encoded stripe (no parity reuse)."""
        return int(np.count_nonzero(self.encoding_matrix()))
