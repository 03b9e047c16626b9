"""The canonical (augmented) stripe: the engine behind STAIR encoding/decoding.

Section 4.1 of the paper augments a stripe with ``m'`` intermediate parity
chunks on the right and ``e_max`` augmented rows of virtual parity symbols
at the bottom.  The resulting ``(r + e_max) x (n + m')`` grid is a codeword
of the product code of ``C_row`` and ``C_col``:

* every grid **row** is a codeword of ``C_row`` (the homomorphic property
  proved in Appendix A), and
* every grid **column** is a codeword of ``C_col``.

Both the upstairs decoder (§4.2), the upstairs encoder (§5.1.1) and the
downstairs encoder (§5.1.2) are schedules of two primitive operations on
this grid -- "recover unknown cells of a row via C_row" and "recover
unknown cells of a column via C_col".  :class:`CanonicalStripe` implements
the grid and those primitives, and records every step so the schedules of
Tables 2 and 3 can be asserted in tests.

``recover_row``, ``recover_rows`` and ``recover_col`` share one body: it
hands the lines to :meth:`~repro.rs.systematic.SystematicMDSCode.recover_many`
of the line's code, which batches lines sharing an erasure pattern, and
records one step per line that gained cells, in ascending line order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from repro.core.config import StairConfig
from repro.core.exceptions import DecodingFailureError
from repro.core.layout import StripeLayout
from repro.gf.regions import RegionOps
from repro.rs.systematic import SystematicMDSCode


@dataclass(frozen=True)
class ScheduleStep:
    """One recorded recovery step of an encoding/decoding schedule.

    ``kind`` is ``"row"`` or ``"col"``, ``index`` is the grid row/column
    operated on, and ``recovered`` lists the grid cells filled in.
    """

    kind: str
    index: int
    recovered: tuple[tuple[int, int], ...]


class CanonicalStripe:
    """Mutable canonical-stripe grid with C_row / C_col recovery primitives.

    Cells hold symbol buffers (NumPy arrays) or ``None`` when unknown.
    Coordinates are *grid* coordinates: rows ``0 .. r-1`` are the stored
    stripe rows, rows ``r .. r+e_max-1`` are augmented rows; columns
    ``0 .. n-1`` are the stored chunks, columns ``n .. n+m'-1`` are the
    intermediate parity chunks.
    """

    def __init__(self, config: StairConfig, layout: StripeLayout,
                 crow: SystematicMDSCode, ccol: SystematicMDSCode | None,
                 ops: RegionOps) -> None:
        self.config = config
        self.layout = layout
        self.crow = crow
        self.ccol = ccol
        self.ops = ops
        self.rows = layout.grid_rows
        self.cols = layout.grid_cols
        self.cells: list[list[Optional[np.ndarray]]] = [
            [None] * self.cols for _ in range(self.rows)
        ]
        self.steps: list[ScheduleStep] = []

    # ------------------------------------------------------------------ #
    # Cell access
    # ------------------------------------------------------------------ #
    def get(self, row: int, col: int) -> Optional[np.ndarray]:
        return self.cells[row][col]

    def set(self, row: int, col: int, symbol: np.ndarray) -> None:
        self.cells[row][col] = symbol

    def is_known(self, row: int, col: int) -> bool:
        return self.cells[row][col] is not None

    def known_in_row(self, row: int) -> int:
        """Number of known cells in a grid row."""
        return sum(1 for cell in self.cells[row] if cell is not None)

    def known_in_col(self, col: int) -> int:
        """Number of known cells in a grid column."""
        return sum(1 for row in range(self.rows) if self.cells[row][col] is not None)

    def unknown_cells_in_row(self, row: int,
                             col_limit: int | None = None) -> list[int]:
        """Columns of unknown cells in a grid row (optionally below a limit)."""
        limit = col_limit if col_limit is not None else self.cols
        return [c for c in range(limit) if self.cells[row][c] is None]

    def unknown_cells_in_col(self, col: int,
                             row_limit: int | None = None) -> list[int]:
        """Rows of unknown cells in a grid column (optionally below a limit)."""
        limit = row_limit if row_limit is not None else self.rows
        return [r for r in range(limit) if self.cells[r][col] is None]

    # ------------------------------------------------------------------ #
    # Initial population
    # ------------------------------------------------------------------ #
    def place_outside_globals(self,
                              values: Sequence[Sequence[np.ndarray]] | None = None,
                              symbol_size: int | None = None) -> None:
        """Fill the outside-global-parity cells of the augmented rows.

        With the extended (inside) construction of §5 these are fixed to
        zero; with the baseline construction of §3 they carry the actual
        outside global parity values, passed as ``values[l][h]``.
        """
        for grid_row, grid_col, l, h in self.layout.outside_global_cells():
            if values is not None:
                self.set(grid_row, grid_col, np.copy(values[l][h]))
            else:
                if symbol_size is None:
                    raise ValueError("symbol_size required to place zero globals")
                self.set(grid_row, grid_col, self.ops.zeros(symbol_size))

    def load_stripe(self, stripe: Sequence[Sequence[Optional[np.ndarray]]]) -> None:
        """Copy an r x n stripe (with ``None`` for unknown symbols) into the grid."""
        r, n = self.config.r, self.config.n
        for i in range(r):
            for j in range(n):
                symbol = stripe[i][j]
                if symbol is not None:
                    self.set(i, j, np.asarray(symbol))

    def extract_stripe(self) -> list[list[np.ndarray]]:
        """Return the stored r x n portion of the grid.

        Raises
        ------
        DecodingFailureError
            If any stored cell is still unknown.
        """
        r, n = self.config.r, self.config.n
        missing = [(i, j) for i in range(r) for j in range(n)
                   if self.cells[i][j] is None]
        if missing:
            raise DecodingFailureError(
                f"{len(missing)} stored symbols remain unknown", unrecovered=missing
            )
        return [[self.cells[i][j] for j in range(n)] for i in range(r)]

    # ------------------------------------------------------------------ #
    # Recovery primitives
    # ------------------------------------------------------------------ #
    def recover_row(self, row: int,
                    targets: Sequence[int] | None = None) -> list[tuple[int, int]]:
        """Recover unknown cells of grid row ``row`` using ``C_row``.

        ``targets`` restricts recovery to specific columns (default: every
        unknown cell in the row).  Requires at least ``n - m`` known cells.
        """
        return self.recover_rows({row: targets})

    def recover_rows(self, row_targets: Mapping[int, Sequence[int] | None],
                     ) -> list[tuple[int, int]]:
        """:meth:`recover_row` over many grid rows in one ``recover_many``
        call, which batches rows sharing an erasure pattern and targets.

        The rows must be independent (no row's targets feed another's
        sources), which holds for the decoder's deferred-chunk rebuild.
        """
        rows = sorted(row_targets)
        return self._recover_lines(
            "row", self.crow, rows, [self.cells[row] for row in rows],
            [row_targets[row] for row in rows], lambda row, col: (row, col))

    def recover_col(self, col: int,
                    targets: Sequence[int] | None = None) -> list[tuple[int, int]]:
        """Recover unknown cells of grid column ``col`` using ``C_col``.

        ``targets`` restricts recovery to specific rows (default: every
        unknown cell in the column).  Requires at least ``r`` known cells.
        """
        if self.ccol is None:
            raise DecodingFailureError(
                "configuration has no column code (e is empty)"
            )
        return self._recover_lines(
            "col", self.ccol, [col], [[cells[col] for cells in self.cells]],
            [targets], lambda col, row: (row, col))

    def _recover_lines(self, kind: str, code: SystematicMDSCode,
                       lines: Sequence[int],
                       codewords: Sequence[Sequence[Optional[np.ndarray]]],
                       targets: Sequence[Sequence[int] | None],
                       cell: Callable[[int, int], tuple[int, int]],
                       ) -> list[tuple[int, int]]:
        """The one body behind the row and column primitives.

        Recovers ``codewords`` (one per line of ``lines``) through
        ``code``, stores each symbol at ``cell(line, position)`` and
        records one :class:`ScheduleStep` per line that gained cells, in
        the order of ``lines``.
        """
        recovered = code.recover_many(codewords, self.ops, targets)
        filled_all = []
        for line, symbols in zip(lines, recovered):
            filled = []
            for pos, symbol in symbols.items():
                row, col = cell(line, pos)
                self.set(row, col, symbol)
                filled.append((row, col))
            if filled:
                self.steps.append(ScheduleStep(kind, line, tuple(sorted(filled))))
            filled_all.extend(filled)
        return filled_all

    def can_recover_row(self, row: int) -> bool:
        """True if grid row ``row`` has enough known cells for C_row recovery."""
        return self.known_in_row(row) >= self.crow.dimension

    def can_recover_col(self, col: int) -> bool:
        """True if grid column ``col`` has enough known cells for C_col recovery."""
        return self.ccol is not None and self.known_in_col(col) >= self.ccol.dimension

    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        known = sum(self.known_in_row(i) for i in range(self.rows))
        return (f"CanonicalStripe({self.rows}x{self.cols}, "
                f"{known}/{self.rows * self.cols} known)")
