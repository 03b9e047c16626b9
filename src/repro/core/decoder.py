"""Upstairs decoding (§4.2) and practical decoding (§4.3) for STAIR codes.

The decoder recovers a damaged stripe in two phases:

1. **Row-local repair** -- any stripe row with at most ``m`` lost symbols
   is repaired with its row parity symbols alone, because such decoding
   only touches the symbols of that row.  All such rows go through one
   ``C_row.recover_many`` call, which batches rows sharing an erasure
   pattern.
2. **Global (upstairs) repair** -- the remaining failure pattern must
   pass :func:`check_coverage`.  It is mapped onto the canonical stripe
   and the ``m`` chunks with the most remaining losses are deferred
   (they are rebuilt row by row at the very end, in one batched
   ``recover_rows`` call, like entirely failed devices).  The upstairs
   schedule alternates between recovering chunk columns bottom-up (via
   ``C_col``) and augmented rows (via ``C_row``), exactly as in Figure 4
   / Table 2 of the paper, until every sector-failed chunk is whole.

The same upstairs schedule doubles as the *upstairs encoder* (§5.1.1):
encoding is decoding with the parity positions treated as lost and the
outside global parities pinned to zero.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.canonical import CanonicalStripe
from repro.core.config import StairConfig
from repro.core.exceptions import DecodingFailureError
from repro.core.layout import StripeLayout
from repro.gf.regions import RegionOps
from repro.rs.systematic import SystematicMDSCode

Grid = Sequence[Sequence[Optional[np.ndarray]]]


def check_coverage(config: StairConfig,
                   lost_positions: Sequence[tuple[int, int]]) -> bool:
    """Check whether a failure pattern lies within the coverage of (m, e).

    The pattern is covered when at most ``m`` chunks have to be treated as
    entirely failed and the remaining damaged chunks, sorted by number of
    lost symbols, fit under the (sorted) ``e`` vector.
    """
    losses_per_chunk: dict[int, int] = {}
    for row, col in lost_positions:
        if not (0 <= row < config.r and 0 <= col < config.n):
            raise ValueError(f"position ({row}, {col}) outside the stripe")
        losses_per_chunk[col] = losses_per_chunk.get(col, 0) + 1

    counts = sorted(losses_per_chunk.values(), reverse=True)
    # The m most-damaged chunks are absorbed by device-failure tolerance.
    remaining = counts[config.m:]
    if len(remaining) > config.m_prime:
        return False
    # remaining is sorted descending; compare against e sorted descending.
    e_desc = sorted(config.e, reverse=True)
    return all(count <= e_desc[i] for i, count in enumerate(remaining))


class StairDecoder:
    """Recovers lost symbols of a STAIR stripe."""

    def __init__(self, config: StairConfig, layout: StripeLayout,
                 crow: SystematicMDSCode, ccol: SystematicMDSCode | None) -> None:
        self.config = config
        self.layout = layout
        self.crow = crow
        self.ccol = ccol
        self._last_steps: list = []

    @property
    def last_schedule(self):
        """Schedule steps recorded during the most recent global repair.

        Each element is a :class:`~repro.core.canonical.ScheduleStep`; the
        sequence reproduces Table 2 of the paper for the worst-case example.
        """
        return list(self._last_steps)

    # ------------------------------------------------------------------ #
    # Public entry point
    # ------------------------------------------------------------------ #
    def decode(self, stripe: Grid, ops: RegionOps | None = None,
               outside_globals: Sequence[Sequence[np.ndarray]] | None = None,
               practical: bool = True) -> list[list[np.ndarray]]:
        """Recover every lost symbol of ``stripe``.

        Parameters
        ----------
        stripe:
            r x n grid with ``None`` marking lost symbols.
        ops:
            Region-operation context (supplies the Mult_XOR counter).
        outside_globals:
            ``values[l][h]`` of the outside global parities for the
            baseline (§3) construction.  ``None`` selects the extended
            (§5) construction in which they are identically zero.
        practical:
            When True, perform the cheap row-local repair pass before
            falling back to global upstairs decoding (§4.3).

        Returns
        -------
        The fully recovered r x n stripe.

        Raises
        ------
        DecodingFailureError
            If the failure pattern is outside the code's coverage.
        """
        ops = ops or RegionOps(self.config.field())
        working: list[list[Optional[np.ndarray]]] = [
            [None if cell is None else np.asarray(cell) for cell in row]
            for row in stripe
        ]
        symbol_size = self._infer_symbol_size(working)

        if practical:
            self._row_local_repair(working, ops)

        lost = [(i, j) for i in range(self.config.r) for j in range(self.config.n)
                if working[i][j] is None]
        if not lost:
            return [[np.asarray(cell) for cell in row] for row in working]

        return self._global_repair(working, lost, ops, symbol_size, outside_globals)

    # ------------------------------------------------------------------ #
    # Phase 1: row-local repair via row parities only
    # ------------------------------------------------------------------ #
    def _row_local_repair(self, working: list[list[Optional[np.ndarray]]],
                          ops: RegionOps) -> None:
        """Repair every row with at most m lost symbols using C_row alone.

        All such rows go through one ``recover_many`` call, which batches
        the rows sharing an erasure pattern (whole failed devices).
        """
        n, m = self.config.n, self.config.m
        rows = [i for i in range(self.config.r)
                if 0 < sum(cell is None for cell in working[i]) <= m]
        # The m' intermediate parity positions of a C_row codeword are
        # never stored, so they are unknown here; only the stored
        # positions 0 .. n-1 are wanted.
        codewords = [working[i] + [None] * self.config.m_prime for i in rows]
        recovered = self.crow.recover_many(codewords, ops,
                                           [range(n)] * len(rows))
        for i, row_recovered in zip(rows, recovered):
            for j, symbol in row_recovered.items():
                working[i][j] = symbol

    # ------------------------------------------------------------------ #
    # Phase 2: global upstairs repair
    # ------------------------------------------------------------------ #
    def _global_repair(self, working: list[list[Optional[np.ndarray]]],
                       lost: list[tuple[int, int]], ops: RegionOps,
                       symbol_size: int,
                       outside_globals: Sequence[Sequence[np.ndarray]] | None,
                       ) -> list[list[np.ndarray]]:
        if not check_coverage(self.config, lost):
            raise DecodingFailureError(
                "failure pattern exceeds the coverage of m="
                f"{self.config.m}, e={self.config.e}", unrecovered=lost)
        # Defer the m chunks with the most losses: they are rebuilt row by
        # row at the end, exactly like entirely failed devices.
        losses_per_chunk: dict[int, int] = {}
        for _, col in lost:
            losses_per_chunk[col] = losses_per_chunk.get(col, 0) + 1
        deferred = set(sorted(losses_per_chunk, key=losses_per_chunk.__getitem__,
                              reverse=True)[: self.config.m])

        grid = CanonicalStripe(self.config, self.layout, self.crow, self.ccol, ops)
        grid.load_stripe(working)
        if self.config.e_max > 0:
            grid.place_outside_globals(values=outside_globals,
                                       symbol_size=symbol_size)

        self._upstairs_schedule(grid, deferred)

        # Finally rebuild the deferred chunks row by row via C_row, in one
        # batched recovery.
        row_targets: dict[int, list[int]] = {}
        for i in range(self.config.r):
            targets = [j for j in sorted(deferred) if not grid.is_known(i, j)]
            if not targets:
                continue
            if not grid.can_recover_row(i):
                raise DecodingFailureError(
                    f"row {i} cannot be rebuilt: insufficient known symbols",
                    unrecovered=[(i, j) for j in targets],
                )
            row_targets[i] = targets
        grid.recover_rows(row_targets)

        stripe = grid.extract_stripe()
        self._last_steps = grid.steps
        return stripe

    def _upstairs_schedule(self, grid: CanonicalStripe,
                           deferred: set[int]) -> None:
        """Alternate column and augmented-row recovery until sector-failed
        chunks are whole (the upstairs schedule of §4.2.2)."""
        n, m, r = self.config.n, self.config.m, self.config.r
        if self.config.e_max == 0:
            return
        considered_cols = [j for j in range(n) if j not in deferred]

        def chunk_incomplete(col: int) -> bool:
            return any(not grid.is_known(i, col) for i in range(r))

        max_passes = self.config.e_max * (n + 2) + 2
        for _ in range(max_passes):
            progress = False

            # Column direction: recover every recoverable non-deferred chunk,
            # filling both its lost stored symbols and all of its virtual
            # parity symbols (they feed subsequent augmented-row steps).
            for col in considered_cols:
                unknowns = grid.unknown_cells_in_col(col)
                if not unknowns:
                    continue
                if grid.can_recover_col(col):
                    grid.recover_col(col)
                    progress = True

            # Row direction: recover unknown virtual symbols of augmented rows
            # at non-deferred real columns (the stepping stones for chunks
            # that still have sector failures).
            for h in range(self.config.e_max):
                grid_row = r + h
                targets = [col for col in considered_cols
                           if not grid.is_known(grid_row, col)
                           and chunk_incomplete(col)]
                if not targets:
                    continue
                if grid.can_recover_row(grid_row):
                    grid.recover_row(grid_row, targets=targets)
                    progress = True

            if all(not chunk_incomplete(col) for col in considered_cols):
                return
            if not progress:
                break

        unrecovered = [(i, j) for j in considered_cols for i in range(r)
                       if not grid.is_known(i, j)]
        if unrecovered:
            raise DecodingFailureError(
                "upstairs decoding stalled; failure pattern outside coverage",
                unrecovered=unrecovered,
            )

    # ------------------------------------------------------------------ #
    @staticmethod
    def _infer_symbol_size(working: Grid) -> int:
        for row in working:
            for cell in row:
                if cell is not None:
                    return len(cell)
        raise DecodingFailureError("stripe contains no surviving symbols")
