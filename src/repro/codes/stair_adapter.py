"""Adapter exposing :class:`~repro.core.stair.StairCode` as a
:class:`~repro.codes.base.StripeCode`.

This lets the storage-array simulator, failure-injection tests and the
benchmark harness treat STAIR codes and the baseline codes uniformly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.codes.base import Grid, StripeCode
from repro.core.config import StairConfig
from repro.core.exceptions import DecodingFailureError
from repro.core.stair import StairCode


class StairStripeCode(StripeCode):
    """A STAIR code behind the generic stripe-code interface."""

    name = "STAIR"

    def __init__(self, config: StairConfig | None = None, *,
                 n: int | None = None, r: int | None = None,
                 m: int | None = None, e: Sequence[int] | None = None,
                 method: str = "auto") -> None:
        if config is None:
            if None in (n, r, m) or e is None:
                raise ValueError("provide either a StairConfig or n, r, m and e")
            config = StairConfig(n=n, r=r, m=m, e=tuple(e))
        self.code = StairCode(config, method=method)
        self.config = config

    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        return self.config.n

    @property
    def r(self) -> int:
        return self.config.r

    @property
    def num_data_symbols(self) -> int:
        return self.config.num_data_symbols

    @property
    def counter(self):
        """The Mult_XOR counter of the underlying STAIR code."""
        return self.code.counter

    @property
    def field(self):
        """The Galois field the underlying STAIR code operates in."""
        return self.code.field

    @property
    def ops_class(self):
        """The region-operation backend of the underlying STAIR code."""
        return self.code.ops_class

    def data_positions(self) -> Sequence[tuple[int, int]]:
        return self.code.layout.data_positions()

    # ------------------------------------------------------------------ #
    def encode(self, data: Sequence[np.ndarray]) -> Grid:
        return self.code.encode(data).symbols  # type: ignore[return-value]

    def decode(self, stripe: Grid) -> Grid:
        """The staircase decoder; a pattern beyond its (m, e) schedule
        that is still :meth:`recoverable` falls back to :meth:`solve`."""
        try:
            return self.code.decode(stripe).symbols  # type: ignore[return-value]
        except DecodingFailureError:
            lost = [(i, j) for i, row in enumerate(stripe)
                    for j, cell in enumerate(row) if cell is None]
            if not self.recoverable(lost):
                raise
            return self.solve(stripe)

    def tolerates(self, lost_positions: Sequence[tuple[int, int]]) -> bool:
        """The paper's (m, e) coverage guarantee."""
        return self.code.check_coverage(lost_positions)

    def update_penalty(self) -> float:
        return self.code.update_penalty()
