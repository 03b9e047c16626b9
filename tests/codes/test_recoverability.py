"""Exhaustive recoverability oracle over small stripes.

For each code below, every erasure pattern of at most (parity + 1) lost
symbols is decoded against a known stripe, and the outcome is tabulated
next to the chunk-granularity
:class:`~repro.sim.cluster.CoverageModel` verdict (per-column loss
counts, no device marked failed -- a whole lost column is just ``r``
lost symbols), the code's ``tolerates`` and its exact ``recoverable``.
The rows assert:

* coverage ⇒ ``decode`` returns the exact stripe;
* ``decode`` never returns wrong bytes: it is exact or it raises
  :class:`~repro.core.exceptions.DecodingFailureError`;
* ``tolerates`` ⇒ ``recoverable``;
* ``recoverable`` ⇔ ``decode`` succeeds;
* for STAIR, ``tolerates`` ⇒ the plain (m, e) schedule of
  ``StairCode.decode`` returns the exact stripe, with no ``solve``
  fallback to hide a narrowed schedule.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import pytest

from repro.codes import SDCode, StairStripeCode, parse_code_spec
from repro.core.exceptions import DecodingFailureError
from repro.sim.cluster import CoverageModel

SYMBOL_SIZE = 4

CODES = {
    "rs": lambda: parse_code_spec("rs(n=4,r=3,m=2)"),
    "stair": lambda: parse_code_spec("stair(n=4,r=3,m=1,e=(1,2))"),
    "idr": lambda: parse_code_spec("idr(n=4,r=3,m=1,epsilon=1)"),
    "sd": lambda: SDCode.construct(4, 3, 1, 2),
}


@dataclass(frozen=True)
class Row:
    """One erasure pattern and every verdict about it."""

    pattern: tuple[tuple[int, int], ...]
    covered: bool
    tolerated: bool
    recoverable: bool
    outcome: str  # "exact", "wrong" or "failed"
    #: Outcome of the bare STAIR schedule on a tolerated pattern, else None.
    scheduled: str | None = None


def _table(code) -> list[Row]:
    rng = np.random.default_rng(17)
    data = [rng.integers(0, code.field.order, SYMBOL_SIZE,
                         dtype=code.field.element_dtype)
            for _ in range(code.num_data_symbols)]
    grid = code.encode(data)
    coverage = CoverageModel.from_code(code)
    cells = [(i, j) for i in range(code.r) for j in range(code.n)]
    rows = []
    for size in range(code.num_parity_symbols + 2):
        for pattern in itertools.combinations(cells, size):
            counts = [0] * code.n
            for _, j in pattern:
                counts[j] += 1
            damaged = [list(row) for row in grid]
            for i, j in pattern:
                damaged[i][j] = None
            try:
                repaired = code.decode(damaged)
            except DecodingFailureError:
                outcome = "failed"
            else:
                exact = all(np.array_equal(repaired[i][j], grid[i][j])
                            for i, j in cells)
                outcome = "exact" if exact else "wrong"
            rows.append(Row(pattern, coverage.tolerates_counts(tuple(counts)),
                            code.tolerates(pattern), code.recoverable(pattern),
                            outcome, _scheduled(code, grid, pattern)))
    return rows


def _scheduled(code, grid, pattern) -> str | None:
    """Outcome of ``StairCode.decode`` alone (the (m, e) schedule, no
    ``solve`` fallback) on a STAIR pattern ``tolerates`` admits, else None."""
    if not isinstance(code, StairStripeCode) or not code.tolerates(pattern):
        return None
    damaged = [list(row) for row in grid]
    for i, j in pattern:
        damaged[i][j] = None
    try:
        repaired = code.code.decode(damaged).symbols
    except DecodingFailureError:
        return "failed"
    exact = all(np.array_equal(repaired[i][j], grid[i][j])
                for i in range(code.r) for j in range(code.n))
    return "exact" if exact else "wrong"


@pytest.fixture(scope="module", params=sorted(CODES))
def table(request):
    return _table(CODES[request.param]())


def test_coverage_implies_exact_decode(table):
    bad = [row.pattern for row in table
           if row.covered and row.outcome != "exact"]
    assert not bad, bad[:5]


def test_decode_never_returns_wrong_bytes(table):
    bad = [row.pattern for row in table if row.outcome == "wrong"]
    assert not bad, bad[:5]


def test_tolerates_implies_recoverable(table):
    bad = [row.pattern for row in table
           if row.tolerated and not row.recoverable]
    assert not bad, bad[:5]


def test_recoverable_iff_decode_succeeds(table):
    bad = [row.pattern for row in table
           if row.recoverable != (row.outcome == "exact")]
    assert not bad, bad[:5]


def test_tolerated_stair_patterns_decode_through_the_schedule(table):
    bad = [row.pattern for row in table
           if row.scheduled not in (None, "exact")]
    assert not bad, bad[:5]


def test_tolerated_m2_stair_patterns_decode_through_the_schedule():
    """The same bar for m = 2, where two chunks are deferred: every one
    of the 3315 non-empty patterns stair(n=5,r=3,m=2,e=(1,)) tolerates."""
    code = parse_code_spec("stair(n=5,r=3,m=2,e=(1,))")
    rng = np.random.default_rng(17)
    grid = code.encode([rng.integers(0, code.field.order, SYMBOL_SIZE,
                                     dtype=code.field.element_dtype)
                        for _ in range(code.num_data_symbols)])
    cells = [(i, j) for i in range(code.r) for j in range(code.n)]
    tolerated = [pattern for size in range(1, code.num_parity_symbols + 1)
                 for pattern in itertools.combinations(cells, size)
                 if code.tolerates(pattern)]
    assert len(tolerated) == 3315
    bad = [pattern for pattern in tolerated
           if _scheduled(code, grid, pattern) != "exact"]
    assert not bad, bad[:5]


def test_unverified_sd_default_refuses_its_coverage_holes():
    """``sd(...)`` specs build base-2 global rows and never verify them.
    The default sd(n=4,r=3,m=1,s=2) fails the SD property: when columns
    1 and 2 lose the same two rows, or five of their six symbols, the
    coverage model admits the pattern but the instance cannot decode it.
    The exact predicate refuses exactly those nine patterns."""
    code = parse_code_spec("sd(n=4,r=3,m=1,s=2)")
    assert not code.verify_sd_property()
    pair = [(i, j) for i in range(3) for j in (1, 2)]
    holes = {frozenset((i, j) for i in rows for j in (1, 2))
             for rows in itertools.combinations(range(3), 2)}
    holes |= {frozenset(p) for p in itertools.combinations(pair, 5)}
    assert len(holes) == 9

    table = _table(code)
    refused = {frozenset(row.pattern) for row in table
               if row.covered and not row.recoverable}
    assert refused == holes
    assert all(row.outcome == "failed" for row in table
               if frozenset(row.pattern) in holes)
    assert not [row.pattern for row in table if row.outcome == "wrong"]
