"""``StripeCode.solve`` keeps its per-pattern plan in the same bounded
memo as ``recoverable``: one ``rref`` and one ``inverse`` per erasure
pattern, however often the pattern is decoded, and the same bytes from
a warm memo as from a cold one."""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np
import pytest

import repro.codes.base as base
from repro.codes import SDCode, parse_code_spec
from repro.core.exceptions import DecodingFailureError
from repro.gf.matrix import GFMatrix

#: The families that decode through ``solve`` (STAIR falls back to it
#: beyond its (m, e) schedule), on the stripes of the recoverability
#: oracle.
CODES = {
    "stair": lambda: parse_code_spec("stair(n=4,r=3,m=1,e=(1,2))"),
    "idr": lambda: parse_code_spec("idr(n=4,r=3,m=1,epsilon=1)"),
    "sd": lambda: SDCode.construct(4, 3, 1, 2),
}


def _encoded(code, seed: int = 17, size: int = 4):
    rng = np.random.default_rng(seed)
    return code.encode([rng.integers(0, code.field.order, size,
                                     dtype=code.field.element_dtype)
                        for _ in range(code.num_data_symbols)])


def _decode(code, grid, pattern):
    damaged = [list(row) for row in grid]
    for i, j in pattern:
        damaged[i][j] = None
    try:
        return code.decode(damaged)
    except DecodingFailureError:
        return None


@pytest.mark.parametrize("spec", ["sd(n=8,r=4,m=2,s=2)",
                                  "idr(n=8,r=4,m=2,epsilon=2)"])
def test_one_rref_and_inverse_per_pattern(spec, monkeypatch):
    code = parse_code_spec(spec)
    grid = _encoded(code, size=128)
    calls = Counter()
    for name in ("rref", "inverse"):
        def spy(self, _name=name, _real=getattr(GFMatrix, name)):
            calls[_name] += 1
            return _real(self)
        monkeypatch.setattr(GFMatrix, name, spy)

    def columns(*cols):
        return [(i, j) for i in range(code.r) for j in cols]

    recoverable = [columns(0, 1), columns(2, 7), columns(3) + [(0, 0)]]
    lost = columns(0, 1, 2)
    for _ in range(3):
        for pattern in recoverable:
            repaired = _decode(code, grid, pattern)
            assert all(np.array_equal(repaired[i][j], grid[i][j])
                       for i in range(code.r) for j in range(code.n))
        assert _decode(code, grid, lost) is None
        assert code.recoverable(lost) is False
    assert calls == {"rref": 4, "inverse": 3}


def test_memo_stays_bounded_and_recomputes_evicted_patterns(monkeypatch):
    monkeypatch.setattr(base, "RECOVERABLE_MEMO_SIZE", 2)
    code = parse_code_spec("sd(n=6,r=2,m=1,s=3)")
    grid = _encoded(code)
    patterns = [[(0, j), (1, j)] for j in range(4)]
    for pattern in patterns + patterns:
        repaired = _decode(code, grid, pattern)
        assert all(np.array_equal(repaired[i][j], grid[i][j])
                   for i in range(code.r) for j in range(code.n))
        assert len(code._memo) <= 2


@pytest.mark.parametrize("family", sorted(CODES))
def test_warm_memo_decodes_every_oracle_pattern_exactly(family):
    """Every pattern of at most parity + 1 lost symbols, decoded with a
    cold memo and again with a warm one: the same verdict, and the
    exact stripe whenever the decode succeeds."""
    code = CODES[family]()
    grid = _encoded(code)
    cells = [(i, j) for i in range(code.r) for j in range(code.n)]
    patterns = [pattern for size in range(code.num_parity_symbols + 2)
                for pattern in itertools.combinations(cells, size)]
    cold = [_decode(code, grid, pattern) for pattern in patterns]
    warm = [_decode(code, grid, pattern) for pattern in patterns]
    for pattern, first, second in zip(patterns, cold, warm):
        assert (first is None) == (second is None), pattern
        assert (first is None) == (not code.recoverable(pattern)), pattern
        if second is not None:
            assert all(np.array_equal(second[i][j], grid[i][j])
                       for i, j in cells), pattern
