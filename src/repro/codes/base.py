"""The generic stripe-code interface shared by STAIR and all baselines.

The storage-array simulator, the benchmark harness and the reliability
models are written against this interface so that every code family
(STAIR, plain Reed-Solomon, SD, IDR) is interchangeable.

Every family is linear over its ``field``, so the interface also holds
one shared linear-algebra view: a parity-check matrix, the exact
recoverability predicate and a syndrome solve.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Optional, Sequence

import numpy as np

from repro.core.exceptions import DecodingFailureError
from repro.gf.matrix import GFMatrix

Grid = list[list[Optional[np.ndarray]]]

#: Erasure patterns a code remembers (:meth:`StripeCode.recoverable`
#: and :meth:`StripeCode.solve` share the memo).
RECOVERABLE_MEMO_SIZE = 4096


@dataclasses.dataclass
class _Pattern:
    """What a code remembers about one erasure pattern."""

    #: Rank of the parity-check columns of the lost symbols.
    rank: int
    #: :meth:`StripeCode.solve`'s plan, once it ran: the selected check
    #: equations over the surviving symbols, and the inverse mapping
    #: their syndromes to the lost symbols.
    plan: Optional[tuple[np.ndarray, np.ndarray]] = None


class StripeCode(abc.ABC):
    """An erasure code operating on an r x n stripe of equal-size symbols.

    Concrete codes also expose ``field``, ``counter`` (Mult_XORs) and
    ``ops_class`` (the region-operation backend).
    """

    #: Human-readable code family name ("STAIR", "RS", "SD", "IDR").
    name: str = "abstract"

    _check: Optional[np.ndarray] = None
    _memo: Optional[dict[frozenset, _Pattern]] = None

    @property
    @abc.abstractmethod
    def n(self) -> int:
        """Number of chunks (devices) per stripe."""

    @property
    @abc.abstractmethod
    def r(self) -> int:
        """Number of symbols (sectors) per chunk."""

    @property
    @abc.abstractmethod
    def num_data_symbols(self) -> int:
        """User-data symbols per stripe."""

    @property
    def num_parity_symbols(self) -> int:
        """Parity symbols per stripe."""
        return self.n * self.r - self.num_data_symbols

    @property
    def storage_efficiency(self) -> float:
        """Fraction of the stripe devoted to user data."""
        return self.num_data_symbols / (self.n * self.r)

    @abc.abstractmethod
    def encode(self, data: Sequence[np.ndarray]) -> Grid:
        """Encode ``num_data_symbols`` symbols into a full r x n grid."""

    def decode(self, stripe: Grid) -> Grid:
        """Recover lost (``None``) symbols of a damaged stripe.

        Raises :class:`~repro.core.exceptions.DecodingFailureError` when
        the pattern is not :meth:`recoverable`.  The default is the
        generic :meth:`solve`; families with a structured decoder
        override it.
        """
        return self.solve(stripe)

    @abc.abstractmethod
    def data_positions(self) -> Sequence[tuple[int, int]]:
        """Stripe coordinates of the data symbols, in linear order."""

    # ------------------------------------------------------------------ #
    # Convenience defaults
    # ------------------------------------------------------------------ #
    def extract_data(self, stripe: Grid) -> list[np.ndarray]:
        """Pull the user data symbols (linear order) out of a full stripe."""
        out = []
        for row, col in self.data_positions():
            symbol = stripe[row][col]
            if symbol is None:
                raise ValueError(f"data symbol at ({row},{col}) is lost")
            out.append(symbol)
        return out

    def tolerates(self, lost_positions: Sequence[tuple[int, int]]) -> bool:
        """The coverage the code's design guarantees.

        Defaults to the exact :meth:`recoverable`; a family whose design
        promises less (STAIR's (m, e)) narrows it.
        """
        return self.recoverable(lost_positions)

    def describe(self) -> str:
        """One-line description used in benchmark tables."""
        return (f"{self.name}(n={self.n}, r={self.r}, "
                f"data={self.num_data_symbols}/{self.n * self.r})")

    # ------------------------------------------------------------------ #
    # The linear-algebra view: parity checks, rank, syndrome solve
    # ------------------------------------------------------------------ #
    def check_matrix(self) -> np.ndarray:
        """Parity-check matrix ``H`` (one row per parity symbol, one
        column per stripe symbol ``(i, j)`` at index ``i * n + j``):
        every codeword satisfies ``H x = 0``.

        Derived once by encoding unit-vector symbols: with data symbol
        ``k`` set to the ``k``-th unit vector, every encoded cell holds
        its generator coefficients, so parity cell ``p`` yields the
        equation ``p + sum_k G[k, p] d_k = 0``.  The op counter is left
        untouched.
        """
        if self._check is None:
            n, k = self.n, self.num_data_symbols
            saved = dataclasses.replace(self.counter)
            grid = self.encode(list(np.eye(k, dtype=self.field.element_dtype)))
            self.counter.reset()
            self.counter.merge(saved)
            data_idx = [i * n + j for i, j in self.data_positions()]
            parity_idx = sorted(set(range(self.r * n)) - set(data_idx))
            check = np.zeros((len(parity_idx), self.r * n), dtype=np.int64)
            for eq, q in enumerate(parity_idx):
                check[eq, data_idx] = grid[q // n][q % n]
                check[eq, q] = 1
            self._check = check
        return self._check

    def recoverable(self, lost: Sequence[tuple[int, int]]) -> bool:
        """Exact: whether the surviving symbols determine every lost one.

        True iff the :meth:`check_matrix` columns of the lost positions
        are linearly independent.  Answers are memoised per instance,
        for at most :data:`RECOVERABLE_MEMO_SIZE` patterns.
        """
        key = frozenset(lost)
        entry = self._recall(key)
        if entry is None:
            lost_idx = sorted(i * self.n + j for i, j in key)
            entry = self._remember(key, _Pattern(GFMatrix(
                self.check_matrix()[:, lost_idx], self.field).rank()))
        return entry.rank == len(key)

    def solve(self, stripe: Grid) -> Grid:
        """Recover every lost symbol by a syndrome solve over
        :meth:`check_matrix`: exact for every :meth:`recoverable`
        pattern, :class:`~repro.core.exceptions.DecodingFailureError`
        for any other.  The per-pattern plan is memoised alongside
        :meth:`recoverable`'s answers."""
        ops = self.ops_class(self.field, self.counter)
        lost = [(i, j) for i in range(self.r) for j in range(self.n)
                if stripe[i][j] is None]
        if not lost:
            return [[np.asarray(cell) for cell in row] for row in stripe]
        key = frozenset(lost)
        entry = self._recall(key)
        if entry is None or (entry.rank == len(lost) and entry.plan is None):
            entry = self._remember(key, self._plan(lost))
        if entry.plan is None:
            raise DecodingFailureError(
                f"{len(lost)} lost symbols meet only {entry.rank} "
                f"independent parity checks of the {self.name} code",
                unrecovered=lost)
        check_sub, solver = entry.plan

        # Syndromes of the selected equations over the surviving symbols
        # (stacked into one plane by the bulk kernel), then the lost
        # symbols from the syndromes.
        survivors = [np.asarray(cell) for row in stripe for cell in row
                     if cell is not None]
        syndromes = ops.matrix_vector(check_sub, survivors)
        repaired = [[None if cell is None else np.asarray(cell) for cell in row]
                    for row in stripe]
        recovered = ops.matrix_vector(solver, syndromes)
        for (i, j), symbol in zip(lost, recovered):
            repaired[i][j] = symbol
        return repaired  # type: ignore[return-value]

    def _plan(self, lost: list[tuple[int, int]]) -> _Pattern:
        """Rank and solve plan of a pattern, lost symbols in row-major
        order."""
        n, check = self.n, self.check_matrix()
        # The first independent check equations over the lost symbols are
        # the pivot columns of the transposed lost-symbol sub-matrix.
        lost_idx = [i * n + j for i, j in lost]
        h_lost = check[:, lost_idx]
        equation_rows = list(GFMatrix(h_lost.T, self.field).rref()[1])
        if len(equation_rows) < len(lost):
            return _Pattern(len(equation_rows))
        surviving_idx = sorted(set(range(self.r * n)) - set(lost_idx))
        solver = GFMatrix(h_lost[equation_rows, :], self.field).inverse()
        return _Pattern(len(equation_rows), (
            check[np.ix_(equation_rows, surviving_idx)], solver.data))

    def _recall(self, key: frozenset) -> Optional[_Pattern]:
        if self._memo is None:
            self._memo = {}
        return self._memo.get(key)

    def _remember(self, key: frozenset, entry: _Pattern) -> _Pattern:
        """Store ``entry``, evicting the oldest pattern when full."""
        if key not in self._memo and len(self._memo) >= RECOVERABLE_MEMO_SIZE:
            del self._memo[next(iter(self._memo))]
        self._memo[key] = entry
        return entry
