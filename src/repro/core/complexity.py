"""Encoding cost (§5.3): Mult_XOR counts, and the cost rule that picks an encoder.

The paper counts the cost of each encoding method in Mult_XORs: Eq. (5)
for upstairs, Eq. (6) for downstairs, and the number of non-zero
generator coefficients for standard encoding.  Its implementation note
picks the method with the fewest.  That *count rule* still holds: it is
what :func:`choose_encoding_method` returns, what
:meth:`~repro.core.stair.StairCode.select_encoding_method` returns when
no symbol length is given, and what Figure 9 of the paper is
regenerated from (``benchmarks/bench_fig09_encoding_complexity.py``).

The count rule prices only the work that grows with the symbol length.
Each encode also pays a fixed cost per call into the bulk kernel of
:mod:`repro.gf.regions`: upstairs and downstairs make one call per
``C_row`` / ``C_col`` line their schedule recovers, standard encoding
one call for the whole generator.  On short symbols (the store folds
stripes into 128 B - 16 KiB rows) that fixed cost outweighs the
Mult_XORs.  So when the symbol length is known, ``StairCode.encode``
with ``method="auto"`` applies the *cost rule* instead: the lowest
:func:`estimated_encode_us`, a fitted model of one encode's time.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.core.config import StairConfig
from repro.gf.field import GField
from repro.gf.regions import RegionOps

#: The three encoding methods, in tie-breaking order.
METHODS = ("upstairs", "downstairs", "standard")

# Constants of the cost rule, fitted by ``test_encoder_cost_sweep`` in
# ``benchmarks/bench_coding_throughput.py`` (three methods, 128 B - 32 KiB
# symbols, the store's ledger code and a wide code, w = 8 and w = 16;
# 2-vCPU Xeon VM, mean of three runs).  The sweep prints a fresh fit
# next to these values.  With them, the ledger code encodes with
# standard encoding up to ~8 KiB symbols and with upstairs from there on.
#: Microseconds per bulk-kernel call.
KERNEL_CALL_US = 71.0
#: Microseconds per Mult_XOR that do not grow with the symbol length,
#: by field width.
MULT_XOR_US = {8: 1.0, 16: 0.38}
#: Microseconds per Mult_XOR per symbol byte, by field width.
MULT_XOR_BYTE_US = {8: 0.0017, 16: 0.0033}


def upstairs_mult_xors(config: StairConfig) -> int:
    """X_up, Eq. (5): (n-m)(m*r + s) + r*(n-m)*e_max."""
    n, r, m = config.n, config.r, config.m
    s, e_max = config.s, config.e_max
    return (n - m) * (m * r + s) + r * (n - m) * e_max


def downstairs_mult_xors(config: StairConfig) -> int:
    """X_down, Eq. (6): (n-m)(m + m')*r + r*s."""
    n, r, m = config.n, config.r, config.m
    s, m_prime = config.s, config.m_prime
    return (n - m) * (m + m_prime) * r + r * s


def standard_mult_xors(config: StairConfig,
                       parity_coefficients: np.ndarray | None = None) -> int:
    """Mult_XORs of standard encoding.

    Exact value is the number of non-zero generator coefficients (one
    Mult_XOR per contributing data symbol per parity symbol).  When the
    generator is not supplied, an upper bound is returned that assumes
    every parity depends on all data symbols at or above/left of it --
    tests use the exact form.
    """
    if parity_coefficients is not None:
        return int(np.count_nonzero(parity_coefficients))
    # Upper bound: every one of the (m*r + s) parities touches all data.
    return config.num_parity_symbols * config.num_data_symbols


@dataclass(frozen=True)
class EncodingCosts:
    """One count per encoding method: Mult_XORs (:func:`encoding_costs`)
    or bulk-kernel calls (:func:`kernel_calls`)."""

    upstairs: int
    downstairs: int
    standard: int

    def best_method(self) -> str:
        """Name of the method with the lowest count (ties go to the
        earlier name)."""
        return min(METHODS, key=lambda method: getattr(self, method))


def encoding_costs(config: StairConfig,
                   parity_coefficients: np.ndarray | None = None) -> EncodingCosts:
    """Compute the Mult_XOR counts of all three encoding methods."""
    return EncodingCosts(
        upstairs=upstairs_mult_xors(config),
        downstairs=downstairs_mult_xors(config),
        standard=standard_mult_xors(config, parity_coefficients),
    )


def choose_encoding_method(config: StairConfig,
                           parity_coefficients: np.ndarray | None = None) -> str:
    """The count rule: the method with the fewest Mult_XORs.

    Mirrors the paper's implementation note: "we always pre-compute the
    number of Mult_XORs for each of the encoding methods, and then choose
    the one with the fewest Mult_XORs".  Without ``parity_coefficients``
    standard encoding is priced at its upper bound
    (:func:`standard_mult_xors`), which it never wins at.
    """
    return encoding_costs(config, parity_coefficients).best_method()


class _CallCountingOps(RegionOps):
    """Region ops that count their calls into the bulk kernel."""

    def __init__(self, field: GField) -> None:
        super().__init__(field)
        self.calls = 0

    def matrix_vector_plane(self, matrix: np.ndarray,
                            plane: np.ndarray) -> np.ndarray:
        self.calls += 1
        return super().matrix_vector_plane(matrix, plane)

    def matrix_vector_planes(self, matrix: np.ndarray,
                             planes: np.ndarray) -> np.ndarray:
        self.calls += 1
        return super().matrix_vector_planes(matrix, planes)


def kernel_calls(encoder, field: GField) -> int:
    """Bulk-kernel calls of one ``encoder.encode`` (any of the three
    encoders) over ``field``.

    An encoding schedule depends only on the code, not on the data, so
    one run on one-element symbols counts the calls of every encode.
    """
    ops = _CallCountingOps(field)
    encoder.encode([ops.zeros(1)] * encoder.layout.num_data_symbols, ops=ops)
    return ops.calls


def estimated_encode_us(mult_xors: int, calls: int, symbol_bytes: int,
                        w: int) -> float:
    """Estimated microseconds of one encode over ``symbol_bytes``-byte
    symbols in GF(2^w): a fixed cost per kernel call plus, per
    Mult_XOR, a fixed cost and a cost per symbol byte."""
    return (KERNEL_CALL_US * calls
            + mult_xors * (MULT_XOR_US[w] + MULT_XOR_BYTE_US[w] * symbol_bytes))


def fastest_encoding_method(mult_xors: EncodingCosts, calls: EncodingCosts,
                            symbol_bytes: int, w: int) -> str:
    """The cost rule: the method with the lowest
    :func:`estimated_encode_us` (ties go to the earlier name)."""
    return min(METHODS, key=lambda method: estimated_encode_us(
        getattr(mult_xors, method), getattr(calls, method),
        symbol_bytes, w))
