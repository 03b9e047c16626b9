"""Tests for the Mult_XOR complexity model (Eq. 5, Eq. 6, §5.3)."""

import numpy as np
import pytest

from repro.analysis.encoding_cost import measured_costs
from repro.core import (
    StairCode,
    StairConfig,
    choose_encoding_method,
    downstairs_mult_xors,
    encoding_costs,
    standard_mult_xors,
    upstairs_mult_xors,
)
from repro.core.complexity import estimated_encode_us

EXAMPLE = StairConfig(n=8, r=4, m=2, e=(1, 1, 2))
#: The code of every store workload in ``benchmarks/ledger``.
LEDGER = StairConfig(n=8, r=4, m=2, e=(1, 1))


class TestAnalyticalCounts:
    def test_example_equation_5(self):
        # (n-m)(m*r + s) + r(n-m)e_max = 6*(8+4) + 4*6*2 = 120.
        assert upstairs_mult_xors(EXAMPLE) == 120

    def test_example_equation_6(self):
        # (n-m)(m+m')r + r*s = 6*5*4 + 4*4 = 136.
        assert downstairs_mult_xors(EXAMPLE) == 136

    def test_standard_upper_bound_without_generator(self):
        assert standard_mult_xors(EXAMPLE) == EXAMPLE.num_parity_symbols * \
            EXAMPLE.num_data_symbols

    def test_standard_exact_with_generator(self):
        code = StairCode(EXAMPLE)
        exact = standard_mult_xors(EXAMPLE, code.parity_coefficients())
        assert 0 < exact <= standard_mult_xors(EXAMPLE)

    def test_costs_dataclass(self):
        costs = encoding_costs(EXAMPLE)
        assert costs.upstairs == 120 and costs.downstairs == 136
        assert costs.best_method() == "upstairs"

    @pytest.mark.parametrize("e,expected_winner", [
        ((4,), "downstairs"),       # m' = 1: downstairs wins
        ((1, 1, 1, 1), "upstairs"),  # m' = 4: upstairs wins
    ])
    def test_m_prime_determines_winner(self, e, expected_winner):
        config = StairConfig(n=8, r=16, m=2, e=e)
        costs = encoding_costs(config)
        winner = ("upstairs" if costs.upstairs <= costs.downstairs
                  else "downstairs")
        assert winner == expected_winner

    def test_choose_encoding_method_without_generator(self):
        assert choose_encoding_method(EXAMPLE) in ("upstairs", "downstairs")
        assert choose_encoding_method(
            StairConfig(n=8, r=16, m=2, e=(4,))) == "downstairs"

    def test_choose_encoding_method_with_generator(self):
        code = StairCode(EXAMPLE)
        method = choose_encoding_method(EXAMPLE, code.parity_coefficients())
        costs = encoding_costs(EXAMPLE, code.parity_coefficients())
        assert method == costs.best_method()


class TestMeasuredCounts:
    def test_measured_matches_equation_5_and_6_for_example(self):
        point = measured_costs(8, 4, 2, (1, 1, 2))
        assert point.upstairs == upstairs_mult_xors(EXAMPLE)
        assert point.downstairs == downstairs_mult_xors(EXAMPLE)

    def test_measured_standard_equals_nonzero_generator_entries(self):
        code = StairCode(EXAMPLE)
        point = measured_costs(8, 4, 2, (1, 1, 2))
        assert point.standard == int(
            np.count_nonzero(code.parity_coefficients()))

    @pytest.mark.parametrize("params", [
        (6, 4, 1, (2,)),
        (6, 6, 2, (1, 3)),
        (9, 5, 3, (2, 2)),
    ])
    def test_measured_close_to_analytic_for_other_configs(self, params):
        n, r, m, e = params
        config = StairConfig(n=n, r=r, m=m, e=e)
        point = measured_costs(n, r, m, e)
        # A decode coefficient can occasionally be zero, so the measured count
        # may be marginally below the analytical value, never above it.
        assert point.upstairs <= upstairs_mult_xors(config)
        assert point.upstairs >= 0.9 * upstairs_mult_xors(config)
        assert point.downstairs <= downstairs_mult_xors(config)
        assert point.downstairs >= 0.9 * downstairs_mult_xors(config)

    def test_code_level_wrapper(self):
        code = StairCode(EXAMPLE)
        costs = code.mult_xor_counts()
        assert costs.upstairs == 120
        assert costs.downstairs == 136
        assert costs.standard > 0


def _data(config, symbol_bytes, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, symbol_bytes, dtype=np.uint8)
            for _ in range(config.num_data_symbols)]


class TestEncoderSelection:
    """Which encoder ``method="auto"`` runs: the cost rule by symbol
    length, the paper's count rule without one."""

    @pytest.mark.parametrize("symbol_bytes", [128, 384, 1024])
    def test_ledger_code_short_symbols_pick_standard(self, symbol_bytes):
        assert StairCode(LEDGER).select_encoding_method(
            symbol_bytes) == "standard"

    def test_ledger_code_long_symbols_stay_off_standard(self):
        # large-objects encodes one 16 KiB stripe per call.
        assert StairCode(LEDGER).select_encoding_method(
            16384) in ("upstairs", "downstairs")

    def test_without_symbol_length_the_mult_xor_winner(self):
        code = StairCode(LEDGER)
        costs = code.mult_xor_counts()
        assert (costs.upstairs, costs.downstairs) == (84, 104)
        assert code.select_encoding_method() == costs.best_method() \
            == "upstairs"

    @pytest.mark.parametrize("params,expected", [
        ((4, 2, 1, (1, 1)), "standard"),   # counts 18 / 22 / 13
        ((8, 4, 2, (1, 1)), "upstairs"),
        ((8, 16, 2, (4,)), "downstairs"),
    ])
    def test_count_rule_does_not_depend_on_call_history(self, params,
                                                         expected):
        n, r, m, e = params
        fresh = StairCode(StairConfig(n=n, r=r, m=m, e=e))
        derived = StairCode(StairConfig(n=n, r=r, m=m, e=e))
        derived.mult_xor_counts()
        assert fresh.select_encoding_method() == expected
        assert derived.select_encoding_method() == expected

    @pytest.mark.parametrize("symbol_bytes", [128, 16384])
    def test_auto_runs_the_selected_encoder(self, symbol_bytes):
        code = StairCode(LEDGER)
        data = _data(LEDGER, symbol_bytes)
        code.counter.reset()
        code.encode(data)
        auto = code.counter.snapshot()
        code.counter.reset()
        code.encode(data, method=code.select_encoding_method(symbol_bytes))
        assert code.counter.snapshot() == auto

    def test_kernel_calls_counted_from_the_schedules(self):
        code = StairCode(LEDGER)
        calls = code.kernel_call_counts()
        assert (calls.upstairs, calls.downstairs, calls.standard) == (8, 6, 1)
        # Counted by fresh encoders: no schedule of this code changes.
        assert code.last_downstairs_schedule == []
        code.counter.reset()
        code.encode(_data(LEDGER, 16), method="downstairs")
        assert len(code.last_downstairs_schedule) == calls.downstairs

    def test_cost_rule_reads_the_field_width(self):
        # w = 16 multiplies through log/antilog tables: more per byte.
        assert estimated_encode_us(118, 1, 4096, 16) > \
            estimated_encode_us(118, 1, 4096, 8) > \
            estimated_encode_us(118, 1, 128, 8)
