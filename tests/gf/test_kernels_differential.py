"""Differential fuzz harness: bulk stripe-planar kernels vs the scalar path.

The bulk kernels in :mod:`repro.gf.regions` (`mult_xor_plane`,
`xor_accumulate_plane`, `matrix_vector_plane`, `matrix_vector_planes`) are
the fast path every coding layer routes through.  Their ground truth is
:class:`~repro.gf.regions.ReferenceRegionOps`: element-at-a-time field
multiplication through ``GField.mul``, deliberately too simple to be
wrong.  Every fuzz case here asserts two things at once:

* **bit-exactness** -- the bulk output equals the scalar output, and
* **counter-exactness** -- ``OperationCounter.snapshot()`` is identical
  between the two paths (zero coefficients count nothing, coefficient 1
  counts an XOR, everything else a Mult_XOR; see the regions module
  docstring for the contract).

Each kernel sees >= 200 randomized cases across GF(2^4), GF(2^8) and
GF(2^16), with coefficient distributions deliberately biased toward 0 and
1 to exercise the skip/XOR special cases.  Those regions are short, so
they stay on the fancy-index gather of ``GField.mul_rows`` and
``mul_gather``; a few fixed cases on either side of
``TAKE_GATHER_MIN_ELEMENTS`` also pin the per-constant ``np.take``
gather to the scalar path.  On top of the kernel-level
fuzz, full encode -> erase -> decode round-trips drive the STAIR, RS, SD
and IDR engines end-to-end on both backends and require identical
recovered stripes and identical counters -- which pins the paper's
Eq. (5) / Eq. (6) Mult_XOR counts to the bulk path as well.
"""

import numpy as np
import pytest

from repro.codes import (IDRScheme, ReedSolomonStripeCode, SDCode,
                         StairStripeCode)
from repro.core.exceptions import DecodingFailureError
from repro.core.stair import StairCode
from repro.gf.field import TAKE_GATHER_MIN_ELEMENTS, get_field
from repro.gf.regions import OperationCounter, ReferenceRegionOps, RegionOps
from repro.rs.cauchy import CauchyRSCode
from repro.rs.vandermonde import VandermondeRSCode

WORD_SIZES = (4, 8, 16)
#: Cases per word size; 3 word sizes x 70 >= 200 cases per kernel.
CASES_PER_W = 70


def make_pair(w):
    """A (bulk, reference) ops pair over the same field, fresh counters."""
    field = get_field(w)
    return (RegionOps(field, OperationCounter()),
            ReferenceRegionOps(field, OperationCounter()))


def biased_constants(rng, field, size):
    """Random coefficients biased toward the 0 and 1 special cases."""
    kind = rng.integers(0, 4, size=size)
    values = rng.integers(0, field.order, size=size, dtype=np.int64)
    values[kind == 0] = 0
    values[kind == 1] = 1
    return values


def random_plane(rng, field, num_symbols, length):
    return rng.integers(0, field.order, size=(num_symbols, length),
                        dtype=field.element_dtype)


@pytest.mark.parametrize("w", WORD_SIZES)
class TestKernelFuzz:
    """>= 200 randomized bulk-vs-reference cases per kernel."""

    def test_mult_xor_plane(self, w):
        bulk, ref = make_pair(w)
        rng = np.random.default_rng(1000 + w)
        for _ in range(CASES_PER_W):
            s = int(rng.integers(1, 9))
            length = int(rng.integers(1, 33))
            src = random_plane(rng, bulk.field, s, length)
            dst = random_plane(rng, bulk.field, s, length)
            constants = biased_constants(rng, bulk.field, s)

            dst_bulk = dst.copy()
            bulk.mult_xor_plane(src, dst_bulk, constants)

            dst_ref = dst.copy()
            for i in range(s):
                ref.mult_xor(src[i], dst_ref[i], int(constants[i]))

            assert np.array_equal(dst_bulk, dst_ref)
            assert bulk.counter.snapshot() == ref.counter.snapshot()

    def test_xor_accumulate_plane(self, w):
        bulk, ref = make_pair(w)
        rng = np.random.default_rng(2000 + w)
        for _ in range(CASES_PER_W):
            s = int(rng.integers(1, 9))
            length = int(rng.integers(1, 33))
            src = random_plane(rng, bulk.field, s, length)
            dst = random_plane(rng, bulk.field, 1, length)[0]

            dst_bulk = dst.copy()
            bulk.xor_accumulate_plane(src, dst_bulk)

            dst_ref = dst.copy()
            for i in range(s):
                ref.xor_into(src[i], dst_ref)

            assert np.array_equal(dst_bulk, dst_ref)
            assert bulk.counter.snapshot() == ref.counter.snapshot()

    def test_matrix_vector_plane(self, w):
        bulk, ref = make_pair(w)
        rng = np.random.default_rng(3000 + w)
        for _ in range(CASES_PER_W):
            s = int(rng.integers(1, 9))
            p = int(rng.integers(1, 7))
            length = int(rng.integers(1, 33))
            matrix = biased_constants(rng, bulk.field, (p, s))
            plane = random_plane(rng, bulk.field, s, length)

            out_bulk = bulk.matrix_vector_plane(matrix, plane)
            out_ref = ref.matrix_vector(matrix, list(plane))

            assert np.array_equal(out_bulk, np.stack(out_ref))
            assert bulk.counter.snapshot() == ref.counter.snapshot()

    def test_matrix_vector_planes(self, w):
        bulk, ref = make_pair(w)
        rng = np.random.default_rng(4000 + w)
        for _ in range(CASES_PER_W):
            batch = int(rng.integers(1, 5))
            s = int(rng.integers(1, 7))
            p = int(rng.integers(1, 6))
            length = int(rng.integers(1, 17))
            matrix = biased_constants(rng, bulk.field, (p, s))
            planes = rng.integers(0, bulk.field.order, size=(batch, s, length),
                                  dtype=bulk.field.element_dtype)

            out_bulk = bulk.matrix_vector_planes(matrix, planes)
            out_ref = ref.matrix_vector_batch(
                matrix, [list(plane) for plane in planes])

            for b in range(batch):
                assert np.array_equal(out_bulk[b], np.stack(out_ref[b]))
            assert bulk.counter.snapshot() == ref.counter.snapshot()

    def test_linear_combination_matches(self, w):
        """The list-level API the coding layers call: bulk vs scalar."""
        bulk, ref = make_pair(w)
        rng = np.random.default_rng(5000 + w)
        for _ in range(CASES_PER_W):
            s = int(rng.integers(1, 9))
            length = int(rng.integers(1, 33))
            symbols = list(random_plane(rng, bulk.field, s, length))
            coeffs = [int(c) for c in biased_constants(rng, bulk.field, s)]

            out_bulk = bulk.linear_combination(coeffs, symbols)
            out_ref = ref.linear_combination(coeffs, symbols)

            assert np.array_equal(out_bulk, out_ref)
            assert bulk.counter.snapshot() == ref.counter.snapshot()


def crossover_matrix(field):
    """A fixed (2, 3) coefficient matrix holding 0, 1 and three others."""
    return np.array([[0, 1, 2], [field.order - 1, 3, 0]], dtype=np.int64)


@pytest.mark.parametrize("w", WORD_SIZES)
@pytest.mark.parametrize("elements", [TAKE_GATHER_MIN_ELEMENTS - 1,
                                      TAKE_GATHER_MIN_ELEMENTS])
class TestCrossoverFuzz:
    """Gathers of exactly crossover - 1 and crossover elements.

    Each case also asserts which gather ran: ``np.take`` from the
    crossover on for w <= 8, the fancy index below it, and the
    log/antilog path (no ``np.take``) for w = 16 on both sides.
    """

    @staticmethod
    def assert_path(w, elements, take_calls):
        uses_take = w <= 8 and elements >= TAKE_GATHER_MIN_ELEMENTS
        assert bool(take_calls) == uses_take

    def test_mult_xor_plane(self, w, elements, take_calls):
        bulk, ref = make_pair(w)
        rng = np.random.default_rng(6000 + w + elements)
        constants = np.array([0, 1, 2, bulk.field.order - 1])
        src = random_plane(rng, bulk.field, len(constants), elements)
        dst = random_plane(rng, bulk.field, len(constants), elements)

        dst_bulk = dst.copy()
        bulk.mult_xor_plane(src, dst_bulk, constants)
        self.assert_path(w, elements, take_calls)

        dst_ref = dst.copy()
        for i, c in enumerate(constants):
            ref.mult_xor(src[i], dst_ref[i], int(c))

        assert np.array_equal(dst_bulk, dst_ref)
        assert bulk.counter.snapshot() == ref.counter.snapshot()

    def test_matrix_vector_plane(self, w, elements, take_calls):
        bulk, ref = make_pair(w)
        rng = np.random.default_rng(7000 + w + elements)
        matrix = crossover_matrix(bulk.field)
        plane = random_plane(rng, bulk.field, matrix.shape[1], elements)

        out_bulk = bulk.matrix_vector_plane(matrix, plane)
        self.assert_path(w, elements, take_calls)
        out_ref = ref.matrix_vector(matrix, list(plane))

        assert np.array_equal(out_bulk, np.stack(out_ref))
        assert bulk.counter.snapshot() == ref.counter.snapshot()

    @pytest.mark.parametrize("batch", [1, 2])
    def test_matrix_vector_planes(self, w, elements, batch, take_calls):
        """With batch 2 each region is about half the crossover, so only
        batch x length decides which side of it the gather falls on."""
        bulk, ref = make_pair(w)
        rng = np.random.default_rng(8000 + w + elements + batch)
        length = elements // batch
        assert ((batch * length >= TAKE_GATHER_MIN_ELEMENTS)
                == (elements >= TAKE_GATHER_MIN_ELEMENTS))
        matrix = crossover_matrix(bulk.field)
        planes = rng.integers(0, bulk.field.order,
                              size=(batch, matrix.shape[1], length),
                              dtype=bulk.field.element_dtype)

        out_bulk = bulk.matrix_vector_planes(matrix, planes)
        self.assert_path(w, elements, take_calls)
        out_ref = ref.matrix_vector_batch(
            matrix, [list(plane) for plane in planes])

        for b in range(batch):
            assert np.array_equal(out_bulk[b], np.stack(out_ref[b]))
        assert bulk.counter.snapshot() == ref.counter.snapshot()


# --------------------------------------------------------------------- #
# Line recovery: one recover_many call vs one recover per codeword
# --------------------------------------------------------------------- #
#: (erased positions, wanted) per codeword of a (7, 4) code: a shared
#: pattern batched three times, the same pattern with narrower targets
#: (a group of one), other patterns with reordered or partly known
#: targets, and codewords with nothing to recover.
MIXED_RECOVERIES = (
    ((0, 5), None),
    ((0, 5), None),
    ((0, 5), None),
    ((0, 5), [5]),
    ((1, 2, 6), [6, 2]),
    ((1, 2, 6), [6, 2]),
    ((3,), [0, 3]),
    ((), None),
    ((4,), []),
)


@pytest.mark.parametrize("w", WORD_SIZES)
@pytest.mark.parametrize("code_cls", [CauchyRSCode, VandermondeRSCode])
@pytest.mark.parametrize("ops_cls", [RegionOps, ReferenceRegionOps])
def test_recover_many_mixed_patterns_match_recover(w, code_cls, ops_cls):
    """Grouping by (pattern, targets) changes neither bits nor counts."""
    field = get_field(w)
    code = code_cls(7, 4, field)
    rng = np.random.default_rng(9000 + w)
    words, damaged, wanted = [], [], []
    for erased, targets in MIXED_RECOVERIES:
        word = code.encode_codeword(random_plane(rng, field, 4, 16))
        words.append(word)
        damaged.append([None if j in erased else sym
                        for j, sym in enumerate(word)])
        wanted.append(targets)

    batch_ops = ops_cls(field, OperationCounter())
    single_ops = ops_cls(field, OperationCounter())
    batched = code.recover_many(damaged, batch_ops, wanted)
    single = [code.recover(cw, single_ops, wanted=targets)
              for cw, targets in zip(damaged, wanted)]

    assert [list(got) for got in batched] == [list(got) for got in single]
    assert [sorted(got) for got in batched] == [
        [0, 5], [0, 5], [0, 5], [5], [2, 6], [2, 6], [3], [], []]
    for word, got, expected in zip(words, batched, single):
        for pos, symbol in got.items():
            assert np.array_equal(symbol, expected[pos])
            assert np.array_equal(symbol, word[pos])
    assert batch_ops.counter.snapshot() == single_ops.counter.snapshot()
    assert batch_ops.counter.total() > 0


# --------------------------------------------------------------------- #
# Engine round-trips: encode -> erase -> decode on both backends
# --------------------------------------------------------------------- #
SYMBOL_SIZE = 4  # small regions keep the scalar reference path affordable


def random_symbols(field, count, rng):
    return [rng.integers(0, field.order, SYMBOL_SIZE,
                         dtype=field.element_dtype) for _ in range(count)]


def random_covered_erasures(rng, r, n, covered, max_losses):
    """A random non-empty loss pattern accepted by ``covered``."""
    while True:
        count = int(rng.integers(1, max_losses + 1))
        cells = [(i, j) for i in range(r) for j in range(n)]
        idx = rng.choice(len(cells), size=count, replace=False)
        pattern = [cells[k] for k in idx]
        if covered(pattern):
            return pattern


def erase(grid, pattern):
    damaged = [list(row) for row in grid]
    for i, j in pattern:
        damaged[i][j] = None
    return damaged


class TestEngineRoundTrips:
    """Both backends must produce identical stripes *and* counters."""

    def _run_stripe_code(self, make_code, trials, seed):
        for trial in range(trials):
            rng = np.random.default_rng(seed + trial)
            bulk_code, ref_code = make_code(), make_code()
            ref_code.ops_class = ReferenceRegionOps
            data = random_symbols(bulk_code.field,
                                 bulk_code.num_data_symbols, rng)

            grid_bulk = bulk_code.encode(data)
            grid_ref = ref_code.encode(data)
            for row_b, row_r in zip(grid_bulk, grid_ref):
                for cell_b, cell_r in zip(row_b, row_r):
                    assert np.array_equal(cell_b, cell_r)
            assert bulk_code.counter.snapshot() == ref_code.counter.snapshot()

            pattern = random_covered_erasures(
                rng, bulk_code.r, bulk_code.n, bulk_code.tolerates,
                max_losses=bulk_code.n)
            bulk_code.counter.reset()
            ref_code.counter.reset()
            dec_bulk = bulk_code.decode(erase(grid_bulk, pattern))
            dec_ref = ref_code.decode(erase(grid_ref, pattern))
            for row_b, row_r in zip(dec_bulk, dec_ref):
                for cell_b, cell_r in zip(row_b, row_r):
                    assert np.array_equal(cell_b, cell_r)
            assert bulk_code.counter.snapshot() == ref_code.counter.snapshot()

    def test_rs_round_trips(self):
        self._run_stripe_code(lambda: ReedSolomonStripeCode(n=6, r=4, m=2),
                              trials=6, seed=10)

    def test_sd_round_trips(self):
        self._run_stripe_code(lambda: SDCode(n=6, r=4, m=1, s=2),
                              trials=6, seed=20)

    def test_idr_round_trips(self):
        self._run_stripe_code(lambda: IDRScheme(n=6, r=4, m=2, epsilon=1),
                              trials=6, seed=30)

    @pytest.mark.parametrize("method", ["upstairs", "downstairs", "standard"])
    def test_stair_round_trips(self, method):
        for trial in range(4):
            rng = np.random.default_rng(40 + trial)
            bulk_code = StairCode.from_params(n=6, r=4, m=1, e=(1, 1),
                                              method=method)
            ref_code = StairCode.from_params(n=6, r=4, m=1, e=(1, 1),
                                             method=method)
            ref_code.ops_class = ReferenceRegionOps
            data = random_symbols(bulk_code.field,
                                  bulk_code.config.num_data_symbols, rng)

            stripe_bulk = bulk_code.encode(data)
            stripe_ref = ref_code.encode(data)
            for pos_b, pos_r in zip(stripe_bulk.symbols, stripe_ref.symbols):
                for cell_b, cell_r in zip(pos_b, pos_r):
                    assert np.array_equal(cell_b, cell_r)
            assert bulk_code.counter.snapshot() == ref_code.counter.snapshot()

            pattern = random_covered_erasures(
                rng, bulk_code.config.r, bulk_code.config.n,
                bulk_code.check_coverage, max_losses=bulk_code.config.r)
            bulk_code.counter.reset()
            ref_code.counter.reset()
            dec_bulk = bulk_code.decode(erase(stripe_bulk.symbols, pattern))
            dec_ref = ref_code.decode(erase(stripe_ref.symbols, pattern))
            for pos_b, pos_r in zip(dec_bulk.symbols, dec_ref.symbols):
                for cell_b, cell_r in zip(pos_b, pos_r):
                    assert np.array_equal(cell_b, cell_r)
            assert bulk_code.counter.snapshot() == ref_code.counter.snapshot()

    def test_stair_solve_fallback_round_trips(self):
        """Patterns beyond the (m, e) schedule that the code still
        determines decode through ``StripeCode.solve``."""
        for trial in range(4):
            rng = np.random.default_rng(60 + trial)
            bulk_code = StairStripeCode(n=6, r=4, m=1, e=(1, 1))
            ref_code = StairStripeCode(n=6, r=4, m=1, e=(1, 1))
            ref_code.code.ops_class = ReferenceRegionOps
            data = random_symbols(bulk_code.field,
                                  bulk_code.num_data_symbols, rng)
            grid_bulk = bulk_code.encode(data)
            grid_ref = ref_code.encode(data)

            def beyond_schedule(pattern):
                if (bulk_code.tolerates(pattern)
                        or not bulk_code.recoverable(pattern)):
                    return False
                probe = StairCode.from_params(n=6, r=4, m=1, e=(1, 1))
                try:
                    probe.decode(erase(grid_bulk, pattern))
                except DecodingFailureError:
                    return True
                return False

            pattern = random_covered_erasures(
                rng, bulk_code.r, bulk_code.n, beyond_schedule,
                max_losses=bulk_code.num_parity_symbols)
            bulk_code.counter.reset()
            ref_code.counter.reset()
            dec_bulk = bulk_code.decode(erase(grid_bulk, pattern))
            dec_ref = ref_code.decode(erase(grid_ref, pattern))
            for row_b, row_r, row_g in zip(dec_bulk, dec_ref, grid_bulk):
                for cell_b, cell_r, cell_g in zip(row_b, row_r, row_g):
                    assert np.array_equal(cell_b, cell_r)
                    assert np.array_equal(cell_b, cell_g)
            assert bulk_code.counter.snapshot() == ref_code.counter.snapshot()

    def test_stair_eq5_eq6_counts_unchanged_by_bulk_path(self):
        """The analytical Eq. (5)/(6) Mult_XOR totals still hold exactly."""
        code = StairCode.from_params(n=8, r=6, m=2, e=(2, 1))
        costs = code.mult_xor_counts()
        rng = np.random.default_rng(99)
        data = random_symbols(code.field, code.config.num_data_symbols, rng)
        for method, expected in (("upstairs", costs.upstairs),
                                 ("downstairs", costs.downstairs)):
            code.counter.reset()
            code.encode(data, method=method)
            assert code.counter.total() == expected


# --------------------------------------------------------------------- #
# Satellite regressions: counter contract and w=16 wire format
# --------------------------------------------------------------------- #
class TestCounterContract:
    def test_zero_constant_counts_nothing(self):
        """``constant == 0`` is an early return: no ops, no bytes."""
        for ops_cls in (RegionOps, ReferenceRegionOps):
            ops = ops_cls(get_field(8), OperationCounter())
            src = np.arange(16, dtype=np.uint8)
            dst = np.zeros(16, dtype=np.uint8)
            ops.mult_xor(src, dst, 0)
            assert ops.counter.snapshot() == (0, 0, 0)
            assert not dst.any()

    def test_zero_rows_of_plane_count_nothing(self):
        ops = RegionOps(get_field(8), OperationCounter())
        src = np.ones((3, 8), dtype=np.uint8)
        dst = np.zeros((3, 8), dtype=np.uint8)
        ops.mult_xor_plane(src, dst, [0, 0, 0])
        assert ops.counter.snapshot() == (0, 0, 0)
        assert not dst.any()

    def test_one_and_other_constants_split_correctly(self):
        ops = RegionOps(get_field(8), OperationCounter())
        src = np.ones((3, 8), dtype=np.uint8)
        dst = np.zeros((3, 8), dtype=np.uint8)
        ops.mult_xor_plane(src, dst, [0, 1, 5])
        # one XOR (constant 1), one Mult_XOR (constant 5), bytes for both.
        assert ops.counter.snapshot() == (1, 1, 16)


class TestWireFormatW16:
    def test_from_bytes_is_little_endian(self):
        ops = RegionOps(get_field(16))
        symbol = ops.from_bytes(b"\x01\x02\xff\x00")
        assert symbol.dtype == np.uint16
        assert list(symbol) == [0x0201, 0x00FF]

    def test_round_trip(self):
        ops = RegionOps(get_field(16))
        blob = bytes(range(16))
        assert ops.to_bytes(ops.from_bytes(blob)) == blob

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            RegionOps(get_field(16)).from_bytes(b"\x01\x02\x03")
