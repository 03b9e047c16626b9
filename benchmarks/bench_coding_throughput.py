"""Throughput of the bulk stripe-planar coding kernels.

The coding layer routes every encode/decode through the 2-D byte-plane
kernels of :mod:`repro.gf.regions` (one table-row gather per coefficient
plus ``np.bitwise_xor.reduce``).  The retained scalar path
(:class:`~repro.gf.regions.ReferenceRegionOps`, element-at-a-time
``GField.mul``) is the ground truth of the differential fuzz harness and
the baseline these floors are committed against:

* RS-encode a 1 MiB stripe (8 data symbols x 128 KiB, m = 2) at
  >= 12.5 MB/s on the bulk path;
* decode the same stripe after a double device failure at >= 10 MB/s;
* STAIR-encode (n=8, r=6, m=2, e=(2,1)) at >= 5 MB/s;
* the bulk path is >= 100x faster than the scalar reference path on
  the 1 MiB stripe (measured ~123x at floor-setting time), with
  bit-identical output and identical ``OperationCounter`` totals;
* ``GField.mul_rows`` on a (6, 16384) plane is >= 2x faster than the
  inline 2-D fancy index ``mul_table[c[:, None], plane]`` it replaced
  above the gather crossover (measured ~3.6x).

``test_gather_crossover_summary`` is the microbenchmark behind
``repro.gf.field.TAKE_GATHER_MIN_ELEMENTS``: it times both gathers of
``mul_rows`` and ``mul_gather`` at sizes around the crossover.

``test_fold_sweep_summary`` is the sweep behind
``repro.store.codec.FOLD_MAX_BYTES``: per-stripe against folded object
encode and decode by symbol size, on the store's ledger code.  Its
tripwire: a folded 4 KiB object encode at 128 B symbols is >= 1.5x
faster than one ``code.encode`` per stripe with per-symbol conversions
(measured ~1.9x).

``test_encoder_cost_sweep`` is the sweep behind the cost-rule constants
of :mod:`repro.core.complexity`: it times the three STAIR encoders from
128 B to 32 KiB symbols, on the ledger code and a wide code at w = 8
and w = 16, fits the constants and prints which method wins at each
length.  Its tripwire, ``test_auto_encoder_tracks_fastest_method``: on
the ledger code, ``method="auto"`` is >= 1.5x faster than upstairs (the
Mult_XOR winner) at 128 B symbols and within 1.15x of the fastest
method at 16 KiB.

pytest-benchmark provides the statistical timing; the hard assertions
use wall-clock directly so they hold even without the plugin's
comparison machinery.
"""

import time

import numpy as np

import repro.core.complexity as complexity
import repro.gf.field as gf_field
import repro.store.codec as store_codec
from repro.codes import ReedSolomonStripeCode, parse_code_spec
from repro.core.config import StairConfig
from repro.core.stair import StairCode
from repro.gf.regions import ReferenceRegionOps, RegionOps
from repro.gf.tables import get_tables

#: The 1 MiB benchmark stripe: one row of 8 data symbols x 128 KiB.
RS_N, RS_M = 10, 2
SYMBOL_BYTES = 128 * 1024
DATA_SYMBOLS = RS_N - RS_M
STRIPE_MB = DATA_SYMBOLS * SYMBOL_BYTES / 1e6

#: Committed floors (measured ~100 MB/s encode, ~84 MB/s decode,
#: ~41 MB/s STAIR encode on the floor-setting machine; ~8x headroom).
ENCODE_FLOOR_MBPS = 12.5
DECODE_FLOOR_MBPS = 10.0
STAIR_FLOOR_MBPS = 5.0
SPEEDUP_FLOOR = 100.0
#: ``mul_rows`` vs the inline 2-D fancy index on a (6, 16384) plane.
GATHER_SPEEDUP_FLOOR = 2.0
GATHER_PLANE_SHAPE = (6, 16384)

STAIR_SYMBOL_BYTES = 16 * 1024

#: The code of every store workload in ``benchmarks/ledger``.
LEDGER_CODE = "stair(n=8,r=4,m=2,e=(1,1))"
#: Folded vs per-stripe encode of a 4 KiB object at 128 B symbols.
FOLD_SPEEDUP_FLOOR = 1.5
#: Folded row lengths the sweep times, beyond one symbol per stripe.
FOLD_SWEEP_BYTES = (4096, 16384, 65536, 262144)

#: Codes of the encoder cost sweep: the ledger code and two wide codes,
#: the second with global parities that depend on every data symbol.
COST_SWEEP_CODES = {"ledger": (8, 4, 2, (1, 1)),
                    "wide": (16, 16, 2, (1, 1, 2)),
                    "wide-s1": (16, 16, 2, (1,))}
#: Symbol lengths of the encoder cost sweep.
COST_SWEEP_BYTES = (128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768)
#: ``method="auto"`` against upstairs at 128 B symbols on the ledger code.
AUTO_SMALL_SPEEDUP_FLOOR = 1.5
#: ``method="auto"`` against the fastest method at 16 KiB symbols.
AUTO_LARGE_SLOWDOWN_CEILING = 1.15


def _rs_code():
    return ReedSolomonStripeCode(n=RS_N, r=1, m=RS_M)


def _stripe_data(seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, SYMBOL_BYTES, dtype=np.uint8)
            for _ in range(DATA_SYMBOLS)]


def _damage(grid):
    damaged = [list(grid[0])]
    damaged[0][0] = None
    damaged[0][1] = None
    return damaged


def _best_of(fn, runs=3):
    """Best wall-clock of ``runs`` executions (noise-resistant floor)."""
    best = float("inf")
    result = None
    for _ in range(runs):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_bulk_encode_meets_mbps_floor():
    code = _rs_code()
    data = _stripe_data()
    code.encode(data)  # warm numpy caches outside the timed window
    elapsed, _ = _best_of(lambda: code.encode(data))
    rate = STRIPE_MB / elapsed
    assert rate >= ENCODE_FLOOR_MBPS, (
        f"bulk RS encode ran at {rate:.1f} MB/s "
        f"(floor: {ENCODE_FLOOR_MBPS} MB/s)")


def test_bulk_decode_meets_mbps_floor():
    code = _rs_code()
    damaged = _damage(code.encode(_stripe_data()))
    code.decode(damaged)  # warm
    elapsed, repaired = _best_of(lambda: code.decode(damaged))
    assert all(cell is not None for cell in repaired[0])
    rate = STRIPE_MB / elapsed
    assert rate >= DECODE_FLOOR_MBPS, (
        f"bulk RS decode ran at {rate:.1f} MB/s "
        f"(floor: {DECODE_FLOOR_MBPS} MB/s)")


def test_stair_encode_meets_mbps_floor():
    code = StairCode.from_params(n=8, r=6, m=2, e=(2, 1))
    rng = np.random.default_rng(1)
    data = [rng.integers(0, 256, STAIR_SYMBOL_BYTES, dtype=np.uint8)
            for _ in range(code.config.num_data_symbols)]
    mb = len(data) * STAIR_SYMBOL_BYTES / 1e6
    code.encode(data)  # warm (also derives/caches the encoding method)
    elapsed, _ = _best_of(lambda: code.encode(data))
    rate = mb / elapsed
    assert rate >= STAIR_FLOOR_MBPS, (
        f"bulk STAIR encode ran at {rate:.1f} MB/s "
        f"(floor: {STAIR_FLOOR_MBPS} MB/s)")


def test_bulk_beats_scalar_reference_100x():
    """The acceptance criterion of the stripe-planar rewrite: >= 100x
    over the per-symbol scalar path on a 1 MiB stripe, with identical
    output symbols and identical operation counts."""
    bulk_code = _rs_code()
    ref_code = _rs_code()
    ref_code.ops_class = ReferenceRegionOps
    data = _stripe_data(seed=2)

    bulk_code.encode(data)  # warm
    bulk_elapsed, bulk_grid = _best_of(lambda: bulk_code.encode(data))

    ref_code.counter.reset()
    start = time.perf_counter()
    ref_grid = ref_code.encode(data)
    ref_elapsed = time.perf_counter() - start

    for cell_b, cell_r in zip(bulk_grid[0], ref_grid[0]):
        assert np.array_equal(cell_b, cell_r)
    bulk_code.counter.reset()
    bulk_code.encode(data)
    assert bulk_code.counter.snapshot() == ref_code.counter.snapshot()

    speedup = ref_elapsed / bulk_elapsed
    assert speedup >= SPEEDUP_FLOOR, (
        f"bulk path only {speedup:.0f}x faster than the scalar reference "
        f"({STRIPE_MB / bulk_elapsed:.1f} vs {STRIPE_MB / ref_elapsed:.3f} "
        f"MB/s; floor: {SPEEDUP_FLOOR:.0f}x)")


def _gather_operands(shape, seed=3):
    rng = np.random.default_rng(seed)
    constants = rng.integers(2, 256, shape[0]).astype(np.int64)
    return constants, rng.integers(0, 256, shape, dtype=np.uint8)


def _per_call(fn, calls=10, runs=15):
    """Best per-call wall-clock of ``fn`` over ``runs`` batches."""
    elapsed, _ = _best_of(lambda: [fn() for _ in range(calls)], runs=runs)
    return elapsed / calls


def test_mul_rows_beats_fancy_index_2x():
    """Tripwire for the per-constant ``np.take`` gather: on long rows,
    ``mul_rows`` must stay well ahead of one 2-D fancy index."""
    field = gf_field.get_field(8)
    table = get_tables(8).mul_table
    constants, plane = _gather_operands(GATHER_PLANE_SHAPE)

    def fancy():
        return table[constants[:, None], plane]

    assert np.array_equal(field.mul_rows(constants, plane), fancy())
    t_rows = _per_call(lambda: field.mul_rows(constants, plane))
    t_fancy = _per_call(fancy)
    speedup = t_fancy / t_rows
    assert speedup >= GATHER_SPEEDUP_FLOOR, (
        f"mul_rows only {speedup:.1f}x faster than the 2-D fancy index on "
        f"a {GATHER_PLANE_SHAPE} plane ({t_rows * 1e6:.0f} vs "
        f"{t_fancy * 1e6:.0f} us; floor: {GATHER_SPEEDUP_FLOOR:.0f}x)")


def test_gather_crossover_summary(capsys, monkeypatch):
    """Time both gathers of ``mul_rows`` (4 rows) and ``mul_gather``
    (2 constants over a (4, L/4) batch column) around the crossover.

    The crossover constant is forced to 0 (always ``np.take``) or past
    every size (always the fancy index), so both columns time the
    shipped kernel code.
    """
    field = gf_field.get_field(8)
    shipped = gf_field.TAKE_GATHER_MIN_ELEMENTS
    rows = []
    for size in (256, 512, 1024, 2048, 16384):
        constants, plane = _gather_operands((4, size))
        batch = plane.reshape(4, 4, size // 4)[:, 1, :]
        kernels = {"mul_rows": lambda: field.mul_rows(constants, plane),
                   "mul_gather": lambda: field.mul_gather(constants[:2],
                                                          batch)}
        for name, kernel in kernels.items():
            timings = []
            for crossover in (2 ** 62, 0):
                monkeypatch.setattr(gf_field, "TAKE_GATHER_MIN_ELEMENTS",
                                    crossover)
                timings.append(_per_call(kernel, calls=20, runs=7))
            rows.append((name, size, *timings))
    with capsys.disabled():
        print("\n[bench_coding_throughput] gather crossover "
              f"(shipped: {shipped} elements)")
        for name, size, fancy, take in rows:
            print(f"  {name:10s} {size:6d} elements: fancy index "
                  f"{fancy * 1e6:7.1f} us, np.take {take * 1e6:7.1f} us "
                  f"({fancy / take:4.2f}x)")


def _per_stripe_encode(code, symbol_bytes, data):
    """One ``code.encode`` per stripe, every symbol converted on its
    own: the object encode that folding replaced."""
    ops = RegionOps(code.field)
    payload = code.num_data_symbols * symbol_bytes
    out = []
    for start in range(0, len(data), payload):
        piece = data[start:start + payload].ljust(payload, b"\x00")
        grid = code.encode([
            ops.from_bytes(piece[k * symbol_bytes:(k + 1) * symbol_bytes])
            for k in range(code.num_data_symbols)])
        out.append([b"".join(ops.to_bytes(grid[i][j])
                             for i in range(code.r))
                    for j in range(code.n)])
    return out


def test_folded_object_encode_beats_per_stripe():
    """Tripwire for the codec's fold: a 4 KiB object on the ledger code
    at 128 B symbols is two stripes, encoded in one code call."""
    code = parse_code_spec(LEDGER_CODE)
    codec = store_codec.ObjectCodec(code, symbol_bytes=128)
    data = np.random.default_rng(4).bytes(4096)
    assert codec.encode_object(data) == _per_stripe_encode(code, 128, data)
    t_stripes = _per_call(lambda: _per_stripe_encode(code, 128, data))
    t_folded = _per_call(lambda: codec.encode_object(data))
    speedup = t_stripes / t_folded
    assert speedup >= FOLD_SPEEDUP_FLOOR, (
        f"folded 4 KiB object encode only {speedup:.2f}x faster than one "
        f"code call per stripe ({t_folded * 1e6:.0f} vs "
        f"{t_stripes * 1e6:.0f} us; floor: {FOLD_SPEEDUP_FLOOR}x)")


def test_fold_sweep_summary(capsys, monkeypatch):
    """Per-stripe time of object encode and of a degraded run decode
    (data column 0 lost), one stripe per code call against folded rows
    of 4 to 256 KiB.  ``FOLD_MAX_BYTES`` is forced to each length, so
    every row times the shipped codec; the object is 256 KiB of folded
    row long, so every length codes it in whole calls."""
    code = parse_code_spec(LEDGER_CODE)
    shipped = store_codec.FOLD_MAX_BYTES
    rng = np.random.default_rng(5)
    rows = []
    for symbol_bytes in (128, 512, 2048, 16384):
        codec = store_codec.ObjectCodec(code, symbol_bytes=symbol_bytes)
        stripes = max(FOLD_SWEEP_BYTES) // symbol_bytes
        data = rng.bytes(stripes * codec.stripe_payload_bytes)
        chunks = codec.encode_object(data)
        run = [None] + [b"".join(stripe[j] for stripe in chunks)
                        for j in range(1, code.n)]
        for fold in (0, *[row for row in FOLD_SWEEP_BYTES
                          if row > symbol_bytes]):
            monkeypatch.setattr(store_codec, "FOLD_MAX_BYTES", fold)
            encode = _per_call(lambda: codec.encode_object(data),
                               calls=1, runs=3)
            decode = _per_call(lambda: codec.decode_stripe(run),
                               calls=1, runs=3)
            rows.append((symbol_bytes, codec.fold_stripes * symbol_bytes,
                         encode / stripes, decode / stripes))
    with capsys.disabled():
        print("\n[bench_coding_throughput] fold sweep on "
              f"{LEDGER_CODE} (shipped FOLD_MAX_BYTES: {shipped}), "
              "time per stripe")
        for symbol_bytes, row, encode, decode in rows:
            label = "per-stripe" if row == symbol_bytes else f"{row:6d} B"
            print(f"  {symbol_bytes:5d} B symbols, {label:>10s} rows: "
                  f"encode {encode * 1e6:7.1f} us, "
                  f"decode {decode * 1e6:7.1f} us")


def _stair_code(params, w, monkeypatch):
    """A STAIR code of ``params = (n, r, m, e)`` over GF(2^w).  The
    sweep's geometries fit w = 8; w = 16 is forced through
    ``StairConfig.field`` so both widths time the same schedules."""
    n, r, m, e = params
    with monkeypatch.context() as patch:
        patch.setattr(StairConfig, "field",
                      lambda self: gf_field.get_field(w))
        return StairCode(StairConfig(n=n, r=r, m=m, e=e))


def _sweep_data(code, symbol_bytes, seed=6):
    rng = np.random.default_rng(seed)
    dtype = code.field.element_dtype
    return [rng.integers(0, code.field.order, symbol_bytes // dtype.itemsize,
                         dtype=dtype)
            for _ in range(code.config.num_data_symbols)]


def _time_methods(code, data, rounds):
    """Best microseconds of one encode per method, rounds interleaved."""
    methods = complexity.METHODS
    grids = [code.encode(data, method=method).symbols for method in methods]
    for grid in grids[1:]:
        assert all(np.array_equal(a, b)
                   for row_a, row_b in zip(grids[0], grid)
                   for a, b in zip(row_a, row_b))
    timings = {method: [] for method in methods}
    for _ in range(rounds):
        for method in methods:
            start = time.perf_counter()
            code.encode(data, method=method)
            timings[method].append(time.perf_counter() - start)
    return {method: min(t) * 1e6 for method, t in timings.items()}


def _fit_cost_constants(rows):
    """Least-squares fit of the cost rule, in relative error:
    ``(KERNEL_CALL_US, {w: MULT_XOR_US}, {w: MULT_XOR_BYTE_US})``."""
    widths = sorted({row[0] for row in rows})
    features, weights = [], []
    for w, _, symbol_bytes, _, mult_xors, calls, elapsed_us in rows:
        per_width = [mult_xors * (w == width) for width in widths]
        features.append([calls, *per_width,
                         *[x * symbol_bytes for x in per_width]])
        weights.append(1.0 / elapsed_us)
    weights = np.array(weights)
    fit, *_ = np.linalg.lstsq(np.array(features) * weights[:, None],
                              np.ones(len(rows)), rcond=None)
    return (fit[0], dict(zip(widths, fit[1:1 + len(widths)])),
            dict(zip(widths, fit[1 + len(widths):])))


def test_encoder_cost_sweep(capsys, monkeypatch):
    """Time upstairs, downstairs and standard encoding by symbol length,
    fit the cost rule and report the winners.

    Each row is the best of interleaved rounds.  The table marks
    where the shipped constants pick a method other than the measured
    fastest, and by how much that pick is slower."""
    rows, table = [], []
    for w in (8, 16):
        for label, params in COST_SWEEP_CODES.items():
            code = _stair_code(params, w, monkeypatch)
            mult_xors = code.mult_xor_counts()
            calls = code.kernel_call_counts()
            for symbol_bytes in COST_SWEEP_BYTES:
                data = _sweep_data(code, symbol_bytes)
                rounds = 7 if symbol_bytes * len(data) <= 1 << 20 else 3
                timings = _time_methods(code, data, rounds)
                for method, elapsed in timings.items():
                    rows.append((w, label, symbol_bytes, method,
                                 getattr(mult_xors, method),
                                 getattr(calls, method), elapsed))
                picked = code.select_encoding_method(symbol_bytes)
                fastest = min(timings, key=timings.get)
                table.append((w, label, symbol_bytes, timings, fastest,
                              picked, timings[picked] / timings[fastest]))
    call_us, mult_xor_us, byte_us = _fit_cost_constants(rows)
    with capsys.disabled():
        print("\n[bench_coding_throughput] encoder cost sweep, best us "
              "per encode (* = fastest; auto = the shipped cost rule)")
        for w, label, size, timings, fastest, picked, ratio in table:
            cells = "  ".join(
                f"{method[:4]} {elapsed:8.0f}{'*' if method == fastest else ' '}"
                for method, elapsed in timings.items())
            print(f"  w={w:2d} {label:6s} {size:6d} B: {cells}  auto: "
                  f"{picked}" + (f" ({ratio:.2f}x)" if ratio > 1 else ""))
        for name, (call, fixed, per_byte) in {
                "fit": (call_us, mult_xor_us, byte_us),
                "shipped": (complexity.KERNEL_CALL_US, complexity.MULT_XOR_US,
                            complexity.MULT_XOR_BYTE_US)}.items():
            print(f"  {name + ':':8s} KERNEL_CALL_US {call:5.1f}, "
                  + ", ".join(f"w={w}: MULT_XOR_US {fixed[w]:.3f} "
                              f"MULT_XOR_BYTE_US {per_byte[w]:.5f}"
                              for w in sorted(fixed)))


def _best_interleaved(fns, calls, runs=9):
    """Best per-call wall-clock of each of ``fns``, their batches
    interleaved so a change of machine speed hits them alike."""
    best = {name: float("inf") for name in fns}
    for _ in range(runs):
        for name, fn in fns.items():
            elapsed, _ = _best_of(lambda: [fn() for _ in range(calls)],
                                  runs=1)
            best[name] = min(best[name], elapsed / calls)
    return best


def test_auto_encoder_tracks_fastest_method():
    """Tripwire for the cost rule on the store's ledger code: "auto"
    beats upstairs (the Mult_XOR winner) on short symbols and stays
    with the fastest method on long ones."""
    code = parse_code_spec(LEDGER_CODE).code
    small = _sweep_data(code, 128)
    t = _best_interleaved({
        "auto": lambda: code.encode(small),
        "upstairs": lambda: code.encode(small, method="upstairs")},
        calls=20)
    speedup = t["upstairs"] / t["auto"]
    assert speedup >= AUTO_SMALL_SPEEDUP_FLOOR, (
        f"auto encode at 128 B symbols only {speedup:.2f}x faster than "
        f"upstairs ({t['auto'] * 1e6:.0f} vs {t['upstairs'] * 1e6:.0f} us; "
        f"floor: {AUTO_SMALL_SPEEDUP_FLOOR}x)")
    large = _sweep_data(code, 16384)
    t = _best_interleaved({
        "auto": lambda: code.encode(large),
        **{method: lambda method=method: code.encode(large, method=method)
           for method in complexity.METHODS}}, calls=3)
    fastest = min(t[method] for method in complexity.METHODS)
    slowdown = t["auto"] / fastest
    assert slowdown <= AUTO_LARGE_SLOWDOWN_CEILING, (
        f"auto encode at 16 KiB symbols {slowdown:.2f}x slower than the "
        f"fastest method ({t['auto'] * 1e6:.0f} vs {fastest * 1e6:.0f} us; "
        f"ceiling: {AUTO_LARGE_SLOWDOWN_CEILING}x)")


def test_bench_rs_bulk_encode(benchmark):
    code = _rs_code()
    data = _stripe_data()
    grid = benchmark(lambda: code.encode(data))
    assert len(grid[0]) == RS_N


def test_bench_rs_bulk_decode(benchmark):
    code = _rs_code()
    damaged = _damage(code.encode(_stripe_data()))
    repaired = benchmark(lambda: code.decode(damaged))
    assert all(cell is not None for cell in repaired[0])


def test_bench_stair_bulk_encode(benchmark):
    code = StairCode.from_params(n=8, r=6, m=2, e=(2, 1))
    rng = np.random.default_rng(1)
    data = [rng.integers(0, 256, STAIR_SYMBOL_BYTES, dtype=np.uint8)
            for _ in range(code.config.num_data_symbols)]
    stripe = benchmark(lambda: code.encode(data))
    assert stripe.symbols[0][0] is not None


def test_throughput_summary(capsys):
    """Report MB/s for the committed floor configurations."""
    code = _rs_code()
    data = _stripe_data()
    code.encode(data)
    enc, _ = _best_of(lambda: code.encode(data))
    damaged = _damage(code.encode(data))
    code.decode(damaged)
    dec, _ = _best_of(lambda: code.decode(damaged))
    with capsys.disabled():
        print(f"\n[bench_coding_throughput] 1 MiB stripe: encode "
              f"{STRIPE_MB / enc:.1f} MB/s, double-failure decode "
              f"{STRIPE_MB / dec:.1f} MB/s")
    assert STRIPE_MB / enc >= ENCODE_FLOOR_MBPS
    assert STRIPE_MB / dec >= DECODE_FLOOR_MBPS
