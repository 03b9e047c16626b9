"""Throughput of the Monte Carlo reliability simulator.

The benchmark discipline here mirrors the speed benchmarks of §6: the
vectorized batch runner must not be a naive per-event Python loop.
Asserted floors (also acceptance criteria of the subsystem):

* 1,000 independent m = 1 cluster lifetimes for a ~100-device cluster
  in under 60 s, bit-for-bit reproducible from a seed;
* >= 1,000 lifetimes/s for an m = 2 SD cluster on the vectorized path
  (no event-engine fallback);
* >= 20,000 regeneration cycles/s for the rare-event estimator at the
  paper's 1/λ = 500,000 h m = 2 operating point (where direct
  simulation cannot converge at all), and >= 100,000 cycles/s at the
  same point with rack shocks plus a bad batch active;
* >= 25,000 snapshot rows/s for the failure-trace path end to end
  (parse the drive-stats CSV, reduce to censored lifespans, fit the
  piecewise-exponential hazard model);
* the sweep orchestrator (repro.scenario.sweep) is pure overhead on
  top of the engines: a parallel 4-cell fan-out stays within a lenient
  budget of the serial run (pool spawn included), and an all-hits
  cached replay serves >= 200 cells/s without touching any engine.

pytest-benchmark provides the statistical timing; the hard assertions
use wall-clock directly so they hold even without the plugin's
comparison machinery.
"""

import io
import os
import time

import numpy as np
import pytest

from repro.codes.registry import parse_code_spec
from repro.scenario import ScenarioSpec
from repro.scenario.sweep import SweepSpec, run_sweep
from repro.sim.domains import FailureDomains
from repro.sim.events import ClusterSimulation, Scenario
from repro.sim.lifetimes import ExponentialLifetime, ExponentialRepair
from repro.sim.montecarlo import (
    simulate_array_lifetimes,
    simulate_cluster_lifetimes,
)
from repro.sim.rare import estimate_rare_mttdl
from repro.sim.traces import (
    EmpiricalLifetime,
    generate_trace,
    load_drive_stats_csv,
    write_drive_stats_csv,
)

#: 13 arrays x 8 devices = 104 devices, the "100-device cluster" floor.
CLUSTER_ARRAYS = 13
CLUSTER_N = 8
CLUSTER_TRIALS = 1000

#: Rare-event floor: regeneration cycles at the paper's m = 2 operating
#: point (P_arr from the SD s=2 row of the validation table).
RARE_CYCLES = 100_000
RARE_P_ARR = 4.366e-09


def _run_rare_paper_m2(seed: int = 0):
    """The paper's §7 m = 2 operating point (1/λ = 500,000 h,
    1/μ = 17.8 h, MTTDL ~ 1e12 h): unreachable for direct Monte Carlo,
    a fixed budget of biased regeneration cycles for the rare-event
    estimator."""
    return estimate_rare_mttdl(
        CLUSTER_N, RARE_P_ARR, m=2, seed=seed,
        lifetime=ExponentialLifetime(500_000.0),
        repair=ExponentialRepair(17.8),
        target_rel_se=1e-9,  # never met: always runs the full budget
        max_cycles=RARE_CYCLES, batch_cycles=50_000)


#: Correlated rare-event floor: the same operating point with rack
#: shocks (single-device groups) and a quarter of each array at 2x wear.
RARE_CORRELATED_DOMAINS = FailureDomains(racks=CLUSTER_N,
                                         rack_shock_rate_per_hour=2e-6,
                                         batch_fraction=0.25,
                                         batch_accel=2.0)
RARE_CORRELATED_CYCLES_PER_SECOND = 100_000.0


def _run_rare_correlated(seed: int = 0):
    """The correlated path of the rare-event busy-cycle machine: shock
    clocks, batch-wear scaling and shock-initiated cycles on every
    batch, at the paper's m = 2 operating point."""
    return estimate_rare_mttdl(
        CLUSTER_N, RARE_P_ARR, m=2, seed=seed,
        lifetime=ExponentialLifetime(500_000.0),
        repair=ExponentialRepair(17.8),
        domains=RARE_CORRELATED_DOMAINS,
        target_rel_se=1e-9,  # never met: always runs the full budget
        max_cycles=RARE_CYCLES, batch_cycles=50_000)


def _run_cluster(seed: int = 0):
    return simulate_cluster_lifetimes(
        CLUSTER_N, CLUSTER_ARRAYS, p_arr=1e-4, trials=CLUSTER_TRIALS,
        seed=seed, lifetime=ExponentialLifetime(500_000.0),
        repair=ExponentialRepair(17.8))


def _run_m2_sd_cluster(seed: int = 0):
    """An SD(n=8, m=2) cluster in an accelerated-failure regime: short
    device lifetimes and long rebuilds make critical mode (and the
    P_arr sector trip) reachable within a tractable number of
    failure/repair cycles per lifetime."""
    return simulate_cluster_lifetimes(
        CLUSTER_N, CLUSTER_ARRAYS, p_arr=0.05, trials=CLUSTER_TRIALS,
        seed=seed, lifetime=ExponentialLifetime(50_000.0),
        repair=ExponentialRepair(100.0), m=2)


def _run_correlated_cluster(seed: int = 0):
    """The correlated-failure scenario of the validation bench: rack
    shocks under domain-spread placement (single-device groups), which
    adds a per-lane compound-Poisson term to every round."""
    return simulate_cluster_lifetimes(
        CLUSTER_N, CLUSTER_ARRAYS, p_arr=0.0, trials=CLUSTER_TRIALS,
        seed=seed, lifetime=ExponentialLifetime(500_000.0),
        repair=ExponentialRepair(17.8),
        domains=FailureDomains(racks=CLUSTER_N,
                               rack_shock_rate_per_hour=1e-4))


def test_cluster_lifetimes_under_60s():
    start = time.perf_counter()
    result = _run_cluster()
    elapsed = time.perf_counter() - start
    assert result.trials == CLUSTER_TRIALS
    assert result.losses == CLUSTER_TRIALS
    assert elapsed < 60.0, f"vectorized runner took {elapsed:.1f}s"


def test_cluster_lifetimes_reproducible():
    first = _run_cluster(seed=42)
    second = _run_cluster(seed=42)
    assert np.array_equal(first.times, second.times)
    third = _run_cluster(seed=43)
    assert not np.array_equal(first.times, third.times)


def test_m2_sd_cluster_sustains_1000_lifetimes_per_second():
    """Acceptance criterion: the vectorized m >= 2 path (not the
    ~100x slower event engine) simulates an m = 2 SD cluster at
    >= 1,000 lifetimes/s."""
    _run_m2_sd_cluster()  # warm numpy caches outside the timed window
    start = time.perf_counter()
    result = _run_m2_sd_cluster(seed=1)
    elapsed = time.perf_counter() - start
    assert result.trials == CLUSTER_TRIALS
    assert result.losses == CLUSTER_TRIALS
    assert result.metadata["m"] == 2
    rate = CLUSTER_TRIALS / elapsed
    assert rate >= 1000.0, (
        f"m=2 SD vectorized path ran at {rate:,.0f} lifetimes/s "
        f"(floor: 1,000/s)")


def test_m2_sd_cluster_reproducible():
    first = _run_m2_sd_cluster(seed=42)
    second = _run_m2_sd_cluster(seed=42)
    assert np.array_equal(first.times, second.times)


def test_correlated_cluster_sustains_500_lifetimes_per_second():
    """The failure-domain shock term must not demote the vectorized
    runner to event-engine speeds: >= 500 lifetimes/s with rack shocks
    active on every lane."""
    _run_correlated_cluster()  # warm numpy caches outside the timed window
    start = time.perf_counter()
    result = _run_correlated_cluster(seed=1)
    elapsed = time.perf_counter() - start
    assert result.trials == CLUSTER_TRIALS
    assert result.losses == CLUSTER_TRIALS
    rate = CLUSTER_TRIALS / elapsed
    assert rate >= 500.0, (
        f"correlated vectorized path ran at {rate:,.0f} lifetimes/s "
        f"(floor: 500/s)")


def test_correlated_cluster_reproducible():
    first = _run_correlated_cluster(seed=42)
    second = _run_correlated_cluster(seed=42)
    assert np.array_equal(first.times, second.times)


def test_rare_event_sustains_20000_cycles_per_second():
    """Acceptance criterion: the rare-event estimator simulates biased
    regeneration cycles at >= 20,000/s at the paper's true m = 2
    parameters, where direct Monte Carlo cannot converge at all."""
    _run_rare_paper_m2()  # warm numpy caches outside the timed window
    start = time.perf_counter()
    result = _run_rare_paper_m2(seed=1)
    elapsed = time.perf_counter() - start
    assert result.cycles == RARE_CYCLES
    assert result.loss_cycles > 0
    rate = result.cycles / elapsed
    assert rate >= 20_000.0, (
        f"rare-event estimator ran at {rate:,.0f} cycles/s "
        f"(floor: 20,000/s)")


def test_rare_event_reproducible():
    first = _run_rare_paper_m2(seed=42)
    second = _run_rare_paper_m2(seed=42)
    assert first.mttdl_hours == second.mttdl_hours
    assert first.loss_cycles == second.loss_cycles
    third = _run_rare_paper_m2(seed=43)
    assert first.mttdl_hours != third.mttdl_hours


def test_correlated_rare_event_sustains_100000_cycles_per_second():
    """Rack shocks and batch wear run on the same busy-cycle machine as
    the independent path and must not fall to a fraction of its
    speed: >= 100,000 cycles/s at the paper's m = 2 point."""
    _run_rare_correlated()  # warm numpy caches outside the timed window
    start = time.perf_counter()
    result = _run_rare_correlated(seed=1)
    elapsed = time.perf_counter() - start
    assert result.cycles == RARE_CYCLES
    assert result.loss_cycles > 0
    assert "domains" in result.metadata
    rate = result.cycles / elapsed
    assert rate >= RARE_CORRELATED_CYCLES_PER_SECOND, (
        f"correlated rare-event estimator ran at {rate:,.0f} cycles/s "
        f"(floor: {RARE_CORRELATED_CYCLES_PER_SECOND:,.0f}/s)")


#: Trace-path floor: snapshot rows parsed + fitted per second.
TRACE_ROWS_PER_SECOND = 25_000.0


def _snapshot_csv_text(num_devices: int = 1500, mttf_hours: float = 800.0,
                       observation_days: int = 120) -> tuple[str, int]:
    """A seeded in-memory drive-stats CSV and its snapshot row count."""
    trace = generate_trace(ExponentialLifetime(mttf_hours), num_devices,
                           observation_hours=observation_days * 24.0,
                           seed=9)
    buffer = io.StringIO()
    rows = write_drive_stats_csv(trace, buffer)
    return buffer.getvalue(), rows


def _parse_and_fit(text: str) -> EmpiricalLifetime:
    return EmpiricalLifetime.fit(load_drive_stats_csv(io.StringIO(text)))


def test_trace_fit_sustains_rows_per_second():
    """Acceptance criterion: the whole trace path -- CSV parse,
    censored-lifespan reduction, piecewise-exponential fit -- sustains
    >= 25,000 snapshot rows/s (a year of daily snapshots for a
    ~100-device fleet in under 1.5 s)."""
    text, rows = _snapshot_csv_text()
    _parse_and_fit(text)  # warm caches outside the timed window
    start = time.perf_counter()
    fitted = _parse_and_fit(text)
    elapsed = time.perf_counter() - start
    assert fitted.mean_hours > 0
    rate = rows / elapsed
    assert rate >= TRACE_ROWS_PER_SECOND, (
        f"trace parse+fit ran at {rate:,.0f} rows/s "
        f"(floor: {TRACE_ROWS_PER_SECOND:,.0f}/s)")


def test_trace_fit_reproducible():
    """Same CSV -> identical fitted hazards (no hidden state)."""
    text, _ = _snapshot_csv_text()
    first = _parse_and_fit(text)
    second = _parse_and_fit(text)
    assert np.array_equal(first.hazards, second.hazards)
    assert np.array_equal(first.breakpoints, second.breakpoints)


#: Sweep-orchestrator floors: a 4-cell MTTF grid over the vectorized
#: m = 1 runner, heavy enough (20,000 trials/cell) that per-cell
#: engine time dominates any honest orchestration cost.
SWEEP_TRIALS = 20_000
SWEEP_MTTF_GRID = [250_000.0, 500_000.0, 750_000.0, 1_000_000.0]
#: All-hits replay floor: cells served per second with zero engine work
#: (expand + hash + cache lookup only; measured ~3,000/s).
SWEEP_CACHED_CELLS_PER_SECOND = 200.0


def _sweep_4_cells() -> SweepSpec:
    base = ScenarioSpec.loads(f"""
version = 1
[code]
spec = "rs(n=8,r=16,m=1)"
[fleet]
arrays = {CLUSTER_ARRAYS}
[lifetime]
mttf_hours = 500000.0
[estimator]
trials = {SWEEP_TRIALS}
seed = 0
""")
    return SweepSpec(base=base, name="bench-4-cell",
                     grid={"lifetime.mttf_hours": list(SWEEP_MTTF_GRID)})


def test_sweep_parallel_fanout_within_serial_budget():
    """Acceptance criterion: fanning the 4-cell sweep over a
    multiprocessing pool returns bitwise-identical results and costs no
    more than the serial run divided by a lenient 0.85 efficiency
    factor, plus a fixed pool-spawn allowance -- the orchestrator may
    not add hidden per-cell work on either path.  (On a single-core
    runner the pool size clamps to 1 and the budget still holds.)"""
    sweep = _sweep_4_cells()
    run_sweep(sweep)  # warm numpy caches outside the timed windows
    start = time.perf_counter()
    serial = run_sweep(sweep)
    serial_elapsed = time.perf_counter() - start
    processes = min(4, os.cpu_count() or 1)
    start = time.perf_counter()
    parallel = run_sweep(sweep, processes=processes)
    parallel_elapsed = time.perf_counter() - start
    assert len(serial.cells) == len(SWEEP_MTTF_GRID)
    assert [c.result for c in parallel.cells] == [c.result
                                                  for c in serial.cells]
    budget = serial_elapsed / 0.85 + 1.5
    assert parallel_elapsed <= budget, (
        f"4-cell sweep with {processes} processes took "
        f"{parallel_elapsed:.2f}s (serial: {serial_elapsed:.2f}s, "
        f"budget: {budget:.2f}s)")


def test_sweep_cached_replay_is_pure_overhead(tmp_path):
    """Acceptance criterion: an all-hits replay of a cached sweep runs
    no engine at all -- >= 200 cells/s served straight from the
    content-addressed cache, bitwise identical to the computed run."""
    sweep = _sweep_4_cells()
    cache = tmp_path / "sweep-cache"
    first = run_sweep(sweep, cache_dir=cache)
    assert (first.hits, first.misses) == (0, len(SWEEP_MTTF_GRID))
    start = time.perf_counter()
    second = run_sweep(sweep, cache_dir=cache)
    elapsed = time.perf_counter() - start
    assert (second.hits, second.misses) == (len(SWEEP_MTTF_GRID), 0)
    assert [c.result for c in second.cells] == [c.result
                                                for c in first.cells]
    rate = len(second.cells) / elapsed
    assert rate >= SWEEP_CACHED_CELLS_PER_SECOND, (
        f"cached sweep replay served {rate:,.0f} cells/s "
        f"(floor: {SWEEP_CACHED_CELLS_PER_SECOND:,.0f}/s)")


def test_bench_sweep_cached_replay(benchmark, tmp_path):
    """Statistical timing of the pure-orchestration path (all hits)."""
    sweep = _sweep_4_cells()
    cache = tmp_path / "sweep-cache"
    run_sweep(sweep, cache_dir=cache)  # populate

    result = benchmark(lambda: run_sweep(sweep, cache_dir=cache))
    assert result.misses == 0


def test_bench_trace_parse_and_fit(benchmark):
    text, _ = _snapshot_csv_text()
    fitted = benchmark(lambda: _parse_and_fit(text))
    assert fitted.hazards.size >= 1


def test_bench_rare_event_paper_m2(benchmark):
    result = benchmark(_run_rare_paper_m2)
    assert result.loss_cycles > 0


def test_bench_vectorized_cluster(benchmark):
    result = benchmark(_run_cluster)
    assert result.losses == CLUSTER_TRIALS


def test_bench_vectorized_m2_sd_cluster(benchmark):
    result = benchmark(_run_m2_sd_cluster)
    assert result.losses == CLUSTER_TRIALS


def test_bench_vectorized_array_hard_regime(benchmark):
    """p_arr = 0: every loss needs the full second-failure race (~4000
    failure/rebuild cycles per lifetime), the runner's worst case."""
    result = benchmark(lambda: simulate_array_lifetimes(
        8, p_arr=0.0, trials=200, seed=0))
    assert result.losses == 200


def test_bench_event_engine_trajectory(benchmark):
    """One fully detailed trajectory (scrubs + sector errors + writes)."""
    code = parse_code_spec("rs(n=8,r=16,m=1)")
    scenario = Scenario(
        code=code, num_arrays=4, stripes_per_array=256,
        lifetime=ExponentialLifetime(50_000.0),
        repair=ExponentialRepair(17.8),
        scrub_interval_hours=168.0, write_rate_per_hour=0.1,
        horizon_hours=20_000.0)

    def run():
        return ClusterSimulation(scenario, np.random.default_rng(7)).run()

    result = benchmark(run)
    assert result.events_processed > 0


def test_throughput_summary(capsys):
    """Report lifetimes/second for the acceptance configurations."""
    start = time.perf_counter()
    _run_cluster()
    elapsed = time.perf_counter() - start
    rate = CLUSTER_TRIALS / elapsed
    start = time.perf_counter()
    _run_m2_sd_cluster()
    elapsed_m2 = time.perf_counter() - start
    rate_m2 = CLUSTER_TRIALS / elapsed_m2
    start = time.perf_counter()
    _run_rare_paper_m2()
    elapsed_rare = time.perf_counter() - start
    rate_rare = RARE_CYCLES / elapsed_rare
    with capsys.disabled():
        print(f"\n[bench_sim_throughput] {CLUSTER_TRIALS} lifetimes of a "
              f"{CLUSTER_ARRAYS * CLUSTER_N}-device cluster in "
              f"{elapsed:.2f}s ({rate:,.0f} lifetimes/s); m=2 SD in "
              f"{elapsed_m2:.2f}s ({rate_m2:,.0f} lifetimes/s); "
              f"rare-event paper m=2: {RARE_CYCLES} cycles in "
              f"{elapsed_rare:.2f}s ({rate_rare:,.0f} cycles/s)")
    assert rate > CLUSTER_TRIALS / 60.0
    assert rate_m2 > CLUSTER_TRIALS / 60.0
    assert rate_rare > 20_000.0
