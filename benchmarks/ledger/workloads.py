"""Workloads, closed-loop load generator and correctness gate of the ledger.

Every store workload drives one :class:`~repro.store.cluster.StoreCluster`
built by :func:`repro.store.runner.build_cluster` from this file: it
generates its own op schedule and payloads from the seed and calls
``put`` / ``get_submit`` / ``GetTicket.data`` / ``PutTicket.settled`` /
``crash_node`` / ``repair_forever`` itself, so no change to the store's
traffic generator or report can change what is measured.  The load is a
closed loop of :data:`CLIENTS` asyncio coroutines in one process: a
client issues its next op only after the previous one completed -- a put
when ``settled()`` returned, a get when ``data()`` returned and the
bytes were checked -- and latency runs from issue to completion.

The simulator workload runs cells of the three committed specs under
``specs/`` through :func:`repro.scenario.run_scenario`, round-robin.

Every timing is scaled to the nominal machine speed of :mod:`.speed`,
window by window.

:func:`run_workload` runs one workload in this process; ``run.py``
starts one child process per workload so that peak RSS and set-up time
belong to that workload alone.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import platform
import resource
import statistics
import sys
import zlib
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter as _now
from typing import Optional

import numpy as np

from repro.scenario import ScenarioSpec, run_scenario
from repro.store.runner import build_cluster

from . import trace as tracing
from .metrics import DEFAULT_SECONDS, E2E, PER_LAYER
from .speed import Speed

#: Every store workload uses this code, so workloads differ by layer, not
#: by code.
CODE = "stair(n=8,r=4,m=2,e=(1,1))"
CLIENTS = 2
#: Set-up runs this many times per untraced run; ``setup_s`` is the median.
SETUP_REPS = 3
#: The simulator's set-up is ten times shorter than a store's: more
#: repeats fit in the run, and its median needs them to hold still.
SIM_SETUP_REPS = 9
#: ``ops_per_s`` and ``op_p50_ms`` are medians over this many windows of
#: equally many consecutive ops, each scaled by the machine speed over
#: it, so a stall of the (shared) machine moves one window, not the
#: result.
WINDOWS = 30
#: Golden-ratio step of the low-discrepancy sequence that sizes objects
#: by popularity rank.
GOLDEN = (5 ** 0.5 - 1) / 2
#: Ops generated per schedule; a run that gets through them all wraps.
SCHEDULE_OPS = 1 << 18
#: Extra random bytes in the payload pool beyond the largest object, so
#: versions of one key start at different offsets.
POOL_SLACK = 1 << 20
#: The simulator gate: pooled MTTDL within this many standard errors of
#: the analytic value.  Each run makes two such checks on fresh seeds; at
#: 3 sigma about 1 run in 180 would fail by chance alone.
Z_GATE = 4.0
SPECS = Path(__file__).resolve().parent / "specs"
#: Seed of every warm-up cell: the same on every set-up and run, so
#: set-up does the same work whatever ``--seed`` is, and above every
#: measured cell's seed (those are 32-bit).
WARMUP_SEED = 1 << 32


@dataclass(frozen=True)
class StoreLoad:
    """One closed-loop store workload (sizes at ``--scale 1``)."""

    why: str
    objects: int
    min_bytes: int
    max_bytes: int
    symbol_bytes: int
    read_fraction: float
    zipf_alpha: float
    #: Percentile reported as ``*_tail_ms``: the highest with at least
    #: ten samples beyond it in a 15 s run.
    tail: int
    #: Its override for gets, where they are fewer.
    get_tail: Optional[int] = None
    backend: str = "inprocess"
    crash_nodes: tuple[int, ...] = ()
    #: The crash lands this many ops into each measured phase, and again
    #: this many ops after each repair.  A run so measures several repair
    #: windows, and nearly all of it is degraded: were it half healthy,
    #: the windowed medians would flip between the two modes.
    crash_after_ops: int = 0


@dataclass(frozen=True)
class SimLoad:
    """Round-robin cells of the committed simulator specs."""

    why: str
    engines: tuple[str, ...] = ("events", "montecarlo", "rare")
    tail: int = 95


WORKLOADS: dict[str, StoreLoad | SimLoad] = {
    "small-mixed": StoreLoad(
        why="per-op overhead: 128 B symbols make codec conversions, "
            "locks, metadata and asyncio dominate, not the GF kernel",
        objects=1024, min_bytes=1024, max_bytes=8192, symbol_bytes=128,
        read_fraction=0.7, zipf_alpha=0.99, tail=99),
    "large-objects": StoreLoad(
        why="1 MiB objects, 16 KiB symbols: gf kernel and code.encode "
            "dominate, per-op control-plane work is negligible",
        objects=24, min_bytes=1 << 20, max_bytes=1 << 20,
        symbol_bytes=16384, read_fraction=0.2, zipf_alpha=0.0, tail=95,
        get_tail=90),
    "degraded-repair": StoreLoad(
        why="two data nodes crash again after each repair: degraded reads "
            "decode, repair scans and rebuilds while clients contend for "
            "key locks",
        objects=1024, min_bytes=16384, max_bytes=16384, symbol_bytes=512,
        read_fraction=0.9, zipf_alpha=0.99, tail=99, crash_nodes=(0, 1),
        crash_after_ops=200),
    "small-process": StoreLoad(
        why="small-mixed shape over the subprocess backend: bytes cross "
            "RPC pipes, so the gap to small-mixed is the transport",
        objects=512, min_bytes=1024, max_bytes=8192, symbol_bytes=128,
        read_fraction=0.7, zipf_alpha=0.99, tail=99, backend="process"),
    "sim-engines": SimLoad(
        why="events, montecarlo and rare engines share no hot code with "
            "the store: store changes must not move them"),
}


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Scaled:
    """The timings of one measured phase at the nominal machine speed."""

    #: Median over the windows of completed ops per second.
    rate: float
    #: Median over the windows of each window's median latency.
    p50: float
    #: Every latency times its window's speed factor, in op order.
    latencies: np.ndarray


def scaled(start: float, done: list[float], latencies: list[float],
           speed: Speed) -> Scaled:
    """Cut the completed ops into :data:`WINDOWS` windows of equally many
    consecutive ops (the last one takes the remainder) and scale each by
    the speed factor over it.  ``done`` holds completion times in order,
    ``latencies`` the matching latencies; all is 0 when no op
    completed."""
    n = len(done)
    if n == 0:
        return Scaled(0.0, 0.0, np.empty(0))
    windows = WINDOWS if n >= 2 * WINDOWS else 1
    size = n // windows
    out = np.asarray(latencies, dtype=float).copy()
    rates, p50s, since = [], [], start
    for window in range(windows):
        lo = window * size
        hi = n if window == windows - 1 else lo + size
        end = done[hi - 1]
        factor = speed.factor(since, end)
        out[lo:hi] *= factor
        rates.append((hi - lo) / ((end - since) * factor))
        p50s.append(float(np.median(out[lo:hi])))
        since = end
    return Scaled(statistics.median(rates), statistics.median(p50s), out)


def _metric(name: str, value: float, n: int, p: Optional[int] = None
            ) -> dict:
    record = {"value": float(value), "unit": E2E[name][0], "n": int(n)}
    if p is not None:
        record["p"] = p
    return record


# --------------------------------------------------------------------------- #
# Store workloads
# --------------------------------------------------------------------------- #
@dataclass
class Schedule:
    """Everything a store run sends, derived from the seed alone."""

    sizes: list[int]        # key index -> object bytes
    initial: list[int]      # key index -> pool offset of the preloaded bytes
    is_put: list[bool]      # op -> put (else get)
    keys: list[int]         # op -> key index
    offsets: list[int]      # op -> pool offset of a put's payload
    pool: bytes

    def digest(self) -> str:
        h = hashlib.sha256()
        for part in (self.sizes, self.initial, self.is_put, self.keys,
                     self.offsets):
            h.update(np.asarray(part, dtype=np.int64).tobytes())
        h.update(self.pool)
        return h.hexdigest()


def make_schedule(name: str, load: StoreLoad, seed: int,
                  scale: float = 1.0, ops: int = SCHEDULE_OPS) -> Schedule:
    """The op schedule of ``name`` for ``seed``.

    Key popularity is Zipf over a seeded permutation of the keys: ranked
    by insertion order instead, the hot keys would be the first the
    repair pass rebuilds and degraded reads would almost vanish.  Object
    sizes follow popularity rank through a fixed low-discrepancy
    sequence, so every seed sends the same byte mix: drawn at random, the
    size of the few hottest keys would move bytes per op by ~8 % from
    seed to seed.
    """
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    objects = max(8, round(load.objects * scale))
    pool = rng.bytes(load.max_bytes + POOL_SLACK)
    perm = rng.permutation(objects)
    spread = (np.arange(1, objects + 1) * GOLDEN) % 1.0
    sizes = np.empty(objects, dtype=np.int64)
    sizes[perm] = load.min_bytes + np.round(
        spread * (load.max_bytes - load.min_bytes)).astype(np.int64)
    initial = rng.integers(0, len(pool) - sizes + 1)
    is_put = rng.random(ops) >= load.read_fraction
    if load.zipf_alpha > 0:
        weights = 1.0 / np.arange(1, objects + 1) ** load.zipf_alpha
        ranks = rng.choice(objects, size=ops, p=weights / weights.sum())
    else:
        ranks = rng.integers(0, objects, ops)
    keys = perm[ranks]
    offsets = rng.integers(0, len(pool) - sizes[keys] + 1)
    return Schedule(sizes=sizes.tolist(), initial=initial.tolist(),
                    is_put=is_put.tolist(), keys=keys.tolist(),
                    offsets=offsets.tolist(), pool=pool)


class WrongBytes(AssertionError):
    """A get returned bytes other than the version it decided to read."""


@dataclass
class Phase:
    """Samples and counters of one measured phase."""

    #: The op that crashes the workload's nodes next.
    crash_op: Optional[int]
    start: float = 0.0
    wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Time of the crash whose repair is still pending.
    crash_at: Optional[float] = None
    #: ``(crash, end)`` of every repair window: crash -> first op issued
    #: while ``damage_suspected()`` is false.
    repairs: list[tuple[float, float]] = field(default_factory=list)
    #: Completion time, latency and kind ("put", "get" or "degraded") of
    #: every completed op, in order.
    done: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def record(self, kind: str, start: float) -> None:
        now = _now()
        self.done.append(now)
        self.latencies.append(now - start)
        self.kinds.append(kind)

    def ops_per_s(self, speed: Speed) -> float:
        """Attempted ops per second over the phase, at nominal speed."""
        if self.wall <= 0:
            return 0.0
        return self.attempted / self.wall / speed.factor(
            self.start, self.start + self.wall)


class StoreRun:
    """One store workload: set-up, measured phases, drain and gate."""

    def __init__(self, name: str, load: StoreLoad, seed: int,
                 scale: float = 1.0) -> None:
        self.load = load
        self.schedule = make_schedule(name, load, seed, scale)
        self.objects = len(self.schedule.sizes)
        self.keys = [f"obj-{i:06d}" for i in range(self.objects)]
        self.pool = memoryview(self.schedule.pool)
        self.crash_after = max(1, round(load.crash_after_ops * scale))
        self.current = list(self.schedule.initial)
        self.cursor = 0
        self.speed = Speed()
        self.spec = ScenarioSpec.from_dict({
            "version": 1,
            "code": {"spec": CODE},
            "repair": {"rebuild_streams": 2.0},
            "estimator": {"seed": seed},
            "store": {"objects": self.objects,
                      "object_bytes": load.max_bytes,
                      "symbol_bytes": load.symbol_bytes,
                      "backend": load.backend},
        })

    def payload(self, key_index: int, offset: int) -> bytes:
        return bytes(self.pool[offset:offset + self.schedule.sizes[key_index]])

    async def setup(self):
        """``build_cluster`` through preload and flush; returns
        ``(cluster, seconds)``, the seconds scaled to nominal speed."""
        self.current = list(self.schedule.initial)
        start = _now()
        cluster = await build_cluster(self.spec)
        try:
            for index, key in enumerate(self.keys):
                await cluster.put(key, self.payload(index,
                                                    self.current[index]))
                self.speed.tick()
            await cluster.flush()
        except BaseException:
            await cluster.aclose()
            raise
        self.speed.tick()
        end = _now()
        return cluster, (end - start) * self.speed.factor(start, end)

    async def _client(self, cluster, phase: Phase, deadline: float,
                      tracer: Optional[tracing.Tracer]) -> None:
        sched = self.schedule
        total = len(sched.is_put)
        own = tracer.span if tracer is not None else nullcontext
        while _now() < deadline:
            op = self.cursor
            self.cursor += 1
            if op == phase.crash_op:
                for node in self.load.crash_nodes:
                    cluster.crash_node(node)
                phase.crash_at = _now()
            elif (phase.crash_at is not None
                  and not cluster.damage_suspected()):
                # Repaired: the same nodes crash again as many ops later.
                phase.repairs.append((phase.crash_at, _now()))
                phase.crash_at = None
                phase.crash_op = op + self.crash_after
            j = op % total
            index = sched.keys[j]
            key = self.keys[index]
            token = tracing.REQUEST.set(op)
            start = _now()
            try:
                if sched.is_put[j]:
                    with own("bench"):
                        offset = sched.offsets[j]
                        data = self.payload(index, offset)
                    ticket = await cluster.put(key, data)
                    # Nothing yields between the put's decision and here,
                    # so no get can decide against the old version first.
                    self.current[index] = offset
                    await ticket.settled()
                    phase.record("put", start)
                else:
                    ticket = await cluster.get_submit(key)
                    # The version current when the read was decided; a
                    # later overwrite must not change what it returns.
                    offset = self.current[index]
                    got = await ticket.data()
                    with own("bench"):
                        size = sched.sizes[index]
                        if got != self.pool[offset:offset + size]:
                            raise WrongBytes(f"{key}: wrong bytes")
                    phase.record("degraded" if ticket.degraded else "get",
                                 start)
            except Exception as exc:  # noqa: BLE001 - counted, run goes on
                phase.failed += 1
                if len(phase.errors) < 5:
                    phase.errors.append(f"op {op}: {exc!r}")
            finally:
                tracing.REQUEST.reset(token)
            phase.attempted += 1
            self.speed.tick()

    async def run_phase(self, cluster, seconds: float,
                        tracer: Optional[tracing.Tracer] = None) -> Phase:
        crash_op = (self.cursor + self.crash_after
                    if self.load.crash_nodes else None)
        phase = Phase(crash_op=crash_op, start=_now())
        await asyncio.gather(*[
            self._client(cluster, phase, phase.start + seconds, tracer)
            for _ in range(CLIENTS)])
        phase.wall = _now() - phase.start
        return phase

    async def drain_and_check(self, cluster, repair_task,
                              phases: list[Phase]) -> dict:
        """Repair to quiescence, flush, then the correctness gate."""
        cluster.stop_repair()
        await repair_task
        while await cluster.repair_once():
            pass
        for phase in phases:
            # A window the phase ended early counts only if it is the
            # phase's only one: the drain repairs with no client load.
            if phase.crash_at is not None and not phase.repairs:
                phase.repairs.append((phase.crash_at, _now()))
        await cluster.flush()
        wrong = []
        for index, key in enumerate(self.keys):
            offset = self.current[index]
            try:
                got = await cluster.get(key)
            except Exception as exc:  # noqa: BLE001 - reported by the gate
                wrong.append(f"{key}: {exc!r}")
                continue
            if got != self.pool[offset:offset + self.schedule.sizes[index]]:
                wrong.append(f"{key}: wrong bytes on read-back")
        audit = await cluster.audit_data_plane()
        errors = cluster.dataplane_errors()
        return {
            "ops_ok": all(phase.failed == 0 for phase in phases),
            "fully_redundant": cluster.fully_redundant(),
            "audit_clean": not audit,
            "dataplane_clean": not errors,
            "readback_ok": not wrong,
            "details": (wrong[:5] + audit[:5] + [repr(e) for e in errors[:5]]
                        + [e for p in phases for e in p.errors][:5]),
        }


def _store_counters(cluster) -> dict[str, float]:
    nodes = cluster.nodes
    report = cluster.report
    return {
        "put_calls": sum(node.chunks_written for node in nodes),
        "put_bytes": sum(node.bytes_written for node in nodes),
        "fetch_calls": sum(node.chunks_read for node in nodes),
        "fetch_bytes": sum(node.bytes_read for node in nodes),
        "user_read": report.bytes_read_user,
        "user_put": report.bytes_put,
    }


def _store_layers(run: StoreRun, cluster, before: dict,
                  after: dict) -> dict[str, float]:
    delta = {key: after[key] - before[key] for key in before}
    stored = sum(node.mirror_stat()[1] for node in cluster.nodes)
    live = sum(run.schedule.sizes)

    def ratio(num, den):
        return num / den if den > 0 else 0.0
    return {
        "node.put.calls": delta["put_calls"],
        "node.put.bytes": delta["put_bytes"],
        "node.fetch.calls": delta["fetch_calls"],
        "node.fetch.bytes": delta["fetch_bytes"],
        "node.read_amplification": ratio(delta["fetch_bytes"],
                                         delta["user_read"]),
        "node.write_amplification": ratio(delta["put_bytes"],
                                          delta["user_put"]),
        "node.space_amplification": ratio(stored, live),
    }


def _store_e2e(load: StoreLoad, phase: Phase, speed: Speed,
               setups: list[float], failed: int, attempted: int) -> dict:
    timed = scaled(phase.start, phase.done, phase.latencies, speed)
    kinds = np.array(phase.kinds, dtype=object)

    def latency(prefix: str, samples: np.ndarray, tail: int) -> dict:
        return {
            f"{prefix}_p50_ms": _metric(f"{prefix}_p50_ms",
                                        1e3 * percentile(samples, 50),
                                        len(samples)),
            f"{prefix}_tail_ms": _metric(f"{prefix}_tail_ms",
                                         1e3 * percentile(samples, tail),
                                         len(samples), tail),
        }
    out = {
        "setup_s": _metric("setup_s", statistics.median(setups),
                           len(setups)),
        "ops_per_s": _metric("ops_per_s", timed.rate, len(phase.done)),
        **latency("op", timed.latencies, load.tail),
        # The windowed median replaces the pooled one.
        "op_p50_ms": _metric("op_p50_ms", 1e3 * timed.p50, len(phase.done)),
        **latency("put", timed.latencies[kinds == "put"], load.tail),
        **latency("get", timed.latencies[kinds == "get"],
                  load.get_tail or load.tail),
    }
    if load.crash_nodes:
        out.update(latency("degraded_get",
                           timed.latencies[kinds == "degraded"], load.tail))
        windows = [(end - crash) * speed.factor(crash, end)
                   for crash, end in phase.repairs]
        out["repair_window_s"] = _metric(
            "repair_window_s",
            statistics.median(windows) if windows else 0.0, len(windows))
    out["op_failure_ratio"] = _metric("op_failure_ratio",
                                      failed / max(attempted, 1), attempted)
    return out


async def run_store(name: str, load: StoreLoad, seed: int, seconds: float,
                    scale: float, trace: bool) -> dict:
    run = StoreRun(name, load, seed, scale)
    setups: list[float] = []
    cluster = None
    for rep in range(1 if trace else SETUP_REPS):
        if cluster is not None:
            await cluster.aclose()
        cluster, took = await run.setup()
        setups.append(took)
    tracer = tracing.Tracer() if trace else None
    try:
        repair_task = asyncio.ensure_future(cluster.repair_forever())
        phases = [await run.run_phase(cluster, seconds / 2 if trace
                                      else seconds)]
        layers: dict[str, float] = {}
        if trace:
            before = _store_counters(cluster)
            tracer.install_store(cluster.code)
            try:
                phases.append(await run.run_phase(cluster, seconds / 2,
                                                  tracer))
            finally:
                tracer.uninstall()
            layers.update(tracing.layer_metrics(tracer.spans,
                                                phases[1].wall))
            layers.update(_store_layers(run, cluster, before,
                                        _store_counters(cluster)))
            layers["trace.overhead"] = 1.0 - (phases[1].ops_per_s(run.speed)
                                              / phases[0].ops_per_s(run.speed))
        checks = await run.drain_and_check(cluster, repair_task, phases)
    finally:
        await cluster.aclose()
    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases)
    first = phases[0]
    return {
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "schedule_sha256": run.schedule.digest(),
        "metrics": _store_e2e(load, first, run.speed, setups, failed,
                              attempted),
        "speed_factor": run.speed.factor(first.start,
                                         first.start + first.wall),
        "layers": layers,
        "tracer": tracer,
    }


# --------------------------------------------------------------------------- #
# Simulator workload
# --------------------------------------------------------------------------- #
@dataclass
class Cell:
    engine: str
    wall: float
    end: float
    #: Events, lifetimes or regeneration cycles the cell simulated.
    units: int
    ess: float = 0.0
    mttdl: float = 0.0
    std_error: float = 0.0
    analytic: Optional[float] = None


class SimRun:
    """Round-robin cells of the committed specs, one seed per cell."""

    def __init__(self, load: SimLoad, seed: int) -> None:
        self.load, self.seed = load, seed
        self.specs: dict[str, ScenarioSpec] = {}
        self.rounds = 0
        self.speed = Speed()

    def cell_seed(self, engine: str, index: int) -> int:
        sequence = np.random.SeedSequence(
            [self.seed, self.load.engines.index(engine), index])
        return int(sequence.generate_state(1)[0])

    def cell(self, engine: str, seed: int) -> Cell:
        spec = self.specs[engine].replace(estimator={"seed": seed})
        self.speed.tick()
        start = _now()
        outcome = run_scenario(spec)
        end = _now()
        wall = end - start
        if outcome.engine != engine:
            raise RuntimeError(f"{engine} spec ran the {outcome.engine} "
                               "engine")
        if engine == "events":
            return Cell(engine, wall, end, sum(row.events_processed
                                               for row in outcome.trial_rows))
        result = outcome.result
        units = result.trials if engine == "montecarlo" else result.cycles
        return Cell(engine, wall, end, units, result.effective_sample_size,
                    result.mttdl_hours, result.mttdl_std_error,
                    outcome.analytic)

    def setup(self) -> float:
        """Load and validate the specs, then one warm-up cell each;
        returns the seconds scaled to nominal speed."""
        start = _now()
        self.specs = {engine: ScenarioSpec.load(SPECS / f"{engine}.toml")
                      .validate() for engine in self.load.engines}
        for engine in self.load.engines:
            self.cell(engine, WARMUP_SEED)
        self.speed.tick()
        end = _now()
        return (end - start) * self.speed.factor(start, end)

    def run_phase(self, seconds: float,
                  tracer: Optional[tracing.Tracer] = None) -> tuple:
        """Whole rounds until ``seconds`` pass; returns
        ``(cells, start, wall, failures)``."""
        cells: list[Cell] = []
        failures: list[str] = []
        first_round = self.rounds
        start = _now()
        while self.rounds == first_round or _now() < start + seconds:
            for engine in self.load.engines:
                index = self.rounds
                span = (tracer.span(f"sim.{engine}") if tracer is not None
                        else nullcontext())
                try:
                    with span:
                        cells.append(self.cell(
                            engine, self.cell_seed(engine, index)))
                except Exception as exc:  # noqa: BLE001 - counted
                    failures.append(f"{engine} cell {index}: {exc!r}")
            self.rounds += 1
        return cells, start, _now() - start, failures


def pooled_z(cells: list[Cell]) -> float:
    """Standard errors between the pooled MTTDL of ``cells`` (weighted by
    simulated units) and their analytic value; infinite when no cell
    completed, so the gate fails."""
    weights = np.array([cell.units for cell in cells], dtype=float)
    total = weights.sum()
    if not cells or total <= 0:
        return math.inf
    means = np.array([cell.mttdl for cell in cells])
    errors = np.array([cell.std_error for cell in cells])
    mean = float((weights * means).sum() / total)
    error = float(math.sqrt(((weights * errors) ** 2).sum()) / total)
    return (mean - cells[0].analytic) / error


def _rate(cells: list[Cell], engine: str, attr: str = "units",
          walls: Optional[np.ndarray] = None) -> float:
    """``attr`` per second of ``engine``'s cells; ``walls``, one per
    cell, replaces the cells' own wall times."""
    if walls is None:
        walls = [cell.wall for cell in cells]
    chosen = [(cell, wall) for cell, wall in zip(cells, walls)
              if cell.engine == engine]
    total = sum(wall for _, wall in chosen)
    return (sum(getattr(cell, attr) for cell, _ in chosen) / total
            if total else 0.0)


def run_sim(load: SimLoad, seed: int, seconds: float, trace: bool) -> dict:
    run = SimRun(load, seed)
    setups = [run.setup() for _ in range(1 if trace else SIM_SETUP_REPS)]
    cells, start, wall, failures = run.run_phase(seconds / 2 if trace
                                                 else seconds)
    every = list(cells)
    layers: dict[str, float] = {}
    tracer = None
    if trace:
        # Attempted cells at nominal speed, like ``Phase.ops_per_s``.
        untraced_rate = ((len(cells) + len(failures)) / wall
                         / run.speed.factor(start, start + wall))
        tracer = tracing.Tracer()
        traced, traced_start, traced_wall, traced_failures = run.run_phase(
            seconds / 2, tracer)
        traced_rate = ((len(traced) + len(traced_failures)) / traced_wall
                       / run.speed.factor(traced_start,
                                          traced_start + traced_wall))
        failures += traced_failures
        every += traced
        layers.update(tracing.layer_metrics(tracer.spans, traced_wall))
        for engine in load.engines:
            layers[f"sim.{engine}.busy_s"] = sum(
                cell.wall for cell in traced if cell.engine == engine)
        layers["sim.events.per_s"] = _rate(traced, "events")
        layers["sim.montecarlo.lifetimes_per_s"] = _rate(traced,
                                                         "montecarlo")
        layers["sim.rare.cycles_per_s"] = _rate(traced, "rare")
        layers["sim.rare.ess_per_s"] = _rate(traced, "rare", "ess")
        layers["trace.overhead"] = 1.0 - traced_rate / untraced_rate
    attempted = len(every) + len(failures)
    z = {engine: pooled_z([cell for cell in every if cell.engine == engine])
         for engine in ("montecarlo", "rare") if engine in load.engines}
    checks = {
        "ops_ok": not failures,
        "events_ran": all(cell.units > 0 for cell in every
                          if cell.engine == "events"),
        "mttdl_agrees": all(abs(value) <= Z_GATE for value in z.values()),
        "details": failures[:5] + [f"{engine} pooled z = {value:+.2f}"
                                   for engine, value in z.items()],
    }
    timed = scaled(start, [cell.end for cell in cells],
                   [cell.wall for cell in cells], run.speed)
    walls = timed.latencies
    metrics = {
        "setup_s": _metric("setup_s", statistics.median(setups),
                           len(setups)),
        "ops_per_s": _metric("ops_per_s", timed.rate, len(cells)),
        "op_p50_ms": _metric("op_p50_ms", 1e3 * timed.p50, len(cells)),
        "op_tail_ms": _metric("op_tail_ms",
                              1e3 * percentile(walls, load.tail), len(cells),
                              load.tail),
        "op_failure_ratio": _metric("op_failure_ratio",
                                    len(failures) / attempted, attempted),
        "sim_events_per_s": _metric(
            "sim_events_per_s", _rate(cells, "events", walls=walls),
            len(cells)),
        "sim_lifetimes_per_s": _metric(
            "sim_lifetimes_per_s", _rate(cells, "montecarlo", walls=walls),
            len(cells)),
        "sim_cycles_per_s": _metric(
            "sim_cycles_per_s", _rate(cells, "rare", walls=walls),
            len(cells)),
    }
    return {"attempted": attempted, "failed": len(failures),
            "checks": checks, "metrics": metrics,
            "speed_factor": run.speed.factor(start, start + wall),
            "layers": layers, "tracer": tracer}


# --------------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------------- #
def run_workload(name: str, seed: int, seconds: float = DEFAULT_SECONDS,
                 scale: float = 1.0, trace: bool = False,
                 trace_out: Optional[str] = None) -> dict:
    """Run one workload in this process and return its result record.

    ``metrics`` holds the end-to-end metrics (of the untraced phase);
    with ``trace`` the run measures ``seconds / 2`` untraced, then
    ``seconds / 2`` traced, and ``per_layer`` holds every
    :data:`PER_LAYER` metric of the traced half.
    """
    load = WORKLOADS[name]
    if isinstance(load, SimLoad):
        result = run_sim(load, seed, seconds, trace)
    else:
        result = asyncio.run(run_store(name, load, seed, seconds, scale,
                                       trace))
    result["metrics"]["peak_rss_mb"] = _metric("peak_rss_mb", peak_rss_mb(),
                                               1)
    tracer = result.pop("tracer")
    if trace:
        layers = dict.fromkeys(PER_LAYER, 0.0)
        layers.update(result.pop("layers"))
        result["per_layer"] = {key: {"value": float(layers[key]),
                                     "unit": PER_LAYER[key]}
                               for key in PER_LAYER}
        if trace_out:
            tracer.write_jsonl(trace_out)
    else:
        result.pop("layers")
    details = result["checks"].pop("details")
    result.update(
        workload=name, seed=seed, seconds=seconds, scale=scale,
        trace=trace, details=details,
        correct=all(result["checks"].values()),
        versions={"python": platform.python_version(),
                  "numpy": np.__version__})
    return result


def main(job: str) -> int:
    """Child-process entry: runs one JSON job and prints the result."""
    result = run_workload(**json.loads(job))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0
