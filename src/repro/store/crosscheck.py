"""Cross-check the live store against the discrete-event engine.

The store and the simulator model the *same* cluster from opposite
ends: :mod:`repro.store` serves real bytes through real crashes, while
:mod:`repro.sim.events` plays the analytical trajectory the paper
reasons about.  This module closes the loop between them for one spec:

1. run the live store workload (`run_store`) and read off the damage
   window it *measured* -- the ``first_damaged_op`` / ``last_damaged_op``
   digest fields, converted to hours through ``[store] hours_per_op``;
2. replay the :class:`~repro.store.injector.FailureInjector`'s exact
   crash schedule through a :class:`~repro.sim.events.ClusterSimulation`
   (one array, no organic failures, no shocks -- every DEVICE_FAILURE
   is injected by hand at ``at_op * hours_per_op``) and read off the
   damage window the engine *predicts*: from the first injected failure
   until its rebuilds bring the array back to zero failed devices;
3. assert the prediction brackets the measurement::

       predicted_start <= measured_start  and  measured_end <= predicted_end

The start sides coincide by construction (both fire the schedule at the
same op-hour); the end side holds whenever ``[repair] repair_hours``
dwarfs the workload span, because the store's repair loop races traffic
at memory speed while the engine charges the full sampled rebuild time.
A spec whose measurement escapes the engine's envelope means the two
models have drifted apart -- exactly the regression this guards in CI.

The engine's rebuild durations are sampled, so the prediction is an
*envelope* over several engine seeds (min start, max end).

Usage::

    python -m repro.store.crosscheck --spec examples/store_crosscheck.toml
    python -m repro.store.crosscheck --spec ... --backend process --json
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Sequence

from repro.codes.registry import parse_code_spec
from repro.scenario.flags import add_flags, flag_overrides
from repro.scenario.spec import ScenarioSpec, ScenarioSpecError
from repro.sim.events import ClusterSimulation, EventType, Scenario
from repro.store.injector import FailureEvent, FailureInjector
from repro.store.runner import StoreOutcome, run_store

#: Slack for float comparison of hour boundaries (the two sides compute
#: the same ``at_op * hours_per_op`` product, but independently).
_EPS_HOURS = 1e-9


@dataclass
class EngineWindow:
    """The damage window one engine replay predicted."""

    seed: int
    #: Hour of the first injected failure (None when nothing fired).
    start_hours: float | None
    #: Hour the last rebuild restored the array (horizon if never).
    end_hours: float | None
    #: Loss cause string when the engine declared data loss.
    loss_cause: str | None = None


@dataclass
class CrosscheckResult:
    """Measured-vs-predicted damage windows for one spec."""

    spec: ScenarioSpec
    outcome: StoreOutcome
    schedule: list[FailureEvent]
    windows: list[EngineWindow]
    measured_start_hours: float | None
    measured_end_hours: float | None
    predicted_start_hours: float | None
    predicted_end_hours: float | None
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Did the engine's envelope bracket the live measurement?"""
        return not self.failures

    def summary(self) -> dict:
        return {
            "ok": self.ok,
            "failures": list(self.failures),
            "backend": self.outcome.report.backend,
            "crash_schedule": [
                {"at_op": e.at_op, "node": e.node, "cause": e.cause}
                for e in self.schedule],
            "measured_start_hours": self.measured_start_hours,
            "measured_end_hours": self.measured_end_hours,
            "predicted_start_hours": self.predicted_start_hours,
            "predicted_end_hours": self.predicted_end_hours,
            "engine_windows": [
                {"seed": w.seed, "start_hours": w.start_hours,
                 "end_hours": w.end_hours, "loss_cause": w.loss_cause}
                for w in self.windows],
            "zero_data_loss": self.outcome.zero_data_loss,
            "digest": self.outcome.report.deterministic_summary(),
        }


def _engine_scenario(spec: ScenarioSpec,
                     horizon_hours: float) -> Scenario:
    """The engine-side twin of the spec's store cluster: same code,
    same lifetime/repair models, one array, nothing stochastic beyond
    the rebuild durations (failures are injected by hand)."""
    # Local import: scenario.runner imports the trace/lifetime stack,
    # which the store package otherwise never touches.
    from repro.scenario.runner import lifetime_from_spec, repair_from_spec
    return Scenario(
        code=parse_code_spec(spec.code.spec),
        num_arrays=1,
        lifetime=lifetime_from_spec(spec),
        repair=repair_from_spec(spec),
        repair_streams=spec.repair.rebuild_streams,
        horizon_hours=horizon_hours,
    )


def replay_schedule(spec: ScenarioSpec, schedule: Sequence[FailureEvent],
                    engine_seed: int, *,
                    horizon_hours: float = 87_600.0) -> EngineWindow:
    """Play the injector's crash schedule through the event engine.

    Every ``FailureEvent`` becomes a hand-scheduled ``DEVICE_FAILURE``
    at ``at_op * hours_per_op`` (the op-hour at which the live store
    fires it).  The replay stops once the whole schedule has fired and
    the array is healthy again -- organic lifetimes the engine
    reschedules for rebuilt devices are outside the injected window and
    are not replayed.
    """
    hours_per_op = spec.store.hours_per_op
    sim = ClusterSimulation(_engine_scenario(spec, horizon_hours),
                            seed=engine_seed)
    injected = 0
    for event in schedule:
        sim.queue.schedule(event.at_op * hours_per_op,
                           EventType.DEVICE_FAILURE,
                           array=0, device=event.node, injected=True)
        injected += 1

    array = sim.cluster.arrays[0]
    start: float | None = None
    end: float | None = None
    fired = 0
    for event in sim.queue.drain():
        if event.time > horizon_hours:
            break
        if event.payload.get("injected"):
            fired += 1
        loss_cause = sim._handle(event)
        if loss_cause is not None:
            # Data loss: the damage never clears -- the window runs to
            # the horizon (a maximally pessimistic, always-valid end).
            return EngineWindow(seed=engine_seed,
                                start_hours=start if start is not None
                                else event.time,
                                end_hours=horizon_hours,
                                loss_cause=loss_cause)
        if array.num_failed > 0:
            if start is None:
                start = event.time
            end = event.time
        else:
            if start is not None:
                end = event.time
            if fired == injected:
                break  # schedule exhausted, array healthy: done
    if start is not None and array.num_failed > 0:
        end = horizon_hours  # still damaged when the replay stopped
    return EngineWindow(seed=engine_seed, start_hours=start, end_hours=end)


def bracket_failures(measured_start: float | None,
                     measured_end: float | None,
                     predicted_start: float | None,
                     predicted_end: float | None,
                     num_crashes: int) -> list[str]:
    """The bracket rule itself: predicted must contain measured."""
    if measured_start is None:
        return ["the live store measured no damage window although the "
                f"injector scheduled {num_crashes} crash(es)"]
    if predicted_start is None:
        return ["the engine predicted no damage window although the "
                f"schedule replayed {num_crashes} crash(es)"]
    failures: list[str] = []
    if predicted_start > measured_start + _EPS_HOURS:
        failures.append(
            f"predicted window opens at {predicted_start:.6g} h, "
            f"after the measured start {measured_start:.6g} h")
    if measured_end > predicted_end + _EPS_HOURS:
        failures.append(
            f"measured window closes at {measured_end:.6g} h, "
            f"after the predicted end {predicted_end:.6g} h")
    return failures


def crosscheck(spec: ScenarioSpec, *,
               engine_seeds: Sequence[int] = (0, 1, 2, 3),
               horizon_hours: float = 87_600.0) -> CrosscheckResult:
    """Run the live store and assert the engine brackets its window."""
    spec.validate()
    if spec.store is None:
        raise ScenarioSpecError(
            "crosscheck needs a [store] section describing the workload")
    if spec.store.hours_per_op <= 0.0:
        raise ScenarioSpecError(
            "crosscheck needs [store] hours_per_op > 0 to place the "
            "store's op clock on the engine's hour axis")

    outcome = run_store(spec)
    report = outcome.report
    schedule = list(outcome.injector.events)
    if not schedule:
        raise ScenarioSpecError(
            "crosscheck needs a spec that injects at least one crash "
            "([store] kill_nodes, [domains], or a lifetime model dense "
            "enough to fire within the run)")

    hours = spec.store.hours_per_op
    measured_start = (report.first_damaged_op * hours
                      if report.first_damaged_op is not None else None)
    measured_end = (report.last_damaged_op * hours
                    if report.last_damaged_op is not None else None)

    windows = [replay_schedule(spec, schedule, seed,
                               horizon_hours=horizon_hours)
               for seed in engine_seeds]
    starts = [w.start_hours for w in windows if w.start_hours is not None]
    ends = [w.end_hours for w in windows if w.end_hours is not None]
    predicted_start = min(starts) if starts else None
    predicted_end = max(ends) if ends else None

    failures = bracket_failures(measured_start, measured_end,
                                predicted_start, predicted_end,
                                len(schedule))
    return CrosscheckResult(
        spec=spec, outcome=outcome, schedule=schedule, windows=windows,
        measured_start_hours=measured_start,
        measured_end_hours=measured_end,
        predicted_start_hours=predicted_start,
        predicted_end_hours=predicted_end,
        failures=failures)


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store.crosscheck",
        description="Replay the store's crash schedule through the "
                    "discrete-event engine and assert the engine's "
                    "predicted degraded window brackets the window the "
                    "live store measured.",
        epilog="Spec format: docs/store.md (cross-check section).",
    )
    parser.add_argument("--spec", required=True,
                        help="scenario spec with [store] hours_per_op > 0 "
                             "and a crash schedule")
    # Defaults suppressed: only the flags passed override the spec.
    add_flags(parser, ("--seed", "--backend"), defaults=False)
    parser.add_argument("--engine-seeds", type=int, default=4,
                        help="engine replays enveloped (min start, max "
                             "end) into the prediction (default 4)")
    parser.add_argument("--json", action="store_true",
                        help="print the full comparison as JSON")
    return parser


def _render(result: CrosscheckResult) -> str:
    def _hours(value: float | None) -> str:
        return "-" if value is None else f"{value:.4g} h"

    lines = [
        "Store / event-engine cross-check",
        f"  backend              {result.outcome.report.backend}",
        f"  crash schedule       {len(result.schedule)} event(s): "
        + ", ".join(f"op {e.at_op} node {e.node} ({e.cause})"
                    for e in result.schedule),
        f"  measured window      {_hours(result.measured_start_hours)} .. "
        f"{_hours(result.measured_end_hours)}",
        f"  predicted window     {_hours(result.predicted_start_hours)} .. "
        f"{_hours(result.predicted_end_hours)} "
        f"(envelope of {len(result.windows)} engine seed(s))",
        f"  bracket              {'holds' if result.ok else 'VIOLATED'}",
    ]
    lines += [f"    {failure}" for failure in result.failures]
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = ScenarioSpec.load(args.spec)
        spec = spec.with_overrides(flag_overrides(args))
        result = crosscheck(spec,
                            engine_seeds=range(max(1, args.engine_seeds)))
    except (ScenarioSpecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result.summary(), indent=2, sort_keys=True))
    else:
        print(_render(result))
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
