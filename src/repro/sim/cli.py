"""Command-line entry point for the cluster reliability simulator.

Run scenarios straight from the registry's textual code specs::

    python -m repro.sim.cli --seed 0 --trials 100
    python -m repro.sim.cli --code "sd(n=8,r=16,m=2,s=2)" --rare-event
    python -m repro.sim.cli --mode events --trials 20 \\
        --scrub-interval 168 --rebuild-streams 2 --horizon 87600

The CLI is a thin adapter over :mod:`repro.scenario`: every flag is a
row of the flag table in :mod:`repro.scenario.flags`, every flag
combination builds one :class:`~repro.scenario.ScenarioSpec`, the spec
runs through :func:`~repro.scenario.run_scenario`, and this module only
renders the returned outcome.  ``--dump-spec`` prints the effective
spec as TOML instead of running it; ``--spec FILE`` loads a committed
spec and applies any explicitly-passed flags as overrides -- a
flag-driven run and its ``--spec`` equivalent produce identical
results (tutorial: ``docs/scenarios.md``).

The default mode runs the vectorized Monte Carlo batch (any ``m >= 1``:
RAID-5, RAID-6, SD, STAIR, IDR geometries) and prints the estimated
MTTDL with a 3σ confidence interval next to the analytical MTTDL of
:mod:`repro.reliability` for the same parameters.  Ultra-reliable
configurations direct simulation cannot absorb (m >= 2 at the paper's
1/λ = 500,000 h) are detected up front and routed to the rare-event
estimator of :mod:`repro.sim.rare` -- importance-sampled regenerative
cycles, forced with ``--rare-event``.  ``--mode events`` plays full
discrete-event trajectories instead (scrubbing, contention-aware repair
bandwidth, bursty latent sector errors).

Correlated failure domains (``--racks``, ``--rack-shock-rate``,
``--batch-fraction``, ``--batch-accel``, ...) work in every mode: rack
and enclosure shocks fail whole groups of devices at once and bad-batch
devices age faster (tutorial: ``docs/failure-domains.md``).  With an
active correlation the §7 analytic MTTDL is printed as the
*independent-failure reference* -- the gap between it and the simulated
value is the cost of the correlation.

``--trace CSV`` swaps the parametric lifetime model for one grounded in
a drive-stats-style failure trace (:mod:`repro.sim.traces`):
``--trace-model piecewise`` (default) fits a piecewise-exponential
hazard that works in every mode including the rare-event estimator,
``--trace-model km`` resamples the Kaplan-Meier failure distribution,
and ``--trace-replay`` (events mode) schedules the observed failure
timestamps verbatim (tutorial: ``docs/traces.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.bench.reporting import print_table
from repro.codes.registry import available_codes
from repro.scenario.flags import (
    FLAGS,
    add_flags,
    flag_overrides,
    passed_flags,
)
from repro.scenario.runner import ScenarioOutcome, run_scenario
from repro.scenario.spec import ScenarioSpec, ScenarioSpecError
from repro.sim.montecarlo import MAX_ROUNDS
from repro.sim.rare import projected_direct_rounds

_EPILOG = """\
code specs:
  --code takes a textual spec: family(key=value, ...) with literal
  values, e.g. 'rs(n=8,r=16,m=1)', 'sd(n=8,r=16,m=2,s=2)',
  'stair(n=8,r=16,m=1,e=(1,2))', or a bare zero-argument family name.
  Families: {families}.
  Full grammar: docs/code-specs.md in the repository.

scenario specs:
  --spec FILE loads a committed scenario spec (TOML or JSON) and runs
  it; any flag passed explicitly alongside --spec overrides the loaded
  value.  --dump-spec prints the effective spec for any flag
  combination instead of running it -- the dumped TOML reloads to an
  identical run.  Grid sweeps over spec fields (with content-addressed
  result caching) live in 'python -m repro.scenario.sweep'.
  Tutorial: docs/scenarios.md.

failure domains:
  --racks/--rack-shock-rate/--batch-fraction/--batch-accel (and the
  enclosure / kill-probability / placement knobs) add correlated rack
  and enclosure shocks plus a shared-defect drive batch, in every mode.
  Tutorial: docs/failure-domains.md; engine guide:
  docs/reliability-models.md.

failure traces:
  --trace loads a drive-stats-style daily-snapshot CSV (date,
  serial_number, failure columns; right-censoring inferred) and
  replaces the parametric lifetime model: --trace-model piecewise
  (default) fits a piecewise-exponential hazard usable in every mode
  (including --rare-event), --trace-model km resamples the
  Kaplan-Meier failure distribution, and --trace-replay (events mode)
  schedules the observed failure timestamps verbatim.  A sample trace
  lives at examples/sample_trace.csv.  Tutorial: docs/traces.md;
  chapter index: docs/index.md.
"""


def build_parser(defaults: bool = True) -> argparse.ArgumentParser:
    """The simulator's parser: ``--spec``/``--dump-spec`` plus every
    non-store row of the flag table.  ``defaults=False`` leaves the
    spec flags that were not passed out of the namespace."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim.cli",
        description="Monte Carlo reliability simulation of erasure-coded "
                    "storage clusters.",
        epilog=_EPILOG.format(families=", ".join(available_codes())),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--spec", default=None, metavar="FILE",
                        help="load a scenario spec file (TOML/JSON, "
                             "docs/scenarios.md); explicit flags "
                             "override its values")
    parser.add_argument("--dump-spec", action="store_true",
                        help="print the effective scenario spec as TOML "
                             "and exit without running")
    groups = {
        "traces": parser.add_argument_group(
            "failure traces",
            "drive empirical lifetimes from a drive-stats-style CSV "
            "(docs/traces.md); default is the parametric --mttf model"),
        "domains": parser.add_argument_group(
            "failure domains",
            "correlated rack/enclosure shocks and batch wear "
            "(docs/failure-domains.md); all default to independent "
            "failures"),
    }
    add_flags(parser, [row.flag for row in FLAGS
                       if not row.path.startswith("store.")],
              groups=groups, defaults=defaults)
    return parser


# --------------------------------------------------------------------------- #
# Flags -> spec
# --------------------------------------------------------------------------- #
def spec_from_args(args: argparse.Namespace) -> ScenarioSpec:
    """The scenario spec one parsed flag set describes: the ``--spec``
    file (or the default spec) with every spec flag in ``args`` applied.

    ``build_parser().parse_args`` fills in every default, so every flag
    applies; :func:`main` parses with ``defaults=False``, so only the
    flags on the command line override the loaded spec.
    """
    base = (ScenarioSpec.load(args.spec) if args.spec is not None
            else ScenarioSpec())
    overrides = flag_overrides(args)
    trace_keys = {path for path in overrides if path.startswith("trace.")}
    if base.trace is None and trace_keys and "trace.path" not in trace_keys:
        if (trace_keys == {"trace.model"}
                and overrides["trace.model"] == "replay"):
            raise ScenarioSpecError(
                "--trace-replay needs --trace (the CSV whose failure "
                "timestamps should be replayed)")
        raise ScenarioSpecError(
            "--trace-model/--trace-bins configure the model fitted from a "
            "failure trace; add --trace CSV")
    return base.with_overrides(overrides)


def _reject_flag_misuse(args: argparse.Namespace, spec: ScenarioSpec) -> None:
    """CLI checks whose messages name flags.  They read the effective
    spec, so they hold whether a value came from a flag or from --spec."""
    mode, trace = spec.estimator.mode, spec.trace
    if spec.estimator.trials < 1:
        raise SystemExit("--trials must be >= 1")
    if spec.fleet.arrays < 1:
        raise SystemExit("--arrays must be >= 1")
    if trace is not None and trace.bins is not None and trace.bins < 1:
        raise SystemExit("--trace-bins must be >= 1")
    if trace is not None and trace.model == "replay":
        if mode != "events":
            raise SystemExit("--trace-replay plays verbatim trajectories "
                             "and applies to --mode events only; fit a "
                             "model with --trace-model for montecarlo mode")
        if trace.bins is not None or hasattr(args, "trace_model"):
            raise SystemExit("error: --trace-replay plays the observed "
                             "timestamps verbatim and fits no model; drop "
                             "--trace-model / --trace-bins")
    stray = passed_flags(args, "events") if mode != "events" else []
    if stray:
        raise SystemExit(
            f"{'/'.join(stray)} configure the event engine and have no "
            f"effect in {mode} mode; add --mode events or drop the flag")
    stray = passed_flags(args, "rare") if mode == "events" else []
    if stray:
        raise SystemExit(
            f"{'/'.join(stray)} tune the rare-event estimator and have no "
            "effect in events mode; drop the flag (or drop --mode events)")


# --------------------------------------------------------------------------- #
# Rendering
# --------------------------------------------------------------------------- #
def _config_rows(spec: ScenarioSpec, outcome: ScenarioOutcome
                 ) -> list[tuple]:
    rows = [
        ("code", outcome.code.describe()),
        ("m (device tolerance)", outcome.m),
        ("sector model",
         f"{spec.sector.model} (P_bit={spec.sector.p_bit:g})"),
        ("P_arr", f"{outcome.parr:.3e}"),
        ("arrays", spec.fleet.arrays),
        ("devices", outcome.code.n * spec.fleet.arrays),
    ]
    if outcome.trace is not None:
        rows.append(("failure trace",
                     f"{spec.trace.path}: {outcome.trace.describe()}"))
        rows.append(("lifetime model", repr(outcome.lifetime)))
    if outcome.domains is not None:
        rows.append(("failure domains", outcome.domains.describe()))
        # These rows only serve the montecarlo/rare paths, which model
        # each array's shock process independently (marginally exact);
        # only the event engine plays shared racks striking several
        # arrays at once.
        if outcome.domains.has_shocks and spec.fleet.arrays > 1:
            rows.append(("note", "per-array marginal shock law; "
                                 "cross-array shock coupling needs "
                                 "--mode events"))
    return rows


def _render_montecarlo(spec: ScenarioSpec, outcome: ScenarioOutcome) -> int:
    result = outcome.result
    exponential = outcome.analytic is not None
    correlated = outcome.correlated
    horizon = spec.estimator.horizon_hours
    rows = _config_rows(spec, outcome)
    rows.append(("trials", result.trials))
    rows.append(("data losses", result.losses))
    if result.losses == result.trials and result.losses >= 2:
        lo, hi = result.mttdl_confidence(z=3.0)
        rows.append(("MTTDL (sim)", f"{result.mttdl_hours:.4g} h"))
        rows.append(("3-sigma CI", f"[{lo:.4g}, {hi:.4g}] h"))
        if exponential and correlated:
            rows.append(("MTTDL (analytic, independent ref)",
                         f"{outcome.analytic:.4g} h"))
        elif exponential:
            rows.append(("MTTDL (analytic)", f"{outcome.analytic:.4g} h"))
            verdict = ("yes" if result.agrees_with(outcome.analytic, z=3.0)
                       else "NO")
            rows.append(("analytic within 3 sigma", verdict))
    elif horizon is not None:
        p, lo, hi = result.probability_of_loss_by(horizon)
        rows.append(("P(loss by horizon)",
                     f"{p:.4g}  [{lo:.4g}, {hi:.4g}]"))
    elif result.losses >= 1:
        # Too few losses for a confidence interval (e.g. --trials 1):
        # still report the sample estimate instead of nothing.
        rows.append(("MTTDL (sim)",
                     f"{float(result.loss_times.mean()):.4g} h"))
        rows.append(("note", "insufficient losses for a CI; "
                             "increase --trials"))
    print_table(["quantity", "value"], rows,
                title="Monte Carlo cluster reliability")
    return 0


def _render_rare(spec: ScenarioSpec, outcome: ScenarioOutcome) -> int:
    result = outcome.result
    correlated = outcome.correlated
    rows = _config_rows(spec, outcome)
    for caveat in outcome.caveats:
        rows.append(("warning", caveat))
    if outcome.auto_selected:
        ref, mean_hours = outcome.projection
        projected = projected_direct_rounds(ref, outcome.code.n, mean_hours,
                                            spec.estimator.trials)
        rows.append(("estimator", "rare-event (auto: direct MC needs "
                                  f"~{projected:.2g} rounds, valve "
                                  f"{MAX_ROUNDS:.2g})"))
    else:
        rows.append(("estimator", "rare-event (--rare-event)"))
    rows.append(("regeneration cycles", result.cycles))
    rows.append(("loss cycles (biased)", result.loss_cycles))
    rows.append(("P(loss per cycle)", f"{result.loss_probability:.3e}"))
    rows.append(("effective sample size",
                 f"{result.effective_sample_size:.0f} "
                 f"({result.effective_sample_size / result.cycles:.1%} "
                 "of cycles)"))
    rows.append(("failure acceleration", f"{result.acceleration:.3g}x"))
    rows.append(("sector-trip bias", f"{result.trip_bias:.3g}"))
    lo, hi = result.mttdl_confidence(z=3.0)
    rows.append(("MTTDL (rare-event)", f"{result.mttdl_hours:.4g} h"))
    rows.append(("3-sigma CI", f"[{lo:.4g}, {hi:.4g}] h"))
    if outcome.analytic is None:
        # Empirical (trace-fitted) lifetimes have no §7 closed form.
        rows.append(("MTTDL (analytic)", "- (empirical lifetimes)"))
    elif correlated:
        rows.append(("MTTDL (analytic, independent ref)",
                     f"{outcome.analytic:.4g} h"))
    else:
        rows.append(("MTTDL (analytic)", f"{outcome.analytic:.4g} h"))
        verdict = ("yes" if result.agrees_with(outcome.analytic, z=3.0)
                   else "NO")
        rows.append(("analytic within 3 sigma", verdict))
    print_table(["quantity", "value"], rows,
                title="Rare-event cluster reliability "
                      "(importance-sampled regenerative cycles)")
    return 0


def _render_events(spec: ScenarioSpec, outcome: ScenarioOutcome) -> int:
    rows = [(row.trial,
             f"{row.time_to_data_loss:.4g}"
             if row.time_to_data_loss is not None else "-",
             row.cause,
             row.events_processed) for row in outcome.trial_rows]
    print_table(["trial", "t_loss (h)", "outcome", "events"], rows,
                title=f"Event-driven trajectories "
                      f"({outcome.code.describe()}, "
                      f"{spec.fleet.arrays} arrays, horizon "
                      f"{outcome.horizon_hours:g} h)")
    if outcome.trace is not None:
        print(f"\nfailure trace {spec.trace.path}: "
              f"{outcome.trace.describe()}")
        print(f"lifetime model: {outcome.lifetime!r}")
    print(f"\ndata loss in {outcome.losses}/{spec.estimator.trials} trials")
    return 0


_RENDERERS = {
    "montecarlo": _render_montecarlo,
    "rare": _render_rare,
    "events": _render_events,
}


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #
def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser(defaults=False).parse_args(argv)
    if (getattr(args, "rare_event", None)
            and getattr(args, "mode", None) == "events"):
        raise SystemExit("--rare-event applies to montecarlo mode only")
    try:
        spec = spec_from_args(args)
        _reject_flag_misuse(args, spec)
        spec.validate()
        if args.dump_spec:
            sys.stdout.write(spec.dumps_toml())
            return 0
        if spec.estimator.mode == "analytic":
            raise SystemExit(
                "error: the CLI renders simulation tables; run "
                "analytic-mode specs through the sweep orchestrator "
                "(python -m repro.scenario.sweep) or "
                "repro.scenario.run_scenario")
        outcome = run_scenario(spec, check=False)
        return _RENDERERS[outcome.engine](spec, outcome)
    except (ValueError, RuntimeError) as exc:
        # Bad specs / parameters -- and non-convergence of ultra-reliable
        # configurations -- surface as clean CLI errors, not tracebacks.
        raise SystemExit(f"error: {exc}") from exc


if __name__ == "__main__":
    sys.exit(main())
