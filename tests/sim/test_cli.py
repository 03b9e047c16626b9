"""Smoke tests for the simulator command-line interface."""

import pytest

from repro.sim.cli import build_parser, main


def test_default_run_prints_mttdl_and_agreement(capsys):
    assert main(["--seed", "0", "--trials", "100"]) == 0
    out = capsys.readouterr().out
    assert "MTTDL (sim)" in out
    assert "MTTDL (analytic)" in out
    assert "analytic within 3 sigma  yes" in out


def test_stair_spec_with_horizon_reports_loss_probability(capsys):
    assert main(["--code", "stair(n=8,r=16,m=1,e=(1,2))",
                 "--trials", "50", "--seed", "1", "--p-bit", "1e-10",
                 "--arrays", "2", "--horizon", "1e7"]) == 0
    out = capsys.readouterr().out
    assert "STAIR" in out
    assert "P(loss by horizon)" in out


def test_events_mode_smoke(capsys):
    assert main(["--mode", "events", "--trials", "3", "--seed", "0",
                 "--stripes", "64", "--mttf", "5000",
                 "--horizon", "20000"]) == 0
    out = capsys.readouterr().out
    assert "Event-driven trajectories" in out
    assert "data loss in" in out


def test_weibull_flag_runs(capsys):
    assert main(["--trials", "50", "--seed", "2",
                 "--weibull-shape", "2.0", "--horizon", "1e6"]) == 0
    out = capsys.readouterr().out
    # Weibull runs never print the exponential-only analytic comparison.
    assert "MTTDL (analytic)" not in out


def test_rejects_bad_trials():
    with pytest.raises(SystemExit):
        main(["--trials", "0"])


def test_rejects_bad_arrays():
    """--arrays 0 used to simulate an 'immortal' zero-lane cluster."""
    with pytest.raises(SystemExit, match="arrays"):
        main(["--arrays", "0"])
    with pytest.raises(SystemExit, match="arrays"):
        main(["--arrays", "-2"])


def test_single_trial_reports_estimate_with_ci_note(capsys):
    """--trials 1 (one observed loss, no CI possible) must still print
    the sample estimate instead of silently omitting every result row."""
    assert main(["--trials", "1", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "MTTDL (sim)" in out
    assert "insufficient losses for a CI" in out


def test_montecarlo_mode_runs_m2_codes_on_vectorized_path(capsys):
    """RAID-6/SD with m = 2 go through the vectorized lane machine and
    print the general-m analytic comparison."""
    assert main(["--code", "sd(n=8,r=16,m=2,s=2)", "--trials", "150",
                 "--seed", "0", "--mttf", "20000",
                 "--repair-hours", "200"]) == 0
    out = capsys.readouterr().out
    assert "m (device tolerance)" in out
    assert "MTTDL (analytic)" in out
    assert "analytic within 3 sigma  yes" in out


def test_events_mode_accepts_m2_codes(capsys):
    assert main(["--mode", "events", "--code", "raid6(n=6,r=4)",
                 "--trials", "2", "--seed", "0", "--stripes", "32",
                 "--mttf", "2000", "--horizon", "30000"]) == 0
    assert "RAID-6" in capsys.readouterr().out


def test_events_mode_contention_flags(capsys):
    assert main(["--mode", "events", "--trials", "2", "--seed", "3",
                 "--stripes", "32", "--mttf", "2000",
                 "--rebuild-streams", "1.5", "--rebuild-rate-mbs", "50",
                 "--rebuild-concurrency", "2", "--arrays", "3",
                 "--horizon", "20000"]) == 0
    assert "Event-driven trajectories" in capsys.readouterr().out


def test_help_epilog_points_at_code_spec_grammar(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--help"])
    out = capsys.readouterr().out
    assert "docs/code-specs.md" in out
    assert "stair" in out


def test_rare_event_mode_reaches_the_paper_operating_point(capsys):
    """The acceptance criterion: SD(m=2) at the default 1/λ = 500,000 h
    -- the configuration that previously died in the MAX_ROUNDS
    RuntimeError -- completes with --rare-event and its 3σ interval
    contains the general Markov chain's MTTDL."""
    assert main(["--code", "sd(n=8,r=16,m=2,s=2)", "--rare-event",
                 "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "Rare-event cluster reliability" in out
    assert "effective sample size" in out
    assert "analytic within 3 sigma  yes" in out


def test_ultra_reliable_config_auto_selects_rare_event(capsys):
    """Without --rare-event the CLI projects the direct runner's round
    count and switches to the rare-event estimator instead of letting
    the run abort in the MAX_ROUNDS RuntimeError."""
    assert main(["--code", "rs(n=8,r=16,m=3)", "--trials", "5",
                 "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "rare-event (auto" in out
    assert "analytic within 3 sigma  yes" in out


def test_horizon_keeps_ultra_reliable_config_on_direct_path(capsys):
    """A horizon bounds the direct run, so no auto-switch happens and
    the P(loss) estimate prints as before."""
    assert main(["--code", "rs(n=8,r=16,m=3)", "--trials", "20",
                 "--seed", "2", "--horizon", "1e5"]) == 0
    out = capsys.readouterr().out
    assert "rare-event" not in out
    assert "P(loss by horizon)" in out


def test_rare_event_rejects_incompatible_flags():
    with pytest.raises(SystemExit, match="exponential"):
        main(["--rare-event", "--weibull-shape", "2.0"])
    with pytest.raises(SystemExit, match="horizon"):
        main(["--rare-event", "--horizon", "1e6"])
    with pytest.raises(SystemExit, match="montecarlo"):
        main(["--rare-event", "--mode", "events"])


def test_nonconvergence_exits_cleanly(monkeypatch):
    """Weibull lifetimes have no analytic projection (and no rare-event
    fallback), so a non-converging run must still surface as a clean
    CLI error pointing at the remedies.  MAX_ROUNDS is shrunk so the
    safety valve trips immediately."""
    import repro.sim.montecarlo as mc
    monkeypatch.setattr(mc, "MAX_ROUNDS", 5)
    with pytest.raises(SystemExit, match="rare-event"):
        main(["--code", "rs(n=8,r=16,m=3)", "--trials", "5",
              "--weibull-shape", "1.0"])


def test_bad_spec_exits_cleanly():
    with pytest.raises(SystemExit, match="malformed code spec"):
        main(["--code", "stair(n=8", "--trials", "10"])
    with pytest.raises(SystemExit, match="invalid arguments"):
        main(["--code", "rs(n=8,r=4,q=1)", "--trials", "10"])


def test_events_mode_requires_scrub_interval_for_sector_errors():
    with pytest.raises(SystemExit, match="scrub-interval"):
        main(["--mode", "events", "--trials", "2", "--seed", "0",
              "--scrub-interval", "0"])


def test_parser_defaults():
    args = build_parser().parse_args([])
    assert args.mode == "montecarlo"
    assert args.trials == 1000
    assert args.seed == 0


# --------------------------------------------------------------------------- #
# Rare-event auto-switchover boundary
# --------------------------------------------------------------------------- #
def _projection_for(argv_mttf: float, trials: int) -> float:
    """The projected direct-MC round count the CLI computes for the
    default RS m=1 code at the given MTTF."""
    from repro.codes.registry import parse_code_spec
    from repro.reliability.mttdl import (SystemParameters,
                                         mttdl_array_general)
    from repro.reliability.sector_models import IndependentSectorModel
    from repro.sim.montecarlo import code_reliability_from_code
    from repro.sim.rare import projected_direct_rounds

    code = parse_code_spec("rs(n=8,r=16,m=1)")
    params = SystemParameters(mean_time_to_failure_hours=argv_mttf,
                              n=code.n, r=code.r, m=1)
    model = IndependentSectorModel.from_p_bit(1e-12, code.r,
                                              params.sector_bytes)
    analytic = mttdl_array_general(
        code_reliability_from_code(code), params, model)
    return projected_direct_rounds(analytic, code.n, argv_mttf, trials)


def test_auto_switchover_boundary_just_below_the_valve(monkeypatch,
                                                       capsys):
    """Projected rounds a hair below the valve: the run must stay on
    the direct path (no rare-event table), exercising the boundary the
    endpoint tests never touch."""
    import repro.sim.rare as rare
    projected = _projection_for(20_000.0, trials=60)
    monkeypatch.setattr(rare, "MAX_ROUNDS", projected * 1.01)
    assert main(["--trials", "60", "--seed", "0", "--mttf", "20000"]) == 0
    out = capsys.readouterr().out
    assert "rare-event" not in out
    assert "MTTDL (sim)" in out


def test_auto_switchover_boundary_just_above_the_valve(monkeypatch,
                                                       capsys):
    """The same configuration with the valve a hair below the
    projection must switch to the rare-event estimator."""
    import repro.sim.rare as rare
    projected = _projection_for(20_000.0, trials=60)
    monkeypatch.setattr(rare, "MAX_ROUNDS", projected * 0.99)
    assert main(["--trials", "60", "--seed", "0", "--mttf", "20000"]) == 0
    out = capsys.readouterr().out
    assert "rare-event (auto" in out
    assert "MTTDL (rare-event)" in out


# --------------------------------------------------------------------------- #
# Failure-domain flags
# --------------------------------------------------------------------------- #
def test_domain_flags_default_to_no_domains(capsys):
    assert main(["--trials", "50", "--seed", "0", "--mttf", "20000"]) == 0
    assert "failure domains" not in capsys.readouterr().out


def test_montecarlo_mode_with_rack_shocks_prints_independent_ref(capsys):
    assert main(["--trials", "200", "--seed", "0", "--mttf", "20000",
                 "--racks", "8", "--rack-shock-rate", "1e-4"]) == 0
    out = capsys.readouterr().out
    assert "failure domains" in out
    assert "8 racks (spread)" in out
    # The correlated run never claims 3-sigma agreement with the
    # independent chain -- it prints it as a reference instead.
    assert "analytic, independent ref" in out
    assert "analytic within 3 sigma" not in out


def test_inert_domain_flags_keep_the_analytic_verdict(capsys):
    """Topology without correlation (racks > 1 but no shocks): the §7
    chain still applies and the verdict row must stay."""
    assert main(["--trials", "100", "--seed", "0", "--racks", "4"]) == 0
    out = capsys.readouterr().out
    assert "failure domains" in out
    assert "analytic within 3 sigma  yes" in out


def test_events_mode_with_contiguous_rack_shocks(capsys):
    assert main(["--mode", "events", "--trials", "3", "--seed", "0",
                 "--stripes", "32", "--mttf", "50000",
                 "--racks", "4", "--rack-shock-rate", "1e-4",
                 "--placement", "contiguous", "--horizon", "50000"]) == 0
    out = capsys.readouterr().out
    assert "rack_shock_exceeds_m" in out


def test_rare_event_with_domains_prints_independent_ref(capsys):
    assert main(["--code", "sd(n=8,r=16,m=2,s=2)", "--rare-event",
                 "--seed", "0", "--racks", "8",
                 "--rack-shock-rate", "2e-6",
                 "--rare-target-rel-se", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "Rare-event cluster reliability" in out
    assert "failure domains" in out
    assert "analytic, independent ref" in out


def test_batch_flags_thread_through(capsys):
    assert main(["--trials", "200", "--seed", "0", "--mttf", "20000",
                 "--batch-fraction", "0.5", "--batch-accel", "4"]) == 0
    out = capsys.readouterr().out
    assert "batch 50% x4 accel" in out
    assert "analytic, independent ref" in out


def test_bad_domain_flags_exit_cleanly():
    with pytest.raises(SystemExit, match="racks"):
        main(["--racks", "0", "--trials", "10"])
    with pytest.raises(SystemExit, match="kill_probability"):
        main(["--racks", "2", "--rack-kill-prob", "0", "--trials", "10"])
    with pytest.raises(SystemExit, match="placement|batch"):
        main(["--batch-accel", "-1", "--trials", "10"])


def test_help_epilog_points_at_failure_domain_docs(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--help"])
    out = capsys.readouterr().out
    assert "docs/failure-domains.md" in out
    assert "--rack-shock-rate" in out


# --------------------------------------------------------------------------- #
# Failure-trace flags
# --------------------------------------------------------------------------- #
import pathlib  # noqa: E402

SAMPLE_TRACE = str(pathlib.Path(__file__).resolve().parents[2]
                   / "examples" / "sample_trace.csv")


def _write_tiny_trace(tmp_path, failures=True):
    """A 3-device snapshot trace (2 observed failures, 1 censored)."""
    rows = ["date,serial_number,failure"]
    for serial, days, failed in (("A", 4, failures), ("B", 6, failures),
                                 ("C", 8, False)):
        for day in range(days):
            flag = int(failed and day == days - 1)
            rows.append(f"2024-01-{day + 1:02d},{serial},{flag}")
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


def test_trace_flag_fits_empirical_model_and_prints_trace_row(capsys):
    assert main(["--trace", SAMPLE_TRACE, "--trials", "100",
                 "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "failure trace" in out
    assert "EmpiricalLifetime" in out
    assert "MTTDL (sim)" in out
    # An empirical lifetime has no exponential closed form to check.
    assert "analytic within 3 sigma" not in out


def test_trace_km_model_runs_direct_simulation(capsys):
    assert main(["--trace", SAMPLE_TRACE, "--trace-model", "km",
                 "--trials", "100", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "KaplanMeierLifetime" in out
    assert "MTTDL (sim)" in out


def test_trace_rare_event_runs_on_piecewise_fit(capsys):
    assert main(["--trace", SAMPLE_TRACE, "--rare-event", "--seed", "0",
                 "--rare-target-rel-se", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "Rare-event cluster reliability" in out
    assert "EmpiricalLifetime" in out
    assert "- (empirical lifetimes)" in out
    # The sample fleet has an infant cohort, so the quasi-renewal
    # caveat must arrive as a table row, not a raw Python warning.
    assert "warning" in out
    assert "quasi-renewal" in out


def test_trace_replay_runs_on_event_engine(tmp_path, capsys):
    path = _write_tiny_trace(tmp_path)
    assert main(["--mode", "events", "--trace", str(path),
                 "--trace-replay", "--trials", "2", "--seed", "0",
                 "--stripes", "16", "--horizon", "500"]) == 0
    out = capsys.readouterr().out
    assert "TraceReplayLifetime" in out
    assert "Event-driven trajectories" in out


def test_trace_missing_or_empty_file_exits_readably(tmp_path):
    """The CLI-ergonomics satellite: a bad --trace is a one-line error,
    never a traceback."""
    with pytest.raises(SystemExit, match="does not exist"):
        main(["--trace", str(tmp_path / "nope.csv"), "--trials", "10"])
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(SystemExit, match="is empty"):
        main(["--trace", str(empty), "--trials", "10"])
    header_only = tmp_path / "header.csv"
    header_only.write_text("date,serial_number,failure\n")
    with pytest.raises(SystemExit, match="no data rows"):
        main(["--trace", str(header_only), "--trials", "10"])


def test_trace_flag_conflicts_exit_readably(tmp_path):
    with pytest.raises(SystemExit, match="pick one"):
        main(["--trace", SAMPLE_TRACE, "--weibull-shape", "2.0",
              "--trials", "10"])
    with pytest.raises(SystemExit, match="piecewise"):
        main(["--trace", SAMPLE_TRACE, "--trace-model", "km",
              "--rare-event"])
    with pytest.raises(SystemExit, match="needs --trace"):
        main(["--trace-replay", "--mode", "events", "--trials", "2"])
    with pytest.raises(SystemExit, match="events only"):
        main(["--trace", SAMPLE_TRACE, "--trace-replay", "--trials", "2"])
    with pytest.raises(SystemExit, match="trace-bins"):
        main(["--trace", SAMPLE_TRACE, "--trace-bins", "0",
              "--trials", "10"])
    # An explicitly requested model alongside verbatim replay is a
    # contradiction, not something to silently ignore.
    with pytest.raises(SystemExit, match="fits no model"):
        main(["--mode", "events", "--trace", SAMPLE_TRACE,
              "--trace-replay", "--trace-model", "km", "--trials", "2",
              "--stripes", "16", "--horizon", "500"])
    # Orphaned trace flags (no --trace) must not silently fall back to
    # the parametric model the user thinks they replaced.
    with pytest.raises(SystemExit, match="add --trace"):
        main(["--trace-model", "km", "--trials", "10"])
    with pytest.raises(SystemExit, match="add --trace"):
        main(["--trace-bins", "4", "--trials", "10"])
    # Bins size the piecewise fit only.
    with pytest.raises(SystemExit, match="no bins"):
        main(["--trace", SAMPLE_TRACE, "--trace-model", "km",
              "--trace-bins", "4", "--trials", "10"])


def test_ultra_reliable_trace_fit_auto_selects_rare_event(monkeypatch,
                                                          capsys):
    """A fitted trace whose projected direct-MC round count blows the
    valve must route to the rare-event estimator (which accepts the
    piecewise fit) instead of grinding into the MAX_ROUNDS error."""
    import repro.sim.rare as rare
    monkeypatch.setattr(rare, "MAX_ROUNDS", 10.0)
    assert main(["--trace", SAMPLE_TRACE, "--trials", "50",
                 "--seed", "0", "--rare-target-rel-se", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "rare-event (auto" in out
    assert "EmpiricalLifetime" in out
    assert "MTTDL (rare-event)" in out


def test_trace_rare_event_accepts_inert_domain_topology(capsys):
    """Pure topology (racks without shocks) is a statistical no-op and
    must not block the empirical rare-event path."""
    assert main(["--trace", SAMPLE_TRACE, "--rare-event", "--seed", "0",
                 "--racks", "8", "--rare-target-rel-se", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "Rare-event cluster reliability" in out
    assert "EmpiricalLifetime" in out
    # An *active* correlation with an empirical lifetime is rejected.
    with pytest.raises(SystemExit, match="correlated failure domains"):
        main(["--trace", SAMPLE_TRACE, "--rare-event", "--seed", "0",
              "--racks", "8", "--rack-shock-rate", "1e-5"])


def test_all_censored_trace_exits_readably(tmp_path):
    path = _write_tiny_trace(tmp_path, failures=False)
    with pytest.raises(SystemExit, match="right-censored"):
        main(["--trace", str(path), "--trials", "10"])


def test_help_epilog_points_at_trace_docs(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--help"])
    out = capsys.readouterr().out
    assert "docs/traces.md" in out
    assert "--trace-replay" in out
    assert "docs/index.md" in out


def test_multi_array_shock_run_notes_the_marginal_law(capsys):
    """The vectorized path drops cross-array shock coupling; with
    several arrays and active shocks the table must say so."""
    assert main(["--trials", "100", "--seed", "0", "--mttf", "20000",
                 "--arrays", "3", "--racks", "8",
                 "--rack-shock-rate", "1e-4"]) == 0
    out = capsys.readouterr().out
    assert "per-array marginal shock law" in out
    # A single-array run is exact and must not carry the note.
    assert main(["--trials", "100", "--seed", "0", "--mttf", "20000",
                 "--racks", "8", "--rack-shock-rate", "1e-4"]) == 0
    assert "marginal shock law" not in capsys.readouterr().out


# --------------------------------------------------------------------------- #
# Scenario specs: --spec / --dump-spec and the silent-no-op flag rejections
# --------------------------------------------------------------------------- #
def test_events_only_flags_rejected_outside_events_mode():
    """--stripes & co. used to be quietly ignored by the vectorized
    runner; now they name themselves and point at --mode events."""
    with pytest.raises(SystemExit, match="--stripes"):
        main(["--stripes", "64", "--trials", "10"])
    with pytest.raises(SystemExit, match="--scrub-interval"):
        main(["--scrub-interval", "100", "--trials", "10"])
    with pytest.raises(SystemExit, match="--rebuild-streams"):
        main(["--rebuild-streams", "1.5", "--rare-event"])
    with pytest.raises(SystemExit, match="--write-rate"):
        main(["--write-rate", "0.5", "--trials", "10"])


def test_rare_tuning_flags_rejected_in_events_mode():
    with pytest.raises(SystemExit, match="--rare-target-rel-se"):
        main(["--mode", "events", "--rare-target-rel-se", "0.1"])
    with pytest.raises(SystemExit, match="--rare-max-cycles"):
        main(["--mode", "events", "--rare-max-cycles", "100"])


def test_events_only_flags_still_work_in_events_mode(capsys):
    assert main(["--mode", "events", "--trials", "2", "--seed", "0",
                 "--stripes", "32", "--mttf", "2000",
                 "--scrub-interval", "100", "--horizon", "20000"]) == 0
    assert "Event-driven trajectories" in capsys.readouterr().out


def test_dump_spec_prints_the_effective_toml(capsys):
    assert main(["--code", "sd(n=8,r=16,m=2,s=2)", "--rare-event",
                 "--dump-spec"]) == 0
    out = capsys.readouterr().out
    assert 'spec = "sd(n=8,r=16,m=2,s=2)"' in out
    assert 'mode = "rare"' in out
    assert out.startswith("version = 1")


def test_spec_flag_loads_a_committed_spec(tmp_path, capsys):
    path = tmp_path / "scenario.toml"
    path.write_text('version = 1\n[code]\nspec = "rs(n=8,r=16,m=1)"\n'
                    "[estimator]\ntrials = 50\nseed = 0\n")
    assert main(["--spec", str(path)]) == 0
    assert "MTTDL (sim)" in capsys.readouterr().out
    with pytest.raises(SystemExit, match="does not exist"):
        main(["--spec", str(tmp_path / "missing.toml")])


def test_help_epilog_points_at_scenario_docs(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--help"])
    out = capsys.readouterr().out
    assert "docs/scenarios.md" in out
    assert "--dump-spec" in out


# --------------------------------------------------------------------------- #
# --spec passes the loaded spec through unchanged
# --------------------------------------------------------------------------- #
_CHEAP = ("[estimator]\nmode = \"{mode}\"\ntrials = 2\nseed = 0\n"
          "horizon_hours = 500.0\n")


@pytest.mark.parametrize("body, mode, field", [
    ('[lifetime]\nkind = "weibull"\n', "montecarlo", "weibull_shape"),
    ('[lifetime]\nkind = "exponential"\nweibull_shape = 2.0\n',
     "montecarlo", "weibull_shape"),
    ("[fleet]\nstripes_per_array = 16\nscrub_interval_hours = -5.0\n",
     "events", "scrub_interval_hours"),
    ("[fleet]\nstripes_per_array = 16\n[repair]\nrebuild_concurrency = 0\n",
     "events", "rebuild_concurrency"),
    (None, "events", "scrub_interval_hours"),
], ids=["weibull-without-shape", "shape-under-exponential",
        "negative-scrub-interval", "zero-rebuild-concurrency",
        "negative-scrub-interval-flag"])
def test_invalid_values_are_rejected_not_rewritten(tmp_path, body, mode,
                                                   field):
    """A value the spec rejects is never silently rewritten into a
    valid one, whether it came from a --spec file or from a flag."""
    if body is None:
        argv = ["--mode", mode, "--trials", "2", "--stripes", "16",
                "--horizon", "500", "--scrub-interval", "-5"]
    else:
        path = tmp_path / "scenario.toml"
        path.write_text('version = 1\n[code]\nspec = "rs(n=8,r=16,m=1)"\n'
                        + body + _CHEAP.format(mode=mode))
        argv = ["--spec", str(path)]
    with pytest.raises(SystemExit, match=f"^error: .*{field}"):
        main(argv)
