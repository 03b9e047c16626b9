"""--dump-spec round trips: flags -> spec -> file -> identical run.

The refactor's acceptance criterion: the CLI is a thin adapter, so a
dumped spec must rebuild the *exact* engine inputs of the flag run it
came from (same canonical dict, same content hash), and running through
``--spec`` must print byte-identical tables.
"""

import pathlib

import pytest

from repro.scenario.spec import ScenarioSpec, spec_hash
from repro.sim.cli import build_parser, main, spec_from_args

INVOCATIONS = {
    "m1-default": ["--seed", "0", "--trials", "100"],
    "m2-direct": ["--code", "sd(n=8,r=16,m=2,s=2)", "--trials", "150",
                  "--seed", "0", "--mttf", "20000",
                  "--repair-hours", "200"],
    "domains": ["--trials", "200", "--seed", "0", "--mttf", "20000",
                "--racks", "8", "--rack-shock-rate", "1e-4",
                "--batch-fraction", "0.5", "--batch-accel", "4"],
    "trace": ["--trace", "examples/sample_trace.csv", "--trials", "200",
              "--seed", "0", "--trace-bins", "6"],
    "rare": ["--code", "sd(n=8,r=16,m=2,s=2)", "--rare-event",
             "--seed", "0", "--rare-target-rel-se", "0.05"],
    "events-replay": ["--mode", "events", "--trace",
                      "examples/sample_trace.csv", "--trace-replay",
                      "--trials", "5", "--seed", "0", "--stripes", "32",
                      "--horizon", "3000"],
    # With the entries above, these set each of the 33 spec-bound flags
    # to a non-default value at least once.
    "all-events": ["--mode", "events",
                   "--code", "stair(n=8,r=16,m=1,e=(1,2))",
                   "--trials", "7", "--seed", "3", "--arrays", "2",
                   "--stripes", "64", "--p-bit", "1e-10",
                   "--sector-model", "correlated", "--mttf", "20000",
                   "--repair-hours", "24", "--horizon", "8760",
                   "--scrub-interval", "72", "--rebuild-concurrency", "2",
                   "--rebuild-streams", "1.5", "--rebuild-rate-mbs", "50",
                   "--write-rate", "0.5", "--racks", "4",
                   "--rack-shock-rate", "1e-4", "--rack-kill-prob", "0.5",
                   "--enclosures-per-rack", "2",
                   "--enclosure-shock-rate", "1e-5",
                   "--enclosure-kill-prob", "0.25",
                   "--batch-fraction", "0.5", "--batch-accel", "3",
                   "--placement", "contiguous"],
    "rare-trace": ["--rare-event", "--rare-target-rel-se", "0.1",
                   "--rare-max-cycles", "1000",
                   "--trace", "examples/sample_trace.csv",
                   "--trace-bins", "4"],
    "weibull": ["--weibull-shape", "1.5", "--trials", "20",
                "--horizon", "1e6"],
    "trace-km": ["--trace", "examples/sample_trace.csv",
                 "--trace-model", "km", "--trials", "30"],
    # A committed spec plus explicitly passed overrides.
    "spec-trace-km": ["--spec", "examples/trace_scenario.toml",
                      "--trace-model", "km"],
    "spec-rare-seed": ["--spec",
                       "src/repro/bench/specs/validation/rs_m2_rare.toml",
                       "--seed", "7"],
    "spec-store-trials": ["--spec", "examples/store_smoke.toml",
                          "--trials", "50"],
}


@pytest.mark.parametrize("argv", INVOCATIONS.values(),
                         ids=INVOCATIONS.keys())
def test_dumped_spec_rebuilds_identical_engine_inputs(argv):
    args = build_parser().parse_args(argv)
    spec = spec_from_args(args).validate()
    reloaded = ScenarioSpec.loads(spec.dumps_toml())
    assert reloaded == spec
    assert reloaded.canonical_dict() == spec.canonical_dict()
    assert spec_hash(reloaded) == spec_hash(spec)


@pytest.mark.parametrize("name", ["m1-default", "domains", "trace",
                                  "events-replay", "rare"])
def test_spec_run_prints_the_same_table_as_the_flag_run(name, tmp_path,
                                                        capsys):
    argv = INVOCATIONS[name]
    assert main(argv) == 0
    flag_out = capsys.readouterr().out
    assert main(argv + ["--dump-spec"]) == 0
    dumped = capsys.readouterr().out
    path = tmp_path / "scenario.toml"
    path.write_text(dumped)
    assert main(["--spec", str(path)]) == 0
    assert capsys.readouterr().out == flag_out


def test_explicit_flags_override_the_loaded_spec(tmp_path, capsys):
    assert main(["--seed", "0", "--trials", "100", "--dump-spec"]) == 0
    path = tmp_path / "scenario.toml"
    path.write_text(capsys.readouterr().out)
    # Overriding --trials on top of the spec must equal the pure flag
    # run with that trial count (everything else from the spec).
    assert main(["--seed", "0", "--trials", "60"]) == 0
    reference = capsys.readouterr().out
    assert main(["--spec", str(path), "--trials", "60"]) == 0
    assert capsys.readouterr().out == reference


def test_dump_spec_of_a_loaded_spec_is_a_fixed_point(tmp_path, capsys):
    assert main(["--trace", "examples/sample_trace.csv", "--trials", "50",
                 "--seed", "2", "--dump-spec"]) == 0
    first = capsys.readouterr().out
    path = tmp_path / "scenario.toml"
    path.write_text(first)
    assert main(["--spec", str(path), "--dump-spec"]) == 0
    assert capsys.readouterr().out == first


def test_bad_spec_file_is_a_clean_cli_error(tmp_path):
    path = tmp_path / "bad.toml"
    path.write_text("version = 1\n[code]\nspec = \"rs(n=8,r=16,m=1)\"\n"
                    "[tuning]\nx = 1\n")
    with pytest.raises(SystemExit, match="unknown section"):
        main(["--spec", str(path)])


# --------------------------------------------------------------------------- #
# Golden --dump-spec output of every invocation above
# --------------------------------------------------------------------------- #
#: What ``--dump-spec`` prints for each entry of INVOCATIONS, byte for
#: byte.  Dumping runs no engine, so these cost almost nothing.
GOLDEN_DUMPS = {
    'm1-default': '''\
version = 1

[code]
spec = "rs(n=8,r=16,m=1)"

[fleet]
arrays = 1
stripes_per_array = 1024
scrub_interval_hours = 168.0
write_rate_per_hour = 0.0

[lifetime]
kind = "exponential"
mttf_hours = 500000.0

[domains]
racks = 1
rack_shock_rate_per_hour = 0.0
rack_kill_probability = 1.0
enclosures_per_rack = 1
enclosure_shock_rate_per_hour = 0.0
enclosure_kill_probability = 1.0
batch_fraction = 0.0
batch_accel = 1.0
placement = "spread"

[repair]
repair_hours = 17.8

[sector]
model = "independent"
p_bit = 1e-12
b1 = 0.98
alpha = 1.79

[estimator]
mode = "montecarlo"
trials = 100
seed = 0
rare_target_rel_se = 0.02
rare_max_cycles = 4000000
''',
    'm2-direct': '''\
version = 1

[code]
spec = "sd(n=8,r=16,m=2,s=2)"

[fleet]
arrays = 1
stripes_per_array = 1024
scrub_interval_hours = 168.0
write_rate_per_hour = 0.0

[lifetime]
kind = "exponential"
mttf_hours = 20000.0

[domains]
racks = 1
rack_shock_rate_per_hour = 0.0
rack_kill_probability = 1.0
enclosures_per_rack = 1
enclosure_shock_rate_per_hour = 0.0
enclosure_kill_probability = 1.0
batch_fraction = 0.0
batch_accel = 1.0
placement = "spread"

[repair]
repair_hours = 200.0

[sector]
model = "independent"
p_bit = 1e-12
b1 = 0.98
alpha = 1.79

[estimator]
mode = "montecarlo"
trials = 150
seed = 0
rare_target_rel_se = 0.02
rare_max_cycles = 4000000
''',
    'domains': '''\
version = 1

[code]
spec = "rs(n=8,r=16,m=1)"

[fleet]
arrays = 1
stripes_per_array = 1024
scrub_interval_hours = 168.0
write_rate_per_hour = 0.0

[lifetime]
kind = "exponential"
mttf_hours = 20000.0

[domains]
racks = 8
rack_shock_rate_per_hour = 0.0001
rack_kill_probability = 1.0
enclosures_per_rack = 1
enclosure_shock_rate_per_hour = 0.0
enclosure_kill_probability = 1.0
batch_fraction = 0.5
batch_accel = 4.0
placement = "spread"

[repair]
repair_hours = 17.8

[sector]
model = "independent"
p_bit = 1e-12
b1 = 0.98
alpha = 1.79

[estimator]
mode = "montecarlo"
trials = 200
seed = 0
rare_target_rel_se = 0.02
rare_max_cycles = 4000000
''',
    'trace': '''\
version = 1

[code]
spec = "rs(n=8,r=16,m=1)"

[fleet]
arrays = 1
stripes_per_array = 1024
scrub_interval_hours = 168.0
write_rate_per_hour = 0.0

[lifetime]
kind = "exponential"
mttf_hours = 500000.0

[trace]
path = "examples/sample_trace.csv"
model = "piecewise"
bins = 6

[domains]
racks = 1
rack_shock_rate_per_hour = 0.0
rack_kill_probability = 1.0
enclosures_per_rack = 1
enclosure_shock_rate_per_hour = 0.0
enclosure_kill_probability = 1.0
batch_fraction = 0.0
batch_accel = 1.0
placement = "spread"

[repair]
repair_hours = 17.8

[sector]
model = "independent"
p_bit = 1e-12
b1 = 0.98
alpha = 1.79

[estimator]
mode = "montecarlo"
trials = 200
seed = 0
rare_target_rel_se = 0.02
rare_max_cycles = 4000000
''',
    'rare': '''\
version = 1

[code]
spec = "sd(n=8,r=16,m=2,s=2)"

[fleet]
arrays = 1
stripes_per_array = 1024
scrub_interval_hours = 168.0
write_rate_per_hour = 0.0

[lifetime]
kind = "exponential"
mttf_hours = 500000.0

[domains]
racks = 1
rack_shock_rate_per_hour = 0.0
rack_kill_probability = 1.0
enclosures_per_rack = 1
enclosure_shock_rate_per_hour = 0.0
enclosure_kill_probability = 1.0
batch_fraction = 0.0
batch_accel = 1.0
placement = "spread"

[repair]
repair_hours = 17.8

[sector]
model = "independent"
p_bit = 1e-12
b1 = 0.98
alpha = 1.79

[estimator]
mode = "rare"
trials = 1000
seed = 0
rare_target_rel_se = 0.05
rare_max_cycles = 4000000
''',
    'events-replay': '''\
version = 1

[code]
spec = "rs(n=8,r=16,m=1)"

[fleet]
arrays = 1
stripes_per_array = 32
scrub_interval_hours = 168.0
write_rate_per_hour = 0.0

[lifetime]
kind = "exponential"
mttf_hours = 500000.0

[trace]
path = "examples/sample_trace.csv"
model = "replay"

[domains]
racks = 1
rack_shock_rate_per_hour = 0.0
rack_kill_probability = 1.0
enclosures_per_rack = 1
enclosure_shock_rate_per_hour = 0.0
enclosure_kill_probability = 1.0
batch_fraction = 0.0
batch_accel = 1.0
placement = "spread"

[repair]
repair_hours = 17.8

[sector]
model = "independent"
p_bit = 1e-12
b1 = 0.98
alpha = 1.79

[estimator]
mode = "events"
trials = 5
seed = 0
horizon_hours = 3000.0
rare_target_rel_se = 0.02
rare_max_cycles = 4000000
''',
    'all-events': '''\
version = 1

[code]
spec = "stair(n=8,r=16,m=1,e=(1,2))"

[fleet]
arrays = 2
stripes_per_array = 64
scrub_interval_hours = 72.0
write_rate_per_hour = 0.5

[lifetime]
kind = "exponential"
mttf_hours = 20000.0

[domains]
racks = 4
rack_shock_rate_per_hour = 0.0001
rack_kill_probability = 0.5
enclosures_per_rack = 2
enclosure_shock_rate_per_hour = 1e-05
enclosure_kill_probability = 0.25
batch_fraction = 0.5
batch_accel = 3.0
placement = "contiguous"

[repair]
repair_hours = 24.0
rebuild_rate_mbs = 50.0
rebuild_concurrency = 2
rebuild_streams = 1.5

[sector]
model = "correlated"
p_bit = 1e-10
b1 = 0.98
alpha = 1.79

[estimator]
mode = "events"
trials = 7
seed = 3
horizon_hours = 8760.0
rare_target_rel_se = 0.02
rare_max_cycles = 4000000
''',
    'rare-trace': '''\
version = 1

[code]
spec = "rs(n=8,r=16,m=1)"

[fleet]
arrays = 1
stripes_per_array = 1024
scrub_interval_hours = 168.0
write_rate_per_hour = 0.0

[lifetime]
kind = "exponential"
mttf_hours = 500000.0

[trace]
path = "examples/sample_trace.csv"
model = "piecewise"
bins = 4

[domains]
racks = 1
rack_shock_rate_per_hour = 0.0
rack_kill_probability = 1.0
enclosures_per_rack = 1
enclosure_shock_rate_per_hour = 0.0
enclosure_kill_probability = 1.0
batch_fraction = 0.0
batch_accel = 1.0
placement = "spread"

[repair]
repair_hours = 17.8

[sector]
model = "independent"
p_bit = 1e-12
b1 = 0.98
alpha = 1.79

[estimator]
mode = "rare"
trials = 1000
seed = 0
rare_target_rel_se = 0.1
rare_max_cycles = 1000
''',
    'weibull': '''\
version = 1

[code]
spec = "rs(n=8,r=16,m=1)"

[fleet]
arrays = 1
stripes_per_array = 1024
scrub_interval_hours = 168.0
write_rate_per_hour = 0.0

[lifetime]
kind = "weibull"
mttf_hours = 500000.0
weibull_shape = 1.5

[domains]
racks = 1
rack_shock_rate_per_hour = 0.0
rack_kill_probability = 1.0
enclosures_per_rack = 1
enclosure_shock_rate_per_hour = 0.0
enclosure_kill_probability = 1.0
batch_fraction = 0.0
batch_accel = 1.0
placement = "spread"

[repair]
repair_hours = 17.8

[sector]
model = "independent"
p_bit = 1e-12
b1 = 0.98
alpha = 1.79

[estimator]
mode = "montecarlo"
trials = 20
seed = 0
horizon_hours = 1000000.0
rare_target_rel_se = 0.02
rare_max_cycles = 4000000
''',
    'trace-km': '''\
version = 1

[code]
spec = "rs(n=8,r=16,m=1)"

[fleet]
arrays = 1
stripes_per_array = 1024
scrub_interval_hours = 168.0
write_rate_per_hour = 0.0

[lifetime]
kind = "exponential"
mttf_hours = 500000.0

[trace]
path = "examples/sample_trace.csv"
model = "km"

[domains]
racks = 1
rack_shock_rate_per_hour = 0.0
rack_kill_probability = 1.0
enclosures_per_rack = 1
enclosure_shock_rate_per_hour = 0.0
enclosure_kill_probability = 1.0
batch_fraction = 0.0
batch_accel = 1.0
placement = "spread"

[repair]
repair_hours = 17.8

[sector]
model = "independent"
p_bit = 1e-12
b1 = 0.98
alpha = 1.79

[estimator]
mode = "montecarlo"
trials = 30
seed = 0
rare_target_rel_se = 0.02
rare_max_cycles = 4000000
''',
    'spec-trace-km': '''\
version = 1

[code]
spec = "rs(n=8,r=16,m=1)"

[fleet]
arrays = 1
stripes_per_array = 1024
scrub_interval_hours = 168.0
write_rate_per_hour = 0.0

[lifetime]
kind = "exponential"
mttf_hours = 500000.0

[trace]
path = "examples/sample_trace.csv"
model = "km"

[domains]
racks = 1
rack_shock_rate_per_hour = 0.0
rack_kill_probability = 1.0
enclosures_per_rack = 1
enclosure_shock_rate_per_hour = 0.0
enclosure_kill_probability = 1.0
batch_fraction = 0.0
batch_accel = 1.0
placement = "spread"

[repair]
repair_hours = 17.8

[sector]
model = "independent"
p_bit = 1e-12
b1 = 0.98
alpha = 1.79

[estimator]
mode = "montecarlo"
trials = 200
seed = 0
rare_target_rel_se = 0.02
rare_max_cycles = 4000000
''',
    'spec-rare-seed': '''\
version = 1

[code]
spec = "rs(n=8,r=16,m=2)"

[fleet]
arrays = 1
stripes_per_array = 1024
scrub_interval_hours = 168.0
write_rate_per_hour = 0.0

[lifetime]
kind = "exponential"
mttf_hours = 500000.0

[domains]
racks = 1
rack_shock_rate_per_hour = 0.0
rack_kill_probability = 1.0
enclosures_per_rack = 1
enclosure_shock_rate_per_hour = 0.0
enclosure_kill_probability = 1.0
batch_fraction = 0.0
batch_accel = 1.0
placement = "spread"

[repair]
repair_hours = 17.8

[sector]
model = "independent"
p_bit = 1e-10
b1 = 0.98
alpha = 1.79

[estimator]
mode = "rare"
trials = 400
seed = 7
rare_target_rel_se = 0.02
rare_max_cycles = 4000000
''',
    'spec-store-trials': '''\
version = 1

[code]
spec = "rs(n=6,r=4,m=2)"

[fleet]
arrays = 1
stripes_per_array = 1024
scrub_interval_hours = 168.0
write_rate_per_hour = 0.0

[lifetime]
kind = "exponential"
mttf_hours = 500000.0

[domains]
racks = 1
rack_shock_rate_per_hour = 0.0
rack_kill_probability = 1.0
enclosures_per_rack = 1
enclosure_shock_rate_per_hour = 0.0
enclosure_kill_probability = 1.0
batch_fraction = 0.0
batch_accel = 1.0
placement = "spread"

[repair]
repair_hours = 17.8
rebuild_streams = 2.0

[sector]
model = "independent"
p_bit = 1e-12
b1 = 0.98
alpha = 1.79

[estimator]
mode = "montecarlo"
trials = 50
seed = 0
rare_target_rel_se = 0.02
rare_max_cycles = 4000000

[store]
objects = 16
object_bytes = 4096
symbol_bytes = 128
operations = 96
clients = 4
read_fraction = 0.85
zipf_alpha = 1.1
repair = true
kill_nodes = 1
kill_at_fraction = 0.4
hours_per_op = 0.0
backend = "inprocess"
meta_shards = 16
latency_net_rtt_ms = 0.0
latency_net_jitter_ms = 0.0
latency_disk_ms = 0.0
latency_disk_jitter_ms = 0.0
''',
}


def test_every_invocation_has_a_golden_dump():
    assert GOLDEN_DUMPS.keys() == INVOCATIONS.keys()


@pytest.mark.parametrize("name", INVOCATIONS.keys())
def test_dump_spec_matches_the_golden_text(name, capsys):
    assert main(INVOCATIONS[name] + ["--dump-spec"]) == 0
    assert capsys.readouterr().out == GOLDEN_DUMPS[name]


ROOT = pathlib.Path(__file__).resolve().parents[2]
COMMITTED_SPECS = sorted(
    str(path) for pattern in ("src/repro/bench/specs/validation/*.toml",
                              "benchmarks/ledger/specs/*.toml",
                              "examples/*.toml")
    for path in ROOT.glob(pattern))


def test_committed_spec_list_is_complete():
    # 7 validation rows, 3 ledger cells, 3 examples.
    assert len(COMMITTED_SPECS) == 13


@pytest.mark.parametrize("path", COMMITTED_SPECS,
                         ids=[pathlib.Path(p).name for p in COMMITTED_SPECS])
def test_dump_spec_passes_a_committed_spec_through(path, capsys):
    assert main(["--spec", path, "--dump-spec"]) == 0
    assert ScenarioSpec.loads(capsys.readouterr().out) == \
        ScenarioSpec.load(path)
