"""Command-line front end of the object store.

Runs one spec-driven workload and prints the report::

    python -m repro.store.cli --spec examples/store_smoke.toml
    python -m repro.store.cli --spec ... --json
    python -m repro.store.cli --spec ... --check-integrity   # CI gate

``--check-integrity`` exits non-zero unless the run had zero data loss
(no failed reads, no verification failures, no unrecoverable stripes)
and -- when the repair loop was enabled -- full redundancy restored; it
is the assertion behind the CI store smoke step.  ``--seed`` and
``--operations`` override the spec without editing the file (sweep-style
what-ifs).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.scenario.flags import add_flags, flag_overrides
from repro.scenario.spec import ScenarioSpec, ScenarioSpecError
from repro.store.runner import StoreOutcome, run_store


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store.cli",
        description="Serve a spec-driven object-store workload "
                    "(put/get/degraded-read/repair) and report latency, "
                    "amplification and repair counters.",
        epilog="Spec format: docs/scenarios.md ([store] section: "
               "docs/store.md).",
    )
    parser.add_argument("--spec", required=True,
                        help="scenario spec file with a [store] section")
    # Defaults suppressed: only the flags passed override the spec.
    add_flags(parser, ("--seed", "--operations", "--backend"),
              defaults=False)
    parser.add_argument("--json", action="store_true",
                        help="print the full summary as JSON")
    parser.add_argument("--check-integrity", action="store_true",
                        help="exit 1 unless the run had zero data loss "
                             "(and full redundancy, if repair ran)")
    return parser


def _render(outcome: StoreOutcome) -> str:
    report = outcome.report
    pct = report.latency_percentiles()

    def _ms(value: float) -> str:
        return "-" if value != value else f"{value * 1e3:8.3f} ms"

    lines = [
        "Object-store workload report",
        f"  code                 {outcome.cluster.code.describe()}",
        f"  backend              {report.backend}",
        f"  objects / operations {report.objects} / {report.operations}",
        f"  puts / gets          {report.puts} / {report.gets}",
        f"  degraded reads       {report.degraded_reads}",
        f"  failed reads         {report.failed_reads}",
        f"  verify failures      {report.verify_failures}",
        f"  node crashes         {report.node_crashes}",
        f"  repaired stripes     {report.repaired_stripes} "
        f"({report.repaired_chunks} chunks, {report.repair_bytes} bytes)",
        f"  interfered ops       {report.interfered_ops}",
        f"  degraded amplification "
        f"{_fmt_ratio(report.degraded_read_amplification)}",
        f"  healthy amplification  "
        f"{_fmt_ratio(report.healthy_read_amplification)}",
        f"  put latency p50/p99  {_ms(pct['put_p50_s'])} / "
        f"{_ms(pct['put_p99_s'])}",
        f"  get latency p50/p99  {_ms(pct['get_p50_s'])} / "
        f"{_ms(pct['get_p99_s'])}",
        f"  degraded get p50/p99 {_ms(pct['degraded_get_p50_s'])} / "
        f"{_ms(pct['degraded_get_p99_s'])}",
        f"  fully redundant      {'yes' if outcome.fully_redundant else 'NO'}",
        f"  zero data loss       {'yes' if outcome.zero_data_loss else 'NO'}",
    ]
    return "\n".join(lines)


def _fmt_ratio(value: float) -> str:
    return "-" if value != value else f"{value:.2f}x"


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = ScenarioSpec.load(args.spec)
        if spec.store is None:
            raise ScenarioSpecError(
                f"{args.spec}: no [store] section -- this spec is a "
                "reliability scenario; run it with repro.sim.cli")
        spec = spec.with_overrides(flag_overrides(args))
        outcome = run_store(spec)
    except (ScenarioSpecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(outcome.summary(), indent=2, sort_keys=True))
    else:
        print(_render(outcome))
    if args.check_integrity:
        problems = []
        if not outcome.zero_data_loss:
            problems.append("data loss detected")
        if outcome.report.chunk_integrity_failures:
            problems.append(
                f"{outcome.report.chunk_integrity_failures} chunk "
                "integrity failures")
        if outcome.audit_mismatches:
            problems.append("mirror/data-plane audit mismatch: "
                            + "; ".join(outcome.audit_mismatches))
        if spec.store.repair and not outcome.fully_redundant:
            problems.append("full redundancy not restored")
        if problems:
            print("integrity check FAILED: " + "; ".join(problems),
                  file=sys.stderr)
            return 1
        print("integrity check passed: zero data loss"
              + (", full redundancy restored" if spec.store.repair else ""))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
