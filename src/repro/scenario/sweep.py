"""Grid sweeps over scenario specs, with content-addressed caching.

A *sweep file* is a TOML file with a ``[scenario]`` base spec and an
optional ``[sweep]`` section describing how to vary it::

    [scenario]
    version = 1
    [scenario.code]
    spec = "rs(n=8,r=16,m=1)"
    [scenario.lifetime]
    mttf_hours = 20000.0
    [scenario.estimator]
    trials = 400
    seed = 0

    [sweep]
    name = "p-bit-sweep"
    [sweep.grid]
    "sector.p_bit" = [1e-14, 1e-12, 1e-10]
    "code.spec" = ["rs(n=8,r=16,m=1)", "stair(n=8,r=16,m=1,e=(1,2))"]

``grid`` keys are dotted spec paths; the cells are their cartesian
product in file order (here 3 x 2 = 6 cells, p_bit varying slowest).
``[[sweep.cells]]`` tables append explicit cells instead of (or on top
of) a grid.  A file with no ``[sweep]`` section is a one-cell sweep --
any committed scenario spec runs through the orchestrator unchanged.

Per-cell seeds are derived deterministically from the base spec's
``estimator.seed`` via ``numpy.random.SeedSequence.spawn`` -- cells are
statistically independent, yet the whole sweep is reproducible from one
seed.  A cell whose overrides set ``estimator.seed`` explicitly keeps
that seed instead.

Results are cached content-addressed: each cell's canonical spec is
hashed (:func:`~repro.scenario.spec.spec_hash`, which mixes in the
engine-version salt) and the outcome summary is stored as
``<cache_dir>/<hash>.json``.  Re-running a sweep recomputes only cells
whose spec (or engine version) changed; corrupted or stale cache
entries are recomputed, never trusted.  Cell fan-out uses a
``multiprocessing`` pool (``processes > 1``).

Command line::

    PYTHONPATH=src python -m repro.scenario.sweep sweep.toml \\
        --cache-dir .sweep-cache --processes 4
    # second run: all cells served from cache
    PYTHONPATH=src python -m repro.scenario.sweep sweep.toml \\
        --cache-dir .sweep-cache --expect-all-hits

Tutorial: ``docs/scenarios.md``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import multiprocessing
import os
import tomllib
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from repro.scenario.runner import run_scenario
from repro.scenario.spec import (
    CODE_VERSION_SALT,
    ScenarioSpec,
    ScenarioSpecError,
    check_dotted,
    spec_hash,
)


@dataclass(frozen=True)
class SweepSpec:
    """A parsed sweep file: the base scenario plus its variations."""

    base: ScenarioSpec
    name: str = "sweep"
    #: Dotted spec path -> list of values (cartesian product, file order).
    grid: dict[str, list] = field(default_factory=dict)
    #: Explicit extra cells (dotted path -> value each).
    cells: list[dict[str, Any]] = field(default_factory=list)


@dataclass
class SweepCell:
    """One expanded cell: its spec, overrides, and (after the run) its
    cached-or-computed result summary."""

    index: int
    spec: ScenarioSpec
    overrides: dict[str, Any]
    key: str
    cached: bool = False
    result: dict | None = None


@dataclass
class SweepResult:
    """All cells of one sweep run, plus hit/miss accounting."""

    name: str
    cells: list[SweepCell]

    @property
    def hits(self) -> int:
        return sum(cell.cached for cell in self.cells)

    @property
    def misses(self) -> int:
        return len(self.cells) - self.hits

    def rows(self) -> list[dict]:
        """One flat dict per cell: the overrides plus the summary."""
        out = []
        for cell in self.cells:
            row = dict(cell.overrides)
            row.update(cell.result or {})
            out.append(row)
        return out


# --------------------------------------------------------------------------- #
# Sweep-file parsing and cell expansion
# --------------------------------------------------------------------------- #
def load_sweep(path: str | os.PathLike) -> SweepSpec:
    """Parse a sweep file (or a plain scenario spec: one-cell sweep)."""
    path = os.fspath(path)
    if not os.path.exists(path):
        raise ScenarioSpecError(f"sweep file {path!r} does not exist")
    with open(path, "rb") as handle:
        try:
            data = tomllib.load(handle)
        except tomllib.TOMLDecodeError as exc:
            raise ScenarioSpecError(f"{path}: invalid TOML: {exc}") from exc
    if "scenario" not in data:
        # A bare scenario spec file: run it as a single cell.
        return SweepSpec(base=ScenarioSpec.load(path),
                         name=os.path.splitext(os.path.basename(path))[0])
    unknown = sorted(set(data) - {"scenario", "sweep"})
    if unknown:
        raise ScenarioSpecError(
            f"{path}: unknown top-level section(s) {unknown}; a sweep "
            "file has [scenario] and optionally [sweep]")
    try:
        base = ScenarioSpec.from_dict(data["scenario"])
    except ScenarioSpecError as exc:
        raise ScenarioSpecError(f"{path}: [scenario] {exc}") from exc
    sweep_data = data.get("sweep", {})
    if not isinstance(sweep_data, Mapping):
        raise ScenarioSpecError(f"{path}: [sweep] must be a table")
    unknown = sorted(set(sweep_data) - {"name", "grid", "cells"})
    if unknown:
        raise ScenarioSpecError(
            f"{path}: unknown [sweep] key(s) {unknown}; known keys: "
            "name, grid, cells")
    name = sweep_data.get("name",
                          os.path.splitext(os.path.basename(path))[0])
    grid = dict(sweep_data.get("grid", {}))
    for dotted, values in grid.items():
        if not isinstance(values, list) or not values:
            raise ScenarioSpecError(
                f"{path}: [sweep.grid] {dotted!r} must map to a "
                "non-empty list of values")
        check_dotted(dotted)
    cells = list(sweep_data.get("cells", []))
    for cell in cells:
        if not isinstance(cell, Mapping):
            raise ScenarioSpecError(
                f"{path}: [[sweep.cells]] entries must be tables")
        for dotted in cell:
            check_dotted(dotted)
    return SweepSpec(base=base, name=str(name), grid=grid,
                     cells=[dict(c) for c in cells])


def expand_cells(sweep: SweepSpec) -> list[tuple[ScenarioSpec, dict]]:
    """All ``(cell_spec, overrides)`` pairs of a sweep, in order.

    Grid cells come first (cartesian product, first grid key varying
    slowest), then the explicit ``cells`` entries.  Per-cell seeds are
    spawned from the base ``estimator.seed`` unless a cell pins
    ``estimator.seed`` itself.
    """
    override_sets: list[dict[str, Any]] = []
    if sweep.grid:
        keys = list(sweep.grid)
        for combo in itertools.product(*(sweep.grid[k] for k in keys)):
            override_sets.append(dict(zip(keys, combo)))
    override_sets.extend(sweep.cells)
    if not override_sets:
        override_sets.append({})
    children = np.random.SeedSequence(
        sweep.base.estimator.seed).spawn(len(override_sets))
    out = []
    for index, overrides in enumerate(override_sets):
        # Derived, deterministic, independent per cell (unless pinned).
        seed = int(children[index].generate_state(1, np.uint32)[0])
        try:
            spec = sweep.base.with_overrides(
                {"estimator.seed": seed, **overrides})
        except ScenarioSpecError as exc:
            raise ScenarioSpecError(
                f"sweep cell {index} ({overrides!r}): {exc}") from exc
        out.append((spec, dict(overrides)))
    return out


# --------------------------------------------------------------------------- #
# Content-addressed result cache
# --------------------------------------------------------------------------- #
def _cache_path(cache_dir: str, key: str) -> str:
    return os.path.join(cache_dir, f"{key}.json")


def cache_lookup(cache_dir: str, spec: ScenarioSpec,
                 key: str | None = None) -> dict | None:
    """The cached result for a spec, or None (missing / corrupted /
    stale salt / spec mismatch -- all treated as a miss)."""
    key = key or spec_hash(spec)
    path = _cache_path(cache_dir, key)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            entry = json.load(handle)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return None
    if not isinstance(entry, dict):
        return None
    if entry.get("salt") != CODE_VERSION_SALT:
        return None
    if entry.get("spec") != spec.canonical_dict():
        # Hash collision or hand-edited entry: never trust it.
        return None
    result = entry.get("result")
    return result if isinstance(result, dict) else None


def cache_store(cache_dir: str, spec: ScenarioSpec, result: dict,
                key: str | None = None) -> str:
    """Write one result entry; returns the file path."""
    key = key or spec_hash(spec)
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(cache_dir, key)
    entry = {"salt": CODE_VERSION_SALT, "spec": spec.canonical_dict(),
             "result": result}
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(entry, handle, sort_keys=True, indent=1)
    os.replace(tmp, path)
    return path


def _run_cell(spec_dict: dict) -> dict:
    """Pool worker: rebuild the spec (dicts are picklable, specs cross
    process boundaries as their canonical dicts) and run it."""
    spec = ScenarioSpec.from_dict(_strip_none(spec_dict))
    return run_scenario(spec).summary()


def _strip_none(data: dict) -> dict:
    """Drop None-valued entries (canonical dicts carry ``trace: None``,
    which ``from_dict`` does not accept as a section)."""
    out = {}
    for key, value in data.items():
        if value is None:
            continue
        out[key] = (_strip_none(value) if isinstance(value, dict)
                    else value)
    return out


# --------------------------------------------------------------------------- #
# The orchestrator
# --------------------------------------------------------------------------- #
def run_sweep(sweep: SweepSpec,
              cache_dir: str | os.PathLike | None = None,
              processes: int = 1) -> SweepResult:
    """Expand, run (or serve from cache), and collect every cell.

    ``cache_dir=None`` disables caching (every cell recomputes).
    ``processes > 1`` fans uncached cells out across a multiprocessing
    pool; cached cells never touch the pool.  Every cell spec is
    validated before anything runs, so a bad cell fails the sweep fast.
    """
    expanded = expand_cells(sweep)
    cells = []
    for index, (spec, overrides) in enumerate(expanded):
        try:
            spec.validate()
        except ScenarioSpecError as exc:
            raise ScenarioSpecError(
                f"sweep cell {index} ({overrides!r}): {exc}") from exc
        cells.append(SweepCell(index=index, spec=spec,
                               overrides=overrides, key=spec_hash(spec)))
    cache = os.fspath(cache_dir) if cache_dir is not None else None
    pending: list[SweepCell] = []
    for cell in cells:
        if cache is not None:
            result = cache_lookup(cache, cell.spec, key=cell.key)
            if result is not None:
                cell.cached, cell.result = True, result
                continue
        pending.append(cell)
    if pending:
        payloads = [cell.spec.canonical_dict() for cell in pending]
        if processes > 1 and len(pending) > 1:
            with multiprocessing.Pool(min(processes,
                                          len(pending))) as pool:
                results = pool.map(_run_cell, payloads)
        else:
            results = [_run_cell(payload) for payload in payloads]
        for cell, result in zip(pending, results):
            cell.result = result
            if cache is not None:
                cache_store(cache, cell.spec, result, key=cell.key)
    return SweepResult(name=sweep.name, cells=cells)


def run_sweep_file(path: str | os.PathLike,
                   cache_dir: str | os.PathLike | None = None,
                   processes: int = 1) -> SweepResult:
    """:func:`load_sweep` + :func:`run_sweep` in one call."""
    return run_sweep(load_sweep(path), cache_dir=cache_dir,
                     processes=processes)


# --------------------------------------------------------------------------- #
# Command line
# --------------------------------------------------------------------------- #
def _headline(result: dict) -> str:
    """The one number worth a table cell, per engine."""
    inner = result.get("result", {})
    for source, key in ((inner, "mttdl_hours"),
                        (result, "analytic_system_mttdl_hours"),
                        (result, "analytic_mttdl_hours")):
        if key in source:
            return f"{source[key]:.4g} h"
    if result.get("engine") == "events":
        return (f"{result.get('losses', '?')}/{result.get('trials', '?')} "
                "losses")
    return "-"


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenario.sweep",
        description="Run a scenario sweep file with content-addressed "
                    "result caching (docs/scenarios.md).")
    parser.add_argument("file", help="sweep TOML (or a single scenario "
                                     "spec file)")
    parser.add_argument("--cache-dir", default=None,
                        help="cache directory for content-addressed "
                             "results (omit to always recompute)")
    parser.add_argument("--processes", type=int, default=1,
                        help="multiprocessing pool size for uncached "
                             "cells")
    parser.add_argument("--expect-all-hits", action="store_true",
                        help="fail unless every cell was served from "
                             "the cache (CI determinism check)")
    parser.add_argument("--json", action="store_true",
                        help="print the cell results as JSON instead "
                             "of a table")
    args = parser.parse_args(argv)
    try:
        result = run_sweep_file(args.file, cache_dir=args.cache_dir,
                                processes=args.processes)
    except (ScenarioSpecError, ValueError, RuntimeError) as exc:
        raise SystemExit(f"error: {exc}") from exc
    if args.json:
        print(json.dumps([{"overrides": cell.overrides,
                           "key": cell.key,
                           "cached": cell.cached,
                           "result": cell.result}
                          for cell in result.cells],
                         indent=2, sort_keys=True))
    else:
        from repro.bench.reporting import print_table
        rows = []
        for cell in result.cells:
            overrides = ", ".join(f"{k}={v}" for k, v
                                  in cell.overrides.items()) or "-"
            rows.append((cell.index, overrides, cell.key[:12],
                         "hit" if cell.cached else "miss",
                         _headline(cell.result or {})))
        print_table(["cell", "overrides", "key", "cache", "headline"],
                    rows, title=f"sweep {result.name}: "
                                f"{result.hits} cached / "
                                f"{len(result.cells)} cells")
    if args.expect_all_hits and result.misses:
        raise SystemExit(
            f"error: expected every cell cached, but {result.misses} of "
            f"{len(result.cells)} recomputed")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
