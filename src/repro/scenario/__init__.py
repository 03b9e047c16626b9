"""Declarative scenario specs and the cached sweep orchestrator.

The configuration layer above the simulator:

* :mod:`repro.scenario.spec` -- :class:`ScenarioSpec`, the versioned,
  strictly-validating description of one simulated deployment (code,
  fleet, lifetimes, trace, failure domains, repair, sector model,
  estimator policy), with TOML/JSON load/dump and a content hash.
* :mod:`repro.scenario.runner` -- :func:`run_scenario`, the single
  dispatch entry point over the vectorized Monte Carlo runner, the
  event engine, the rare-event estimator (including the auto-switchover
  for ultra-reliable configurations) and the §7 analytic chain.
* :mod:`repro.scenario.sweep` -- grid/list expansion over spec fields,
  deterministic per-cell seed derivation, multiprocessing fan-out and
  content-addressed result caching
  (``python -m repro.scenario.sweep sweep.toml --cache-dir ...``).
* :mod:`repro.scenario.flags` -- the one flag table: each CLI flag of
  ``repro.sim.cli``, ``repro.store.cli`` and ``repro.store.crosscheck``
  bound to a dotted spec path, applied through
  :meth:`ScenarioSpec.with_overrides` like a sweep grid key.

``repro.sim.cli`` is a thin adapter over this package (flags -> spec ->
``run_scenario``); ``--dump-spec`` prints the spec any flag combination
builds.  Tutorial: ``docs/scenarios.md``.
"""

from repro.scenario.runner import ScenarioOutcome, run_scenario
from repro.scenario.spec import (
    CODE_VERSION_SALT,
    SPEC_VERSION,
    CodeSection,
    DomainsSection,
    EstimatorSection,
    FleetSection,
    LifetimeSection,
    RepairSection,
    ScenarioSpec,
    ScenarioSpecError,
    SectorSection,
    StoreSection,
    TraceSection,
    spec_hash,
)
# NOTE: repro.scenario.sweep is intentionally NOT imported here -- it
# is an executable module (``python -m repro.scenario.sweep``) and
# importing it from the package init would trigger the runpy
# double-import warning on every CLI run.  Import it explicitly:
# ``from repro.scenario.sweep import load_sweep, run_sweep``.

__all__ = [
    "CODE_VERSION_SALT",
    "SPEC_VERSION",
    "CodeSection",
    "DomainsSection",
    "EstimatorSection",
    "FleetSection",
    "LifetimeSection",
    "RepairSection",
    "ScenarioOutcome",
    "ScenarioSpec",
    "ScenarioSpecError",
    "SectorSection",
    "StoreSection",
    "TraceSection",
    "run_scenario",
    "spec_hash",
]
