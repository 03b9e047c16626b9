"""The versioned, declarative scenario spec behind every simulator run.

One :class:`ScenarioSpec` describes one simulated deployment end to
end -- the erasure code, the fleet shape, the lifetime model (parametric
or trace-fitted), correlated failure domains, the repair model, the
sector-failure model and the estimator policy -- in a form that can be
committed to a file, hashed, swept over and reproduced bit for bit.
It is the single source every layer builds from: ``repro.sim.cli`` is a
thin flags -> spec adapter, :func:`repro.scenario.runner.run_scenario`
dispatches a spec to the right engine, ``repro.bench.sim_validation``
rows and the figure benchmarks are committed spec files, and
:mod:`repro.scenario.sweep` expands grids of specs with
content-addressed result caching.

Specs serialize to TOML (the committed format) and JSON::

    version = 1

    [code]
    spec = "sd(n=8,r=16,m=2,s=2)"

    [lifetime]
    kind = "exponential"
    mttf_hours = 500000.0

    [estimator]
    mode = "rare"
    seed = 0

Loading is *strict*: an unknown section or key, a missing ``version``
(or one this library does not speak), a missing ``[code]`` section or a
bad enum value all raise :class:`ScenarioSpecError` -- a spec that
parses is a spec that runs.  :meth:`ScenarioSpec.validate` additionally
rejects contradictory combinations (a rack kill probability without a
shock process, rare-event tuning under the event engine, verbatim trace
replay outside events mode, ...), the same checks the CLI applies to
raw flags.

Every section has defaults matching the CLI's, so the minimal spec is
just a version plus a ``[code]`` section.  ``canonical_dict()`` /
:func:`spec_hash` give the normalized form and content address used by
the sweep cache.  Tutorial: ``docs/scenarios.md``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
import os
import tomllib
from dataclasses import dataclass, field
from typing import Any, Mapping

#: The spec-format version this library reads and writes.  Bump it when
#: a section/key changes meaning; loaders reject other versions rather
#: than silently reinterpreting old files.
SPEC_VERSION = 1


class ScenarioSpecError(ValueError):
    """A scenario spec failed to parse or validate."""


# --------------------------------------------------------------------------- #
# Sections
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class CodeSection:
    """The erasure code, as a registry code-spec string
    (grammar: ``docs/code-specs.md``)."""

    spec: str = "rs(n=8,r=16,m=1)"


@dataclass(frozen=True)
class FleetSection:
    """Cluster shape and (events-mode) workload."""

    arrays: int = 1
    stripes_per_array: int = 1024
    #: Hours between scrubs of each array; 0 disables scrubbing
    #: (events mode only).
    scrub_interval_hours: float = 168.0
    #: Poisson rate of full-stripe writes per array per hour (events
    #: mode only).
    write_rate_per_hour: float = 0.0


@dataclass(frozen=True)
class LifetimeSection:
    """Parametric device-lifetime model (a trace section overrides it)."""

    kind: str = "exponential"  # "exponential" | "weibull"
    mttf_hours: float = 500_000.0
    #: Weibull shape (kind == "weibull" only); the scale is chosen so
    #: the mean stays at ``mttf_hours``.
    weibull_shape: float | None = None


@dataclass(frozen=True)
class TraceSection:
    """Empirical lifetimes from a drive-stats-style failure trace.

    The whole section is optional; when present, ``path`` is required
    and the fitted/replayed model replaces the parametric lifetime.
    """

    path: str = ""
    model: str = "piecewise"  # "piecewise" | "km" | "replay"
    #: Hazard intervals for the piecewise fit (None = the fit default).
    bins: int | None = None


@dataclass(frozen=True)
class DomainsSection:
    """Correlated failure domains (racks, enclosures, bad batches).

    Field names mirror :class:`repro.sim.domains.FailureDomains`; the
    all-default section means independent failures (no domains object
    is built at all).
    """

    racks: int = 1
    rack_shock_rate_per_hour: float = 0.0
    rack_kill_probability: float = 1.0
    enclosures_per_rack: int = 1
    enclosure_shock_rate_per_hour: float = 0.0
    enclosure_kill_probability: float = 1.0
    batch_fraction: float = 0.0
    batch_accel: float = 1.0
    placement: str = "spread"  # "spread" | "contiguous"


@dataclass(frozen=True)
class RepairSection:
    """Rebuild-time model and (events-mode) repair contention."""

    repair_hours: float = 17.8
    #: Per-device rebuild rate in MB/s; derives the nominal rebuild
    #: time from device capacity instead of ``repair_hours`` (events
    #: mode only).
    rebuild_rate_mbs: float | None = None
    #: Hard cap on concurrent rebuilds (events mode; None = unlimited).
    rebuild_concurrency: int | None = None
    #: Shared cluster repair bandwidth in units of one device's rebuild
    #: rate (events mode; None disables bandwidth sharing).
    rebuild_streams: float | None = None


@dataclass(frozen=True)
class SectorSection:
    """Sector-failure model feeding ``P_arr`` (Eq. 10-11)."""

    model: str = "independent"  # "independent" | "correlated"
    p_bit: float = 1e-12
    #: Burst parameters of the correlated model (ignored when
    #: ``model == "independent"``).
    b1: float = 0.98
    alpha: float = 1.79


@dataclass(frozen=True)
class EstimatorSection:
    """Which engine answers the question, and with what budget.

    ``mode``:

    * ``"montecarlo"`` -- the vectorized direct runner, with automatic
      switchover to the rare-event estimator for configurations whose
      projected round count blows the direct runner's safety valve;
    * ``"events"`` -- full discrete-event trajectories;
    * ``"rare"`` -- force the importance-sampled regenerative-cycle
      estimator;
    * ``"analytic"`` -- no simulation at all: the closed-form §7 chain
      (used by the figure sweeps).
    """

    mode: str = "montecarlo"  # "montecarlo" | "events" | "rare" | "analytic"
    trials: int = 1000
    seed: int = 0
    #: Censor direct-MC trials (or stop event trajectories) at this
    #: many hours; None = run to data loss (events mode then uses its
    #: ten-year default horizon).
    horizon_hours: float | None = None
    rare_target_rel_se: float = 0.02
    rare_max_cycles: int = 4_000_000


@dataclass(frozen=True)
class StoreSection:
    """Object-store traffic served by :mod:`repro.store`.

    The whole section is optional; when present, the spec describes a
    closed-loop put/get workload against a STAIR/RS/SD-encoded object
    store (``python -m repro.store.cli --spec ...``) instead of a bare
    reliability simulation.  Failure injection reuses the surrounding
    sections: ``[lifetime]``/``[trace]`` sample device crash times and
    ``[domains]`` supplies rack/enclosure shocks, both mapped onto the
    workload through ``hours_per_op`` (simulated hours that pass per
    client operation); ``[repair].rebuild_streams`` budgets the repair
    loop; ``[estimator].seed`` seeds every random draw.
    """

    #: Number of distinct objects preloaded before the measured workload.
    objects: int = 64
    #: Object payload size in bytes (the maximum when
    #: ``min_object_bytes`` is set, else every object's exact size).
    object_bytes: int = 4096
    #: When set, object sizes draw uniformly from
    #: ``[min_object_bytes, object_bytes]`` per object.
    min_object_bytes: int | None = None
    #: Region length of one coded symbol, in bytes (chunks are
    #: ``r * symbol_bytes``).
    symbol_bytes: int = 512
    #: Closed-loop client operations after the preload.
    operations: int = 256
    #: Number of concurrent closed-loop clients.
    clients: int = 4
    #: Fraction of operations that are reads (the rest overwrite).
    read_fraction: float = 0.9
    #: Zipf exponent of key popularity (0 = uniform).
    zipf_alpha: float = 1.1
    #: Run the background repair loop during the workload.
    repair: bool = True
    #: Crash exactly this many distinct nodes mid-workload (the
    #: deterministic injection used by smoke tests).
    kill_nodes: int = 0
    #: When the deterministic kill lands, as a fraction of operations.
    kill_at_fraction: float = 0.5
    #: Simulated hours per operation; > 0 arms lifetime-sampled crashes
    #: and [domains] shocks over the workload's simulated span.
    hours_per_op: float = 0.0
    #: Where node chunk bytes live: ``"inprocess"`` (a dict in the
    #: cluster's event loop) or ``"process"`` (one ``python -m
    #: repro.store.rpc`` subprocess per node, chunk RPC over its stdin
    #: and stdout pipes).  Both produce bit-identical deterministic digests.
    backend: str = "inprocess"
    #: Metadata / per-key-lock shard count of the cluster's key space.
    meta_shards: int = 16
    #: Physical latency model, applied per node operation (all of one
    #: object's chunks on that node) at the node
    #: boundary: network round-trip base + exponential jitter plus disk
    #: service base + exponential jitter (milliseconds; all 0 = off).
    latency_net_rtt_ms: float = 0.0
    latency_net_jitter_ms: float = 0.0
    latency_disk_ms: float = 0.0
    latency_disk_jitter_ms: float = 0.0


_SECTION_TYPES: dict[str, type] = {
    "code": CodeSection,
    "fleet": FleetSection,
    "lifetime": LifetimeSection,
    "trace": TraceSection,
    "domains": DomainsSection,
    "repair": RepairSection,
    "sector": SectorSection,
    "estimator": EstimatorSection,
    "store": StoreSection,
}

#: Sections a spec file must carry explicitly (everything else
#: defaults).  ``code`` names the scenario; there is no safe default to
#: silently fall back to when it is missing from a committed file.
_REQUIRED_SECTIONS = ("code",)

_ENUMS: dict[tuple[str, str], tuple[str, ...]] = {
    ("lifetime", "kind"): ("exponential", "weibull"),
    ("trace", "model"): ("piecewise", "km", "replay"),
    ("domains", "placement"): ("spread", "contiguous"),
    ("sector", "model"): ("independent", "correlated"),
    ("estimator", "mode"): ("montecarlo", "events", "rare", "analytic"),
    ("store", "backend"): ("inprocess", "process"),
}


def _coerce(section: str, key: str, value: Any, target: Any) -> Any:
    """Coerce a loaded value to the field's type, strictly.

    TOML/JSON distinguish ints and floats; accept an int where a float
    is expected (``mttf_hours = 500000``) but nothing woollier.  Enum
    fields are checked against their allowed values.
    """
    if (section, key) in _ENUMS:
        allowed = _ENUMS[(section, key)]
        if value not in allowed:
            raise ScenarioSpecError(
                f"[{section}] {key} = {value!r} is not one of {allowed}")
        return value
    if value is None:
        return None
    kind = target.type if isinstance(target, dataclasses.Field) else None
    default = (target.default if isinstance(target, dataclasses.Field)
               else target)
    wants_bool = str(kind).startswith("bool") or isinstance(default, bool)
    wants_float = "float" in str(kind)
    wants_int = str(kind).startswith("int")
    wants_str = str(kind).startswith("str") or isinstance(default, str)
    if wants_bool:
        if not isinstance(value, bool):
            raise ScenarioSpecError(
                f"[{section}] {key} must be a bool (true/false), "
                f"got {value!r}")
        return value
    if isinstance(value, bool):
        raise ScenarioSpecError(
            f"[{section}] {key} must be a number or string, got a bool")
    if wants_float and isinstance(value, (int, float)):
        return float(value)
    if wants_int and isinstance(value, int):
        return int(value)
    if wants_str and isinstance(value, str):
        return value
    raise ScenarioSpecError(
        f"[{section}] {key} = {value!r} has the wrong type")


def _section_from_dict(name: str, data: Mapping[str, Any]):
    cls = _SECTION_TYPES[name]
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise ScenarioSpecError(
            f"unknown key(s) {unknown} in [{name}] section; "
            f"known keys: {sorted(fields)}")
    kwargs = {key: _coerce(name, key, value, fields[key])
              for key, value in data.items()}
    return cls(**kwargs)


def check_dotted(dotted: str) -> None:
    """Reject an override key that is not a dotted ``section.key`` path."""
    if "." not in dotted:
        raise ScenarioSpecError(
            f"override {dotted!r} must be a dotted spec path like "
            "'sector.p_bit'")


# --------------------------------------------------------------------------- #
# The spec
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScenarioSpec:
    """One fully described simulation scenario.

    Usage::

        from repro.scenario import ScenarioSpec

        spec = ScenarioSpec.from_dict({
            "version": 1,
            "code": {"spec": "sd(n=8,r=16,m=2,s=2)"},
            "estimator": {"mode": "rare", "seed": 0},
        })
        spec.validate()
        text = spec.dumps_toml()          # committed form
        again = ScenarioSpec.loads(text)  # == spec
    """

    code: CodeSection = field(default_factory=CodeSection)
    fleet: FleetSection = field(default_factory=FleetSection)
    lifetime: LifetimeSection = field(default_factory=LifetimeSection)
    trace: TraceSection | None = None
    domains: DomainsSection = field(default_factory=DomainsSection)
    repair: RepairSection = field(default_factory=RepairSection)
    sector: SectorSection = field(default_factory=SectorSection)
    estimator: EstimatorSection = field(default_factory=EstimatorSection)
    store: StoreSection | None = None
    version: int = SPEC_VERSION

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Build (strictly) from a parsed TOML/JSON mapping."""
        if not isinstance(data, Mapping):
            raise ScenarioSpecError("scenario spec must be a table/object")
        if "version" not in data:
            raise ScenarioSpecError(
                "scenario spec is missing the required 'version' key "
                f"(this library writes version = {SPEC_VERSION})")
        version = data["version"]
        if version != SPEC_VERSION:
            raise ScenarioSpecError(
                f"scenario spec version {version!r} is not supported; "
                f"this library reads version {SPEC_VERSION}")
        unknown = sorted(set(data) - set(_SECTION_TYPES) - {"version"})
        if unknown:
            raise ScenarioSpecError(
                f"unknown section(s) {unknown} in scenario spec; "
                f"known sections: {sorted(_SECTION_TYPES)}")
        missing = [name for name in _REQUIRED_SECTIONS if name not in data]
        if missing:
            raise ScenarioSpecError(
                f"scenario spec is missing required section(s) {missing}")
        kwargs: dict[str, Any] = {"version": SPEC_VERSION}
        for name in _SECTION_TYPES:
            if name in data:
                section_data = data[name]
                if section_data is None:
                    # Canonical JSON spells an absent section as null.
                    continue
                if not isinstance(section_data, Mapping):
                    raise ScenarioSpecError(
                        f"[{name}] must be a table/object")
                kwargs[name] = _section_from_dict(name, section_data)
        if "trace" in kwargs and not kwargs["trace"].path:
            raise ScenarioSpecError(
                "[trace] section needs a 'path' (the failure-trace CSV)")
        return cls(**kwargs)

    @classmethod
    def loads(cls, text: str, format: str = "toml") -> "ScenarioSpec":
        """Parse a spec from TOML (default) or JSON text."""
        if format == "toml":
            try:
                data = tomllib.loads(text)
            except tomllib.TOMLDecodeError as exc:
                raise ScenarioSpecError(f"invalid TOML: {exc}") from exc
        elif format == "json":
            try:
                data = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ScenarioSpecError(f"invalid JSON: {exc}") from exc
        else:
            raise ScenarioSpecError(
                f"unknown spec format {format!r}; use 'toml' or 'json'")
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str | os.PathLike) -> "ScenarioSpec":
        """Load a spec file; the format follows the file extension
        (``.json`` -> JSON, anything else -> TOML)."""
        path = os.fspath(path)
        if not os.path.exists(path):
            raise ScenarioSpecError(f"scenario spec {path!r} does not exist")
        with open(path, "rb") as handle:
            text = handle.read().decode("utf-8")
        format = "json" if path.endswith(".json") else "toml"
        try:
            return cls.loads(text, format=format)
        except ScenarioSpecError as exc:
            raise ScenarioSpecError(f"{path}: {exc}") from exc

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """A plain nested dict: every section, every key (None kept)."""
        out: dict[str, Any] = {"version": self.version}
        for name in _SECTION_TYPES:
            section = getattr(self, name)
            if section is None:
                continue
            out[name] = dataclasses.asdict(section)
        return out

    def canonical_dict(self) -> dict[str, Any]:
        """The normalized form the content hash is computed over.

        Explicit about everything: sections the spec left at their
        defaults appear fully expanded, and absent optional sections
        (trace, store) are recorded as ``None``, so two specs hash
        equal iff every knob an engine reads is equal.
        """
        out = self.to_dict()
        if self.trace is None:
            out["trace"] = None
        if self.store is None:
            out["store"] = None
        return out

    def dumps_json(self) -> str:
        """Canonical JSON (stable key order -- safe to hash or diff)."""
        return json.dumps(self.canonical_dict(), sort_keys=True, indent=2)

    def dumps_toml(self) -> str:
        """TOML, the committed/human format (None keys are omitted --
        reloading restores them as defaults)."""
        buffer = io.StringIO()
        buffer.write(f"version = {self.version}\n")
        for name in _SECTION_TYPES:
            section = getattr(self, name)
            if section is None:
                continue
            items = [(key, value) for key, value
                     in dataclasses.asdict(section).items()
                     if value is not None]
            if not items:
                continue
            buffer.write(f"\n[{name}]\n")
            for key, value in items:
                buffer.write(f"{key} = {_toml_value(value)}\n")
        return buffer.getvalue()

    def dump(self, path: str | os.PathLike) -> None:
        """Write the spec to ``path`` (extension picks the format)."""
        path = os.fspath(path)
        text = (self.dumps_json() + "\n" if path.endswith(".json")
                else self.dumps_toml())
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)

    def replace(self, **section_updates: Any) -> "ScenarioSpec":
        """A copy with whole sections or section fields replaced.

        Accepts section objects (``estimator=EstimatorSection(...)``)
        or mappings of field updates (``estimator={"seed": 7}``, merged
        into the existing section)::

            fast = spec.replace(estimator={"trials": 50})
        """
        updates: dict[str, Any] = {}
        for name, value in section_updates.items():
            if name not in _SECTION_TYPES:
                raise ScenarioSpecError(f"unknown section {name!r}")
            if isinstance(value, Mapping):
                current = getattr(self, name)
                if current is None:
                    current = _SECTION_TYPES[name]()
                value = dataclasses.replace(current, **value)
            updates[name] = value
        return dataclasses.replace(self, **updates)

    def with_overrides(self, overrides: Mapping[str, Any]) -> "ScenarioSpec":
        """A copy with fields replaced by dotted path, rebuilt through
        the strict :meth:`from_dict`::

            spec.with_overrides({"sector.p_bit": 1e-10,
                                 "estimator.seed": 7})

        The one dotted-path override: ``[sweep.grid]`` keys and every
        CLI flag (:mod:`repro.scenario.flags`) address fields this way.
        An override into an absent optional section creates it.
        """
        data = self.to_dict()
        for dotted, value in overrides.items():
            check_dotted(dotted)
            section, key = dotted.split(".", 1)
            if not isinstance(data.get(section), dict):
                data[section] = {}
            data[section][key] = value
        return ScenarioSpec.from_dict(data)

    # ------------------------------------------------------------------ #
    # Semantic validation (the flag-interaction footguns)
    # ------------------------------------------------------------------ #
    def validate(self) -> "ScenarioSpec":
        """Reject contradictory combinations a naive loader would run.

        Returns ``self`` so loading call sites can chain it.  These are
        the same rules ``repro.sim.cli`` enforces on raw flags; keeping
        them here means a hand-written spec file gets them too.
        """
        est, life, dom, trace = (self.estimator, self.lifetime,
                                 self.domains, self.trace)
        if est.trials < 1:
            raise ScenarioSpecError("[estimator] trials must be >= 1")
        if self.fleet.arrays < 1:
            raise ScenarioSpecError("[fleet] arrays must be >= 1")
        if self.fleet.stripes_per_array < 1:
            raise ScenarioSpecError(
                "[fleet] stripes_per_array must be >= 1")
        if self.fleet.scrub_interval_hours < 0:
            raise ScenarioSpecError(
                "[fleet] scrub_interval_hours must be >= 0 "
                "(0 disables scrubbing)")
        if est.horizon_hours is not None and est.horizon_hours <= 0:
            raise ScenarioSpecError(
                "[estimator] horizon_hours must be positive")
        for key in ("mttf_hours",):
            if getattr(life, key) <= 0:
                raise ScenarioSpecError(f"[lifetime] {key} must be positive")
        rep = self.repair
        if rep.repair_hours <= 0:
            raise ScenarioSpecError("[repair] repair_hours must be positive")
        if rep.rebuild_concurrency is not None and rep.rebuild_concurrency < 1:
            raise ScenarioSpecError(
                "[repair] rebuild_concurrency must be >= 1 (omit it for "
                "no cap)")
        if rep.rebuild_streams is not None and rep.rebuild_streams <= 0:
            raise ScenarioSpecError(
                "[repair] rebuild_streams must be positive (omit it for "
                "no bandwidth sharing)")
        if not (0.0 <= self.sector.p_bit <= 1.0):
            raise ScenarioSpecError("[sector] p_bit must lie in [0, 1]")

        # Lifetime model contradictions.
        if life.kind == "weibull" and life.weibull_shape is None:
            raise ScenarioSpecError(
                "[lifetime] kind = 'weibull' needs weibull_shape")
        if life.kind == "exponential" and life.weibull_shape is not None:
            raise ScenarioSpecError(
                "[lifetime] weibull_shape only applies to kind = "
                "'weibull'")
        if trace is not None and life.weibull_shape is not None:
            raise ScenarioSpecError(
                "a [trace] section and a Weibull [lifetime] both specify "
                "the lifetime model; pick one")
        if trace is not None:
            if trace.bins is not None and trace.bins < 1:
                raise ScenarioSpecError("[trace] bins must be >= 1")
            if trace.model != "piecewise" and trace.bins is not None:
                raise ScenarioSpecError(
                    "[trace] bins sizes the piecewise-exponential fit; "
                    f"model = {trace.model!r} has no bins")
            if trace.model == "replay" and est.mode != "events":
                raise ScenarioSpecError(
                    "[trace] model = 'replay' plays verbatim trajectories "
                    "and applies to the events engine only")

        # Estimator-policy contradictions.
        if est.mode == "rare":
            if est.horizon_hours is not None:
                raise ScenarioSpecError(
                    "the rare-event estimator computes the MTTDL "
                    "directly; horizon_hours only applies to direct "
                    "Monte Carlo")
            if life.kind == "weibull":
                raise ScenarioSpecError(
                    "the rare-event estimator requires exponential (or "
                    "trace-fitted piecewise-exponential) lifetimes")
            if trace is not None and trace.model != "piecewise":
                raise ScenarioSpecError(
                    "the rare-event estimator needs a lifetime density; "
                    "use the piecewise-exponential trace fit "
                    "(model = 'piecewise')")
        if est.mode == "events":
            defaults = EstimatorSection()
            if (est.rare_target_rel_se != defaults.rare_target_rel_se
                    or est.rare_max_cycles != defaults.rare_max_cycles):
                raise ScenarioSpecError(
                    "rare-event tuning (rare_target_rel_se / "
                    "rare_max_cycles) has no effect on the events engine")
        if est.mode == "analytic":
            if trace is not None:
                raise ScenarioSpecError(
                    "the analytic chain has no closed form for "
                    "trace-fitted lifetimes; drop the [trace] section")
            if life.kind != "exponential":
                raise ScenarioSpecError(
                    "the analytic chain assumes exponential lifetimes")
            if not self._domains_inert():
                raise ScenarioSpecError(
                    "the analytic chain assumes independent failures; "
                    "drop the [domains] correlation")
            if est.horizon_hours is not None:
                raise ScenarioSpecError(
                    "horizon_hours does not apply to the analytic chain")

        # Failure-domain contradictions (silent no-ops rejected).
        if dom.racks < 1:
            raise ScenarioSpecError("[domains] racks must be >= 1")
        if dom.enclosures_per_rack < 1:
            raise ScenarioSpecError(
                "[domains] enclosures_per_rack must be >= 1")
        if dom.rack_shock_rate_per_hour > 0 and dom.racks == 1:
            raise ScenarioSpecError(
                "rack_shock_rate_per_hour > 0 with a single rack means "
                "every shock is a cluster-wide kill; spread the fleet "
                "with racks >= 2 (or model the outage explicitly)")
        if (dom.rack_kill_probability != 1.0
                and dom.rack_shock_rate_per_hour == 0.0):
            raise ScenarioSpecError(
                "rack_kill_probability has no effect without "
                "rack_shock_rate_per_hour > 0")
        if (dom.enclosure_shock_rate_per_hour > 0
                and dom.enclosures_per_rack == 1):
            raise ScenarioSpecError(
                "enclosure_shock_rate_per_hour > 0 needs "
                "enclosures_per_rack >= 2 (one enclosure per rack is "
                "just the rack shock again)")
        if (dom.enclosure_kill_probability != 1.0
                and dom.enclosure_shock_rate_per_hour == 0.0):
            raise ScenarioSpecError(
                "enclosure_kill_probability has no effect without "
                "enclosure_shock_rate_per_hour > 0")
        if dom.batch_accel != 1.0 and dom.batch_fraction == 0.0:
            raise ScenarioSpecError(
                "batch_accel has no effect without batch_fraction > 0")
        if dom.batch_fraction > 0.0 and dom.batch_accel == 1.0:
            raise ScenarioSpecError(
                "batch_fraction > 0 with batch_accel = 1.0 is a no-op "
                "batch; set batch_accel != 1 (or drop the batch)")
        if dom.placement == "contiguous" and dom.racks == 1:
            raise ScenarioSpecError(
                "placement = 'contiguous' needs racks >= 2 (with one "
                "rack both placements are the same)")

        # Object-store traffic contradictions.
        store = self.store
        if store is not None:
            if est.mode == "analytic":
                raise ScenarioSpecError(
                    "store traffic is a simulation; the analytic chain "
                    "has no closed form for a served workload -- drop "
                    "the [store] section or pick a simulating mode")
            if est.mode == "rare":
                raise ScenarioSpecError(
                    "the rare-event estimator computes MTTDL, it does "
                    "not serve traffic; [store] workloads run under "
                    "mode = 'montecarlo' or 'events'")
            if store.objects < 1:
                raise ScenarioSpecError("[store] objects must be >= 1")
            if store.object_bytes < 0:
                raise ScenarioSpecError(
                    "[store] object_bytes must be >= 0")
            if store.min_object_bytes is not None and not (
                    0 <= store.min_object_bytes <= store.object_bytes):
                raise ScenarioSpecError(
                    "[store] min_object_bytes must lie in "
                    "[0, object_bytes]")
            if store.symbol_bytes < 1:
                raise ScenarioSpecError(
                    "[store] symbol_bytes must be >= 1")
            if store.operations < 1:
                raise ScenarioSpecError(
                    "[store] operations must be >= 1")
            if store.clients < 1:
                raise ScenarioSpecError("[store] clients must be >= 1")
            if not (0.0 <= store.read_fraction <= 1.0):
                raise ScenarioSpecError(
                    "[store] read_fraction must lie in [0, 1]")
            if store.zipf_alpha < 0.0:
                raise ScenarioSpecError(
                    "[store] zipf_alpha must be >= 0 (0 = uniform)")
            if store.kill_nodes < 0:
                raise ScenarioSpecError(
                    "[store] kill_nodes must be >= 0")
            if not (0.0 <= store.kill_at_fraction < 1.0):
                raise ScenarioSpecError(
                    "[store] kill_at_fraction must lie in [0, 1) so "
                    "the kill lands inside the workload")
            if (store.kill_at_fraction != 0.5
                    and store.kill_nodes == 0):
                raise ScenarioSpecError(
                    "[store] kill_at_fraction has no effect without "
                    "kill_nodes > 0")
            if store.hours_per_op < 0.0:
                raise ScenarioSpecError(
                    "[store] hours_per_op must be >= 0 (0 disables "
                    "lifetime/domain-driven failures)")
            if store.meta_shards < 1:
                raise ScenarioSpecError(
                    "[store] meta_shards must be >= 1")
            for knob in ("latency_net_rtt_ms", "latency_net_jitter_ms",
                         "latency_disk_ms", "latency_disk_jitter_ms"):
                if getattr(store, knob) < 0.0:
                    raise ScenarioSpecError(
                        f"[store] {knob} must be >= 0 (0 = no "
                        "simulated latency)")
            if trace is not None and trace.model == "replay":
                raise ScenarioSpecError(
                    "[store] failure injection samples lifetimes; "
                    "verbatim trace replay applies to the events "
                    "engine only")
        return self

    def _domains_inert(self) -> bool:
        """True when the domains section adds no correlation at all."""
        dom = self.domains
        return (dom.rack_shock_rate_per_hour == 0.0
                and dom.enclosure_shock_rate_per_hour == 0.0
                and (dom.batch_fraction == 0.0 or dom.batch_accel == 1.0))


def _toml_value(value: Any) -> str:
    """Render one scalar (or flat list) as TOML source."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return repr(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ScenarioSpecError(
                f"cannot serialize non-finite float {value!r} to TOML")
        text = repr(value)
        # TOML floats need a dot or exponent; repr of a whole float has
        # one already ('500000.0'), so only ints-in-disguise need care.
        return text
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_value(v) for v in value) + "]"
    raise ScenarioSpecError(f"cannot serialize {type(value).__name__} "
                            "to TOML")


#: Salt mixed into every content hash.  Bump when an engine's sampling
#: or estimator semantics change, so stale sweep-cache entries (computed
#: by older engine code) miss instead of being served as current.
CODE_VERSION_SALT = "repro-sim/engines-v2"


def spec_hash(spec: ScenarioSpec, salt: str = CODE_VERSION_SALT) -> str:
    """Content address of a spec: SHA-256 over the canonical JSON plus
    the engine-version salt.  Equal specs hash equal; any field change
    (or an engine-semantics bump) changes the address."""
    canon = json.dumps(spec.canonical_dict(), sort_keys=True,
                       separators=(",", ":"))
    digest = hashlib.sha256()
    digest.update(salt.encode("utf-8"))
    digest.update(b"\n")
    digest.update(canon.encode("utf-8"))
    return digest.hexdigest()
