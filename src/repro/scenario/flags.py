"""One flag table for every scenario front end.

Each row of :data:`FLAGS` binds a command-line flag to a dotted spec
path -- the same addressing as a ``[sweep.grid]`` key and
:meth:`~repro.scenario.spec.ScenarioSpec.with_overrides`::

    --mttf            -> lifetime.mttf_hours
    --rack-kill-prob  -> domains.rack_kill_probability

Everything a front end used to write out by hand comes from the table:
the argparse ``type`` and ``default`` (from the section dataclass
field), ``choices`` (from the spec's enum table), the engine a flag is
limited to, and the overrides a parsed flag set applies.  The flags of
``repro.sim.cli``, ``repro.store.cli`` and ``repro.store.crosscheck``
are all rows here.  Most rows map one value to one field; switches set
a fixed value (``--rare-event`` sets ``estimator.mode = "rare"``) and
the few remaining rows carry a function from value to overrides.
"""

from __future__ import annotations

import argparse
import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from repro.scenario.spec import (
    _ENUMS,
    _SECTION_TYPES,
    CodeSection,
    ScenarioSpec,
)

_TYPES = {"int": int, "float": float, "str": str}

#: Sections a spec may omit: a flag's default must not conjure them.
_OPTIONAL_SECTIONS = {f.name for f in dataclasses.fields(ScenarioSpec)
                      if f.default is None}


@dataclass(frozen=True)
class Flag:
    """One command-line flag bound to a spec field."""

    flag: str
    #: Dotted spec path, ``section.key``.
    path: str
    help: str
    #: The engine the flag is limited to: ``"events"`` (only the event
    #: engine reads it) or ``"rare"`` (tunes the rare-event estimator,
    #: so it has no effect under the event engine).
    engine: str | None = None
    #: A switch: passing it sets ``path`` to this value.
    const: Any = None
    #: ``(path, value) -> overrides``, for values that do not map 1:1.
    to_overrides: Callable[[str, Any], dict[str, Any]] | None = None
    #: Offered choices, when narrower than the field's enum.
    choices: tuple[str, ...] | None = None
    metavar: str | None = None
    #: Argument group this flag is listed under (a key of ``groups``).
    group: str | None = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")

    def overrides(self, value: Any) -> dict[str, Any]:
        if self.to_overrides is not None:
            return self.to_overrides(self.path, value)
        return {self.path: value}

    def argparse_kwargs(self, defaults: bool) -> dict[str, Any]:
        kwargs: dict[str, Any] = {"help": self.help}
        if self.const is not None:
            kwargs.update(action="store_const", const=self.const)
        else:
            section, key = self.path.split(".")
            fld = {f.name: f for f in
                   dataclasses.fields(_SECTION_TYPES[section])}[key]
            kwargs["type"] = _TYPES[fld.type.split(" | ")[0]]
            if section not in _OPTIONAL_SECTIONS:
                kwargs["default"] = fld.default
            choices = self.choices or _ENUMS.get((section, key))
            if choices is not None:
                kwargs["choices"] = choices
        if self.metavar is not None:
            kwargs["metavar"] = self.metavar
        if not defaults:
            kwargs["default"] = argparse.SUPPRESS
        return kwargs


def _weibull(path: str, shape: float) -> dict[str, Any]:
    return {"lifetime.kind": "weibull", path: shape}


def _zero_means_none(path: str, value: float) -> dict[str, Any]:
    return {path: value or None}


FLAGS: tuple[Flag, ...] = (
    Flag("--code", "code.spec",
         "code spec, e.g. 'stair(n=8,r=16,m=1,e=(1,2))' "
         f"(default: {CodeSection.spec})"),
    Flag("--trials", "estimator.trials",
         "independent cluster lifetimes to simulate"),
    Flag("--seed", "estimator.seed", "PRNG seed (runs are reproducible)"),
    Flag("--arrays", "fleet.arrays", "arrays in the cluster"),
    Flag("--stripes", "fleet.stripes_per_array",
         "stripes per array (events mode)", engine="events"),
    Flag("--p-bit", "sector.p_bit", "unrecoverable bit-error probability"),
    Flag("--sector-model", "sector.model", "sector-failure model for P_str"),
    Flag("--mttf", "lifetime.mttf_hours",
         "device mean time to failure, hours (1/lambda)"),
    Flag("--repair-hours", "repair.repair_hours",
         "mean rebuild time, hours (1/mu)"),
    Flag("--weibull-shape", "lifetime.weibull_shape",
         "use Weibull lifetimes with this shape (mean stays at --mttf)",
         to_overrides=_weibull),
    Flag("--trace", "trace.path",
         "daily-snapshot failure trace; fits an empirical lifetime model "
         "(replaces --mttf / --weibull-shape)",
         metavar="CSV", group="traces"),
    Flag("--trace-model", "trace.model",
         "empirical model fitted from --trace: piecewise-exponential "
         "hazard (works in every mode; the default) or Kaplan-Meier "
         "resampling (direct simulation only)",
         choices=("piecewise", "km"), group="traces"),
    Flag("--trace-bins", "trace.bins",
         "hazard intervals for the piecewise fit (default: 8)",
         group="traces"),
    Flag("--trace-replay", "trace.model",
         "events mode: replay the observed failure timestamps verbatim "
         "instead of fitting a model",
         const="replay", group="traces"),
    Flag("--horizon", "estimator.horizon_hours",
         "censor trials at this many hours"),
    Flag("--mode", "estimator.mode",
         "vectorized batch runner or full event engine",
         choices=("montecarlo", "events")),
    Flag("--rare-event", "estimator.mode",
         "force the importance-sampled regenerative estimator (montecarlo "
         "mode; selected automatically when direct simulation would not "
         "converge)",
         const="rare"),
    Flag("--rare-target-rel-se", "estimator.rare_target_rel_se",
         "stop the rare-event estimator at this relative standard error",
         engine="rare"),
    Flag("--rare-max-cycles", "estimator.rare_max_cycles",
         "cycle budget for the rare-event estimator", engine="rare"),
    Flag("--scrub-interval", "fleet.scrub_interval_hours",
         "hours between scrubs (events mode)", engine="events"),
    Flag("--rebuild-concurrency", "repair.rebuild_concurrency",
         "hard cap on concurrent rebuilds, 0 = unlimited (events mode)",
         engine="events", to_overrides=_zero_means_none),
    Flag("--rebuild-streams", "repair.rebuild_streams",
         "shared cluster repair bandwidth in units of one device's "
         "rebuild rate; concurrent rebuilds divide it evenly, 0 = no "
         "sharing (events mode)",
         engine="events", to_overrides=_zero_means_none),
    Flag("--rebuild-rate-mbs", "repair.rebuild_rate_mbs",
         "per-device rebuild rate in MB/s; derives the nominal rebuild "
         "time from the device capacity instead of --repair-hours "
         "(events mode)",
         engine="events"),
    Flag("--write-rate", "fleet.write_rate_per_hour",
         "stripe writes per array per hour (events mode)", engine="events"),
    Flag("--racks", "domains.racks", "racks the devices are spread across",
         group="domains"),
    Flag("--rack-shock-rate", "domains.rack_shock_rate_per_hour",
         "Poisson shocks per rack per hour; a shock fails every healthy "
         "member device at once",
         group="domains"),
    Flag("--rack-kill-prob", "domains.rack_kill_probability",
         "probability a rack shock kills each member", group="domains"),
    Flag("--enclosures-per-rack", "domains.enclosures_per_rack",
         "enclosures (shelves) within each rack", group="domains"),
    Flag("--enclosure-shock-rate", "domains.enclosure_shock_rate_per_hour",
         "Poisson shocks per enclosure per hour", group="domains"),
    Flag("--enclosure-kill-prob", "domains.enclosure_kill_probability",
         "probability an enclosure shock kills each member",
         group="domains"),
    Flag("--batch-fraction", "domains.batch_fraction",
         "fraction of each array's devices from a shared-defect "
         "manufacturing batch",
         group="domains"),
    Flag("--batch-accel", "domains.batch_accel",
         "lifetime acceleration of bad-batch devices (an AFT scaling: "
         "exponential devices fail at batch-accel * lambda)",
         group="domains"),
    Flag("--placement", "domains.placement",
         "how arrays map to racks: 'spread' stripes each array across "
         "racks, 'contiguous' confines it to one",
         group="domains"),
    Flag("--operations", "store.operations",
         "closed-loop client operations after the preload"),
    Flag("--backend", "store.backend",
         "where chunk bytes live: in-process, or one subprocess per node"),
)

def add_flags(parser: argparse.ArgumentParser, flags: Iterable[str], *,
              groups: Mapping[str, Any] | None = None,
              defaults: bool = True) -> None:
    """Add the named table flags to ``parser``, in table order.

    ``groups`` maps a row's ``group`` to the argument group it is
    listed under.  ``defaults=False`` leaves every flag that was not
    passed out of the parsed namespace, so :func:`flag_overrides`
    applies exactly the flags on the command line.
    """
    wanted = set(flags)
    for row in FLAGS:
        if row.flag in wanted:
            target = (groups or {}).get(row.group, parser)
            target.add_argument(row.flag, **row.argparse_kwargs(defaults))


def flag_overrides(args: argparse.Namespace) -> dict[str, Any]:
    """The ``{dotted path: value}`` overrides of the table flags set in
    ``args``, in table order (a later row wins a shared path, so
    ``--rare-event`` beats ``--mode``)."""
    out: dict[str, Any] = {}
    for row in FLAGS:
        value = getattr(args, row.dest, None)
        if value is not None:
            out.update(row.overrides(value))
    return out


def passed_flags(args: argparse.Namespace, engine: str) -> list[str]:
    """Spellings of the flags limited to ``engine`` that are present in
    ``args`` (parsed with ``defaults=False``), sorted by dest."""
    return [row.flag for row in sorted(FLAGS, key=lambda r: r.dest)
            if row.engine == engine and hasattr(args, row.dest)]
