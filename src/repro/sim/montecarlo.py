"""Numpy-vectorized Monte Carlo batch runner for array/cluster lifetimes.

Instead of replaying one event queue per trial, thousands of independent
lifetimes advance together as numpy lanes.  Each lane is one array of
``n`` devices tolerating up to ``m`` concurrent device failures
(RAID-5/STAIR at m = 1, RAID-6/SD/STAIR/IDR at m >= 2) and carries a
small damage-state machine:

* the absolute failure time of every healthy device,
* the number of currently failed devices,
* the completion time of the in-flight rebuild (devices are rebuilt one
  at a time at the repair model's rate, matching the Markov chains of
  :mod:`repro.reliability.markov`), and
* -- when a :class:`~repro.sim.domains.FailureDomains` spec is attached
  -- the next arrival time of each domain-shock process touching the
  array (a compound-Poisson term: a rack/enclosure shock fails every
  healthy member device at once, each independently with the domain's
  kill probability), with bad-batch devices drawing accelerated
  lifetimes.

Every round, each active lane processes its next event -- a device
failure, a rebuild completion or a domain shock.  A failure (or a shock)
that leaves more than ``m`` devices down loses data; a rebuild that
completes in *critical mode* (exactly ``m`` devices down) trips over
unrecoverable sector damage with probability ``p_arr``, the same
``P_arr`` from :func:`repro.reliability.mttdl.p_array` (Eq. 10-11) that
the analysis layer uses.  Keeping *absolute* failure times makes the
scheme exact for non-memoryless lifetimes too -- Weibull wear-out or a
trace-fitted :class:`~repro.sim.traces.EmpiricalLifetime`: a surviving
device's failure time was fixed when it was installed and simply
carries over across rounds.  (Verbatim trace *replay* is the event
engine's mode; the lanes need a proper distribution and reject
:class:`~repro.sim.traces.TraceReplayLifetime` up front.)

In the exponential case the estimated MTTDL must statistically agree
with the closed form (m = 1, Eq. 10) and with the general-m Markov chain
of :func:`repro.reliability.markov.mttdl_arr_m_parity` -- the
cross-validation asserted in the test suite; with an inert domain spec
(every shock rate zero, no batch wear) the runner is bit-for-bit
identical to the independent-failure path.  Each lane models its own
array's shock processes (the marginal law), which is exact for
single-array clusters; cross-array shock coupling (several arrays
sharing a struck rack) is the event engine's territory, as are
repair-bandwidth contention, scrub intervals and workload effects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.codes.base import StripeCode
from repro.reliability.mttdl import (
    CodeReliability,
    SystemParameters,
    p_array,
)
from repro.reliability.sector_models import SectorFailureModel
from repro.sim.cluster import CoverageModel
from repro.sim.domains import FailureDomains, shock_group_arrays
from repro.sim.lifetimes import (
    BiasedLifetime,
    ExponentialLifetime,
    ExponentialRepair,
    LifetimeModel,
    RepairModel,
)
from repro.sim.traces import TraceReplayLifetime

#: Safety valve for the vectorized loops (a round is one failure/rebuild
#: cycle across the whole active batch; realistic runs need thousands).
MAX_ROUNDS = 2_000_000


def code_reliability_from_code(code: StripeCode) -> CodeReliability:
    """Map a concrete stripe code to its analytic reliability description."""
    coverage = CoverageModel.from_code(code)
    if coverage.kind == "stair":
        return CodeReliability.stair(coverage.e)
    if coverage.kind == "sd":
        return CodeReliability.sd(coverage.s)
    if coverage.kind == "rs":
        return CodeReliability.reed_solomon()
    raise ValueError(
        f"no analytic P_str model for coverage kind {coverage.kind!r}"
    )


def _checked_code_reliability(code: StripeCode | CodeReliability,
                              params: SystemParameters) -> CodeReliability:
    """The analytic description of ``code``, checked against ``params``.

    A :class:`CodeReliability` passes through; a concrete code must
    tolerate ``params.m`` device failures and have the ``params``
    geometry, or the sector model and the simulation would disagree.
    """
    if isinstance(code, CodeReliability):
        return code
    coverage = CoverageModel.from_code(code)
    if coverage.m != params.m:
        raise ValueError(
            f"{type(code).__name__} tolerates m = {coverage.m} device "
            f"failures but SystemParameters has m = {params.m}; the "
            "sector model and simulation would disagree"
        )
    if (code.n, code.r) != (params.n, params.r):
        raise ValueError(
            f"code geometry (n={code.n}, r={code.r}) does not match "
            f"SystemParameters (n={params.n}, r={params.r}); the "
            "sector model and simulation would disagree"
        )
    return code_reliability_from_code(code)


@dataclass
class MonteCarloResult:
    """Batch of simulated times to data loss, with summary statistics.

    ``times`` holds one entry per trial; ``inf`` marks a trial censored
    at the horizon without data loss.  ``log_weights`` (one log
    importance weight per trial) is set when the lifetimes were drawn
    from a :class:`~repro.sim.lifetimes.BiasedLifetime` proposal; all
    statistics then self-normalize so the estimates stay unbiased for
    the target distribution.
    """

    times: np.ndarray
    horizon_hours: float | None = None
    metadata: dict = field(default_factory=dict)
    log_weights: np.ndarray | None = None

    @property
    def trials(self) -> int:
        return int(self.times.size)

    @property
    def losses(self) -> int:
        return int(np.isfinite(self.times).sum())

    @property
    def loss_times(self) -> np.ndarray:
        return self.times[np.isfinite(self.times)]

    # ------------------------------------------------------------------ #
    @property
    def weights(self) -> np.ndarray:
        """Per-trial importance weights, scaled to a maximum of 1.

        Uniform (all ones) for unweighted runs.  Only weight *ratios*
        matter -- every statistic self-normalizes -- so the overflow-safe
        max-shifted scale is as good as the raw likelihood ratios.
        """
        if self.log_weights is None:
            return np.ones(self.trials)
        return np.exp(self.log_weights - self.log_weights.max())

    @property
    def effective_sample_size(self) -> float:
        """Kish effective sample size ``(sum w)^2 / sum w^2``.

        Equals ``trials`` for unweighted runs; a small value relative to
        ``trials`` warns that a few heavy weights dominate the estimate
        and the confidence interval is optimistic.
        """
        w = self.weights
        return float(w.sum() ** 2 / (w ** 2).sum())

    # ------------------------------------------------------------------ #
    @property
    def mttdl_hours(self) -> float:
        """Mean time to data loss (requires uncensored trials).

        The plain sample mean, or the self-normalized weighted mean when
        importance weights are present.
        """
        if self.losses == 0:
            raise ValueError("no data-loss events observed; MTTDL undefined")
        if self.losses < self.trials:
            raise ValueError(
                f"{self.trials - self.losses} trials were censored at the "
                "horizon; the sample mean would be biased -- rerun without "
                "a horizon or use probability_of_loss_by()"
            )
        if self.log_weights is None:
            return float(self.loss_times.mean())
        w = self.weights
        return float((w * self.times).sum() / w.sum())

    @property
    def mttdl_std_error(self) -> float:
        """Standard error of the MTTDL estimate.

        For weighted runs this is the standard self-normalized
        importance-sampling variance estimate
        ``sqrt(sum w_i^2 (t_i - mean)^2) / sum w_i``.
        """
        observed = self.loss_times
        if observed.size < 2:
            raise ValueError("need >= 2 data-loss events for a std error")
        if self.log_weights is None:
            return float(observed.std(ddof=1) / math.sqrt(observed.size))
        w = self.weights
        mean = self.mttdl_hours
        return float(math.sqrt((w ** 2 * (self.times - mean) ** 2).sum())
                     / w.sum())

    def mttdl_confidence(self, z: float = 3.0) -> tuple[float, float]:
        """``z``-sigma confidence interval around the MTTDL estimate.

        Time to data loss is nonnegative, so the lower bound is clamped
        at 0 (small samples can otherwise push ``mean - z * se``
        negative).
        """
        mean = self.mttdl_hours
        half = z * self.mttdl_std_error
        return (max(0.0, mean - half), mean + half)

    def agrees_with(self, analytic_hours: float, z: float = 3.0) -> bool:
        """Does the analytic value fall inside the z-sigma interval?"""
        lo, hi = self.mttdl_confidence(z)
        return lo <= analytic_hours <= hi

    # ------------------------------------------------------------------ #
    def probability_of_loss_by(self, hours: float,
                               z: float = 3.0) -> tuple[float, float, float]:
        """P(data loss by ``hours``) with a Wilson score interval.

        Returns ``(estimate, low, high)``.  Valid also for censored runs
        as long as ``hours`` does not exceed the horizon.  On weighted
        runs the estimate self-normalizes (so it stays unbiased for the
        target distribution, not the biased proposal) and the interval
        uses the effective sample size in place of the trial count --
        the standard Wilson-on-ESS approximation.
        """
        if self.horizon_hours is not None and hours > self.horizon_hours:
            raise ValueError("hours exceeds the simulated horizon")
        w = self.weights
        p = float((w * (self.times <= hours)).sum() / w.sum())
        n = self.effective_sample_size
        denom = 1.0 + z * z / n
        centre = (p + z * z / (2 * n)) / denom
        half = (z / denom) * math.sqrt(p * (1 - p) / n
                                       + z * z / (4 * n * n))
        return p, max(0.0, centre - half), min(1.0, centre + half)

    def summary(self) -> dict:
        out = {"trials": self.trials, "losses": self.losses,
               "horizon_hours": self.horizon_hours}
        if self.losses == self.trials and self.losses >= 2:
            out["mttdl_hours"] = self.mttdl_hours
            out["mttdl_std_error"] = self.mttdl_std_error
        if self.log_weights is not None:
            out["effective_sample_size"] = self.effective_sample_size
        out.update(self.metadata)
        return out


def _as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


# --------------------------------------------------------------------------- #
# Core vectorized loops
# --------------------------------------------------------------------------- #
def simulate_array_lifetimes(n: int,
                             p_arr: float,
                             trials: int,
                             seed: int | np.random.Generator | None = None,
                             lifetime: LifetimeModel | None = None,
                             repair: RepairModel | None = None,
                             horizon_hours: float | None = None,
                             m: int = 1,
                             domains: FailureDomains | None = None,
                             ) -> MonteCarloResult:
    """Simulate ``trials`` independent single-array lifetimes.

    Each array has ``n`` devices and tolerates up to ``m`` concurrent
    device failures.  An ``(m + 1)``-th concurrent failure loses data
    immediately; a rebuild completing in critical mode (exactly ``m``
    devices down) trips over unrecoverable sector damage with
    probability ``p_arr`` (computed upstream from the code's coverage
    and the sector-failure model, Eq. 11).  Devices are rebuilt one at a
    time, matching the Markov chains of :mod:`repro.reliability.markov`.
    ``domains`` adds correlated rack/enclosure shocks and batch wear
    (see :class:`~repro.sim.domains.FailureDomains`).
    """
    times, log_w = _vectorized_lifetimes(n, p_arr, trials, 1, m,
                                         _as_rng(seed),
                                         lifetime or ExponentialLifetime(),
                                         repair or ExponentialRepair(),
                                         horizon_hours, domains)
    return MonteCarloResult(times, horizon_hours,
                            {"n": n, "m": m, "p_arr": p_arr,
                             "num_arrays": 1}, log_weights=log_w)


def simulate_cluster_lifetimes(n: int,
                               num_arrays: int,
                               p_arr: float,
                               trials: int,
                               seed: int | np.random.Generator | None = None,
                               lifetime: LifetimeModel | None = None,
                               repair: RepairModel | None = None,
                               horizon_hours: float | None = None,
                               m: int = 1,
                               domains: FailureDomains | None = None,
                               ) -> MonteCarloResult:
    """Simulate ``trials`` cluster lifetimes: ``num_arrays`` arrays of
    ``n`` devices each (``m``-fault-tolerant); the cluster loses data
    when its first array does.

    All arrays advance as independent vector lanes; a lane retires as
    soon as its clock passes its trial's best loss time, so work scales
    with the *cluster* lifetime rather than with full per-array
    absorption.  With ``domains``, every lane carries its own array's
    shock processes (the per-array marginal law -- exact for
    ``num_arrays == 1``; for shared racks across arrays the event
    engine is the ground truth).
    """
    times, log_w = _vectorized_lifetimes(n, p_arr, trials, num_arrays, m,
                                         _as_rng(seed),
                                         lifetime or ExponentialLifetime(),
                                         repair or ExponentialRepair(),
                                         horizon_hours, domains)
    return MonteCarloResult(times, horizon_hours,
                            {"n": n, "m": m, "p_arr": p_arr,
                             "num_arrays": num_arrays}, log_weights=log_w)


def _vectorized_lifetimes(n: int, p_arr: float, trials: int,
                          num_arrays: int, m: int,
                          rng: np.random.Generator,
                          lifetime: LifetimeModel, repair: RepairModel,
                          horizon_hours: float | None,
                          domains: FailureDomains | None = None,
                          ) -> tuple[np.ndarray, np.ndarray | None]:
    """Advance every lane one event per round until loss or retirement.

    Per-lane state: ``next_fail`` (absolute failure time per device,
    ``inf`` once a device is down), ``num_failed``, ``rebuild_done``
    (``inf`` while no rebuild is in flight) and -- with active shock
    domains -- ``next_shock`` (absolute next-arrival time of each shock
    group touching the array).  The invariant is that a rebuild is in
    flight iff at least one device is down.

    Returns ``(times, log_weights)``.  When ``lifetime`` is a
    :class:`BiasedLifetime` every draw is scored with its full density
    ratio and the per-trial log-likelihood ratios come back in
    ``log_weights`` (otherwise ``None``).  Full-draw scoring keeps the
    estimator unbiased for the target distribution but its variance
    grows quickly with acceleration -- suitable for *mild* biasing only;
    ultra-reliable configurations belong to :mod:`repro.sim.rare`.
    Shock arrivals and kills are always drawn at their *true* rates, so
    they contribute no weight.  When the domain spec is inert (no
    shocks, no batch wear) this function consumes the identical random
    stream as with ``domains=None`` -- the independent limit is
    bit-for-bit exact.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if n < m + 1:
        raise ValueError(f"need n >= m + 1 devices per array (n={n}, m={m})")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if num_arrays < 1:
        raise ValueError("num_arrays must be >= 1")
    if not (0.0 <= p_arr <= 1.0):
        raise ValueError("p_arr must lie in [0, 1]")
    if isinstance(lifetime, TraceReplayLifetime):
        raise TypeError(
            "verbatim trace replay only runs on the event engine "
            "(repro.sim.events / --mode events); the vectorized lanes "
            "need a proper lifetime distribution -- fit the trace with "
            "EmpiricalLifetime.fit (the CLI's --trace-model piecewise)"
        )

    lanes = trials * num_arrays
    trial_of = np.repeat(np.arange(trials), num_arrays)
    biased = isinstance(lifetime, BiasedLifetime)

    # Failure-domain structure: per-device lifetime accelerations (the
    # bad batch) and the array's shock groups.  ``mult`` stays None when
    # inert so the independent path is untouched.
    mult: np.ndarray | None = None
    groups = ()
    if domains is not None:
        if domains.has_batch_wear:
            if biased:
                raise ValueError(
                    "batch-accelerated lifetimes cannot be combined with "
                    "a BiasedLifetime proposal in the lane machine (the "
                    "full-draw weights would score the wrong density); "
                    "use repro.sim.rare, which supports both"
                )
            mult = domains.rate_multipliers(n)
        if domains.has_shocks:
            # array_shock_groups already omits zero-rate/empty groups.
            groups = domains.array_shock_groups(n)
    if groups:
        member_mask, rates, kill_prob = shock_group_arrays(groups, n)
        shock_scale = 1.0 / rates
        next_shock = rng.exponential(shock_scale, size=(lanes, len(groups)))

    lane_log_w = np.zeros(lanes) if biased else None
    next_fail = lifetime.sample(rng, (lanes, n))
    if biased:
        lane_log_w += lifetime.log_weight(next_fail).sum(axis=1)
    if mult is not None:
        next_fail /= mult
    rebuild_done = np.full(lanes, math.inf)
    num_failed = np.zeros(lanes, dtype=np.int32)
    # Best (earliest) loss time seen per trial; lanes that can no longer
    # beat it retire.  With a horizon, nothing past it matters either.
    cutoff = np.full(trials, math.inf if horizon_hours is None
                     else float(horizon_hours))
    lost = np.zeros(trials, dtype=bool)
    active = np.arange(lanes)

    for _ in range(MAX_ROUNDS):
        if active.size == 0:
            break
        nf = next_fail[active]
        dev = nf.argmin(axis=1)
        t_fail = nf[np.arange(active.size), dev]
        t_rebuild = rebuild_done[active]
        if groups:
            ns = next_shock[active]
            grp = ns.argmin(axis=1)
            t_shock = ns[np.arange(active.size), grp]
            fail_first = (t_fail <= t_rebuild) & (t_fail <= t_shock)
            shock_first = ~fail_first & (t_shock < t_rebuild)
            t = np.minimum(np.minimum(t_fail, t_rebuild), t_shock)
        else:
            fail_first = t_fail <= t_rebuild
            shock_first = np.zeros(active.size, dtype=bool)
            t = np.where(fail_first, t_fail, t_rebuild)

        # Lane times are monotone, so a lane whose next event cannot beat
        # its trial's cutoff never will: retire it before processing.
        alive = t < cutoff[trial_of[active]]
        if not alive.all():
            active = active[alive]
            if active.size == 0:
                break
            dev = dev[alive]
            t = t[alive]
            fail_first = fail_first[alive]
            shock_first = shock_first[alive]
            if groups:
                grp = grp[alive]
        lane_trials = trial_of[active]
        f = num_failed[active]

        # Domain shocks: every healthy member of the struck group fails
        # at once (each independently with the kill probability); losing
        # more than m devices is fatal.  The shock clock always advances.
        shock_lose = np.zeros(active.size, dtype=bool)
        if shock_first.any():
            rows = active[shock_first]
            g = grp[shock_first]
            next_shock[rows, g] = (t[shock_first]
                                   + rng.exponential(shock_scale[g]))
            candidates = member_mask[g] & np.isfinite(next_fail[rows])
            killed = candidates & (rng.random(candidates.shape)
                                   < kill_prob[g][:, None])
            kcount = killed.sum(axis=1).astype(np.int32)
            next_fail[rows] = np.where(killed, math.inf, next_fail[rows])
            num_failed[rows] += kcount
            shock_lose[shock_first] = num_failed[rows] > m

        # A failure with m devices already down is fatal; a rebuild
        # completing in critical mode trips sector damage w.p. p_arr.
        rebuild_now = ~fail_first & ~shock_first
        critical_rebuild = rebuild_now & (f == m)
        trip = np.zeros(active.size, dtype=bool)
        num_critical = int(critical_rebuild.sum())
        if p_arr > 0.0 and num_critical:
            trip[critical_rebuild] = rng.random(num_critical) < p_arr
        loses = (fail_first & (f == m)) | trip | shock_lose
        if loses.any():
            np.minimum.at(cutoff, lane_trials[loses], t[loses])
            lost[lane_trials[loses]] = True
        keep = ~loses

        # Shock survivors with new casualties: start a rebuild if none
        # is in flight (devices rebuild one at a time).
        surv_shock = shock_first & keep
        shock_lanes = active[surv_shock]
        if shock_lanes.size:
            idle = (np.isinf(rebuild_done[shock_lanes])
                    & (num_failed[shock_lanes] > 0))
            started = shock_lanes[idle]
            if started.size:
                rebuild_done[started] = (t[surv_shock][idle]
                                         + repair.sample(rng, started.size))

        # Surviving failures: device goes down; start a rebuild if none
        # is in flight (devices rebuild one at a time).
        surv_fail = fail_first & keep
        fail_lanes = active[surv_fail]
        if fail_lanes.size:
            next_fail[fail_lanes, dev[surv_fail]] = math.inf
            num_failed[fail_lanes] += 1
            idle = np.isinf(rebuild_done[fail_lanes])
            started = fail_lanes[idle]
            if started.size:
                rebuild_done[started] = (t[surv_fail][idle]
                                         + repair.sample(rng, started.size))

        # Surviving rebuild completions: restore one failed device with a
        # fresh lifetime; chain the next rebuild if more are down.
        surv_rebuild = rebuild_now & keep
        rebuild_lanes = active[surv_rebuild]
        if rebuild_lanes.size:
            restored = np.isinf(next_fail[rebuild_lanes]).argmax(axis=1)
            fresh = lifetime.sample(rng, rebuild_lanes.size)
            if biased:
                lane_log_w[rebuild_lanes] += lifetime.log_weight(fresh)
            if mult is not None:
                fresh = fresh / mult[restored]
            next_fail[rebuild_lanes, restored] = t[surv_rebuild] + fresh
            num_failed[rebuild_lanes] -= 1
            rebuild_done[rebuild_lanes] = math.inf
            more = num_failed[rebuild_lanes] > 0
            chained = rebuild_lanes[more]
            if chained.size:
                rebuild_done[chained] = (t[surv_rebuild][more]
                                         + repair.sample(rng, chained.size))

        active = active[keep]
    else:
        raise RuntimeError(
            f"simulation did not converge within {MAX_ROUNDS} rounds; "
            "the configuration is too reliable for direct Monte Carlo "
            "(common for m >= 2 with the paper's 1/lambda = 500,000 h). "
            "Set horizon_hours to bound the run, or use the rare-event "
            "estimator (repro.sim.rare / the CLI's --rare-event mode) "
            "as in docs/simulator.md"
        )

    times = np.where(lost, cutoff, math.inf)
    if not biased:
        return times, None
    return times, np.bincount(trial_of, weights=lane_log_w,
                              minlength=trials)


# --------------------------------------------------------------------------- #
# Bridge to the analysis layer
# --------------------------------------------------------------------------- #
def simulate_code_mttdl(code: StripeCode | CodeReliability,
                        model: SectorFailureModel,
                        params: SystemParameters | None = None,
                        trials: int = 1000,
                        seed: int | np.random.Generator | None = None,
                        num_arrays: int = 1,
                        lifetime: LifetimeModel | None = None,
                        repair: RepairModel | None = None,
                        horizon_hours: float | None = None,
                        domains: FailureDomains | None = None,
                        ) -> MonteCarloResult:
    """Monte Carlo MTTDL of a code under the paper's system parameters.

    ``P_arr`` comes from the analysis layer (Eq. 11) applied to the same
    coverage the simulator's damage predicate uses; lifetimes and repairs
    default to the exponential models with the paper's 1/λ and 1/μ.
    Any ``m >= 1`` is supported: the lane state machine tolerates
    ``params.m`` concurrent device failures, and for a concrete code the
    code's own ``m`` must match ``params.m``.  ``domains`` adds
    correlated rack/enclosure shocks and batch wear; note that the §7
    analytic MTTDL is then only an independent-failure reference, not an
    expected match.
    """
    params = params or SystemParameters()
    reliability = _checked_code_reliability(code, params)
    parr = p_array(reliability, params, model)
    lifetime = lifetime or ExponentialLifetime(
        params.mean_time_to_failure_hours)
    repair = repair or ExponentialRepair(params.mean_time_to_rebuild_hours)
    result = simulate_cluster_lifetimes(
        params.n, num_arrays, parr, trials, seed,
        lifetime=lifetime, repair=repair, horizon_hours=horizon_hours,
        m=params.m, domains=domains)
    result.metadata["code"] = reliability.label()
    return result
