"""Rare-event MTTDL estimation: regenerative cycles + failure biasing.

Direct Monte Carlo cannot reach the paper's actual §7 operating point:
with 1/λ = 500,000 h an m >= 2 array has MTTDL ~ 1e12 h, i.e. ~1e7
failure/repair cycles per simulated lifetime, and the batch runner of
:mod:`repro.sim.montecarlo` blows through ``MAX_ROUNDS``.  This module
estimates the same MTTDL in milliseconds, unbiased for the true λ, by
exploiting the regenerative structure of the array process:

**Cycle decomposition.**  With exponential lifetimes the process
regenerates every time the array returns to the all-healthy state.  A
regeneration cycle is an *up phase* (all devices healthy, length
``Exp(n·λ)``, mean known exactly: ``1/(n·λ)``) followed by a *busy
period* (at least one device down) that ends either back in the healthy
state or in data loss.  For i.i.d. cycles the renewal-reward identity

    ``MTTDL = E[cycle length] / P(loss per cycle)``

is exact, so only the short busy periods need simulating -- never the
~1/p cycles a direct run must crawl through.

**Balanced failure biasing.**  ``P(loss per cycle)`` is itself tiny
(~5e-8 at the paper's parameters), so busy periods are simulated under
an importance-sampling proposal: device lifetimes come from a
:class:`~repro.sim.lifetimes.BiasedLifetime` accelerated so the
failure-vs-rebuild race is roughly balanced (``θ ≈ μ / ((n-1)·λ)``),
and the critical-mode sector trip (probability ``P_arr``, often ~1e-9)
is oversampled to a floor of :data:`TRIP_BIAS_FLOOR`.  Every lane
accumulates the log-likelihood ratio of its realized busy-period path:
a density ratio for each observed failure, a survival ratio for each
device still alive when the cycle ends, and a Bernoulli ratio for each
biased sector trip.  Scoring only *observed* information (not full
unused draws) is what keeps the weight variance bounded under strong
acceleration.

**Correlated failure domains.**  A
:class:`~repro.sim.domains.FailureDomains` spec folds rack/enclosure
shocks and batch wear into the same decomposition and the same busy-cycle
machine; an inert spec (pure topology) runs the independent path and
reproduces its random stream bit for bit.  Shock processes are Poisson
and batch wear is an accelerated-failure-time scale (a device of age
``a`` is scored at ``a·mult_i``; exponential devices simply fail at
``λ_i = mult_i·λ``), so the all-healthy state remains a regeneration
point; the up phase now ends at rate ``Λ + S`` where ``Λ = Σ λ_i`` and
``S`` is the total rate of shocks that kill at least one device, and a
busy period can *start* with several devices down (a multi-kill shock).
The initial event's type is oversampled toward shocks (a Bernoulli
proposal, reweighted exactly); within the busy period shock *arrivals*
are accelerated by the same θ as the lifetimes and scored with their
interarrival density/survival ratios (otherwise shock-supplied
critical-mode failures would be sampled ~θ-times too rarely and the
finite-sample estimate would lean optimistic), while kill draws use
their true probabilities and carry no weight.  A device killed by a
shock is scored with its *survival* ratio at its age (it was only
observed to have survived that long), never its density.

**Empirical hazards.**  A trace-fitted
:class:`~repro.sim.traces.EmpiricalLifetime` (piecewise-exponential
hazard) is accepted under a *quasi-renewal* reading of the same
decomposition: the all-healthy state is treated as a renewal point with
every device fresh, the up-phase mean is the exact closed-form
``E[min of n]`` of the fitted model
(:meth:`~repro.sim.traces.EmpiricalLifetime.mean_minimum_hours`), and
the biased proposal is the model's own AFT-scaled self (every hazard
multiplied by θ).  The likelihood weights stay exact for the fitted
model; the renewal step itself is exact when the fitted hazard is
constant -- the fitted-on-exponential validation case -- and an
approximation whose error grows with the hazard's variation over one
busy period (hours) relative to the device timescale, i.e. vanishingly
small for realistic traces.  Strongly age-varying hazards belong to the
direct engines, as do fits combined with active failure domains (the
up-phase mean would need ``E[min]`` of heterogeneous piecewise hazards
plus shocks, which has no closed form).

The estimator is validated against the general birth-death chain of
:func:`repro.reliability.markov.mttdl_arr_m_parity` at the paper's true
parameters -- the cross-check the validation bench
(:mod:`repro.bench.sim_validation`) previously sidestepped with an
accelerated-failure surrogate -- and, for single-device shock groups
(domain-spread placement with ``racks >= n``), against the same chain
at the effective rate ``λ + s``.  Unlike the chain, the busy-period
simulation accepts any :class:`~repro.sim.lifetimes.RepairModel`
(deterministic and bandwidth-derived rebuilds included); memoryless or
piecewise-exponential *lifetimes* are required by the (quasi-)renewal
argument.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.codes.base import StripeCode
from repro.reliability.mttdl import (
    CodeReliability,
    SystemParameters,
    p_array,
)
from repro.reliability.sector_models import SectorFailureModel
from repro.sim.lifetimes import (
    BiasedLifetime,
    ExponentialLifetime,
    ExponentialRepair,
    LifetimeModel,
    RepairModel,
)
from repro.sim.montecarlo import (
    MAX_ROUNDS,
    _as_rng,
    _checked_code_reliability,
)
from repro.sim.domains import FailureDomains, shock_group_arrays
from repro.sim.traces import EmpiricalLifetime

#: Under balanced biasing a busy period is a near-symmetric random walk
#: on m + 1 states -- a few dozen events at most; this valve only trips
#: on pathological proposals.
MAX_CYCLE_ROUNDS = 100_000

#: Minimum proposal probability for the critical-mode sector trip.  Low
#: enough that the ``(1 - P_arr) / (1 - q)`` no-trip weights stay near 1
#: (repeated critical episodes would otherwise compound them), high
#: enough that trip-driven loss paths are sampled even when
#: ``P_arr ~ 1e-9``.
TRIP_BIAS_FLOOR = 0.05

#: Hazard-variation ratio (max over min positive fitted hazard) above
#: which an :class:`~repro.sim.traces.EmpiricalLifetime` triggers a
#: quasi-renewal warning: the "all-healthy state = fresh devices"
#: reading is exact for constant hazards and increasingly biased as the
#: hazard bends (bathtub fits belong to the direct engines).
EMPIRICAL_HAZARD_RATIO_WARN = 2.0

#: Minimum proposal probability that a regeneration cycle *starts* with
#: a domain shock rather than a single device failure.  Real shock
#: rates are often orders of magnitude below the aggregate failure rate
#: while multi-kill shocks dominate the loss probability; oversampling
#: the initial event type (and reweighting the Bernoulli choice
#: exactly) keeps those paths represented without waiting ~1/P(shock)
#: cycles.
SHOCK_INIT_BIAS_FLOOR = 0.2


@dataclass
class RareEventResult:
    """Importance-sampled MTTDL estimate with its weight diagnostics.

    ``mttdl_hours`` is per *cluster* (``num_arrays`` arrays); the
    per-array estimate is ``mttdl_hours * num_arrays``.  Cycle-level
    quantities (``loss_probability``, ``mean_up_hours``,
    ``mean_busy_hours``) describe one array's regeneration cycle.

    Usage -- always read the estimate together with its diagnostics::

        result = estimate_rare_mttdl(8, 4.4e-9, m=2, seed=0)
        low, high = result.mttdl_confidence(z=3.0)
        result.relative_std_error     # met the stopping target?
        result.effective_sample_size  # healthy: double-digit % of cycles
        result.summary()              # everything as one dict
    """

    mttdl_hours: float
    mttdl_std_error: float
    cycles: int
    loss_cycles: int
    loss_probability: float
    mean_up_hours: float
    mean_busy_hours: float
    effective_sample_size: float
    acceleration: float
    trip_bias: float
    num_arrays: int = 1
    metadata: dict = field(default_factory=dict)

    @property
    def relative_std_error(self) -> float:
        return self.mttdl_std_error / self.mttdl_hours

    def mttdl_confidence(self, z: float = 3.0) -> tuple[float, float]:
        """``z``-sigma confidence interval, lower bound clamped at 0."""
        half = z * self.mttdl_std_error
        return (max(0.0, self.mttdl_hours - half), self.mttdl_hours + half)

    def agrees_with(self, analytic_hours: float, z: float = 3.0) -> bool:
        """Does the analytic value fall inside the z-sigma interval?"""
        lo, hi = self.mttdl_confidence(z)
        return lo <= analytic_hours <= hi

    def summary(self) -> dict:
        out = {
            "mttdl_hours": self.mttdl_hours,
            "mttdl_std_error": self.mttdl_std_error,
            "cycles": self.cycles,
            "loss_cycles": self.loss_cycles,
            "loss_probability": self.loss_probability,
            "mean_up_hours": self.mean_up_hours,
            "mean_busy_hours": self.mean_busy_hours,
            "effective_sample_size": self.effective_sample_size,
            "acceleration": self.acceleration,
            "trip_bias": self.trip_bias,
            "num_arrays": self.num_arrays,
        }
        out.update(self.metadata)
        return out


def balanced_acceleration(n: int, lifetime_mean_hours: float,
                          repair_mean_hours: float) -> float:
    """Acceleration θ that balances the busy-period race.

    With ``n - 1`` healthy devices each failing at the biased rate
    ``θ·λ``, choosing ``θ = μ / ((n - 1)·λ)`` makes the next-failure and
    rebuild-completion rates equal, so reaching the loss state costs
    ~``2^-m`` per cycle instead of ``(λ/μ)^m``.  Never decelerates:
    already-fast configurations get ``θ = 1`` (plain sampling).

    Usage::

        theta = balanced_acceleration(8, 500_000.0, 17.8)   # ~4000x
        estimate_rare_mttdl(8, 1e-8, m=2, acceleration=theta)
    """
    theta = lifetime_mean_hours / ((n - 1) * repair_mean_hours)
    return max(1.0, theta)


def _conditional_kill_patterns(member: np.ndarray, p: np.ndarray,
                               rng: np.random.Generator) -> np.ndarray:
    """Bernoulli kill patterns over group members, conditioned on >= 1.

    ``member`` is a ``(rows, n)`` bool mask of each row's group
    membership and ``p`` the per-row kill probability.  Sampling is by
    vectorized rejection (redrawing only the all-zero rows), exact for
    the conditional distribution; the expected number of rounds is
    ``1 / (1 - (1 - p)^size)`` -- one round for the default kill
    probability of 1.
    """
    pattern = np.zeros_like(member)
    todo = np.arange(member.shape[0])
    for _ in range(100_000):
        if todo.size == 0:
            return pattern
        draws = member[todo] & (
            rng.random((todo.size, member.shape[1])) < p[todo, None])
        ok = draws.any(axis=1)
        pattern[todo[ok]] = draws[ok]
        todo = todo[~ok]
    raise RuntimeError(  # pragma: no cover - needs p ~ 1e-5 on tiny groups
        "conditional kill-pattern sampling did not converge; the domain "
        "kill probability is too small for rejection sampling")


def _busy_cycles(n: int, m: int, p_arr: float, batch: int,
                 rng: np.random.Generator,
                 biased: BiasedLifetime, repair: RepairModel,
                 trip_bias: float,
                 mult: np.ndarray | None = None,
                 groups: tuple = (),
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate ``batch`` busy periods under the biased proposal.

    Each lane starts the instant the up phase ends and runs to
    regeneration (all devices healthy again) or data loss.  Returns
    ``(loss, duration, log_weight)`` per lane, where the log weight is
    the adapted log-likelihood ratio of the observed path: density
    ratios for failures, survival ratios at cycle end for devices still
    alive, Bernoulli ratios for biased sector trips.

    Without failure domains (``mult`` None, no ``groups``) the busy
    period opens with device 0 down and the other ``n - 1`` holding
    fresh biased lifetimes.  ``mult`` holds per-device batch-wear
    multipliers, applied as an accelerated-failure-time scale: fresh
    draws are divided by ``mult[i]`` and a device of age ``a`` is scored
    at ``a * mult[i]``; the opening failure then hits device ``i``
    ``∝ mult[i]``.  ``groups`` are the array's
    :class:`~repro.sim.domains.ShockGroup` instances; they come with a
    ``mult`` (all ones without batch wear).  The opening event is a
    shock with a probability oversampled to at least
    :data:`SHOCK_INIT_BIAS_FLOOR` (the Bernoulli reweighted exactly); it
    kills ``K >= 1`` members of a group chosen ``∝`` its kill rate, and
    ``K > m`` is an immediate loss at duration 0.  Within the busy
    period shock *arrivals* are accelerated by the lifetimes' θ and
    scored with interarrival density/survival ratios -- otherwise
    shock-supplied critical-mode failures would be sampled ~θ-times too
    rarely -- while kill draws keep their true probabilities (no
    weight).  A device killed by a shock is scored with its *survival*
    ratio at its age.
    """
    q = trip_bias
    # Bernoulli log-likelihood ratios, guarded for the boundary
    # schedules the caller may legitimately pick: p_arr = 0 makes the
    # trip impossible under the target (weight 0, i.e. log weight -inf);
    # q = 1 makes *no*-trip impossible under the proposal (the branch is
    # then never selected, but np.where still needs a finite-safe value).
    if q != p_arr:
        log_w_trip = math.log(p_arr / q) if p_arr > 0.0 else -math.inf
        log_w_no_trip = (math.log((1.0 - p_arr) / (1.0 - q))
                         if q < 1.0 else -math.inf)
    install = np.zeros((batch, n))
    log_w = np.zeros(batch)
    num_failed = np.ones(batch, dtype=np.int32)

    # --- the event that ends the up phase and opens the busy period ---
    if mult is None:
        next_fail = np.full((batch, n), math.inf)
        next_fail[:, 1:] = biased.sample(rng, (batch, n - 1))
    else:
        next_fail = biased.sample(rng, (batch, n)) / mult
        device_rate = float(mult.sum()) / biased.target.mean_hours
        member, shock_rate, kill_prob = shock_group_arrays(groups, n)
        kill_rate = np.array([g.kill_rate_per_hour for g in groups])
        total_kill_rate = float(kill_rate.sum())
        true_shock = total_kill_rate / (device_rate + total_kill_rate)
        shock_init = np.zeros(batch, dtype=bool)
        if total_kill_rate > 0.0:
            q_shock = max(true_shock, SHOCK_INIT_BIAS_FLOOR)
            shock_init = rng.random(batch) < q_shock
            if q_shock != true_shock:
                log_w += np.where(
                    shock_init, math.log(true_shock / q_shock),
                    math.log((1.0 - true_shock) / (1.0 - q_shock)))
        fail_lanes = np.flatnonzero(~shock_init)
        if fail_lanes.size:
            first = rng.choice(n, fail_lanes.size, p=mult / mult.sum())
            next_fail[fail_lanes, first] = math.inf
        shock_lanes = np.flatnonzero(shock_init)
        if shock_lanes.size:
            g0 = rng.choice(len(groups), shock_lanes.size,
                            p=kill_rate / total_kill_rate)
            pattern = _conditional_kill_patterns(member[g0], kill_prob[g0],
                                                 rng)
            next_fail[shock_lanes] = np.where(pattern, math.inf,
                                              next_fail[shock_lanes])
            num_failed[shock_lanes] = pattern.sum(axis=1)
    rebuild_done = np.asarray(repair.sample(rng, batch), dtype=float)
    if groups:
        # Accelerated shock clocks; ``last_shock`` tracks each group's
        # previous (biased) arrival so interarrival ratios can be
        # scored, with the busy start as the memoryless epoch.
        theta = biased.acceleration
        log_theta = math.log(theta)
        prop_shock_scale = 1.0 / (theta * shock_rate)
        next_shock = rng.exponential(prop_shock_scale,
                                     size=(batch, len(groups)))
        last_shock = np.zeros((batch, len(groups)))
    loss = num_failed > m   # a multi-kill shock can lose data outright
    duration = np.zeros(batch)
    active = np.flatnonzero(~loss)

    for _ in range(MAX_CYCLE_ROUNDS):
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
            rebuilt = ~fail_first & ~shock_first
            t = np.minimum(np.minimum(t_fail, t_rebuild), t_shock)
        else:
            fail_first = t_fail <= t_rebuild
            rebuilt = ~fail_first
            t = np.where(fail_first, t_fail, t_rebuild)
        f = num_failed[active]
        done = np.zeros(active.size, dtype=bool)

        # Domain shocks: score the accelerated arrival (interarrival
        # density ratio), advance the group's clock, kill each healthy
        # member w.p. its true kill probability (no weight), score the
        # killed devices' *survival* to the shock time, lose data if
        # more than m devices end up down.  Surviving struck lanes need
        # no rebuild bookkeeping: a rebuild is always in flight during a
        # busy period (armed at busy start, re-armed on chaining, and a
        # lane with nothing left to rebuild regenerates the same round).
        if groups and shock_first.any():
            rows = active[shock_first]
            g = grp[shock_first]
            gap = t[shock_first] - last_shock[rows, g]
            log_w[rows] += -log_theta + gap * shock_rate[g] * (theta - 1.0)
            last_shock[rows, g] = t[shock_first]
            next_shock[rows, g] = (t[shock_first]
                                   + rng.exponential(prop_shock_scale[g]))
            candidates = member[g] & np.isfinite(next_fail[rows])
            killed = candidates & (rng.random(candidates.shape)
                                   < kill_prob[g][:, None])
            ages = (t[shock_first][:, None] - install[rows]) * killed * mult
            log_w[rows] += (biased.log_weight_survival(ages)
                            * killed).sum(axis=1)
            next_fail[rows] = np.where(killed, math.inf, next_fail[rows])
            num_failed[rows] += killed.sum(axis=1).astype(np.int32)
            fatal = num_failed[rows] > m
            if fatal.any():
                loss[rows[fatal]] = True
                duration[rows[fatal]] = t[shock_first][fatal]
                done[np.flatnonzero(shock_first)[fatal]] = True

        # Device failures: score the observed lifetime, mark the device
        # down (before the survival factors below -- a fatally failing
        # device must not also be scored as a survivor), lose data if m
        # devices were already down.
        if fail_first.any():
            lanes = active[fail_first]
            d = dev[fail_first]
            ages = t[fail_first] - install[lanes, d]
            if mult is not None:
                ages = ages * mult[d]
            log_w[lanes] += biased.log_weight(ages)
            next_fail[lanes, d] = math.inf
            fatal = f[fail_first] == m
            if fatal.any():
                fatal_lanes = lanes[fatal]
                loss[fatal_lanes] = True
                duration[fatal_lanes] = t[fail_first][fatal]
                done[np.flatnonzero(fail_first)[fatal]] = True
            grew = lanes[~fatal]
            if grew.size:
                num_failed[grew] += 1

        # Rebuild completions: in critical mode the biased sector trip
        # fires with probability q instead of p_arr and the Bernoulli
        # likelihood ratio joins the weight.  Surviving completions
        # restore one device with a fresh biased lifetime; the cycle
        # regenerates when no device is left down.
        if rebuilt.any():
            lanes = active[rebuilt]
            critical = f[rebuilt] == m
            trip = np.zeros(lanes.size, dtype=bool)
            num_critical = int(critical.sum())
            if num_critical and q > 0.0:
                fired = rng.random(num_critical) < q
                trip[critical] = fired
                if q != p_arr:
                    log_w[lanes[critical]] += np.where(
                        fired, log_w_trip, log_w_no_trip)
            if trip.any():
                trip_lanes = lanes[trip]
                loss[trip_lanes] = True
                duration[trip_lanes] = t[rebuilt][trip]
                done[np.flatnonzero(rebuilt)[trip]] = True
            ok = ~trip
            ok_lanes = lanes[ok]
            if ok_lanes.size:
                restored = np.isinf(next_fail[ok_lanes]).argmax(axis=1)
                fresh = biased.sample(rng, ok_lanes.size)
                if mult is not None:
                    fresh = fresh / mult[restored]
                next_fail[ok_lanes, restored] = t[rebuilt][ok] + fresh
                install[ok_lanes, restored] = t[rebuilt][ok]
                num_failed[ok_lanes] -= 1
                rebuild_done[ok_lanes] = math.inf
                more = num_failed[ok_lanes] > 0
                chained = ok_lanes[more]
                if chained.size:
                    rebuild_done[chained] = (
                        t[rebuilt][ok][more]
                        + repair.sample(rng, chained.size))
                regen = ok_lanes[~more]
                if regen.size:
                    duration[regen] = t[rebuilt][ok][~more]
                    done[np.flatnonzero(rebuilt)[ok][~more]] = True

        # Cycle over: devices still alive are only *observed* to have
        # survived to the cycle end; score that survival, not the full
        # unused draw -- and likewise every (accelerated) shock clock
        # since its last arrival.
        if done.any():
            ended = active[done]
            alive = np.isfinite(next_fail[ended])
            ages = (duration[ended][:, None] - install[ended]) * alive
            if mult is not None:
                ages = ages * mult
            log_w[ended] += (biased.log_weight_survival(ages)
                             * alive).sum(axis=1)
            if groups:
                quiet = duration[ended][:, None] - last_shock[ended]
                log_w[ended] += (quiet * shock_rate
                                 * (theta - 1.0)).sum(axis=1)
            active = active[~done]
    else:  # pragma: no cover - safety valve
        raise RuntimeError(
            f"busy period did not finish within {MAX_CYCLE_ROUNDS} events; "
            "the biasing proposal is pathological (acceleration too strong, "
            "repair model degenerate, or shock rate overwhelming repair)"
        )
    return loss, duration, log_w


@dataclass
class _Moments:
    """Streaming sums for the ratio estimator and its delta-method SE.

    ``x = w·1{loss}`` drives the loss probability, ``y = w·busy`` the
    busy-length correction; ``w`` totals power the Kish ESS.
    """

    n: int = 0
    x_sum: float = 0.0
    x2_sum: float = 0.0
    y_sum: float = 0.0
    y2_sum: float = 0.0
    xy_sum: float = 0.0
    w_sum: float = 0.0
    w2_sum: float = 0.0
    losses: int = 0

    def add(self, loss: np.ndarray, duration: np.ndarray,
            log_w: np.ndarray) -> None:
        w = np.exp(log_w)
        x = w * loss
        y = w * duration
        self.n += int(loss.size)
        self.x_sum += float(x.sum())
        self.x2_sum += float((x * x).sum())
        self.y_sum += float(y.sum())
        self.y2_sum += float((y * y).sum())
        self.xy_sum += float((x * y).sum())
        self.w_sum += float(w.sum())
        self.w2_sum += float((w * w).sum())
        self.losses += int(loss.sum())

    def estimate(self, mean_up_hours: float) -> tuple[float, float]:
        """``(mttdl, std_error)`` for one array via the delta method.

        ``MTTDL = (E[U] + E[w·B]) / E[w·L]`` with ``E[U]`` exact; the
        variance combines ``Var(x̄)``, ``Var(ȳ)`` and their covariance.
        """
        n = self.n
        p_hat = self.x_sum / n
        busy = self.y_sum / n
        mttdl = (mean_up_hours + busy) / p_hat
        if n < 2:
            return mttdl, math.inf
        var_x = (self.x2_sum - n * p_hat * p_hat) / (n - 1)
        var_y = (self.y2_sum - n * busy * busy) / (n - 1)
        cov_xy = (self.xy_sum - n * p_hat * busy) / (n - 1)
        var = (mttdl * mttdl * var_x - 2.0 * mttdl * cov_xy + var_y) \
            / (p_hat * p_hat * n)
        return mttdl, math.sqrt(max(var, 0.0))

    @property
    def effective_sample_size(self) -> float:
        if self.w2_sum == 0.0:
            return 0.0
        return self.w_sum ** 2 / self.w2_sum


def estimate_rare_mttdl(n: int,
                        p_arr: float,
                        m: int = 1,
                        seed: int | np.random.Generator | None = None,
                        lifetime: LifetimeModel | None = None,
                        repair: RepairModel | None = None,
                        num_arrays: int = 1,
                        acceleration: float | None = None,
                        trip_bias: float | None = None,
                        target_rel_se: float = 0.02,
                        max_cycles: int = 4_000_000,
                        batch_cycles: int = 50_000,
                        domains: FailureDomains | None = None,
                        ) -> RareEventResult:
    """Importance-sampled MTTDL of an ``m``-fault-tolerant array/cluster.

    Simulates regeneration-cycle busy periods in vectorized batches
    under balanced failure biasing until the relative standard error of
    the MTTDL estimate drops below ``target_rel_se`` (or ``max_cycles``
    is exhausted).  ``lifetime`` must be (default)
    :class:`ExponentialLifetime` -- the regeneration argument needs
    memoryless lifetimes -- or a trace-fitted
    :class:`~repro.sim.traces.EmpiricalLifetime`, accepted under the
    quasi-renewal reading described in the module docstring (exact for
    constant fitted hazards); ``repair`` may be any
    :class:`RepairModel`.  ``acceleration`` and ``trip_bias`` override
    the automatic biasing schedule (``θ`` from
    :func:`balanced_acceleration`, trip proposal floored at
    :data:`TRIP_BIAS_FLOOR`); estimates are unbiased for any choice,
    only the variance changes.

    Usage -- the paper's m = 2 operating point, then a correlated
    variant of it::

        from repro.sim import FailureDomains, estimate_rare_mttdl

        result = estimate_rare_mttdl(n=8, p_arr=4.4e-9, m=2, seed=0)
        result.mttdl_hours            # ~1e12 h, in milliseconds
        shocked = estimate_rare_mttdl(
            n=8, p_arr=4.4e-9, m=2, seed=0,
            domains=FailureDomains(racks=4,
                                   rack_shock_rate_per_hour=1e-7))
        shocked.mttdl_hours < result.mttdl_hours   # correlation hurts

    ``domains`` folds rack/enclosure shocks and batch wear into the
    regeneration cycle (see the module docstring for the adapted
    decomposition and weights); shocks stay memoryless, so the
    estimator is still exact-in-expectation.

    For ``num_arrays > 1`` the cluster MTTDL is the per-array value
    divided by the array count -- exact in the regenerative limit where
    busy periods (hours) are negligible against up phases (years), the
    same superposition argument the analytic layer uses (Eq. 9).  With
    shock domains this additionally treats each array's shock process
    as independent (exact for contiguous placement with
    ``racks >= num_arrays``; a marginally-exact approximation when
    arrays share racks -- the event engine captures the coupling).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if n < m + 1:
        raise ValueError(f"need n >= m + 1 devices per array (n={n}, m={m})")
    if not (0.0 <= p_arr <= 1.0):
        raise ValueError("p_arr must lie in [0, 1]")
    if num_arrays < 1:
        raise ValueError("num_arrays must be >= 1")
    if target_rel_se <= 0:
        raise ValueError("target_rel_se must be positive")
    if max_cycles < 1 or batch_cycles < 1:
        raise ValueError("max_cycles and batch_cycles must be >= 1")

    lifetime = lifetime or ExponentialLifetime()
    if isinstance(lifetime, BiasedLifetime):
        raise TypeError("pass the target lifetime; the biased proposal is "
                        "constructed internally")
    if not isinstance(lifetime, (ExponentialLifetime, EmpiricalLifetime)):
        raise TypeError(
            "the regenerative-cycle estimator requires exponential or "
            "piecewise-exponential lifetimes (the all-healthy state is "
            "only a (quasi-)regeneration point for those); got "
            f"{type(lifetime).__name__}"
        )
    correlated = domains is not None and not domains.is_independent
    if isinstance(lifetime, EmpiricalLifetime):
        if correlated:
            raise ValueError(
                "correlated failure domains combined with an empirical "
                "lifetime are not supported by the rare-event estimator "
                "(its quasi-renewal up phase needs E[min] of heterogeneous "
                "piecewise hazards plus shocks, which has no closed "
                "form); drop the shocks/batch wear or use the event engine"
            )
        positive = lifetime.hazards[lifetime.hazards > 0.0]
        # A zero interior hazard is an infinite variation, not a
        # benign one -- it must not slip past the ratio filter.
        ratio = (math.inf if positive.size < lifetime.hazards.size
                 else float(positive.max() / positive.min()))
        if ratio > EMPIRICAL_HAZARD_RATIO_WARN:
            warnings.warn(
                f"the fitted hazard varies {ratio:.1f}x across its "
                "intervals; the rare-event estimator's quasi-renewal "
                "decomposition (all-healthy state = fresh devices) is "
                "only exact for near-constant hazards, so this "
                "estimate may be materially biased -- use the "
                "vectorized runner or the event engine for "
                "bathtub-shaped fits", RuntimeWarning, stacklevel=2)
    repair = repair or ExponentialRepair()

    # An inert spec (pure topology) is a statistical no-op and takes
    # the independent path.  An active one brings per-device wear
    # multipliers and the array's shock groups; ``scale`` is the up
    # phase's total hazard (device failures plus killing shocks) over the
    # independent n·λ, so the balanced acceleration -- shocks are
    # accelerated by the same θ as lifetimes -- and the up-phase mean
    # follow from the independent formulas.
    mult: np.ndarray | None = None
    groups: tuple = ()
    scale = 1.0
    if correlated:
        mult = domains.rate_multipliers(n)
        # array_shock_groups already omits zero-rate/empty groups.
        groups = domains.array_shock_groups(n)
        kill_rate = sum(g.kill_rate_per_hour for g in groups)
        scale = (float(mult.sum()) + kill_rate * lifetime.mean_hours) / n

    if acceleration is None:
        acceleration = balanced_acceleration(n, lifetime.mean_hours / scale,
                                             repair.mean_hours)
    elif acceleration <= 0:
        raise ValueError("acceleration must be positive")
    if trip_bias is None:
        trip_bias = 0.0 if p_arr == 0.0 else max(p_arr, TRIP_BIAS_FLOOR)
    elif not (0.0 <= trip_bias <= 1.0):
        raise ValueError("trip_bias must lie in [0, 1]")
    elif p_arr > 0.0 and trip_bias == 0.0:
        raise ValueError("trip_bias must be positive when p_arr > 0 "
                         "(the trip route would never be sampled)")
    elif trip_bias == 1.0 and p_arr < 1.0:
        raise ValueError(
            "trip_bias = 1 makes surviving a critical rebuild impossible "
            "under the proposal while the target allows it, so those loss "
            "paths would be silently missed; use trip_bias < 1"
        )

    rng = _as_rng(seed)
    biased = BiasedLifetime.accelerated(lifetime, acceleration)
    # E[up phase] = E[min of n fresh lifetimes and the shocks]:
    # 1/(n·λ·scale) for exponential devices, the piecewise closed form
    # for a trace fit.
    mean_up = (lifetime.mean_minimum_hours(n)
               if isinstance(lifetime, EmpiricalLifetime)
               else lifetime.mean_hours / (n * scale))
    moments = _Moments()
    while moments.n < max_cycles:
        batch = min(batch_cycles, max_cycles - moments.n)
        loss, duration, log_w = _busy_cycles(
            n, m, p_arr, batch, rng, biased, repair, trip_bias, mult, groups)
        moments.add(loss, duration, log_w)
        if moments.x_sum > 0.0 and moments.losses >= 2:
            mttdl, se = moments.estimate(mean_up)
            if se / mttdl <= target_rel_se:
                break
    if moments.x_sum == 0.0:
        raise RuntimeError(
            f"no data-loss cycle sampled in {moments.n} busy periods; "
            "increase max_cycles or strengthen the biasing "
            "(acceleration/trip_bias)"
        )
    mttdl, se = moments.estimate(mean_up)
    return RareEventResult(
        mttdl_hours=mttdl / num_arrays,
        mttdl_std_error=se / num_arrays,
        cycles=moments.n,
        loss_cycles=moments.losses,
        loss_probability=moments.x_sum / moments.n,
        mean_up_hours=mean_up,
        mean_busy_hours=moments.y_sum / moments.n,
        effective_sample_size=moments.effective_sample_size,
        acceleration=acceleration,
        trip_bias=trip_bias,
        num_arrays=num_arrays,
        metadata=({"n": n, "m": m, "p_arr": p_arr}
                  if domains is None else
                  {"n": n, "m": m, "p_arr": p_arr,
                   "domains": domains.describe()}),
    )


def rare_event_code_mttdl(code: StripeCode | CodeReliability,
                          model: SectorFailureModel,
                          params: SystemParameters | None = None,
                          seed: int | np.random.Generator | None = None,
                          num_arrays: int = 1,
                          lifetime: LifetimeModel | None = None,
                          repair: RepairModel | None = None,
                          target_rel_se: float = 0.02,
                          max_cycles: int = 4_000_000,
                          domains: FailureDomains | None = None,
                          ) -> RareEventResult:
    """Rare-event MTTDL of a code under the paper's system parameters.

    The importance-sampled counterpart of
    :func:`repro.sim.montecarlo.simulate_code_mttdl`: ``P_arr`` comes
    from the analysis layer (Eq. 11) applied to the code's coverage, the
    lifetimes default to the paper's exponential model with 1/λ from
    ``params`` -- no accelerated-failure surrogate needed even at the
    true 1/λ = 500,000 h.  Pass ``lifetime`` to override, e.g. with a
    trace-fitted :class:`~repro.sim.traces.EmpiricalLifetime` (the
    CLI's ``--trace --rare-event`` route).

    Usage::

        from repro.codes import parse_code_spec
        from repro.reliability import IndependentSectorModel, \\
            SystemParameters
        from repro.sim import rare_event_code_mttdl

        params = SystemParameters(m=2)
        model = IndependentSectorModel.from_p_bit(1e-10, params.r,
                                                  params.sector_bytes)
        code = parse_code_spec("sd(n=8,r=16,m=2,s=2)")
        result = rare_event_code_mttdl(code, model, params, seed=0)

    ``domains`` threads a correlated failure-domain spec through to
    :func:`estimate_rare_mttdl`; the §7 analytic chain is then only an
    independent-failure reference.
    """
    params = params or SystemParameters()
    reliability = _checked_code_reliability(code, params)
    parr = p_array(reliability, params, model)
    result = estimate_rare_mttdl(
        params.n, parr, m=params.m, seed=seed,
        lifetime=lifetime or ExponentialLifetime(
            params.mean_time_to_failure_hours),
        repair=repair or ExponentialRepair(params.mean_time_to_rebuild_hours),
        num_arrays=num_arrays, target_rel_se=target_rel_se,
        max_cycles=max_cycles, domains=domains)
    result.metadata["code"] = reliability.label()
    return result


def projected_direct_rounds(analytic_mttdl_hours: float, n: int,
                            lifetime_mean_hours: float,
                            trials: int) -> float:
    """Rounds a direct batch run would need for this configuration.

    One round advances every lane one event; the loop runs until the
    *slowest* trial absorbs, i.e. for about ``2·n·λ·max_i T_i`` events
    (a failure and a rebuild per up cycle).  For exponential-ish
    lifetimes the maximum of ``trials`` draws is ~``ln(trials)`` times
    the mean, giving the estimate used by the CLI to decide when direct
    Monte Carlo is hopeless and the rare-event estimator should take
    over.

    Usage::

        projected_direct_rounds(1e12, n=8, lifetime_mean_hours=5e5,
                                trials=1000)   # ~2e8: hopeless
    """
    expected_events = 2.0 * n * analytic_mttdl_hours / lifetime_mean_hours
    return expected_events * (math.log(max(trials, 1)) + 1.0)


def direct_mc_is_tractable(analytic_mttdl_hours: float, n: int,
                           lifetime_mean_hours: float,
                           trials: int) -> bool:
    """Would the direct runner finish inside its ``MAX_ROUNDS`` valve?

    Usage -- the CLI's auto-switchover predicate::

        if not direct_mc_is_tractable(analytic, n, mttf, trials):
            ...  # route to estimate_rare_mttdl instead
    """
    return projected_direct_rounds(analytic_mttdl_hours, n,
                                   lifetime_mean_hours,
                                   trials) <= MAX_ROUNDS
