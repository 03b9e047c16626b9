"""Rare-event estimator: unbiasedness against the Markov chains, the
paper-regime configurations direct Monte Carlo cannot reach, biasing
schedule and weight diagnostics.

The acceptance property: at the paper's true 1/λ = 500,000 h -- where
the direct batch runner dies in its ``MAX_ROUNDS`` safety valve -- the
importance-sampled MTTDL agrees with the general birth-death chain of
:func:`repro.reliability.markov.mttdl_arr_m_parity` within 3σ.
"""

import math

import numpy as np
import pytest

from repro.codes.sd import SDCode
from repro.reliability.markov import (
    mttdl_arr_closed_form,
    mttdl_arr_m_parity,
)
from repro.reliability.mttdl import (
    CodeReliability,
    SystemParameters,
    mttdl_array_general,
    p_array,
)
from repro.reliability.sector_models import IndependentSectorModel
from repro.sim.lifetimes import (
    DeterministicRepair,
    ExponentialLifetime,
    ExponentialRepair,
    WeibullLifetime,
)
from repro.sim.montecarlo import simulate_array_lifetimes
from repro.sim.rare import (
    RareEventResult,
    balanced_acceleration,
    direct_mc_is_tractable,
    estimate_rare_mttdl,
    projected_direct_rounds,
    rare_event_code_mttdl,
)
from repro.sim.traces import EmpiricalLifetime, generate_trace


# --------------------------------------------------------------------------- #
# Agreement with direct Monte Carlo and the Markov chains
# --------------------------------------------------------------------------- #
def test_matches_direct_mc_on_fast_converging_config():
    """On a configuration direct MC handles comfortably, both estimators
    must bracket the same Markov value -- and each other."""
    n, m, parr, mttf, repair_mean = 8, 2, 0.05, 50_000.0, 100.0
    analytic = mttdl_arr_m_parity(n, 1.0 / mttf, 1.0 / repair_mean, parr, m)
    direct = simulate_array_lifetimes(
        n, p_arr=parr, trials=800, seed=21, m=m,
        lifetime=ExponentialLifetime(mttf),
        repair=ExponentialRepair(repair_mean))
    rare = estimate_rare_mttdl(n, parr, m=m, seed=21,
                               lifetime=ExponentialLifetime(mttf),
                               repair=ExponentialRepair(repair_mean))
    assert direct.agrees_with(analytic, z=3.0)
    assert rare.agrees_with(analytic, z=3.0)
    combined = math.hypot(direct.mttdl_std_error, rare.mttdl_std_error)
    assert abs(direct.mttdl_hours - rare.mttdl_hours) <= 3.0 * combined


def test_paper_regime_m2_agrees_where_direct_mc_raises(monkeypatch):
    """The headline fix: SD(m=2) at the true 1/λ = 500,000 h.  Direct
    simulation trips the MAX_ROUNDS valve (shrunk here so the test does
    not crawl through 1e7 real rounds first); the rare-event estimator
    completes and agrees with the general chain within 3σ."""
    params = SystemParameters(m=2)
    model = IndependentSectorModel.from_p_bit(1e-10, params.r,
                                              params.sector_bytes)
    code = SDCode(n=8, r=16, m=2, s=2)
    parr = p_array(CodeReliability.sd(2), params, model)

    import repro.sim.montecarlo as mc
    monkeypatch.setattr(mc, "MAX_ROUNDS", 2_000)
    with pytest.raises(RuntimeError, match="rare-event"):
        simulate_array_lifetimes(8, p_arr=parr, trials=50, seed=0, m=2)

    analytic = mttdl_array_general(CodeReliability.sd(2), params, model)
    result = rare_event_code_mttdl(code, model, params, seed=30)
    assert result.mttdl_hours > 1e11  # the ~1e12 h regime, reached
    assert result.agrees_with(analytic, z=3.0), (
        f"rare-event {result.mttdl_hours:.4g}h, CI "
        f"{result.mttdl_confidence(3.0)}, analytic {analytic:.4g}h")
    assert result.relative_std_error <= 0.02
    assert result.metadata["code"] == "SD s=2"


def test_paper_regime_m3_agrees_with_general_chain():
    """The estimator is general in m, not special-cased to 2."""
    lam, mu = 1.0 / 500_000.0, 1.0 / 17.8
    analytic = mttdl_arr_m_parity(8, lam, mu, 1e-6, m=3)
    result = estimate_rare_mttdl(8, 1e-6, m=3, seed=31)
    assert result.agrees_with(analytic, z=3.0)


def test_m1_closed_form_agreement():
    """At m = 1 the reference degenerates to the paper's Eq. 10."""
    analytic = mttdl_arr_closed_form(8, 1.0 / 500_000.0, 1.0 / 17.8, 1e-4)
    result = estimate_rare_mttdl(8, 1e-4, seed=32)
    assert result.agrees_with(analytic, z=3.0)


def test_pure_failure_route_with_p_arr_zero():
    """p_arr = 0 disables the sector-trip route entirely; loss happens
    only through the (m+1)-th concurrent failure."""
    lam, mu = 1.0 / 100_000.0, 1.0 / 20.0
    analytic = mttdl_arr_closed_form(6, lam, mu, 0.0)
    result = estimate_rare_mttdl(6, 0.0, seed=33,
                                 lifetime=ExponentialLifetime(100_000.0),
                                 repair=ExponentialRepair(20.0))
    assert result.trip_bias == 0.0
    assert result.agrees_with(analytic, z=3.0)


def test_trip_dominated_route_is_sampled():
    """When P_arr is far below the trip-bias floor, loss paths through
    the sector trip only exist because the Bernoulli is oversampled --
    the estimate must still match the chain."""
    lam, mu = 1.0 / 500_000.0, 1.0 / 17.8
    parr = 1e-3  # trip route dominates the (n-1)λ race at m = 1
    analytic = mttdl_arr_m_parity(8, lam, mu, parr, m=1)
    result = estimate_rare_mttdl(8, parr, seed=34)
    assert result.trip_bias == pytest.approx(0.05)
    assert result.agrees_with(analytic, z=3.0)


def test_deterministic_repair_beyond_the_markov_chain():
    """Non-exponential rebuilds are fine for the estimator (regeneration
    only needs memoryless *lifetimes*).  With deterministic rebuilds the
    M/D race differs from the M/M chain -- just sanity-check the result
    is finite, positive and internally consistent."""
    result = estimate_rare_mttdl(8, 1e-3, m=2, seed=35,
                                 lifetime=ExponentialLifetime(50_000.0),
                                 repair=DeterministicRepair(100.0))
    lo, hi = result.mttdl_confidence(z=3.0)
    assert 0.0 <= lo < result.mttdl_hours < hi < math.inf
    assert result.loss_cycles > 0


def test_cluster_mttdl_scales_inversely_with_array_count():
    one = estimate_rare_mttdl(8, 1e-4, seed=36)
    ten = estimate_rare_mttdl(8, 1e-4, seed=36, num_arrays=10)
    assert one.mttdl_hours / ten.mttdl_hours == pytest.approx(10.0)
    assert ten.num_arrays == 10


# --------------------------------------------------------------------------- #
# Determinism, stopping rule and diagnostics
# --------------------------------------------------------------------------- #
def test_seeded_runs_are_deterministic():
    a = estimate_rare_mttdl(8, 1e-6, m=2, seed=42)
    b = estimate_rare_mttdl(8, 1e-6, m=2, seed=42)
    assert a.mttdl_hours == b.mttdl_hours
    assert a.cycles == b.cycles
    c = estimate_rare_mttdl(8, 1e-6, m=2, seed=43)
    assert a.mttdl_hours != c.mttdl_hours


#: Fixed-seed results on the independent path, pinned so refactors of
#: the busy-cycle machine can prove they draw the same random stream:
#: (name, estimate_rare_mttdl kwargs, cycles, loss_cycles, mttdl_hours,
#: effective_sample_size).  ``lifetime="trace-fit"`` stands for an
#: EmpiricalLifetime fitted on a seeded exponential trace.
PINNED_INDEPENDENT_RUNS = [
    ("m1", dict(n=8, p_arr=1e-4, m=1, seed=101),
     100000, 52759, 172315773.3028068, 18818.10471183486),
    ("m2", dict(n=8, p_arr=1e-6, m=2, seed=102),
     50000, 16636, 1158777743626.7847, 6661.819892763822),
    ("m3", dict(n=8, p_arr=1e-6, m=3, seed=103, target_rel_se=0.05),
     50000, 10812, 6656629154910873.0, 8546.215364951859),
    ("p_arr_zero", dict(n=6, p_arr=0.0, m=1, seed=104,
                        lifetime=ExponentialLifetime(100_000.0),
                        repair=ExponentialRepair(20.0)),
     50000, 25126, 16709362.305408465, 6226.15068635199),
    ("deterministic_repair", dict(n=8, p_arr=1e-3, m=2, seed=105,
                                  lifetime=ExponentialLifetime(50_000.0),
                                  repair=DeterministicRepair(100.0)),
     50000, 20580, 64121554.83079197, 18881.32148389491),
    ("explicit_biasing", dict(n=8, p_arr=0.05, m=2, seed=106,
                              lifetime=ExponentialLifetime(50_000.0),
                              repair=ExponentialRepair(100.0),
                              acceleration=3.0, trip_bias=0.3),
     200000, 2731, 7290219.306311375, 195944.12333473173),
    ("empirical", dict(n=8, p_arr=1e-6, m=2, seed=107, lifetime="trace-fit",
                       repair=ExponentialRepair(17.8), target_rel_se=0.05),
     50000, 16370, 1150129195317.0225, 8522.373126902297),
]


@pytest.mark.parametrize(
    "kwargs, cycles, loss_cycles, mttdl, ess",
    [row[1:] for row in PINNED_INDEPENDENT_RUNS],
    ids=[row[0] for row in PINNED_INDEPENDENT_RUNS])
def test_pinned_independent_runs(kwargs, cycles, loss_cycles, mttdl, ess):
    """Same seed, same numbers: the independent-path random stream is
    part of the estimator's contract (sweep caches and golden tables
    rely on it)."""
    if kwargs.get("lifetime") == "trace-fit":
        trace = generate_trace(ExponentialLifetime(5e5), 30_000,
                               observation_hours=2.5e6, seed=2)
        kwargs = dict(kwargs, lifetime=EmpiricalLifetime.fit(trace))
    result = estimate_rare_mttdl(**kwargs)
    assert result.cycles == cycles
    assert result.loss_cycles == loss_cycles
    assert result.mttdl_hours == pytest.approx(mttdl, rel=1e-9)
    assert result.effective_sample_size == pytest.approx(ess, rel=1e-9)


def test_variance_controlled_stopping():
    """A looser target stops after fewer cycles; both runs honour their
    requested precision."""
    tight = estimate_rare_mttdl(8, 1e-6, m=2, seed=44, target_rel_se=0.01,
                                batch_cycles=10_000)
    loose = estimate_rare_mttdl(8, 1e-6, m=2, seed=44, target_rel_se=0.10,
                                batch_cycles=10_000)
    assert loose.cycles < tight.cycles
    assert tight.relative_std_error <= 0.01
    assert loose.relative_std_error <= 0.10


def test_ess_and_loss_diagnostics_are_sane():
    result = estimate_rare_mttdl(8, 4.4e-9, m=2, seed=45)
    assert 0.0 < result.effective_sample_size <= result.cycles
    # Balanced biasing keeps the weights healthy: the ESS stays a
    # double-digit fraction of the cycle count even at P_arr ~ 1e-9.
    assert result.effective_sample_size >= 0.05 * result.cycles
    assert 0 < result.loss_cycles <= result.cycles
    assert 0.0 < result.loss_probability < 1.0
    assert result.mean_up_hours == pytest.approx(500_000.0 / 8)
    assert result.mean_busy_hours < result.mean_up_hours
    summary = result.summary()
    assert summary["m"] == 2 and summary["cycles"] == result.cycles


def test_confidence_interval_clamped_at_zero():
    result = RareEventResult(
        mttdl_hours=10.0, mttdl_std_error=20.0, cycles=10, loss_cycles=2,
        loss_probability=0.2, mean_up_hours=5.0, mean_busy_hours=1.0,
        effective_sample_size=8.0, acceleration=1.0, trip_bias=0.0)
    lo, hi = result.mttdl_confidence(z=3.0)
    assert lo == 0.0 and hi == 70.0
    assert result.agrees_with(0.0, z=3.0)


def test_balanced_acceleration_schedule():
    # paper parameters: θ = μ / ((n-1)λ) = 500000 / (7 * 17.8)
    assert balanced_acceleration(8, 500_000.0, 17.8) == pytest.approx(
        500_000.0 / (7 * 17.8))
    # already-balanced (or failure-dominated) races never decelerate
    assert balanced_acceleration(8, 100.0, 100.0) == 1.0


def test_explicit_biasing_overrides_stay_unbiased():
    lam, mu = 1.0 / 50_000.0, 1.0 / 100.0
    analytic = mttdl_arr_m_parity(8, lam, mu, 0.05, m=2)
    result = estimate_rare_mttdl(8, 0.05, m=2, seed=46,
                                 lifetime=ExponentialLifetime(50_000.0),
                                 repair=ExponentialRepair(100.0),
                                 acceleration=3.0, trip_bias=0.3)
    assert result.acceleration == 3.0 and result.trip_bias == 0.3
    assert result.agrees_with(analytic, z=3.0)


def test_tractability_heuristic():
    """The CLI's auto-selection: the paper's m = 2 point is hopeless for
    direct MC, the m = 1 point is comfortably tractable."""
    assert not direct_mc_is_tractable(1.17e12, 8, 500_000.0, trials=1000)
    assert direct_mc_is_tractable(1.79e8, 8, 500_000.0, trials=1000)
    assert projected_direct_rounds(1.17e12, 8, 500_000.0, 1000) > 1e8


# --------------------------------------------------------------------------- #
# Input validation
# --------------------------------------------------------------------------- #
def test_input_validation():
    with pytest.raises(ValueError):
        estimate_rare_mttdl(8, 0.1, m=0)
    with pytest.raises(ValueError):
        estimate_rare_mttdl(8, 0.1, m=8)
    with pytest.raises(ValueError):
        estimate_rare_mttdl(8, 1.5)
    with pytest.raises(ValueError):
        estimate_rare_mttdl(8, 0.1, num_arrays=0)
    with pytest.raises(ValueError):
        estimate_rare_mttdl(8, 0.1, target_rel_se=0.0)
    with pytest.raises(ValueError):
        estimate_rare_mttdl(8, 0.1, acceleration=-1.0)
    with pytest.raises(ValueError):
        estimate_rare_mttdl(8, 0.1, trip_bias=1.5)
    with pytest.raises(ValueError):
        # a zero trip proposal would never sample the trip route
        estimate_rare_mttdl(8, 0.1, trip_bias=0.0)
    with pytest.raises(ValueError, match="trip_bias = 1"):
        # a certain trip makes target-positive no-trip paths unreachable
        # under the proposal (no absolute continuity): silently biased
        estimate_rare_mttdl(8, 0.1, trip_bias=1.0)


def test_boundary_trip_schedules_stay_valid():
    """Boundary biasing schedules the validation permits must run, not
    crash: p_arr = 0 with an (oversampling, weight-0) trip proposal, and
    p_arr = 1 where the trip needs no bias at all."""
    lam, mu = 1.0 / 100_000.0, 1.0 / 20.0
    analytic = mttdl_arr_closed_form(6, lam, mu, 0.0)
    wasteful = estimate_rare_mttdl(6, 0.0, seed=47, trip_bias=0.3,
                                   lifetime=ExponentialLifetime(100_000.0),
                                   repair=ExponentialRepair(20.0))
    assert wasteful.agrees_with(analytic, z=3.0)
    certain = mttdl_arr_closed_form(8, 1 / 500_000.0, 1 / 17.8, 1.0)
    result = estimate_rare_mttdl(8, 1.0, seed=48)
    assert result.trip_bias == 1.0
    assert result.agrees_with(certain, z=3.0)


def test_rejects_non_exponential_lifetimes():
    with pytest.raises(TypeError, match="exponential"):
        estimate_rare_mttdl(8, 0.1, lifetime=WeibullLifetime(1000.0, 2.0))


def test_code_bridge_rejects_mismatches():
    model = IndependentSectorModel.from_p_bit(1e-12, 16, 512)
    with pytest.raises(ValueError, match="m = 2.*m = 1"):
        rare_event_code_mttdl(SDCode(n=8, r=16, m=2, s=2), model,
                              SystemParameters())
    with pytest.raises(ValueError, match="geometry"):
        rare_event_code_mttdl(SDCode(n=8, r=8, m=2, s=2), model,
                              SystemParameters(m=2))


# --------------------------------------------------------------------------- #
# Correlated failure domains in the regeneration-cycle estimator
# --------------------------------------------------------------------------- #
from repro.sim.domains import FailureDomains  # noqa: E402

PAPER_LIFE_H = 500_000.0
PAPER_REPAIR_H = 17.8


def test_inert_domains_agree_with_independent_estimator():
    """A spec with zero shock rates and no batch wear is a statistical
    no-op: it takes the independent busy-cycle path, so it reproduces
    the independent analytic MTTDL at the paper's parameters and, seed
    for seed, the ``domains=None`` run itself."""
    kwargs = dict(lifetime=ExponentialLifetime(PAPER_LIFE_H),
                  repair=ExponentialRepair(PAPER_REPAIR_H))
    result = estimate_rare_mttdl(
        8, 4.366e-9, m=2, seed=0,
        domains=FailureDomains(racks=4), **kwargs)
    anchor = mttdl_arr_m_parity(8, 1.0 / PAPER_LIFE_H,
                                1.0 / PAPER_REPAIR_H, 4.366e-9, 2)
    assert result.agrees_with(anchor, z=3.0), (
        result.mttdl_confidence(3.0), anchor)
    assert result.metadata["domains"].startswith("4 racks")
    plain = estimate_rare_mttdl(8, 4.366e-9, m=2, seed=0, **kwargs)
    assert result.mttdl_hours == plain.mttdl_hours
    assert result.cycles == plain.cycles
    assert result.loss_cycles == plain.loss_cycles


def test_single_device_shock_groups_match_chain_at_effective_rate():
    """Spread placement with racks = n at the paper's true 1/λ: each
    shock kills one device, so the chain at λ + s stays an exact anchor
    -- in a regime direct simulation cannot reach at all."""
    s = 2e-6
    result = estimate_rare_mttdl(
        8, 4.366e-9, m=2, seed=1,
        lifetime=ExponentialLifetime(PAPER_LIFE_H),
        repair=ExponentialRepair(PAPER_REPAIR_H),
        domains=FailureDomains(racks=8, rack_shock_rate_per_hour=s),
        target_rel_se=0.05, max_cycles=1_500_000)
    anchor = mttdl_arr_m_parity(8, 1.0 / PAPER_LIFE_H + s,
                                1.0 / PAPER_REPAIR_H, 4.366e-9, 2)
    assert result.agrees_with(anchor, z=3.0), (
        result.mttdl_confidence(3.0), anchor)
    assert result.mttdl_hours > 1e10    # still a rare-event regime
    # And the shocks cost a measurable amount of reliability.
    independent = mttdl_arr_m_parity(8, 1.0 / PAPER_LIFE_H,
                                     1.0 / PAPER_REPAIR_H, 4.366e-9, 2)
    assert result.mttdl_confidence(z=3.0)[1] < independent


def test_shock_dominant_kill_all_rack_matches_interarrival():
    """All devices in one rack, shocks far more frequent than intrinsic
    failures: the MTTDL is the shock interarrival time 1/s."""
    s = 1e-5
    result = estimate_rare_mttdl(
        8, 0.0, m=2, seed=2,
        lifetime=ExponentialLifetime(PAPER_LIFE_H),
        repair=ExponentialRepair(PAPER_REPAIR_H),
        domains=FailureDomains(racks=1, rack_shock_rate_per_hour=s,
                               placement="contiguous"))
    assert result.agrees_with(1.0 / s, z=3.0), (
        result.mttdl_confidence(3.0), 1.0 / s)
    assert result.loss_cycles > 0


def test_multi_kill_shocks_agree_with_direct_mc():
    """Shocks killing pairs (racks = 4, kill probability 0.7) at m = 2:
    no closed form exists, so the anchor is direct Monte Carlo on the
    identical spec in a tractable regime."""
    domains = FailureDomains(racks=4, rack_shock_rate_per_hour=5e-5,
                             rack_kill_probability=0.7)
    life = ExponentialLifetime(20_000.0)
    rep = ExponentialRepair(200.0)
    rare = estimate_rare_mttdl(8, 0.0, m=2, seed=5, lifetime=life,
                               repair=rep, domains=domains)
    direct = simulate_array_lifetimes(8, 0.0, 4000, seed=6, m=2,
                                      lifetime=life, repair=rep,
                                      domains=domains)
    gap = abs(rare.mttdl_hours - direct.mttdl_hours)
    assert gap <= 3.0 * math.hypot(rare.mttdl_std_error,
                                   direct.mttdl_std_error), (
        rare.mttdl_hours, direct.mttdl_hours)


def test_batch_wear_agrees_with_direct_mc():
    """Per-device rates (half the fleet at 3x λ) against direct Monte
    Carlo on the identical spec."""
    domains = FailureDomains(batch_fraction=0.5, batch_accel=3.0)
    life = ExponentialLifetime(20_000.0)
    rep = ExponentialRepair(17.8)
    rare = estimate_rare_mttdl(8, 0.0, m=1, seed=3, lifetime=life,
                               repair=rep, domains=domains)
    direct = simulate_array_lifetimes(8, 0.0, 4000, seed=4, m=1,
                                      lifetime=life, repair=rep,
                                      domains=domains)
    gap = abs(rare.mttdl_hours - direct.mttdl_hours)
    assert gap <= 3.0 * math.hypot(rare.mttdl_std_error,
                                   direct.mttdl_std_error), (
        rare.mttdl_hours, direct.mttdl_hours)
    # The worn fleet must be measurably worse than a pristine one.
    pristine = estimate_rare_mttdl(8, 0.0, m=1, seed=3, lifetime=life,
                                   repair=rep)
    assert rare.mttdl_hours < pristine.mttdl_hours


def test_shock_initiated_cycles_are_oversampled_but_reweighted():
    """With shocks orders of magnitude rarer than device failures, the
    initial-event biasing must still sample shock-initiated cycles (the
    catastrophic route) while keeping the estimate anchored."""
    s = 1e-8   # one rack shock per ~11,000 years -- yet it dominates loss
    result = estimate_rare_mttdl(
        8, 0.0, m=2, seed=7,
        lifetime=ExponentialLifetime(PAPER_LIFE_H),
        repair=ExponentialRepair(PAPER_REPAIR_H),
        domains=FailureDomains(racks=1, rack_shock_rate_per_hour=s,
                               placement="contiguous"),
        target_rel_se=0.05)
    # Kill-all shocks dominate: the true MTTDL is essentially 1/s,
    # about 100x below the shock-free m = 2 value.
    assert result.agrees_with(1.0 / s, z=3.0), (
        result.mttdl_confidence(3.0), 1.0 / s)


def test_domains_ess_stays_healthy():
    result = estimate_rare_mttdl(
        8, 4.366e-9, m=2, seed=8,
        lifetime=ExponentialLifetime(PAPER_LIFE_H),
        repair=ExponentialRepair(PAPER_REPAIR_H),
        domains=FailureDomains(racks=8, rack_shock_rate_per_hour=1e-6),
        target_rel_se=0.05, max_cycles=1_000_000)
    assert 0 < result.effective_sample_size <= result.cycles
    assert result.effective_sample_size > 0.01 * result.cycles


def test_domains_seeded_runs_are_deterministic():
    kwargs = dict(
        lifetime=ExponentialLifetime(PAPER_LIFE_H),
        repair=ExponentialRepair(PAPER_REPAIR_H),
        domains=FailureDomains(racks=4, rack_shock_rate_per_hour=1e-6),
        target_rel_se=0.05, max_cycles=200_000)
    first = estimate_rare_mttdl(8, 1e-8, m=2, seed=11, **kwargs)
    second = estimate_rare_mttdl(8, 1e-8, m=2, seed=11, **kwargs)
    assert first.mttdl_hours == second.mttdl_hours
    assert first.loss_cycles == second.loss_cycles


def test_domains_still_require_exponential_lifetimes():
    with pytest.raises(TypeError, match="exponential"):
        estimate_rare_mttdl(
            8, 0.0, m=1, lifetime=WeibullLifetime(1000.0, 2.0),
            domains=FailureDomains(racks=2,
                                   rack_shock_rate_per_hour=1e-5))


def test_rare_event_code_mttdl_threads_domains():
    params = SystemParameters(m=2)
    model = IndependentSectorModel.from_p_bit(1e-10, params.r,
                                              params.sector_bytes)
    code = SDCode(n=8, r=16, m=2, s=2)
    s = 2e-6
    shocked = rare_event_code_mttdl(
        code, model, params, seed=0,
        domains=FailureDomains(racks=8, rack_shock_rate_per_hour=s),
        target_rel_se=0.05, max_cycles=1_500_000)
    parr = p_array(CodeReliability.sd(2), params, model)
    anchor = mttdl_arr_m_parity(8, 1.0 / PAPER_LIFE_H + s,
                                1.0 / PAPER_REPAIR_H, parr, 2)
    assert shocked.agrees_with(anchor, z=3.0), (
        shocked.mttdl_confidence(3.0), anchor)
    assert "domains" in shocked.metadata
