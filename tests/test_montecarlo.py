"""Simulator contracts: reproducibility, closed-form agreement, errors.

Statistical assertions follow the suite-wide protocol: a 3-sigma band
with one fresh-seed retry, which keeps the false-failure rate per test
below 1e-5 while still catching real formula errors.
"""

import dataclasses
import math

import numpy as np
import pytest

from pmdkit import (
    AttackScenario,
    DetectorConfig,
    DomainError,
    MeanProfile,
    SimConfig,
    TransientModel,
    TransientExceedsWindowError,
    allocation_miss,
    pmd,
    q0,
    simulate_allocation,
    simulate_false_alarm,
    simulate_pmd,
    slot_miss,
)
from pmdkit import montecarlo
from pmdkit.optimize import solve

from conftest import REFERENCE_CONFIGS, make_scenario

SEED = 987654321


def within_three_sigma(runner, target, seed=SEED):
    """Run an estimator, allowing the protocol's single fresh-seed retry."""
    for attempt_seed in (seed, seed + 1):
        est = runner(attempt_seed)
        sigma = max(est.stderr, math.sqrt(target * (1 - target) / est.runs), 1e-300)
        if abs(est.p_hat - target) <= 3 * sigma:
            return est
    raise AssertionError(
        f"estimate {est.p_hat} not within 3 sigma of {target} even after retry"
    )


def agree_within_three_sigma(run_a, run_b, seed=SEED):
    """Two independent estimates of one probability agree (pooled two-sample
    z-test), with the protocol's single fresh-seed retry."""
    for attempt_seed in (seed, seed + 1):
        a, b = run_a(attempt_seed), run_b(attempt_seed + 1000)
        pooled = (a.p_hat * a.runs + b.p_hat * b.runs) / (a.runs + b.runs)
        sigma = max(math.sqrt(pooled * (1 - pooled) * (1 / a.runs + 1 / b.runs)), 1e-300)
        if abs(a.p_hat - b.p_hat) <= 3 * sigma:
            return
    raise AssertionError(f"{a.p_hat} and {b.p_hat} differ by more than 3 sigma even after retry")


def per_sensor_reference(config, block_runs, sensor_means):
    """Runs whose slot sums all stay below h, by the per-sensor draw the sum
    identity replaced. Row j of sensor_means holds the M sensor means of
    slot j. Each block draws every sensor's reading of slot j, from the same
    streams as the sampler, for the runs still below h only, and compares
    the slot's standardized sum with the same cut (h - sum of means) /
    sqrt(M) that the sampler uses."""
    m = sensor_means.shape[1]
    cuts = (config.scenario.detector.h - sensor_means.sum(axis=1)) / math.sqrt(m)
    survivors = 0
    for b in range(-(-config.runs // block_runs)):
        stream = montecarlo._block_stream(config.seed, b)
        left = min(block_runs, config.runs - b * block_runs)
        for cut in cuts:
            x = stream.standard_normal((left, m))
            left = int(np.count_nonzero(x.sum(axis=1) / math.sqrt(m) < cut))
        survivors += left
    return survivors


def reference_slot_means(scenario, theta):
    """Per-sensor mean of each of the K post-change slots: mu(gamma(theta))
    for the floor(L) transient slots, then the full shift mu(0)."""
    slots = scenario.transient_slots(theta)
    transient = scenario.mean.value(scenario.gamma(theta))
    full = scenario.mean.value(0.0)
    return np.array([transient if j < slots else full for j in range(scenario.detector.K)])


def reference_pmd(config):
    """simulate_pmd by the per-sensor draw: every sensor of post-change slot j
    reads around that slot's mean."""
    det = config.scenario.detector
    means = reference_slot_means(config.scenario, config.theta)
    sensor_means = np.repeat(means[:, None], det.M, axis=1)
    misses = per_sensor_reference(config, montecarlo.PMD_BLOCK_RUNS, sensor_means)
    return montecarlo._estimate(misses, config.runs)


# --- reproducibility ----------------------------------------------------------


def test_identical_configs_are_bit_identical(fig1_scenario):
    config = SimConfig(scenario=fig1_scenario, theta=0.7, runs=20_000, seed=SEED)
    first = simulate_pmd(config)
    second = simulate_pmd(config)
    assert first == second


@pytest.mark.parametrize("shards", [2, 3, 7])
def test_shard_count_is_invisible(fig1_scenario, shards):
    base = simulate_pmd(SimConfig(scenario=fig1_scenario, theta=0.7, runs=30_000, seed=SEED))
    sharded = simulate_pmd(
        SimConfig(scenario=fig1_scenario, theta=0.7, runs=30_000, seed=SEED, shards=shards)
    )
    assert base == sharded


def test_shard_invariance_for_slot_experiments(fig1_scenario):
    base = simulate_false_alarm(
        SimConfig(scenario=fig1_scenario, theta=0.0, runs=200_000, seed=SEED)
    )
    sharded = simulate_false_alarm(
        SimConfig(scenario=fig1_scenario, theta=0.0, runs=200_000, seed=SEED, shards=5)
    )
    assert base.p_hat == sharded.p_hat


def test_different_seeds_differ(fig1_scenario):
    a = simulate_pmd(SimConfig(scenario=fig1_scenario, theta=0.7, runs=20_000, seed=1))
    b = simulate_pmd(SimConfig(scenario=fig1_scenario, theta=0.7, runs=20_000, seed=2))
    assert a.p_hat != b.p_hat


def test_single_slot_hit_counts_are_frozen(fig1_scenario):
    # exact counts at SEED from the sampler that compared each slot sum
    # sqrt(M) * z + shift with h; comparing z with the cut (h - shift) / sqrt(M)
    # draws the same variates and must move none of them
    alarms = simulate_false_alarm(
        SimConfig(scenario=fig1_scenario, theta=0.0, runs=200_000, seed=SEED)
    )
    assert alarms.p_hat == 20141 / 200_000
    scenario = make_scenario("reciprocal", M=25)
    misses = simulate_allocation(
        SimConfig(scenario=scenario, theta=1.0, runs=200_000, seed=SEED), np.linspace(0.0, 0.08, 25)
    )
    assert misses.p_hat == 163864 / 200_000


# --- sum identity: agreement with the per-sensor draw -------------------------


@pytest.mark.parametrize("theta", [0.0, 0.7])
@pytest.mark.parametrize(
    "transient",
    [
        TransientModel("exponential", A=1.5, a=15.0),
        TransientModel("reciprocal", A=1.5),
    ],
    ids=lambda transient: transient.family,
)
def test_single_sensor_matches_per_sensor_draw_bit_for_bit(transient, theta):
    # at M = 1 both samplers draw the same variates in the same order, slot by
    # slot for the surviving runs, and compare them with the same cut h - mean_j
    # (M * mean_j and the division by sqrt(M) are exact), so every run lands on
    # the same side; the reference builds its slot means in reference_slot_means
    scenario = dataclasses.replace(make_scenario(M=1), transient=transient)
    config = SimConfig(scenario=scenario, theta=theta, runs=10_000, seed=SEED)
    assert simulate_pmd(config) == reference_pmd(config)


def test_pmd_agrees_with_per_sensor_draw(fig1_scenario):
    def config(s):
        return SimConfig(scenario=fig1_scenario, theta=0.7, runs=50_000, seed=s)

    agree_within_three_sigma(lambda s: simulate_pmd(config(s)), lambda s: reference_pmd(config(s)))


def test_false_alarm_agrees_with_per_sensor_draw(fig1_scenario):
    m = fig1_scenario.detector.M

    def config(s):
        return SimConfig(scenario=fig1_scenario, theta=0.0, runs=200_000, seed=s)

    def reference(s):
        cfg = config(s)
        below = per_sensor_reference(cfg, montecarlo.SLOT_BLOCK_RUNS, np.zeros((1, m)))
        return montecarlo._estimate(cfg.runs - below, cfg.runs)

    agree_within_three_sigma(lambda s: simulate_false_alarm(config(s)), reference)


def test_allocation_agrees_with_per_sensor_draw_for_unequal_split():
    scenario = make_scenario("reciprocal", M=25)
    alloc = np.linspace(0.0, 0.08, 25)  # total 1.0, from 0 up to twice the even share
    sensor_means = np.asarray(scenario.mean.value(alloc), dtype=float)[None, :]

    def config(s):
        return SimConfig(scenario=scenario, theta=1.0, runs=200_000, seed=s)

    agree_within_three_sigma(
        lambda s: simulate_allocation(config(s), alloc),
        lambda s: montecarlo._estimate(
            per_sensor_reference(config(s), montecarlo.SLOT_BLOCK_RUNS, sensor_means),
            config(s).runs,
        ),
    )


# --- agreement with the closed forms ------------------------------------------


def test_no_adversary_matches_q0_power(fig1_scenario):
    target = q0(fig1_scenario) ** 15  # 0.025376... from the mpmath pipeline
    assert target == pytest.approx(0.025376809620588958, rel=1e-10)
    within_three_sigma(
        lambda s: simulate_pmd(
            SimConfig(scenario=fig1_scenario, theta=0.0, runs=100_000, seed=s)
        ),
        target,
    )


def test_vanishing_shift_gives_nominal_window_miss():
    # c -> 0 limit: every slot misses with probability 1 - alpha
    scenario = dataclasses.replace(
        make_scenario("reciprocal"), mean=MeanProfile("rational", c=1e-12, k=10.0)
    )
    within_three_sigma(
        lambda s: simulate_pmd(SimConfig(scenario=scenario, theta=0.0, runs=50_000, seed=s)),
        0.9**15,
    )


def test_single_slot_window_reduces_to_q0():
    # K = 1 needs a transient that fits one slot: a short exponential one
    scenario = AttackScenario(
        mean=MeanProfile("rational", c=0.1, k=10.0),
        transient=TransientModel("exponential", A=1.5, a=1.0),
        detector=DetectorConfig(alpha=0.1, M=25, K=1),
        theta_min=0.1,
        theta_max=1.5,
    )
    within_three_sigma(
        lambda s: simulate_pmd(SimConfig(scenario=scenario, theta=0.0, runs=50_000, seed=s)),
        q0(scenario),
    )


def test_transient_alignment_with_floor(fig1_scenario):
    theta = 0.7
    aligned = int(math.floor(float(fig1_scenario.transient.value(theta))))
    target = pmd(fig1_scenario, theta, transient_slots=aligned).Q
    within_three_sigma(
        lambda s: simulate_pmd(
            SimConfig(scenario=fig1_scenario, theta=theta, runs=100_000, seed=s)
        ),
        target,
    )


@pytest.mark.parametrize(
    "transient, mean", REFERENCE_CONFIGS, ids=["fig1", "fig2", "fig3", "fig4"]
)
def test_worst_case_theta_star_matches_closed_form(transient, mean):
    scenario = make_scenario(transient, mean)
    theta = solve(scenario).theta_star
    aligned = int(math.floor(float(scenario.transient.value(theta))))
    target = pmd(scenario, theta, transient_slots=aligned).Q
    within_three_sigma(
        lambda s: simulate_pmd(SimConfig(scenario=scenario, theta=theta, runs=100_000, seed=s)),
        target,
    )


# --- false alarm calibration ----------------------------------------------------


@pytest.mark.parametrize("m", [1, 25])
def test_false_alarm_rate_matches_alpha(m):
    scenario = make_scenario(M=m)
    within_three_sigma(
        lambda s: simulate_false_alarm(
            SimConfig(scenario=scenario, theta=0.0, runs=400_000, seed=s)
        ),
        0.1,
    )


def test_median_threshold_alarms_half_the_time():
    scenario = make_scenario(alpha=0.5)
    assert scenario.detector.h == pytest.approx(0.0, abs=1e-12)
    within_three_sigma(
        lambda s: simulate_false_alarm(
            SimConfig(scenario=scenario, theta=0.0, runs=400_000, seed=s)
        ),
        0.5,
    )


# --- allocation experiments -----------------------------------------------------


def test_allocation_simulation_matches_analytic():
    scenario = make_scenario("reciprocal", M=2)
    for alloc in ([0.5, 0.5], [1.0, 0.0]):
        target = allocation_miss(scenario, alloc)
        within_three_sigma(
            lambda s, alloc=alloc: simulate_allocation(
                SimConfig(scenario=scenario, theta=1.0, runs=400_000, seed=s), alloc
            ),
            target,
        )


def test_single_sensor_allocation_equals_slot_miss():
    scenario = make_scenario("reciprocal", M=1)
    theta = 0.8
    target = slot_miss(scenario, theta).q_theta
    assert allocation_miss(scenario, [theta]) == pytest.approx(target, rel=1e-15)
    within_three_sigma(
        lambda s: simulate_allocation(
            SimConfig(scenario=scenario, theta=theta, runs=400_000, seed=s), [theta]
        ),
        target,
    )


# --- estimates and errors --------------------------------------------------------


def test_estimate_fields_are_consistent(fig1_scenario):
    est = simulate_pmd(SimConfig(scenario=fig1_scenario, theta=0.7, runs=10_000, seed=SEED))
    assert 0.0 <= est.p_hat <= 1.0
    assert est.stderr == pytest.approx(
        math.sqrt(est.p_hat * (1 - est.p_hat) / est.runs), rel=1e-12
    )
    # Wilson score interval: (p + z^2/2n) / (1 + z^2/n) +/- z / (1 + z^2/n)
    # * sqrt(p(1 - p)/n + z^2/4n^2)
    n, p, z = est.runs, est.p_hat, 1.96
    center = (p + z**2 / (2 * n)) / (1 + z**2 / n)
    half = z / (1 + z**2 / n) * math.sqrt(p * (1 - p) / n + z**2 / (4 * n**2))
    assert est.ci95[0] == pytest.approx(center - half, rel=1e-12)
    assert est.ci95[1] == pytest.approx(center + half, rel=1e-12)
    assert est.runs == 10_000


@pytest.mark.parametrize("h, p_hat", [(-1e3, 0.0), (1e3, 1.0)])
def test_interval_keeps_width_when_every_run_agrees(h, p_hat):
    # h far below every slot sum alarms in every run (no miss); far above, never
    scenario = make_scenario(h_override=h)
    est = simulate_pmd(SimConfig(scenario=scenario, theta=0.7, runs=1000, seed=SEED))
    assert (est.p_hat, est.stderr) == (p_hat, 0.0)
    low, high = est.ci95
    assert 0.0 <= low <= p_hat <= high <= 1.0
    assert high - low == pytest.approx(1.96**2 / (1000 + 1.96**2), rel=1e-12)


def test_transient_longer_than_window_rejected(fig3_scenario):
    with pytest.raises(TransientExceedsWindowError):
        simulate_pmd(SimConfig(scenario=fig3_scenario, theta=0.05, runs=100, seed=SEED))


def test_config_validation(fig1_scenario):
    with pytest.raises(DomainError):
        SimConfig(scenario=fig1_scenario, theta=0.7, runs=0, seed=SEED)
    with pytest.raises(DomainError):
        SimConfig(scenario=fig1_scenario, theta=0.7, runs=10, seed=SEED, shards=0)
    with pytest.raises(DomainError):
        SimConfig(scenario=fig1_scenario, theta=-1.0, runs=10, seed=SEED)
    with pytest.raises(DomainError):
        SimConfig(scenario=fig1_scenario, theta=100.0, runs=10, seed=SEED)  # theta_max = 1.5


def test_allocation_validation(fig1_scenario):
    config = SimConfig(scenario=fig1_scenario, theta=0.7, runs=10, seed=SEED)
    with pytest.raises(DomainError):
        simulate_allocation(config, [0.1] * 24)
    with pytest.raises(DomainError):
        simulate_allocation(config, [-1.0] + [0.1] * 24)
    with pytest.raises(DomainError):
        simulate_allocation(config, np.full((2, 25), 0.1))


def test_seed_is_masked_to_64_bits(fig1_scenario):
    wide = SimConfig(scenario=fig1_scenario, theta=0.7, runs=1000, seed=(1 << 70) + 5)
    narrow = SimConfig(scenario=fig1_scenario, theta=0.7, runs=1000, seed=5)
    assert simulate_pmd(wide).p_hat == simulate_pmd(narrow).p_hat
