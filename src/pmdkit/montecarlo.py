"""Empirical oracle: simulate the sensor network and the stopping rule.

The detector only sees each slot's sum of M unit-variance sensor readings,
and the sum of M independent N(mu_i, 1) is exactly N(sum mu_i, M). So a
slot costs one standard normal z: its sum sqrt(M) * z + sum mu_i stays
below h exactly when z < cut = (h - sum mu_i) / sqrt(M), and a K-slot run
costs at most K normals, not K * M. The oracle compares Gaussian variates
with the cut: it never evaluates the closed forms it checks.
simulate_allocation takes one length-M allocation, not the (n, M) stack
that analytics.allocation_miss accepts.

Where the changepoint nu falls cannot change a result, so it is not a
parameter. The Shewhart rule has no memory: each slot alarms on that
slot's sum alone, and pre-change slots are independent of post-change
ones. The miss event over the K slots after the changepoint therefore
depends only on those K slot sums, whose law does not involve nu.

Reproducibility contract
------------------------
Runs are processed in fixed-size blocks. Block b of a simulation seeded
with s draws from ``Philox(key = (s << 64) | b)``, a counter-based
generator, and normal variates come from numpy's ``standard_normal``
(ziggurat transform of that stream). They are drawn slot by slot, only
for the block's runs whose z stayed below every earlier slot's cut: those
runs are exchangeable, so their count alone goes on to the next slot.
Each block therefore depends only on (seed, block index, block size), and
block sizes are compile-time constants, so estimates are bit-identical
across reruns and across any shard count: shards merely group whole
blocks, and the reduction is an integer sum. Sharded execution uses
threads (numpy releases the GIL while filling arrays); the result never
depends on completion order. simulate_pmd estimates for a given seed
differ from releases before 0.5.0, which drew all K slots of every run;
the output format is unchanged.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analytics import _check_theta
from .errors import DomainError, NumericalError
from .model import AttackScenario, _require_whole

PMD_BLOCK_RUNS = 4096        # runs per block when a run spans K slots
SLOT_BLOCK_RUNS = 65536      # runs per block for single-slot experiments
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SimConfig:
    """One simulation request; equal configs give bit-identical results.
    theta lies in [0, theta_max], as for analytics.slot_miss; theta = 0 is
    the no-attack baseline."""

    scenario: AttackScenario
    theta: float
    runs: int
    seed: int
    shards: int = 1

    def __post_init__(self):
        object.__setattr__(self, "runs", _require_whole(self.runs, "runs"))
        object.__setattr__(self, "shards", _require_whole(self.shards, "shards"))
        object.__setattr__(self, "seed", _require_whole(self.seed, "seed", lo=None) & _MASK64)
        _check_theta(self.theta, 0.0, self.scenario.theta_max)


@dataclass(frozen=True)
class SimEstimate:
    """Binomial point estimate, its standard error and Wilson 95% interval."""

    p_hat: float
    stderr: float
    ci95: tuple[float, float]
    runs: int


def _estimate(successes: int, runs: int) -> SimEstimate:
    p = successes / runs
    stderr = math.sqrt(p * (1.0 - p) / runs)
    # Wilson (1927) score interval: unlike p +/- 1.96 * stderr it keeps a
    # non-zero width inside [0, 1] when p is 0 or 1
    z2n = 1.96 * 1.96 / runs
    center = (p + 0.5 * z2n) / (1.0 + z2n)
    half = 1.96 / (1.0 + z2n) * math.sqrt(stderr * stderr + 0.25 * z2n / runs)
    ci95 = (max(0.0, center - half), min(1.0, center + half))
    return SimEstimate(p_hat=p, stderr=stderr, ci95=ci95, runs=runs)


def _block_stream(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(seed << 64) | (block & _MASK64)))


@np.errstate(over="ignore")
def _survivors(config: SimConfig, block_runs: int, sum_means) -> int:
    """Runs whose slot sums N(sum_means[j], M) all stay below h: z_j < cut_j
    for one standard normal per slot, drawn only while the run survives."""
    det = config.scenario.detector
    cuts = (det.h - np.atleast_1d(sum_means)) / math.sqrt(det.M)
    if not np.isfinite(cuts).all():
        raise NumericalError("slot cut (h - M * mean) / sqrt(M) is not finite: the shift overflows")
    runs, shards = config.runs, config.shards
    n_blocks = (runs + block_runs - 1) // block_runs

    def shard_total(shard: int) -> int:
        total = 0
        for b in range(shard, n_blocks, shards):
            rng = _block_stream(config.seed, b)
            left = min(block_runs, runs - b * block_runs)
            for cut in cuts:
                left = int(np.count_nonzero(rng.standard_normal(left) < cut))
                if not left:
                    break
            total += left
        return total

    if shards == 1:
        return shard_total(0)
    with ThreadPoolExecutor(max_workers=shards) as pool:
        return sum(pool.map(shard_total, range(shards)))


@np.errstate(over="ignore")  # an overflowing M * mean_j is refused as a cut
def simulate_pmd(config: SimConfig) -> SimEstimate:
    """Fraction of runs with no alarm in the K slots after the changepoint.

    Sensor readings in post-change slot j are N(mean_j, 1) around the
    timeline mean (the transient truncated to whole slots). A run counts a
    miss when every slot sum y_j = sqrt(M) * z_j + M * mean_j stays below
    h, and stops drawing at its first alarm. Pre-change slots are
    independent of post-change ones and are not simulated.
    """
    scenario = config.scenario
    det = scenario.detector
    # mu(0) = c for every mean family, and slots past the transient revert to it
    means = np.full(det.K, scenario.mean.c, dtype=float)
    slots = scenario.transient_slots(config.theta)
    means[:slots] = scenario.mean.value(scenario.gamma(config.theta))
    return _estimate(_survivors(config, PMD_BLOCK_RUNS, det.M * means), config.runs)


def simulate_false_alarm(config: SimConfig) -> SimEstimate:
    """Fraction of nominal slots whose summed statistic reaches h.

    Calibration check: with the derived threshold this should match the
    configured per-slot false-alarm probability alpha.
    """
    return _estimate(config.runs - _survivors(config, SLOT_BLOCK_RUNS, 0.0), config.runs)


def simulate_allocation(config: SimConfig, allocations) -> SimEstimate:
    """Single-slot miss frequency when sensor i is suppressed with
    allocations[i] resources (empirical counterpart of allocation_miss)."""
    shift = config.scenario.allocation_shift(allocations)
    if np.ndim(shift) != 0:
        raise DomainError("simulate_allocation takes one allocation vector, not a stack")
    return _estimate(_survivors(config, SLOT_BLOCK_RUNS, shift), config.runs)
