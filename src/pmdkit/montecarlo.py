"""Empirical oracle: simulate the sensor network and the stopping rule.

The detector only sees each slot's sum of M unit-variance sensor readings,
and the sum of M independent N(mu_i, 1) is exactly N(sum mu_i, M). So a
slot costs one standard normal z, scaled to sqrt(M) * z + sum mu_i, and a
K-slot run K normals, not K * M. Slot sums stay Gaussian variates compared
with h: the oracle never evaluates the closed forms it checks.
simulate_allocation takes one length-M allocation, not the (n, M) stack
that analytics.allocation_miss accepts.

Reproducibility contract
------------------------
Runs are processed in fixed-size blocks. Block b of a simulation seeded
with s draws from ``Philox(key = (s << 64) | b)``, a counter-based
generator, and normal variates come from numpy's ``standard_normal``
(ziggurat transform of that stream), one per slot and run. Each block
therefore depends only on (seed, block index, block size), and block
sizes are compile-time constants, so estimates are bit-identical across
reruns and across any shard count: shards merely group whole blocks, and
the reduction is an integer sum. Sharded execution uses threads (numpy
releases the GIL while filling arrays); the result never depends on
completion order. Because each slot takes one variate, not M, estimates
for a given seed differ from earlier releases, which drew every sensor;
the output format is unchanged.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .model import AttackScenario

PMD_BLOCK_RUNS = 4096        # runs per block when a run spans K slots
SLOT_BLOCK_RUNS = 65536      # runs per block for single-slot experiments
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SimConfig:
    """One simulation request; equal configs give bit-identical results.
    The simulated window is the K slots after the changepoint nu, so nu
    never changes an estimate."""

    scenario: AttackScenario
    theta: float
    runs: int
    seed: int
    nu: int = 0
    shards: int = 1

    def __post_init__(self):
        if int(self.runs) != self.runs or self.runs < 1:
            raise DomainError(f"runs must be a positive integer, got {self.runs!r}")
        if int(self.shards) != self.shards or self.shards < 1:
            raise DomainError(f"shards must be a positive integer, got {self.shards!r}")
        if int(self.nu) != self.nu or self.nu < 0:
            raise DomainError(f"nu must be a nonnegative integer, got {self.nu!r}")
        theta = float(self.theta)
        if not math.isfinite(theta) or theta < 0.0:
            raise DomainError(f"theta must be finite and >= 0, got {self.theta!r}")
        object.__setattr__(self, "runs", int(self.runs))
        object.__setattr__(self, "shards", int(self.shards))
        object.__setattr__(self, "nu", int(self.nu))
        object.__setattr__(self, "seed", int(self.seed) & _MASK64)


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


def _simulate(
    config: SimConfig, block_runs: int, sum_means, count: Callable[[np.ndarray], int]
) -> SimEstimate:
    """Share of runs that ``count`` selects, where a run is one slot sum
    N(sum_means, M) per entry of ``sum_means`` (scalar or length K)."""
    runs, shards = config.runs, config.shards
    scale = math.sqrt(config.scenario.detector.M)
    shape = np.shape(sum_means)
    n_blocks = (runs + block_runs - 1) // block_runs

    def shard_total(shard: int) -> int:
        total = 0
        for b in range(shard, n_blocks, shards):
            n = min(block_runs, runs - b * block_runs)
            z = _block_stream(config.seed, b).standard_normal((n, *shape))
            total += count(scale * z + sum_means)
        return total

    if shards == 1:
        hits = shard_total(0)
    else:
        with ThreadPoolExecutor(max_workers=shards) as pool:
            hits = sum(pool.map(shard_total, range(shards)))
    return _estimate(hits, runs)


def simulate_pmd(config: SimConfig) -> SimEstimate:
    """Fraction of runs with no alarm in the K slots after the changepoint.

    Sensor readings in post-change slot j are N(mean_j, 1) around the
    timeline mean (the transient truncated to whole slots), so a run draws
    K standard normals and counts a miss when every slot sum
    y_j = sqrt(M) * z_j + M * mean_j stays below h. Pre-change slots are
    independent of post-change ones and are not simulated. Estimates for a
    given seed differ from earlier releases, which drew all K * M readings.
    """
    scenario = config.scenario
    det = scenario.detector
    # mu(0) = c for every mean family, and slots past the transient revert to it
    means = np.full(det.K, scenario.mean.c, dtype=float)
    slots = scenario.transient_slots(config.theta)
    means[:slots] = scenario.mean.value(scenario.gamma(config.theta))
    h = det.h
    return _simulate(
        config, PMD_BLOCK_RUNS, det.M * means, lambda y: int((y < h).all(axis=1).sum())
    )


def simulate_false_alarm(config: SimConfig) -> SimEstimate:
    """Fraction of nominal slots whose summed statistic reaches h.

    Calibration check: with the derived threshold this should match the
    configured per-slot false-alarm probability alpha.
    """
    h = config.scenario.detector.h
    return _simulate(config, SLOT_BLOCK_RUNS, 0.0, lambda y: int((y >= h).sum()))


def simulate_allocation(config: SimConfig, allocations) -> SimEstimate:
    """Single-slot miss frequency when sensor i is suppressed with
    allocations[i] resources (empirical counterpart of allocation_miss)."""
    shift = config.scenario.allocation_shift(allocations)
    if np.ndim(shift) != 0:
        raise DomainError("simulate_allocation takes one allocation vector, not a stack")
    h = config.scenario.detector.h
    return _simulate(config, SLOT_BLOCK_RUNS, shift, lambda y: int((y < h).sum()))
