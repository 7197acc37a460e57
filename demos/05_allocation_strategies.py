"""Should the adversary play favorites among sensors?

No. With a strictly convex suppression profile, concentrating resources
on some sensors helps the detector: the summed statistic keeps more of
the shift than under an even split. This script compares splits
analytically and confirms two of them by simulation.
"""

import numpy as np

from pmdkit import (
    AttackScenario,
    DetectorConfig,
    MeanProfile,
    SimConfig,
    TransientModel,
    allocation_miss,
    simulate_allocation,
)


def scenario_with(m):
    return AttackScenario(
        mean=MeanProfile("rational", c=0.1, k=10.0),
        transient=TransientModel("reciprocal", A=1.5),
        detector=DetectorConfig(alpha=0.1, M=m, K=15),
        theta_min=0.1,
        theta_max=1.5,
    )


def main():
    theta = 1.0

    print("Two sensors, one unit of resources per slot:")
    duo = scenario_with(2)
    for label, alloc in (
        ("even split (0.5, 0.5)", [0.5, 0.5]),
        ("mild favorite (0.7, 0.3)", [0.7, 0.3]),
        ("all-in (1.0, 0.0)", [1.0, 0.0]),
    ):
        print(f"  {label:28} miss probability {allocation_miss(duo, alloc):.6f}")
    print("  The even split maximizes the per-slot miss probability.")

    print("\nSame story with 25 sensors and 10000 random splits:")
    rng = np.random.default_rng(7)
    many = scenario_with(25)
    equal = allocation_miss(many, np.full(25, theta / 25))
    raw = rng.exponential(size=(10_000, 25))
    candidates = theta * raw / raw.sum(axis=1, keepdims=True)
    misses = allocation_miss(many, candidates)
    print(f"  equal split:      {equal:.6f}")
    print(f"  best random split: {misses.max():.6f}")
    print(f"  every one of {len(misses)} random splits does worse: "
          f"{bool(np.all(misses <= equal))}")

    print("\nSimulation agrees (1e6 slots each):")
    for alloc in ([0.5, 0.5], [1.0, 0.0]):
        target = allocation_miss(duo, alloc)
        est = simulate_allocation(
            SimConfig(scenario=duo, theta=theta, runs=1_000_000, seed=99), alloc
        )
        print(f"  split {alloc}: analytic {target:.6f}, "
              f"simulated {est.p_hat:.6f} +/- {1.96 * est.stderr:.6f}")


if __name__ == "__main__":
    main()
