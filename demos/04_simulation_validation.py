"""Trust, then verify: the Monte Carlo oracle.

Every closed-form quantity in the library has an independent empirical
counterpart: simulate each slot's summed sensor reading (the sum of M
unit-variance Gaussians is one Gaussian of variance M), apply the
threshold, count. This script reproduces the headline numbers
that way and demonstrates the reproducibility contract (same seed, same
bits, regardless of shard count).
"""

import math

from pmdkit import (
    SimConfig,
    parse_scenario,
    pmd,
    q0,
    simulate_false_alarm,
    simulate_pmd,
)

RUNS = 200_000
SEED = 20240809


def main():
    scenario = parse_scenario(open("scenarios/fig1.cfg").read())

    print("1) Missed detection at the adversary's spend rate 0.7")
    theta = 0.7
    # the simulator truncates the transient to whole slots, so align the
    # closed form the same way before comparing
    aligned = int(math.floor(float(scenario.transient.value(theta))))
    analytic = pmd(scenario, theta, transient_slots=aligned).Q
    est = simulate_pmd(SimConfig(scenario=scenario, theta=theta, runs=RUNS, seed=SEED))
    z = (est.p_hat - analytic) / est.stderr
    print(f"   analytic Q = {analytic:.6f}")
    print(f"   simulated  = {est.p_hat:.6f}  (stderr {est.stderr:.6f}, z = {z:+.2f})")
    print(f"   95% CI     = [{est.ci95[0]:.6f}, {est.ci95[1]:.6f}]")

    print("\n2) No adversary: the window miss probability is q0^K")
    est0 = simulate_pmd(SimConfig(scenario=scenario, theta=0.0, runs=RUNS, seed=SEED + 1))
    print(f"   analytic   = {q0(scenario) ** 15:.6f}")
    print(f"   simulated  = {est0.p_hat:.6f}")

    print("\n3) False-alarm calibration: nominal slots alarm at rate alpha")
    fa = simulate_false_alarm(
        SimConfig(scenario=scenario, theta=0.0, runs=1_000_000, seed=SEED + 2)
    )
    print(f"   alpha      = {scenario.detector.alpha}")
    print(f"   simulated  = {fa.p_hat:.6f}  (z = {(fa.p_hat - 0.1) / fa.stderr:+.2f})")

    print("\n4) Reproducibility: counter-based streams make shards invisible")
    base = simulate_pmd(SimConfig(scenario=scenario, theta=theta, runs=50_000, seed=SEED))
    for shards in (1, 2, 8):
        est = simulate_pmd(
            SimConfig(scenario=scenario, theta=theta, runs=50_000, seed=SEED, shards=shards)
        )
        same = "identical" if est.p_hat == base.p_hat else "DIFFERENT"
        print(f"   shards={shards}: p_hat = {est.p_hat:.6f}  ({same})")


if __name__ == "__main__":
    main()
