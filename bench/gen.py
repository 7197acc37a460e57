"""Seeded scenario generator for the benchmark workloads.

Scenarios are drawn by Latin hypercube sampling: each numeric parameter's
range is cut into ``n`` equal strata and every stratum is used exactly
once, in a seeded order. Every seed therefore sees the same spread of
sensor counts, windows and shifts, and only their pairing changes, which
keeps the cost of a pool of scenarios nearly the same from seed to seed.

Families are assigned round-robin, so both mean families and both
closed-form transient families appear in equal numbers. The theta domain
is built so that L(theta_min) <= K always holds.

A fixed share of each pool sits in the deep tail: sqrt(M) * c >= 45, so
the post-transient miss probability q0 = cdf(x_star - sqrt(M) c)
underflows to 0 in double precision. The closed forms cannot evaluate
such a scenario today (the solver raises ``NumericalError``); the
benchmark keeps these scenarios and counts them as failed operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from pmdkit import AttackScenario, DetectorConfig, MeanProfile, TransientModel

MEAN_FAMILIES = ("rational", "exponential")
TRANSIENT_FAMILIES = ("reciprocal", "exponential")

M_RANGE = (5, 40)
K_RANGE = (8, 24)
LOG10_ALPHA_RANGE = (-2.3, -0.7)        # alpha from 0.005 to 0.2
C_RANGE = {"rational": (0.05, 0.25), "exponential": (0.08, 0.35)}
K_DECAY_RANGE = (3.0, 20.0)             # mu decay rate k
A_RANGE = (0.5, 3.0)                    # total budget
SCALE_RANGE = (5.0, 15.0)               # exponential transient a / A
THETA_SPAN_SHARE = (0.6, 1.0)           # share of [theta_min, A] admitted

DEEP_TAIL_EVERY = 8                     # one scenario in eight
DEEP_TAIL_SHIFT = (45.0, 60.0)          # sqrt(M) * c for deep-tail scenarios


@dataclass(frozen=True)
class GenScenario:
    name: str
    scenario: AttackScenario
    deep_tail: bool


def _strata(rng: np.random.Generator, n: int, low: float, high: float) -> np.ndarray:
    """One uniform draw from each of n equal strata of [low, high], shuffled."""
    u = (rng.permutation(n) + rng.random(n)) / n
    return low + (high - low) * u


def _theta_floor(transient: TransientModel, K: int) -> float:
    """Smallest theta with L(theta) <= K for the closed-form transients."""
    if transient.family == "reciprocal":
        return transient.A / K
    return max(math.log(transient.a / K), 0.0)


def generate(seed: int, n: int) -> list[GenScenario]:
    """n scenarios from the seed; every DEEP_TAIL_EVERY-th is deep tail."""
    rng = np.random.default_rng([seed, 0x5CE7])
    m = np.rint(_strata(rng, n, M_RANGE[0] - 0.5, M_RANGE[1] + 0.5)).astype(int)
    big_k = np.rint(_strata(rng, n, K_RANGE[0] - 0.5, K_RANGE[1] + 0.5)).astype(int)
    alpha = 10.0 ** _strata(rng, n, *LOG10_ALPHA_RANGE)
    c_share = _strata(rng, n, 0.0, 1.0)
    decay = _strata(rng, n, *K_DECAY_RANGE)
    budget = _strata(rng, n, *A_RANGE)
    scale = _strata(rng, n, *SCALE_RANGE)
    span_share = _strata(rng, n, *THETA_SPAN_SHARE)
    deep_shift = _strata(rng, n, *DEEP_TAIL_SHIFT)

    out = []
    plain = deep_count = 0
    for i in range(n):
        # plain and deep-tail scenarios each cycle through the four family
        # pairs on their own counter, so both sets stay balanced
        deep = i % DEEP_TAIL_EVERY == DEEP_TAIL_EVERY - 1
        j = deep_count if deep else plain
        if deep:
            deep_count += 1
        else:
            plain += 1
        mean_family = MEAN_FAMILIES[j % 2]
        transient_family = TRANSIENT_FAMILIES[(j // 2) % 2]
        M, K = int(m[i]), int(big_k[i])
        if deep:
            c = float(deep_shift[i]) / math.sqrt(M)
        else:
            c_lo, c_hi = C_RANGE[mean_family]
            c = c_lo + (c_hi - c_lo) * float(c_share[i])
        A = float(budget[i])
        if transient_family == "exponential":
            transient = TransientModel("exponential", A=A, a=float(scale[i]) * A)
        else:
            transient = TransientModel("reciprocal", A=A)
        theta_min = max(_theta_floor(transient, K) * (1.0 + 1e-6), 0.02 * A)
        theta_max = theta_min + float(span_share[i]) * (A - theta_min)
        scenario = AttackScenario(
            mean=MeanProfile(mean_family, c=c, k=float(decay[i])),
            transient=transient,
            detector=DetectorConfig(alpha=float(alpha[i]), M=M, K=K),
            theta_min=theta_min,
            theta_max=theta_max,
        )
        out.append(GenScenario(name=f"gen{i:02d}", scenario=scenario, deep_tail=deep))
    return out
