"""Shared scenario builders for the test suite."""

import sys
from pathlib import Path

import pytest

from pmdkit import AttackScenario, DetectorConfig, MeanProfile, TransientModel

# The four reference configurations exercised throughout: two transient
# families crossed with two mean-decay families, A=1.5, K=15, alpha=0.1,
# theta in [0.1, 1.5].
MEAN_PARAMS = {
    "rational": dict(family="rational", c=0.1, k=10.0),
    "exponential": dict(family="exponential", c=0.2, k=10.0),
}
TRANSIENT_PARAMS = {
    "exponential": dict(family="exponential", A=1.5, a=15.0),
    "reciprocal": dict(family="reciprocal", A=1.5),
}
REFERENCE_CONFIGS = (
    ("exponential", "rational"),     # fig 1
    ("exponential", "exponential"),  # fig 2
    ("reciprocal", "rational"),      # fig 3
    ("reciprocal", "exponential"),   # fig 4
)


def make_scenario(
    transient="exponential",
    mean="rational",
    M=25,
    alpha=0.1,
    K=15,
    convention="per_sensor",
    theta_min=0.1,
    theta_max=1.5,
    h_override=None,
):
    return AttackScenario(
        mean=MeanProfile(**MEAN_PARAMS[mean]),
        transient=TransientModel(**TRANSIENT_PARAMS[transient]),
        detector=DetectorConfig(alpha=alpha, M=M, K=K, h_override=h_override),
        theta_min=theta_min,
        theta_max=theta_max,
        gamma_convention=convention,
    )


@pytest.fixture
def fig1_scenario():
    return make_scenario("exponential", "rational")


@pytest.fixture
def fig3_scenario():
    return make_scenario("reciprocal", "rational")


def _gen():
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import gen

    return gen


@pytest.fixture(scope="session")
def bench_pool():
    """The analytic-sweep benchmark's scenario pool: bench/gen.py, seed 1,
    128 scenarios (every eighth in the deep tail)."""
    return tuple(item.scenario for item in _gen().generate(1, 128))


@pytest.fixture(scope="session")
def bench_pools_1_3():
    """bench/gen.py pools of 64 for seeds 1-3: 192 GenScenario items, 24
    of them (item.deep_tail) in the deep tail."""
    gen = _gen()
    return tuple(item for seed in (1, 2, 3) for item in gen.generate(seed, 64))
