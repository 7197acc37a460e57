"""Closed-form miss probabilities and their derivatives.

Frozen reference numbers come from a 50-digit mpmath pipeline (error
function evaluated in extended precision, then the stated formulas).
"""

import dataclasses
import math

import numpy as np
import pytest

from pmdkit import (
    DomainError,
    MeanProfile,
    NumericalError,
    TransientExceedsWindowError,
    allocation_miss,
    log_pmd_derivative,
    pmd,
    pmd_curve,
    q0,
    slot_miss,
)
from pmdkit import analytics

from conftest import REFERENCE_CONFIGS, make_scenario

# mpmath oracle values for alpha=0.1, M=25, rational mu(c=0.1, k=10)
Q0_REFERENCE = 0.7827609195726948
Q_AT_HALF_REFERENCE = 0.8064490165796115       # per_sensor, theta = 0.5
PMD_AT_HALF_REFERENCE = 0.027751110531343175   # reciprocal L, theta = 0.5
ALLOC_EQUAL_REFERENCE = 0.8958007475352252     # M=2, split (0.5, 0.5)
ALLOC_LOPSIDED_REFERENCE = 0.8857849362825918  # M=2, split (1, 0)


def test_q0_reference_value(fig1_scenario):
    assert q0(fig1_scenario) == pytest.approx(Q0_REFERENCE, abs=1e-12)


def test_slot_miss_reference_values(fig1_scenario):
    miss = slot_miss(fig1_scenario, 0.5)
    assert miss.q_theta == pytest.approx(Q_AT_HALF_REFERENCE, abs=1e-12)
    assert miss.q0 == pytest.approx(Q0_REFERENCE, abs=1e-12)
    # theta = 0 reproduces the post-transient miss probability
    assert slot_miss(fig1_scenario, 0.0).q_theta == pytest.approx(Q0_REFERENCE, abs=1e-14)


def test_slot_miss_approaches_nominal_when_shift_vanishes():
    # raw convention with fast exponential decay: mu(1.5) ~ 6e-8
    scenario = make_scenario("exponential", "exponential", convention="raw")
    assert slot_miss(scenario, 1.5).q_theta == pytest.approx(0.9, abs=1e-5)


def test_slot_miss_exceeds_q0_for_positive_theta():
    for convention in ("per_sensor", "raw"):
        scenario = make_scenario(convention=convention)
        base = q0(scenario)
        for theta in np.linspace(0.1, 1.5, 30):
            assert slot_miss(scenario, theta).q_theta > base


def test_slot_miss_domain():
    scenario = make_scenario()
    with pytest.raises(DomainError):
        slot_miss(scenario, -0.1)
    with pytest.raises(DomainError):
        slot_miss(scenario, 1.6)


def test_pmd_reference_value(fig3_scenario):
    point = pmd(fig3_scenario, 0.5)
    assert point.L == pytest.approx(3.0, rel=1e-15)
    assert point.Q == pytest.approx(PMD_AT_HALF_REFERENCE, rel=1e-12)
    assert point.r == pytest.approx(math.log(PMD_AT_HALF_REFERENCE), rel=1e-12)


def test_pmd_full_window_transient(fig3_scenario):
    # L(0.1) = K: no post-transient slots, Q = q^K
    point = pmd(fig3_scenario, 0.1)
    q = slot_miss(fig3_scenario, 0.1).q_theta
    assert point.Q == pytest.approx(q**15, rel=1e-12)


def test_pmd_degenerate_flat_profile_collapses_to_q0_power():
    # k ~ 0 surrogate: the mean barely moves, so q(theta) ~ q0 and Q ~ q0^K
    scenario = dataclasses.replace(
        make_scenario("reciprocal"), mean=MeanProfile("rational", c=0.1, k=1e-12)
    )
    point = pmd(scenario, 0.7)
    assert point.Q == pytest.approx(q0(scenario) ** 15, rel=1e-9)


def test_pmd_log_space_matches_direct_product():
    for transient, mean in REFERENCE_CONFIGS:
        scenario = make_scenario(transient, mean)
        for theta in np.linspace(0.1, 1.5, 20):
            point = pmd(scenario, theta)
            miss = slot_miss(scenario, theta)
            direct = miss.q_theta**point.L * miss.q0 ** (15 - point.L)
            assert point.Q == pytest.approx(direct, rel=1e-12)


def test_pmd_domain_and_window_errors():
    scenario = make_scenario("reciprocal")
    with pytest.raises(DomainError):
        pmd(scenario, 0.05)
    # theta below theta_min but inside [0, theta_max] would make L > K
    wide = make_scenario("reciprocal", theta_min=0.1)
    with pytest.raises(TransientExceedsWindowError):
        pmd(wide, 0.1, transient_slots=16)
    with pytest.raises(DomainError):
        pmd(wide, 0.5, transient_slots=-1)


def test_pmd_transient_slots_override():
    scenario = make_scenario("reciprocal")
    point = pmd(scenario, 0.4, transient_slots=3)  # floor(3.75)
    miss = slot_miss(scenario, 0.4)
    assert point.L == 3.0
    assert point.Q == pytest.approx(miss.q_theta**3 * miss.q0**12, rel=1e-12)


def test_pmd_monotone_in_sensor_count():
    for convention in ("per_sensor", "raw"):
        previous = None
        for m in range(5, 55, 5):
            scenario = make_scenario("reciprocal", M=m, convention=convention)
            value = pmd(scenario, 0.5).Q
            if previous is not None:
                assert value < previous
            previous = value


@pytest.mark.parametrize("transient,mean", REFERENCE_CONFIGS)
@pytest.mark.parametrize("convention", ["per_sensor", "raw"])
def test_first_derivative_matches_central_differences(transient, mean, convention):
    scenario = make_scenario(transient, mean, convention=convention)
    step = 1e-5
    for theta in np.linspace(0.12, 1.48, 40):
        miss = slot_miss(scenario, theta)
        fd = (
            slot_miss(scenario, theta + step).q_theta
            - slot_miss(scenario, theta - step).q_theta
        ) / (2 * step)
        assert miss.dq_dtheta == pytest.approx(fd, rel=1e-5)


@pytest.mark.parametrize("transient,mean", REFERENCE_CONFIGS)
def test_log_pmd_derivative_matches_central_differences(transient, mean):
    scenario = make_scenario(transient, mean)
    step = 1e-5
    for theta in np.linspace(0.12, 1.48, 40):
        fd = (pmd(scenario, theta + step).r - pmd(scenario, theta - step).r) / (2 * step)
        assert log_pmd_derivative(scenario, theta) == pytest.approx(fd, rel=1e-5)


def test_log_pmd_derivative_errors():
    scenario = make_scenario("reciprocal")
    with pytest.raises(DomainError):
        log_pmd_derivative(scenario, 0.1)  # boundary is not interior


# --- allocation law ---------------------------------------------------------


def test_allocation_reference_values():
    scenario = make_scenario("reciprocal", M=2)
    assert allocation_miss(scenario, [0.5, 0.5]) == pytest.approx(
        ALLOC_EQUAL_REFERENCE, abs=1e-12
    )
    assert allocation_miss(scenario, [1.0, 0.0]) == pytest.approx(
        ALLOC_LOPSIDED_REFERENCE, abs=1e-12
    )
    assert allocation_miss(scenario, [1.0, 0.0]) < allocation_miss(scenario, [0.5, 0.5])


def test_equal_allocation_matches_per_sensor_slot_miss():
    scenario = make_scenario("reciprocal", M=25, convention="per_sensor")
    theta = 0.8
    equal = allocation_miss(scenario, np.full(25, theta / 25))
    assert equal == pytest.approx(slot_miss(scenario, theta).q_theta, rel=1e-15)


@pytest.mark.parametrize("m", [2, 5, 25])
@pytest.mark.parametrize("theta", [0.2, 1.0])
def test_equal_split_is_never_beaten(m, theta):
    scenario = make_scenario("reciprocal", M=m)
    equal = allocation_miss(scenario, np.full(m, theta / m))
    rng = np.random.default_rng(2025)
    raw = rng.exponential(size=(500, m))
    for row in theta * raw / raw.sum(axis=1, keepdims=True):
        assert allocation_miss(scenario, row) <= equal + 1e-12


@pytest.mark.parametrize("scenario", [make_scenario(), make_scenario("reciprocal", M=2)],
                         ids=["fig1", "M2"])
def test_allocation_stack_matches_row_by_row(scenario):
    m = scenario.detector.M
    raw = np.random.default_rng(11).exponential(size=(300, m))
    stack = 0.8 * raw / raw.sum(axis=1, keepdims=True)
    misses = allocation_miss(scenario, stack)
    assert misses.shape == (300,)
    np.testing.assert_array_equal(misses, [allocation_miss(scenario, row) for row in stack])


def test_allocation_errors():
    scenario = make_scenario(M=25)
    for shape in [(24,), (3, 24), (2, 2, 25)]:
        with pytest.raises(DomainError):
            allocation_miss(scenario, np.full(shape, 0.1))
    with pytest.raises(DomainError):
        allocation_miss(scenario, [-0.1] + [0.1] * 24)


# --- vectorized curve --------------------------------------------------------


def test_pmd_curve_matches_scalar_path(fig1_scenario):
    thetas = np.linspace(0.1, 1.5, 37)
    curve = pmd_curve(fig1_scenario, thetas)
    for i, theta in enumerate(thetas):
        point = pmd(fig1_scenario, theta)
        assert curve.Q[i] == pytest.approx(point.Q, rel=1e-14)
        assert curve.L[i] == pytest.approx(point.L, rel=1e-14)
        assert curve.q_theta[i] == pytest.approx(slot_miss(fig1_scenario, theta).q_theta, rel=1e-14)


def test_pmd_curve_domain_checks(fig1_scenario):
    with pytest.raises(DomainError):
        pmd_curve(fig1_scenario, np.linspace(0.0, 1.5, 10))
    with pytest.raises(DomainError):
        pmd_curve(fig1_scenario, np.array([]))


def test_overflowing_shift_raises_numerical_error(fig1_scenario):
    # log q = log q0 = -inf: r would be nan, and must not reach a caller
    scenario = dataclasses.replace(fig1_scenario, mean=MeanProfile("rational", c=1e308, k=10.0))
    with pytest.raises(NumericalError):
        pmd(scenario, 0.5)
    with pytest.raises(NumericalError):
        pmd_curve(scenario, np.linspace(0.1, 1.5, 5))
