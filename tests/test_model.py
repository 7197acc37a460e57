"""Model-layer contracts: profiles, transients, timeline, config format."""

import math

import numpy as np
import pytest

from pmdkit import (
    AttackTimeline,
    ConfigError,
    DetectorConfig,
    DomainError,
    MeanProfile,
    TransientExceedsWindowError,
    TransientModel,
    UnsupportedFamilyError,
    budget_gap,
    kl_gaussian,
    parse_scenario,
    scenario_to_config,
    slot_mean,
)
from pmdkit.model import parse_config_text

from conftest import make_scenario


# --- mean profiles ---------------------------------------------------------


def test_rational_profile_values():
    mu = MeanProfile("rational", c=0.1, k=10.0)
    assert mu.value(0.0) == 0.1
    assert mu.value(0.02) == pytest.approx(0.1 / 1.2, rel=1e-15)


def test_exponential_profile_values():
    mu = MeanProfile("exponential", c=0.2, k=10.0)
    assert mu.value(0.0) == 0.2
    assert mu.value(0.1) == pytest.approx(0.2 * math.exp(-1.0), rel=1e-15)


@pytest.mark.parametrize("family,c,k", [("rational", 0.1, 10.0), ("exponential", 0.2, 10.0)])
def test_profile_shape_assumptions(family, c, k):
    mu = MeanProfile(family, c=c, k=k)
    zs = np.linspace(0.0, 5.0, 200)
    assert np.all(mu.derivative(zs) < 0)
    assert np.all(mu.second_derivative(zs) > 0)
    assert mu.value(1e6) < 1e-4 * c
    assert np.all(np.diff(mu.value(zs)) < 0)


@pytest.mark.parametrize("family,c,k", [("rational", 0.1, 10.0), ("exponential", 0.2, 10.0)])
def test_profile_derivatives_match_central_differences(family, c, k):
    # second differences use a wider step: at 1e-5 the 4*ulp(mu)/step^2
    # rounding floor (~5e-7) already exceeds the 1e-6 relative target
    mu = MeanProfile(family, c=c, k=k)
    step = 1e-5
    for z in np.linspace(0.01, 2.0, 50):
        fd1 = (mu.value(z + step) - mu.value(z - step)) / (2 * step)
        assert mu.derivative(z) == pytest.approx(fd1, rel=1e-6)
    step = 1e-4
    for z in np.linspace(0.01, 2.0, 50):
        fd2 = (mu.value(z + step) - 2 * mu.value(z) + mu.value(z - step)) / step**2
        assert mu.second_derivative(z) == pytest.approx(fd2, rel=1e-6)


def test_profile_domain_and_construction_errors():
    mu = MeanProfile("rational", c=0.1, k=10.0)
    with pytest.raises(DomainError):
        mu.value(-0.1)
    with pytest.raises(DomainError):
        MeanProfile("rational", c=0.1, k=-1.0)
    with pytest.raises(DomainError):
        MeanProfile("exponential", c=0.0, k=1.0)
    with pytest.raises(ConfigError):
        MeanProfile("cubic", c=0.1, k=1.0)


# --- transient models ------------------------------------------------------


def test_transient_values():
    assert TransientModel("reciprocal", A=1.5).value(0.1) == pytest.approx(15.0, rel=1e-15)
    # theta -> 0+ limit of the exponential family approaches the scale a
    assert TransientModel("exponential", A=1.5, a=15.0).value(1e-12) == pytest.approx(
        15.0, rel=1e-9
    )
    assert TransientModel("budget_floor", A=1.5).value(0.4) == 3.0


def test_transient_shapes():
    thetas = np.linspace(0.1, 1.5, 100)
    for model in (TransientModel("reciprocal", A=1.5), TransientModel("exponential", A=1.5, a=15.0)):
        assert np.all(model.derivative(thetas) < 0)
        assert np.all(model.second_derivative(thetas) > 0)
        assert np.all(model.value(thetas) > 0)


def test_transient_domain_and_family_errors():
    model = TransientModel("reciprocal", A=1.5)
    with pytest.raises(DomainError):
        model.value(0.0)
    with pytest.raises(DomainError):
        model.value(-1.0)
    with pytest.raises(UnsupportedFamilyError):
        TransientModel("budget_floor", A=1.5).derivative(0.5)
    with pytest.raises(ConfigError):
        TransientModel("exponential", A=1.5)  # missing a
    with pytest.raises(ConfigError):
        TransientModel("linear", A=1.5)


# --- detector --------------------------------------------------------------


def test_detector_derived_threshold():
    det = DetectorConfig(alpha=0.1, M=25, K=15)
    assert det.x_star == pytest.approx(1.2815515655446004, abs=1e-9)
    assert det.h == pytest.approx(5.0 * det.x_star, rel=1e-15)


def test_detector_override_and_validation():
    det = DetectorConfig(alpha=0.1, M=25, K=15, h_override=2.0)
    assert det.h == 2.0
    with pytest.raises(DomainError):
        DetectorConfig(alpha=0.0, M=25, K=15)
    with pytest.raises(DomainError):
        DetectorConfig(alpha=1.0, M=25, K=15)
    with pytest.raises(DomainError):
        DetectorConfig(alpha=0.1, M=0, K=15)
    with pytest.raises(DomainError):
        DetectorConfig(alpha=0.1, M=25, K=0)


@pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf])
def test_detector_refuses_non_finite_threshold_override(h):
    with pytest.raises(DomainError, match="h_override"):
        DetectorConfig(alpha=0.1, M=25, K=15, h_override=h)


# --- scenario --------------------------------------------------------------


def test_scenario_admissibility_checks():
    # transient longer than the window at theta_min
    with pytest.raises(DomainError):
        make_scenario("reciprocal", theta_min=0.05)
    # spending rate above the total budget
    with pytest.raises(DomainError):
        make_scenario("reciprocal", theta_max=2.0)
    with pytest.raises(ConfigError):
        make_scenario(convention="sideways")
    with pytest.raises(DomainError):
        make_scenario(theta_min=0.9, theta_max=0.2)


def test_gamma_conventions():
    per_sensor = make_scenario()
    raw = make_scenario(convention="raw")
    assert per_sensor.gamma(0.5) == pytest.approx(0.02, rel=1e-15)
    assert per_sensor.gamma_slope == pytest.approx(1.0 / 25.0, rel=1e-15)
    assert raw.gamma(0.5) == 0.5
    assert raw.gamma_slope == 1.0


# --- timeline --------------------------------------------------------------


def test_slot_mean_three_phases():
    scenario = make_scenario("reciprocal")
    timeline = AttackTimeline(nu=10, theta=0.5, scenario=scenario)
    assert timeline.transient_slots == 3  # floor(1.5 / 0.5)
    assert slot_mean(timeline, 5) == 0.0
    assert slot_mean(timeline, 12) == pytest.approx(0.1 / 1.2, rel=1e-15)
    assert slot_mean(timeline, 14) == pytest.approx(0.1, rel=1e-15)


def test_slot_mean_transitions_exactly_at_nu_and_nu_plus_floor_L():
    scenario = make_scenario("reciprocal")
    timeline = AttackTimeline(nu=10, theta=0.4, scenario=scenario)  # floor(3.75) = 3
    means = [slot_mean(timeline, n) for n in range(1, 31)]
    transient_mean = scenario.mean.value(scenario.gamma(0.4))
    expected = [0.0] * 10 + [transient_mean] * 3 + [0.1] * 17
    assert means == pytest.approx(expected)
    # exactly three distinct phases, in order
    assert sorted(set(means)) == sorted({0.0, transient_mean, 0.1})


def test_timeline_zero_theta_has_no_transient():
    timeline = AttackTimeline(nu=3, theta=0.0, scenario=make_scenario("reciprocal"))
    assert timeline.transient_slots == 0
    assert slot_mean(timeline, 4) == pytest.approx(0.1)


def test_transient_slots_is_the_one_truncation_rule():
    scenario = make_scenario("reciprocal")  # L = 1.5 / theta
    assert scenario.transient_slots(0.4) == 3  # floor(3.75)
    assert scenario.transient_slots(0.5) == 3
    assert scenario.transient_slots(0.0) == 0  # no attack
    assert AttackTimeline(nu=2, theta=0.4, scenario=scenario).transient_slots == 3
    with pytest.raises(TransientExceedsWindowError):
        scenario.transient_slots(0.05)  # L = 30 > K = 15


def test_timeline_validation():
    scenario = make_scenario()
    with pytest.raises(DomainError):
        AttackTimeline(nu=-1, theta=0.5, scenario=scenario)
    with pytest.raises(DomainError):
        AttackTimeline(nu=0, theta=-0.5, scenario=scenario)
    with pytest.raises(DomainError):
        slot_mean(AttackTimeline(nu=0, theta=0.5, scenario=scenario), 0)


# --- kl and budget diagnostics ----------------------------------------------


def test_kl_gaussian_values():
    assert kl_gaussian(0.0) == 0.0
    assert kl_gaussian(0.1) == pytest.approx(0.005, rel=1e-15)


def test_kl_decreases_with_spend_rate():
    for convention in ("per_sensor", "raw"):
        scenario = make_scenario(convention=convention)
        thetas = np.linspace(0.1, 1.5, 300)
        kl = kl_gaussian(scenario.mean.value(scenario.gamma(thetas)))
        assert np.all(np.diff(kl) < 0)


def test_budget_gap_diagnostic():
    # reciprocal spends exactly the budget at every rate
    reciprocal = make_scenario("reciprocal")
    assert budget_gap(reciprocal, 0.7) == pytest.approx(0.0, abs=1e-12)
    # the a = 10 A exponential scale overspends on part of the domain
    exponential = make_scenario("exponential")
    gaps = budget_gap(exponential, np.linspace(0.1, 1.5, 50))
    assert np.max(gaps) > 0


# --- config round trip -------------------------------------------------------


def test_config_round_trip():
    for transient in ("exponential", "reciprocal"):
        scenario = make_scenario(transient, convention="raw", M=7, alpha=0.25)
        text = scenario_to_config(scenario)
        assert parse_scenario(text) == scenario


def test_config_round_trip_with_h_override():
    scenario = make_scenario(h_override=2.5)
    restored = parse_scenario(scenario_to_config(scenario))
    assert restored.detector.h == 2.5
    assert restored == scenario


def test_config_rejects_unknown_and_missing_keys():
    with pytest.raises(ConfigError):
        parse_config_text("mu.family = rational\nwidget = 3\n")
    with pytest.raises(ConfigError):
        parse_config_text("mu.family rational\n")
    with pytest.raises(ConfigError):
        parse_config_text("mu.c = \n")
    good = scenario_to_config(make_scenario())
    with pytest.raises(ConfigError):
        parse_scenario(good.replace("mu.c = 0.1\n", ""))


def test_config_rejects_bad_values():
    text = scenario_to_config(make_scenario())
    with pytest.raises(ConfigError):
        parse_scenario(text.replace("mu.c = 0.1", "mu.c = ten"))
    with pytest.raises(DomainError):
        parse_scenario(text.replace("mu.k = 10.0", "mu.k = -3"))


def test_config_comments_and_blank_lines_ignored():
    text = "# a comment\n\n" + scenario_to_config(make_scenario()) + "\n# trailing\n"
    assert parse_scenario(text) == make_scenario()
