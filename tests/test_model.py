"""Model-layer contracts: profiles, transients, detector, scenario, config format."""

import math

import mpmath
import numpy as np
import pytest

from pmdkit import (
    ConfigError,
    DetectorConfig,
    DomainError,
    MeanProfile,
    TransientExceedsWindowError,
    TransientModel,
    budget_gap,
    parse_scenario,
    scenario_to_config,
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
    assert np.all(np.diff(mu.derivative(zs)) > 0)
    assert mu.value(1e6) < 1e-4 * c
    assert np.all(np.diff(mu.value(zs)) < 0)


@pytest.mark.parametrize("family,c,k", [("rational", 0.1, 10.0), ("exponential", 0.2, 10.0)])
def test_profile_derivatives_match_central_differences(family, c, k):
    mu = MeanProfile(family, c=c, k=k)
    step = 1e-5
    for z in np.linspace(0.01, 2.0, 50):
        fd1 = (mu.value(z + step) - mu.value(z - step)) / (2 * step)
        assert mu.derivative(z) == pytest.approx(fd1, rel=1e-6)


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


def test_transient_shapes():
    thetas = np.linspace(0.1, 1.5, 100)
    for model in (TransientModel("reciprocal", A=1.5), TransientModel("exponential", A=1.5, a=15.0)):
        assert np.all(model.derivative(thetas) < 0)
        assert np.all(np.diff(model.derivative(thetas)) > 0)
        assert np.all(model.value(thetas) > 0)


def test_transient_domain_and_family_errors():
    model = TransientModel("reciprocal", A=1.5)
    with pytest.raises(DomainError):
        model.value(0.0)
    with pytest.raises(DomainError):
        model.value(-1.0)
    with pytest.raises(ConfigError):
        TransientModel("exponential", A=1.5)  # missing a
    with pytest.raises(ConfigError):
        TransientModel("linear", A=1.5)
    # whole slots come from reciprocal with transient_slots = floor(A / theta)
    with pytest.raises(ConfigError, match="reciprocal"):
        TransientModel("budget_floor", A=1.5)


# --- detector --------------------------------------------------------------


def test_detector_derived_threshold():
    det = DetectorConfig(alpha=0.1, M=25, K=15)
    assert det.x_star == pytest.approx(1.2815515655446004, abs=1e-9)
    assert det.h == pytest.approx(5.0 * det.x_star, rel=1e-15)


def test_detector_threshold_matches_high_precision_quantile():
    # x_star solves erfc(x / sqrt(2)) / 2 = alpha, here to 60 digits in log
    # space, down to alpha = 1e-300 where forming 1 - alpha would round to 1
    with mpmath.workdps(60):
        for alpha in [*np.logspace(-300, math.log10(0.49), 40), 1e-8, 1e-10, 1e-12]:
            x_star = DetectorConfig(alpha=alpha, M=1, K=1).x_star
            target = mpmath.log(mpmath.mpf(float(alpha)))
            exact = mpmath.findroot(
                lambda x: mpmath.log(mpmath.erfc(x / mpmath.sqrt(2)) / 2) - target, x_star
            )
            assert abs(x_star - exact) <= 1e-15 * abs(exact), alpha


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
    # d(gamma)/d(theta), the chain-rule constant of the convention
    assert per_sensor.gamma(1.0) == pytest.approx(1.0 / 25.0, rel=1e-15)
    assert raw.gamma(0.5) == 0.5
    assert raw.gamma(1.0) == 1.0


# --- transient slots -------------------------------------------------------


def test_timeline_zero_theta_has_no_transient():
    # theta = 0 is the no-attack baseline for every family, including the
    # exponential one, whose L(0) = a = 15 would otherwise fill the window
    for transient in ("reciprocal", "exponential"):
        assert make_scenario(transient).transient_slots(0.0) == 0


def test_transient_slots_is_the_one_truncation_rule():
    scenario = make_scenario("reciprocal")  # L = 1.5 / theta
    assert scenario.transient_slots(0.4) == 3  # floor(3.75)
    assert scenario.transient_slots(0.5) == 3
    assert scenario.transient_slots(0.0) == 0  # no attack
    with pytest.raises(TransientExceedsWindowError):
        scenario.transient_slots(0.05)  # L = 30 > K = 15


# --- budget diagnostic -------------------------------------------------------


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
