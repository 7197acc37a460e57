"""Worst-case solver: root function, lane-wise bracket search, grid-zoom reference."""

import dataclasses
import itertools
import math
import statistics

import mpmath
import numpy as np
import pytest

from pmdkit import (
    AttackScenario,
    DetectorConfig,
    MeanProfile,
    NumericalError,
    TransientModel,
    b_function,
    find_critical_point,
    log_pmd_derivative,
    maximize_unimodal,
    min_sensors,
    pmd,
    pmd_curve,
    q0,
    scenario_with_sensors,
    worst_case_pmd,
)
from pmdkit import optimize
from pmdkit.optimize import solve

from conftest import REFERENCE_CONFIGS, make_scenario


def grid_argmax(scenario, points=10_000):
    thetas = np.linspace(scenario.theta_min, scenario.theta_max, points)
    curve = pmd_curve(scenario, thetas)
    idx = int(np.argmax(curve.Q))
    return thetas[idx], float(curve.Q[idx]), thetas[1] - thetas[0]


# --- b function --------------------------------------------------------------


def test_b_changes_sign_when_maximizer_is_interior(fig1_scenario):
    assert b_function(fig1_scenario, 0.1) > 0
    assert b_function(fig1_scenario, 1.5) < 0


def test_b_is_zero_at_the_critical_point(fig1_scenario):
    critical = find_critical_point(fig1_scenario)
    assert abs(b_function(fig1_scenario, critical.theta_star)) <= 1e-10


@pytest.mark.parametrize("transient", ["reciprocal", "exponential"])
@pytest.mark.parametrize("mean", ["rational", "exponential"])
@pytest.mark.parametrize("m", [1, 5, 25])
def test_b_strictly_decreasing(transient, mean, m):
    scenario = make_scenario(transient, mean, M=m)
    thetas = np.linspace(0.1, 1.5, 1000)
    values = np.array([b_function(scenario, t) for t in thetas])
    assert np.all(np.diff(values) < 0)


# --- closed-form solver -------------------------------------------------------


@pytest.mark.parametrize("transient,mean", REFERENCE_CONFIGS)
def test_solver_matches_grid_argmax(transient, mean):
    scenario = make_scenario(transient, mean)
    critical = find_critical_point(scenario)
    theta_grid, q_grid, step = grid_argmax(scenario)
    assert abs(critical.theta_star - theta_grid) <= step
    assert critical.Q_star >= q_grid - 1e-12


def test_interior_point_diagnostics(fig1_scenario):
    critical = find_critical_point(fig1_scenario)
    assert not critical.boundary
    assert critical.b_residual <= 1e-10
    assert critical.fixed_point_residual <= 1e-8
    assert critical.bracket[0] < critical.theta_star < critical.bracket[1]
    assert critical.iterations > 0


def test_reciprocal_family_is_boundary_on_reference_domain(fig3_scenario):
    # r decreases over the whole [0.1, 1.5] window here, so the best the
    # adversary can do is stretch the transient across the full window
    critical = find_critical_point(fig3_scenario)
    assert critical.boundary
    assert critical.theta_star == fig3_scenario.theta_min
    assert math.isnan(critical.fixed_point_residual)


def test_boundary_at_theta_max():
    # shrink the domain so b stays positive throughout
    scenario = make_scenario("exponential", theta_max=0.3)
    assert b_function(scenario, 0.3) > 0
    critical = find_critical_point(scenario)
    assert critical.boundary
    assert critical.theta_star == 0.3


def test_degenerate_flat_profile_is_flagged_boundary():
    scenario = dataclasses.replace(
        make_scenario("reciprocal"), mean=MeanProfile("rational", c=0.1, k=1e-9)
    )
    critical = find_critical_point(scenario)
    assert critical.boundary
    assert abs(b_function(scenario, 0.7)) < 1e-9  # no trade-off left anywhere


def test_sign_pattern_of_derivative_around_interior_critical_point(fig1_scenario):
    theta_star = find_critical_point(fig1_scenario).theta_star
    assert log_pmd_derivative(fig1_scenario, theta_star - 0.05) > 0
    assert log_pmd_derivative(fig1_scenario, theta_star + 0.05) < 0
    assert abs(log_pmd_derivative(fig1_scenario, theta_star)) <= 1e-8


def test_reciprocal_maximizer_is_always_the_lower_boundary():
    # b(0) = 0 (q(0) = q0) and b strictly decreases, so b < 0 on theta > 0:
    # any admissible reciprocal scenario peaks at theta_min
    for convention in ("per_sensor", "raw"):
        for m in (2, 10, 25):
            scenario = make_scenario("reciprocal", M=m, convention=convention)
            assert b_function(scenario, scenario.theta_min) < 0
            critical = find_critical_point(scenario)
            assert critical.boundary
            assert critical.theta_star == scenario.theta_min


def test_exponential_fixed_point_identity():
    # q* = q' / log(q/q0) at the interior critical point
    for convention in ("per_sensor", "raw"):
        critical = find_critical_point(make_scenario("exponential", convention=convention))
        assert not critical.boundary
        assert critical.fixed_point_residual <= 1e-8


def lane_ids(scenario, ms):
    """Per-lane fields of a batched solve, for bit-for-bit comparison."""
    lanes = optimize._critical_lanes(scenario, ms)
    return [
        (float(lanes.theta[i]), float(lanes.Q[i]), float(lanes.r[i]), float(lanes.L[i]),
         int(lanes.iterations[i]), float(lanes.lo[i]), float(lanes.hi[i]), bool(lanes.boundary[i]))
        for i in range(len(ms))
    ]


def single_ids(scenario, m):
    resized = scenario_with_sensors(scenario, m)
    critical, point = find_critical_point(resized), worst_case_pmd(resized)
    assert (critical.theta_star, critical.Q_star) == (point.theta, point.Q)
    return (critical.theta_star, critical.Q_star, point.r, point.L, critical.iterations,
            *critical.bracket, critical.boundary)


@pytest.mark.parametrize("transient,mean", REFERENCE_CONFIGS)
def test_batched_lanes_equal_single_solves_bit_for_bit(transient, mean):
    scenario = make_scenario(transient, mean)
    ms = list(range(1, 41)) + [97, 1000, 31_623]
    assert lane_ids(scenario, ms) == [single_ids(scenario, m) for m in ms]


def test_batched_lanes_equal_single_solves_on_generated_pool(bench_pool):
    ms = [1, 4, 13, 40, 121]
    for scenario in bench_pool:
        assert lane_ids(scenario, ms) == [single_ids(scenario, m) for m in ms]


def test_root_search_needs_few_steps_on_forty_pools(bench_pools_1_40):
    # the midpoint in every step bounds a solve by bisection's step count;
    # the regula falsi point and its ladder of pairs settle it much sooner
    interior = []
    for scenario in bench_pools_1_40:
        critical = solve(scenario)
        bisection = math.ceil(math.log2((scenario.theta_max - scenario.theta_min) / 1e-12))
        assert critical.iterations <= min(10, bisection)
        if not critical.boundary:
            interior.append(critical.iterations)
    assert len(interior) >= 1500
    assert statistics.median(interior) <= 4


def test_domain_narrower_than_the_bracket_target_still_takes_one_step():
    # a steep b changes sign across a domain under 2e-12 wide, where the
    # bisection count is 0: the search still steps once and stays inside
    scenario = AttackScenario(
        mean=MeanProfile("exponential", c=16.627906609345796, k=18.91444391456677),
        transient=TransientModel("exponential", A=0.8365485084724125, a=8.944759638732533),
        detector=DetectorConfig(alpha=0.10300067276167166, M=10, K=17),
        theta_min=0.40975091059173513, theta_max=0.40975091059323515,
        gamma_convention="per_sensor",
    )
    critical = solve(scenario)
    assert not critical.boundary and critical.iterations == 1
    lo, hi = critical.bracket
    assert scenario.theta_min <= lo <= critical.theta_star <= hi <= scenario.theta_max

def test_closed_form_solver_takes_no_newton_steps(fig1_scenario):
    critical = find_critical_point(fig1_scenario)
    assert critical.method == "itp" and critical.b_residual <= 1e-12
    assert critical.fixed_point_residual <= 1e-12


# --- grid-zoom reference -------------------------------------------------------


def test_grid_zoom_agrees_with_closed_form(fig1_scenario):
    zoom = maximize_unimodal(fig1_scenario)
    closed = find_critical_point(fig1_scenario)
    assert zoom.theta_star == pytest.approx(closed.theta_star, abs=1e-8)
    assert zoom.method == "grid-zoom"
    assert zoom.fixed_point_residual <= 1e-8


def test_grid_zoom_returns_boundary_for_decreasing_profile(fig3_scenario):
    result = maximize_unimodal(fig3_scenario)
    assert result.boundary
    assert result.theta_star == fig3_scenario.theta_min


def test_reference_brackets_itp_on_generated_pool(bench_pool):
    # the reference reads only values of r; its bracket must enclose the
    # root that solve finds from b, and the two must agree on every boundary
    for scenario in bench_pool:
        solved, reference = solve(scenario), maximize_unimodal(scenario)
        width = scenario.theta_max - scenario.theta_min
        for result in (solved, reference):
            assert result.bracket[0] <= result.theta_star <= result.bracket[1]
        if solved.boundary:
            assert (reference.theta_star, reference.boundary) == (solved.theta_star, True)
        else:
            assert reference.bracket[0] <= solved.theta_star <= reference.bracket[1]
            assert abs(reference.theta_star - solved.theta_star) <= 1e-7 * width


def deep_tail_scenario(c=10.0):
    # sqrt(M) * c = 70.7: q and q0 underflow to exact zero, log q0 ~ -2075.5
    return AttackScenario(
        mean=MeanProfile("rational", c=c, k=10.0),
        transient=TransientModel("reciprocal", A=1.5),
        detector=DetectorConfig(alpha=1e-10, M=50, K=15),
        theta_min=0.1,
        theta_max=1.5,
    )


def test_deep_tail_solves_in_log_space_against_mpmath():
    scenario = deep_tail_scenario()
    det = scenario.detector

    # scoped, so later tests keep mpmath's default precision
    @mpmath.workdps(50)
    def log_q(theta):
        # the same chain in 50-digit arithmetic, from the detector's own x_star
        mu = mpmath.mpf(10) / (1 + 10 * mpmath.mpf(theta) / det.M)
        return mpmath.log(mpmath.ncdf(mpmath.mpf(det.x_star) - mpmath.sqrt(det.M) * mu))

    log_q0 = log_q(0)
    assert q0(scenario) == 0.0
    # with no transient slots r = K log q0
    assert pmd(scenario, 0.5, transient_slots=0).r / det.K == pytest.approx(float(log_q0), rel=1e-12)

    result = solve(scenario)
    assert result.boundary and result.theta_star == scenario.theta_min
    assert result.Q_star == 0.0  # Q underflows; r does not
    point = pmd(scenario, result.theta_star)
    r_ref = point.L * (log_q(point.theta) - log_q0) + det.K * log_q0
    assert point.r == pytest.approx(float(r_ref), rel=1e-12)


def test_non_finite_b_raises_numerical_error():
    # an overflowing shift makes log q = log q0 = -inf, so b is nan: the
    # solver must surface that, not bisect noise
    with pytest.raises(NumericalError):
        find_critical_point(deep_tail_scenario(c=1e200))


@pytest.mark.parametrize("shift", [45.0, 60.0])
@pytest.mark.parametrize("transient,mean", REFERENCE_CONFIGS)
def test_deep_tail_scenarios_stay_finite(transient, mean, shift):
    # sqrt(M) * c as in the benchmark's deep-tail share; every closed-form
    # entry point must return a finite r instead of raising
    base = make_scenario(transient, mean)
    scenario = dataclasses.replace(base, mean=MeanProfile(mean, c=shift / 5.0, k=10.0))
    grid = np.linspace(scenario.theta_min, scenario.theta_max, 200)
    assert np.all(np.isfinite(pmd_curve(scenario, grid).r))
    solved, zoom = solve(scenario), maximize_unimodal(scenario)
    for result in (solved, zoom):
        assert math.isfinite(pmd(scenario, result.theta_star).r)
    if not solved.boundary:
        width = scenario.theta_max - scenario.theta_min
        assert abs(solved.theta_star - zoom.theta_star) <= 1e-6 * width
    sizing = min_sensors(scenario, 1e-6, 10_000)
    worst = worst_case_pmd(scenario_with_sensors(scenario, sizing.M_min))
    assert math.isfinite(worst.r) and worst.Q <= 1e-6


def test_solve_raises_only_numerical_error_on_extreme_finite_inputs():
    outcomes = []
    for mean, transient, c, k, alpha, m in itertools.product(
        ("rational", "exponential"), ("reciprocal", "exponential"),
        (1e-300, 10.0, 1e200, 1e308), (1e-300, 1e308), (1e-15, 0.5), (1, 100_000),
    ):
        base = make_scenario(transient, mean)
        scenario = dataclasses.replace(
            base,
            mean=MeanProfile(mean, c=c, k=k),
            detector=DetectorConfig(alpha=alpha, M=m, K=15),
        )
        try:
            outcomes.append(math.isfinite(solve(scenario).theta_star))
        except NumericalError:
            outcomes.append(False)
    assert any(outcomes)


# --- dispatch -----------------------------------------------------------------


def test_worst_case_dispatch_and_paper_threshold(fig1_scenario):
    point = worst_case_pmd(fig1_scenario)
    assert point.Q < 0.05  # 25 sensors are enough on this configuration
    thetas = np.linspace(0.1, 1.5, 10_000)
    assert point.Q >= np.max(pmd_curve(fig1_scenario, thetas).Q) - 1e-10


@pytest.mark.parametrize("transient,mean", REFERENCE_CONFIGS)
def test_whole_slot_pmd_never_exceeds_the_relaxed_worst_case(transient, mean):
    # r = l (log q - log q0) + K log q0 grows with the number of transient
    # slots l, because log q >= log q0 (mu(gamma(theta)) <= mu(0) = c). So
    # the simulator's floor(L) whole slots give at most the relaxed Q at the
    # same theta (floor(L) <= L), which is at most Q*. On fig3 and fig4 the
    # two meet at theta_min, so the bound is tight; the slack allows rounding.
    scenario = make_scenario(transient, mean)
    q_star = worst_case_pmd(scenario).Q
    for theta in np.linspace(scenario.theta_min, scenario.theta_max, 1001):
        whole = pmd(scenario, theta, transient_slots=scenario.transient_slots(theta)).Q
        assert whole <= pmd(scenario, theta).Q
        assert whole <= q_star * (1.0 + 1e-12)


def test_worst_case_decreases_with_sensor_count():
    previous = None
    for m in range(5, 55, 5):
        value = worst_case_pmd(make_scenario("exponential", M=m)).Q
        if previous is not None:
            assert value < previous
        previous = value
