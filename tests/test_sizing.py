"""Sensor-count search against a worst-case miss probability target."""

import tracemalloc

import pytest

from pmdkit import (
    DomainError,
    InfeasibleAtCapError,
    MonotonicityError,
    min_sensors,
    sizing,
    worst_case_pmd,
)
from pmdkit.sizing import scenario_with_sensors

from conftest import REFERENCE_CONFIGS, make_scenario


def test_reference_sizing_per_sensor_convention(fig1_scenario):
    result = min_sensors(fig1_scenario, delta=0.05, m_max=100)
    assert result.M_min == 19
    assert result.Q_at_M_min <= 0.05
    assert result.Q_at_M_min_minus_1 > 0.05


def test_matches_linear_scan():
    scenario = make_scenario("exponential", M=5)
    delta, m_max = 0.08, 30
    result = min_sensors(scenario, delta, m_max)
    linear = next(
        m
        for m in range(1, m_max + 1)
        if worst_case_pmd(scenario_with_sensors(scenario, m)).Q <= delta
    )
    assert result.M_min == linear


def test_trivial_target_needs_one_sensor(fig1_scenario):
    result = min_sensors(fig1_scenario, delta=0.9999, m_max=50)
    assert result.M_min == 1
    assert result.Q_at_M_min_minus_1 is None


def test_infeasible_at_cap_carries_diagnostics(fig1_scenario):
    with pytest.raises(InfeasibleAtCapError) as excinfo:
        min_sensors(fig1_scenario, delta=1e-12, m_max=10)
    err = excinfo.value
    assert err.m_max == 10
    assert err.q_at_cap > 1e-12
    assert err.delta == 1e-12


def test_scan_is_sorted_and_monotone(fig1_scenario):
    result = min_sensors(fig1_scenario, delta=0.05, m_max=100)
    ms = [m for m, _ in result.scan]
    qs = [q for _, q in result.scan]
    assert ms == sorted(ms)
    assert all(b <= a + 1e-12 for a, b in zip(qs, qs[1:]))
    # the decision pair is recorded
    assert dict(result.scan)[result.M_min] == result.Q_at_M_min
    assert dict(result.scan)[result.M_min - 1] == result.Q_at_M_min_minus_1


def test_sizing_works_for_boundary_family(fig3_scenario):
    # reciprocal scenarios peak at theta_min; sizing still applies
    result = min_sensors(fig3_scenario, delta=0.05, m_max=60)
    assert result.Q_at_M_min <= 0.05
    if result.M_min > 1:
        assert result.Q_at_M_min_minus_1 > 0.05


def test_parameter_validation(fig1_scenario):
    with pytest.raises(DomainError):
        min_sensors(fig1_scenario, delta=0.0, m_max=10)
    with pytest.raises(DomainError):
        min_sensors(fig1_scenario, delta=1.0, m_max=10)
    with pytest.raises(DomainError):
        min_sensors(fig1_scenario, delta=0.05, m_max=0)


def test_scenario_with_sensors_recomputes_threshold(fig1_scenario):
    resized = scenario_with_sensors(fig1_scenario, 4)
    assert resized.detector.M == 4
    assert resized.detector.h == pytest.approx(2.0 * resized.detector.x_star, rel=1e-15)
    # original untouched
    assert fig1_scenario.detector.M == 25


# --- closed-form bracket and batched solve ----------------------------------

BENCH_QUERIES = ((0.05, 100), (1e-6, 10_000))


def bisection_search(scenario, delta, m_max, q_star):
    """The exponential-then-binary search that sizing used before the
    bracket: the reference for M_min (None when infeasible at the cap)."""
    if q_star(1) <= delta:
        return 1
    lo, step = 1, 2
    while True:
        m = min(step, m_max)
        if q_star(m) <= delta:
            hi = m
            break
        if m == m_max:
            return None
        lo, step = m, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if q_star(mid) <= delta:
            hi = mid
        else:
            lo = mid
    return hi


def check_against_single_solves(scenario, delta, m_max):
    memo = {}

    def q_star(m):
        if m not in memo:
            memo[m] = worst_case_pmd(scenario_with_sensors(scenario, m)).Q
        return memo[m]

    reference = bisection_search(scenario, delta, m_max, q_star)
    try:
        result = min_sensors(scenario, delta, m_max)
    except InfeasibleAtCapError as exc:
        assert reference is None
        assert exc.q_at_cap == q_star(m_max)
        return None
    assert result.M_min == reference
    ms = [m for m, _ in result.scan]
    assert ms[0] == max(1, result.M_lo - 1)
    # the bracket is scanned without a gap up to M_min and beyond
    assert ms[: ms.index(result.M_min) + 1] == list(range(ms[0], result.M_min + 1))
    for m, q in result.scan:
        assert q == q_star(m), m  # a lane of the batch is the one-lane solve, bit for bit
    assert result.Q_at_M_min == q_star(result.M_min)
    if result.M_min > 1:
        assert result.Q_at_M_min_minus_1 == q_star(result.M_min - 1)
    assert result.M_lo <= result.M_min
    assert result.M_hi is None or result.M_min <= result.M_hi
    if result.M_hi is None:
        assert q_star(m_max) <= delta
    return result


@pytest.mark.parametrize("delta,m_max", BENCH_QUERIES)
@pytest.mark.parametrize("transient,mean", REFERENCE_CONFIGS)
def test_bracket_scan_matches_single_solves_on_reference_figures(transient, mean, delta, m_max):
    result = check_against_single_solves(make_scenario(transient, mean), delta, m_max)
    assert result is not None
    # the whole bracket fits one chunk here, so every M in it is evaluated
    assert [m for m, _ in result.scan] == list(range(result.M_lo - 1, result.M_hi + 1))


@pytest.mark.parametrize("delta,m_max", BENCH_QUERIES)
def test_bracket_scan_matches_single_solves_on_generated_pool(bench_pool, delta, m_max):
    feasible = sum(
        check_against_single_solves(scenario, delta, m_max) is not None for scenario in bench_pool
    )
    assert feasible >= len(bench_pool) // 2


def test_fig1_bracket_matches_closed_form(fig1_scenario):
    result = min_sensors(fig1_scenario, delta=1e-6, m_max=10_000)
    assert (result.M_lo, result.M_min, result.M_hi) == (238, 245, 265)
    assert min(m for m, _ in result.scan) == 237 and max(m for m, _ in result.scan) == 265


def test_infeasible_lower_bound_needs_one_solve(fig1_scenario, monkeypatch):
    solved = []
    real = sizing._worst_q

    def counting(scenario, ms):
        solved.append(len(ms))
        return real(scenario, ms)

    monkeypatch.setattr(sizing, "_worst_q", counting)
    with pytest.raises(InfeasibleAtCapError):
        min_sensors(fig1_scenario, delta=1e-12, m_max=10)  # M_lo = 521 > 10
    assert solved == [1]


def test_non_monotone_worst_case_raises(fig1_scenario, monkeypatch):
    real = sizing._worst_q

    def bumped(scenario, ms):
        qs = real(scenario, ms).copy()
        qs[ms == 25] *= 1.5  # Q*(25) above Q*(24): impossible for the model
        return qs

    monkeypatch.setattr(sizing, "_worst_q", bumped)
    with pytest.raises(MonotonicityError):
        min_sensors(fig1_scenario, delta=0.05, m_max=100)


def test_rounding_broken_lower_bound_widens_downward(fig1_scenario, monkeypatch):
    # a lower bound two too high must not hide the true M_min below it
    monkeypatch.setattr(sizing, "_lower_bound", lambda *args: 21)
    result = min_sensors(fig1_scenario, delta=0.05, m_max=100)
    assert result.M_min == 19
    assert result.Q_at_M_min_minus_1 > 0.05
    ms = [m for m, _ in result.scan]
    assert ms == list(range(ms[0], ms[-1] + 1)) and ms[0] < 19


def test_huge_cap_runs_in_bounded_memory(fig1_scenario):
    tracemalloc.start()
    try:
        result = min_sensors(fig1_scenario, delta=1e-12, m_max=1_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.M_hi is not None and len(result.scan) <= result.M_hi - result.M_lo + 2
    assert peak < 2_000_000
