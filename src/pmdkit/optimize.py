"""Worst-case spend rate: the theta maximizing the missed-detection
probability, and the value there.

For the two closed-form transient families, dr/dtheta factors through a
strictly decreasing function b(theta) whose sign matches dr/dtheta:

    reciprocal  (L = A/theta):     b = -(log q - log q0) + theta * d log q/dtheta
    exponential (L = a e^-theta):  b = -(log q - log q0) +         d log q/dtheta

so the critical point is the unique root of b, bracketed by bisection
(unconditionally convergent on a monotone function) and polished with a
few Newton steps on dr/dtheta. When b has constant sign over the domain,
r is monotone there and the maximizer sits on the boundary; that result
is returned flagged rather than treated as an error. b is evaluated from
the log-space kernel in analytics, so it stays finite where q and q0
underflow; only a non-finite log q (an overflowing shift) makes the
solver raise NumericalError.

Note a structural fact about the reciprocal family: q(0) = q0 makes
b(0) = 0 exactly, and b strictly decreases, so b < 0 on all theta > 0.
Every admissible domain (theta_min >= A/K) therefore has its maximizer
at the theta_min boundary: the adversary stretches the transient across
as much of the window as the budget allows. Interior critical points
occur for the exponential family, where b(0) > 0.

For other transient models whose r is concave (hence unimodal), a
golden-section search is available behind a 256-point unimodality screen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytics import PmdPoint, _check_theta, _kernel, _log_pmd, _log_pmd_slopes, _pmd_point
from .errors import NonUnimodalError, NumericalError, UnsupportedFamilyError
from .model import AttackScenario

CLOSED_FORM_FAMILIES = ("reciprocal", "exponential")

BRACKET_WIDTH = 1e-12       # absolute bisection bracket target
NEWTON_POLISH_STEPS = 3
GOLDEN_REL_WIDTH = 1e-10    # golden-section width target, relative to domain
_SCREEN_POINTS = 256
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# |b| below this is indistinguishable from rounding noise in double
# precision (b combines logs and ratios of O(1) probabilities); edge
# values inside the band are treated as zero so that flat, no-trade-off
# profiles resolve to a flagged boundary instead of chasing noise roots
B_NOISE_FLOOR = 1e-13


@dataclass(frozen=True)
class CriticalPoint:
    """Solver output: the worst-case theta and solution diagnostics.

    b_residual is |b(theta_star)| for closed-form families (nan
    otherwise); fixed_point_residual checks the family's rearranged
    stationarity identity (theta = q log(q/q0) / q' for the reciprocal
    family, q = q'/log(q/q0) for the exponential one) or |dr/dtheta| for
    golden-section results. Boundary maximizers carry boundary=True and
    nan residuals where the identity does not apply.
    """

    theta_star: float
    Q_star: float
    b_residual: float
    fixed_point_residual: float
    iterations: int
    bracket: tuple[float, float]
    boundary: bool = False
    method: str = "bisect-newton"


def _b(scenario: AttackScenario, theta: float) -> float:
    """b at theta, unchecked in theta."""
    family = scenario.transient.family
    if family not in CLOSED_FORM_FAMILIES:
        raise UnsupportedFamilyError(
            f"b is defined for {CLOSED_FORM_FAMILIES}; "
            f"use maximize_unimodal for family {family!r}"
        )
    slot = _kernel(scenario, theta)
    scale = theta if family == "reciprocal" else 1.0
    return float(-(slot.log_q - slot.log_q0) + scale * slot.dlog_q)


def b_function(scenario: AttackScenario, theta: float) -> float:
    """Monotone-decreasing root function whose zero is the critical point."""
    return _b(scenario, _check_theta(theta, 0.0, scenario.theta_max))


def _fixed_point_residual(scenario: AttackScenario, theta: float) -> float:
    """Residual of the rearranged b = 0 identity at theta (q'/q = d log q)."""
    slot = _kernel(scenario, theta)
    q, dlog_q, log_ratio = float(slot.q), float(slot.dlog_q), float(slot.log_q - slot.log_q0)
    if scenario.transient.family == "reciprocal":
        if dlog_q == 0.0:
            return math.nan
        return abs(theta - log_ratio / dlog_q)
    if log_ratio == 0.0:
        return math.nan
    return abs(q - q * dlog_q / log_ratio)


def _newton_polish(scenario: AttackScenario, theta: float, lo: float, hi: float) -> float:
    """A few Newton steps on dr/dtheta, confined to (lo, hi)."""
    for _ in range(NEWTON_POLISH_STEPS):
        slope, curvature = _log_pmd_slopes(scenario, theta)
        if curvature == 0.0 or not (math.isfinite(slope) and math.isfinite(curvature)):
            break
        candidate = theta - slope / curvature
        if not lo < candidate < hi:
            break
        theta = candidate
    return theta


def _boundary_point(scenario: AttackScenario, theta: float, b_value: float) -> CriticalPoint:
    point = _pmd_point(scenario, theta)
    return CriticalPoint(
        theta_star=theta,
        Q_star=point.Q,
        b_residual=abs(b_value),
        fixed_point_residual=math.nan,
        iterations=0,
        bracket=(scenario.theta_min, scenario.theta_max),
        boundary=True,
    )


def find_critical_point(scenario: AttackScenario) -> CriticalPoint:
    """Locate the unique critical point of r for a closed-form family.

    Bisection brackets the root of b to width 1e-12, then up to three
    Newton steps on dr/dtheta polish it. If b does not change sign over
    [theta_min, theta_max], r is monotone and the matching boundary theta
    is returned with boundary=True.
    """
    lo, hi = scenario.theta_min, scenario.theta_max
    b_lo = _b(scenario, lo)
    b_hi = _b(scenario, hi)
    if not (math.isfinite(b_lo) and math.isfinite(b_hi)):
        raise NumericalError(
            f"b is not finite at the domain edges: b({lo}) = {b_lo}, b({hi}) = {b_hi}"
        )
    if b_lo <= B_NOISE_FLOOR:
        return _boundary_point(scenario, lo, b_lo)
    if b_hi >= -B_NOISE_FLOOR:
        return _boundary_point(scenario, hi, b_hi)

    iterations = 0
    while hi - lo > BRACKET_WIDTH:
        mid = 0.5 * (lo + hi)
        b_mid = _b(scenario, mid)
        if not math.isfinite(b_mid):
            raise NumericalError(f"b({mid}) is not finite during bisection")
        if b_mid > 0.0:
            lo = mid
        else:
            hi = mid
        iterations += 1

    theta = _newton_polish(scenario, 0.5 * (lo + hi), lo, hi)
    point = _pmd_point(scenario, theta)
    return CriticalPoint(
        theta_star=theta,
        Q_star=point.Q,
        b_residual=abs(_b(scenario, theta)),
        fixed_point_residual=_fixed_point_residual(scenario, theta),
        iterations=iterations,
        bracket=(lo, hi),
    )


def _assert_unimodal(r: np.ndarray) -> int:
    """Screen a sampled r profile for a single peak; return its index."""
    peak = int(np.argmax(r))
    tol = 1e-10 * max(1.0, float(np.max(np.abs(r))))
    diffs = np.diff(r)
    rising_ok = np.all(diffs[:peak] >= -tol)
    falling_ok = np.all(diffs[peak:] <= tol)
    if not (rising_ok and falling_ok):
        bad = int(np.argmin(diffs[:peak])) if not rising_ok else peak + int(np.argmax(diffs[peak:]))
        raise NonUnimodalError(
            f"sampled profile is not unimodal near grid index {bad}; "
            "the declared concavity does not hold for this scenario"
        )
    return peak


def maximize_unimodal(scenario: AttackScenario) -> CriticalPoint:
    """Golden-section maximization of r for concave (unimodal) transients.

    A 256-point grid screen first checks the profile really is single
    peaked and supplies the initial bracket; the search then narrows it
    to 1e-10 of the domain width. Valid for any transient model that
    makes r increase then decrease, including the closed-form families.
    """
    tmin, tmax = scenario.theta_min, scenario.theta_max
    grid = np.linspace(tmin, tmax, _SCREEN_POINTS)
    _, _, r_grid = _log_pmd(scenario, grid)
    if not np.all(np.isfinite(r_grid)):
        raise NumericalError("r is not finite on the screening grid")
    peak = _assert_unimodal(r_grid)

    lo = grid[max(peak - 1, 0)]
    hi = grid[min(peak + 1, _SCREEN_POINTS - 1)]
    width_target = GOLDEN_REL_WIDTH * (tmax - tmin)

    def r_of(t: float) -> float:
        return _pmd_point(scenario, t).r

    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    r1, r2 = r_of(x1), r_of(x2)
    iterations = 0
    while hi - lo > width_target:
        if r1 >= r2:
            hi, x2, r2 = x2, x1, r1
            x1 = hi - _INVPHI * (hi - lo)
            r1 = r_of(x1)
        else:
            lo, x1, r1 = x1, x2, r2
            x2 = lo + _INVPHI * (hi - lo)
            r2 = r_of(x2)
        iterations += 1

    theta = 0.5 * (lo + hi)
    at_edge = theta - tmin <= 2.0 * width_target or tmax - theta <= 2.0 * width_target
    if at_edge:
        theta = tmin if theta - tmin <= tmax - theta else tmax

    fp_res = math.nan
    if not at_edge:
        # function values alone locate the peak only to ~sqrt(eps); when
        # dr/dtheta exists, a Newton polish recovers full precision (the
        # true root can sit outside the final golden bracket, so the
        # polish is confined to the domain instead)
        try:
            theta = _newton_polish(scenario, theta, tmin, tmax)
            fp_res = abs(_log_pmd_slopes(scenario, theta)[0])
        except (UnsupportedFamilyError, AttributeError):
            fp_res = math.nan
        lo, hi = min(lo, theta) - width_target, max(hi, theta) + width_target

    point = _pmd_point(scenario, theta)
    family = scenario.transient.family
    b_res = abs(_b(scenario, theta)) if family in CLOSED_FORM_FAMILIES else math.nan
    return CriticalPoint(
        theta_star=theta,
        Q_star=point.Q,
        b_residual=b_res,
        fixed_point_residual=fp_res,
        iterations=iterations,
        bracket=(lo, hi),
        boundary=at_edge,
        method="golden-section",
    )


def solve(scenario: AttackScenario) -> CriticalPoint:
    """Dispatch to the family-appropriate maximizer."""
    family = scenario.transient.family
    if family in CLOSED_FORM_FAMILIES:
        return find_critical_point(scenario)
    if family == "budget_floor":
        raise UnsupportedFamilyError(
            "budget_floor is a simulator-only transient; optimize over the "
            "matching real-valued family instead"
        )
    return maximize_unimodal(scenario)


def worst_case_pmd(scenario: AttackScenario) -> PmdPoint:
    """Missed-detection probability at the adversary's best spend rate."""
    critical = solve(scenario)
    return _pmd_point(scenario, critical.theta_star)
