"""Worst-case spend rate: the theta maximizing the missed-detection
probability, and the value there.

For both transient families, dr/dtheta factors through a
strictly decreasing function b(theta) whose sign matches dr/dtheta:

    reciprocal  (L = A/theta):     b = -(log q - log q0) + theta * d log q/dtheta
    exponential (L = a e^-theta):  b = -(log q - log q0) +         d log q/dtheta

so the critical point is the unique root of b. find_critical_point
brackets it with ITP (Oliveira & Takahashi, ACM TOMS 47(1), 2020), whose
steps are elementwise:

    interpolate  x_f = lo + (hi - lo) * b(lo) / (b(lo) - b(hi))   (regula falsi)
    truncate     move x_f towards the midpoint by kappa1 * (hi - lo)^2,
                 so that it lands past the root and both ends move
    project      keep the point within the radius of the midpoint that
                 still finishes within n_max steps

and the evaluated point replaces the bracket end whose sign it shares.
The bracket target is 2e-12 and n0 = 1, so n_max equals the step count of
bisection to a 1e-12 bracket: ITP never takes more steps than bisection,
and on the smooth b it converges superlinearly, in a median of eight b
evaluations over generated scenarios where bisection takes about 41. A
point where |b| <= B_RESIDUAL is taken as the root; otherwise the root
is the regula-falsi point of the final bracket. When b has constant
sign over the domain, r is monotone there and the maximizer sits on the
boundary; that result is returned flagged rather than treated as an
error. b is evaluated from the log-space kernel in analytics, so it
stays finite where q and q0 underflow; only a non-finite log q (an
overflowing shift) makes the solver raise NumericalError.

The solver works on lanes: one lane per sensor count M, each with its
own bracket and its own boundary/interior decision, all advanced by one
kernel call per step and frozen once converged. A single solve is the
one-lane case of the same code, so a lane of a batched solve (as sizing
runs) is bit-identical to the solve of that M alone.

Note a structural fact about the reciprocal family: q(0) = q0 makes
b(0) = 0 exactly, and b strictly decreases, so b < 0 on all theta > 0.
Every admissible domain (theta_min >= A/K) therefore has its maximizer
at the theta_min boundary: the adversary stretches the transient across
as much of the window as the budget allows. Interior critical points
occur for the exponential family, where b(0) > 0.

maximize_unimodal checks the root search from values of r alone; solve,
worst_case_pmd and sizing refuse any other (duck-typed) transient family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analytics import (
    PmdPoint, _check_theta, _kernel, _log_pmd, _log_pmd_slope, _pmd_point, _Slot,
)
from .errors import NonUnimodalError, NumericalError, UnsupportedFamilyError
from .model import TRANSIENT_FAMILIES, AttackScenario

ITP_EPS = 1e-12             # root search: half-width of the bracket target
ITP_KAPPA1 = 0.2            # ITP truncation scale, per unit of initial bracket width
B_RESIDUAL = 1e-15          # |b| at which an evaluated point is taken as the root
_SCREEN_POINTS = 256
# r within this many ulps of its largest sampled value counts as the peak
_FLAT_ULPS = 32
# the method label that optimize-v1 prints for a closed-form boundary
# result, where no root search runs
_BOUNDARY_METHOD = "bisect-newton"

# |b| below this is indistinguishable from rounding noise in double
# precision (b combines logs and ratios of O(1) probabilities); edge
# values inside the band are treated as zero so that flat, no-trade-off
# profiles resolve to a flagged boundary instead of chasing noise roots
B_NOISE_FLOOR = 1e-13


@dataclass(frozen=True)
class CriticalPoint:
    """Solver output: the worst-case theta and solution diagnostics.

    b_residual is |b(theta_star)|, nan for a duck-typed transient;
    fixed_point_residual checks the family's rearranged stationarity
    identity (theta = q log(q/q0) / q' for the reciprocal family, q =
    q'/log(q/q0) for the exponential one), or is |dr/dtheta| for a
    grid-zoom result, and is nan on a boundary. method is "itp" for an
    interior root, "bisect-newton" for a closed-form boundary and
    "grid-zoom" for maximize_unimodal; iterations counts ITP's b
    evaluations or grid-zoom's rounds, and bracket is the final one.
    """

    theta_star: float
    Q_star: float
    b_residual: float
    fixed_point_residual: float
    iterations: int
    bracket: tuple[float, float]
    boundary: bool = False
    method: str = "itp"


class _Lanes(NamedTuple):
    """Worst case per sensor-count lane: parallel 1-d arrays, plus the
    kernel output at theta_star."""

    theta: np.ndarray
    L: np.ndarray
    r: np.ndarray
    Q: np.ndarray
    iterations: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    boundary: np.ndarray
    slot: _Slot


def _b_of(family: str, theta, slot) -> float | np.ndarray:
    """b from kernel output; -inf - -inf gives the nan the solver reports."""
    if family == "reciprocal":
        return (slot.log_q0 - slot.log_q) + theta * slot.dlog_q
    return (slot.log_q0 - slot.log_q) + slot.dlog_q


def _b(scenario: AttackScenario, theta, m=None) -> float | np.ndarray:
    """b at theta, per sensor-count lane of m; unchecked in theta."""
    family = scenario.transient.family
    if family not in TRANSIENT_FAMILIES:
        raise UnsupportedFamilyError(
            f"no solver for transient family {family!r}; expected one of {TRANSIENT_FAMILIES}"
        )
    return _b_of(family, theta, _kernel(scenario, theta, m))


def b_function(scenario: AttackScenario, theta: float) -> float:
    """Monotone-decreasing root function whose zero is the critical point."""
    theta = _check_theta(theta, 0.0, scenario.theta_max)
    with np.errstate(invalid="ignore"):
        return float(_b(scenario, theta))


def _fixed_point_residual(family: str, theta: float, slot: _Slot) -> float:
    """Residual of the rearranged b = 0 identity (q'/q = d log q) at the
    theta of a one-lane kernel output, nan where it would divide by zero."""
    q, dlog_q = math.exp(slot.log_q[0]), float(slot.dlog_q[0])
    log_ratio = float(slot.log_q[0] - slot.log_q0[0])
    if family == "reciprocal":
        if dlog_q == 0.0:
            return math.nan
        return abs(theta - log_ratio / dlog_q)
    if log_ratio == 0.0:
        return math.nan
    return abs(q - q * dlog_q / log_ratio)


def _itp(scenario: AttackScenario, m: np.ndarray, b_lo: np.ndarray, b_hi: np.ndarray):
    """ITP search for the root of b, one lane per entry of m, starting
    from [theta_min, theta_max] with b_lo > 0 > b_hi on every lane.

    Returns the root estimates, the final brackets (lo, hi) and each
    lane's number of b evaluations. A lane settles when its bracket is
    2 * ITP_EPS wide or |b| falls to B_RESIDUAL at the evaluated point,
    which is then its root; settled lanes keep their state while the
    others step on.
    """
    n = m.size
    width0 = scenario.theta_max - scenario.theta_min
    kappa1 = ITP_KAPPA1 / width0
    # bisection's step count to a bracket 2 * ITP_EPS wide, plus n0 = 1:
    # exactly bisection's step count to a bracket ITP_EPS wide
    n_max = math.ceil(math.log2(width0 / (2.0 * ITP_EPS))) + 1
    lo = np.full(n, scenario.theta_min)
    hi = np.full(n, scenario.theta_max)
    b_lo, b_hi = b_lo.copy(), b_hi.copy()
    root = np.full(n, np.nan)
    evaluations = np.zeros(n, dtype=int)
    live = np.ones(n, dtype=bool)
    for step in range(n_max):
        width = hi - lo
        half = 0.5 * width
        # midpoint minus regula falsi point; truncate, then project
        offset = half - width * (b_lo / (b_lo - b_hi))
        radius = math.ldexp(ITP_EPS, n_max - step) - half
        shift = np.minimum(np.maximum(np.abs(offset) - kappa1 * width * width, 0.0), radius)
        x = (lo + half) - np.sign(offset) * shift
        y = _b(scenario, x, m)
        if not np.isfinite(y[live]).all():
            bad = int(np.flatnonzero(live & ~np.isfinite(y))[0])
            raise NumericalError(f"b({x[bad]}) is not finite during the root search")
        evaluations += live
        settled = live & (np.abs(y) <= B_RESIDUAL)
        np.copyto(root, x, where=settled)
        live ^= settled
        above = live & (y > 0.0)
        below = live ^ above
        np.copyto(lo, x, where=above)
        np.copyto(b_lo, y, where=above)
        np.copyto(hi, x, where=below)
        np.copyto(b_hi, y, where=below)
        live &= hi - lo > 2.0 * ITP_EPS
        if not live.any():
            break
    # the regula falsi point of the final bracket, unless b settled first
    return np.where(np.isnan(root), lo + (hi - lo) * (b_lo / (b_lo - b_hi)), root), lo, hi, evaluations


def _critical_lanes(scenario: AttackScenario, m) -> _Lanes:
    """Worst case of a closed-form family for each sensor count in m.

    Each lane checks b at both domain edges (one kernel call for all
    lanes) and either settles on a boundary or joins the ITP search; a
    final kernel call evaluates r at every lane's theta_star. A
    non-finite b on any lane raises NumericalError; the first b call
    refuses a family without b with UnsupportedFamilyError.
    """
    m = np.asarray(m, dtype=float).reshape(-1)
    tmin, tmax = scenario.theta_min, scenario.theta_max
    # inf - inf in b is a nan that is reported, not a warning
    with np.errstate(invalid="ignore"):
        edges = _b(scenario, np.repeat([tmin, tmax], m.size), np.concatenate((m, m)))
        b_lo, b_hi = edges[:m.size], edges[m.size:]
        if not np.isfinite(edges).all():
            bad = int(np.argmin(np.isfinite(b_lo) & np.isfinite(b_hi)))
            raise NumericalError(
                f"b is not finite at the domain edges for M = {m[bad]:.0f}: "
                f"b({tmin}) = {b_lo[bad]}, b({tmax}) = {b_hi[bad]}"
            )
        at_lo = b_lo <= B_NOISE_FLOOR
        boundary = at_lo | (b_hi >= -B_NOISE_FLOOR)
        theta = np.where(at_lo, tmin, tmax)
        lo, hi = np.full(m.size, tmin), np.full(m.size, tmax)
        iterations = np.zeros(m.size, dtype=int)
        inner = np.flatnonzero(~boundary)
        if inner.size:
            theta[inner], lo[inner], hi[inner], iterations[inner] = _itp(
                scenario, m[inner], b_lo[inner], b_hi[inner]
            )
        length, slot, r = _log_pmd(scenario, theta, m=m)
    return _Lanes(theta=theta, L=length, r=r, Q=np.exp(r), iterations=iterations,
                  lo=lo, hi=hi, boundary=boundary, slot=slot)


def find_critical_point(scenario: AttackScenario) -> CriticalPoint:
    """Locate the unique critical point of r for a closed-form family.

    ITP brackets the root of b; the root is the regula-falsi point of
    the final bracket, or an evaluated point where |b| <= B_RESIDUAL. If
    b does not change sign over [theta_min, theta_max], r is monotone
    and the matching boundary theta is returned with boundary=True. This
    is the one-lane case of the batched solve. Any other transient family
    raises UnsupportedFamilyError.
    """
    lanes = _critical_lanes(scenario, [scenario.detector.M])
    family = scenario.transient.family
    theta = float(lanes.theta[0])
    boundary = bool(lanes.boundary[0])
    return CriticalPoint(
        theta_star=theta,
        Q_star=float(lanes.Q[0]),
        b_residual=abs(float(_b_of(family, lanes.theta, lanes.slot)[0])),
        fixed_point_residual=math.nan if boundary else _fixed_point_residual(family, theta, lanes.slot),
        iterations=int(lanes.iterations[0]),
        bracket=(float(lanes.lo[0]), float(lanes.hi[0])),
        boundary=boundary,
        method=_BOUNDARY_METHOD if boundary else "itp",
    )


def _assert_unimodal(r: np.ndarray) -> None:
    """Screen a sampled r profile for a single peak."""
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


def maximize_unimodal(scenario: AttackScenario) -> CriticalPoint:
    """Maximize r from its values alone, zooming a grid in on the peak.

    Each round evaluates r at 256 points of the bracket in one kernel call,
    screens them for a single peak, and keeps the points within _FLAT_ULPS
    ulps of the top, plus one grid step each side. The first round that
    does not shrink the bracket fourfold (r is flat to rounding there) ends
    the search at the centre of the near-maximal points, or at a domain
    edge within the bracket's width, with the bracket widened to it.
    Any transient with a value method will do. Over the bench/gen.py pools
    of seeds 1-200 the bracket holds ITP's theta_star on all 8,935 interior
    solves, within 1.4e-8 of the domain width, in at most 8 rounds.
    """
    tmin, tmax = scenario.theta_min, scenario.theta_max
    lo, hi, rounds = tmin, tmax, 0
    while True:
        grid = np.linspace(lo, hi, _SCREEN_POINTS)
        _, _, r = _log_pmd(scenario, grid)
        _assert_unimodal(r)
        rounds += 1
        top = np.max(r)
        near = np.flatnonzero(r >= top - _FLAT_ULPS * np.spacing(abs(top)))
        width = hi - lo
        lo = float(grid[max(near[0] - 1, 0)])
        hi = float(grid[min(near[-1] + 1, _SCREEN_POINTS - 1)])
        if 4.0 * (hi - lo) > width:
            break

    theta = float(0.5 * (grid[near[0]] + grid[near[-1]]))
    at_edge = min(lo - tmin, tmax - hi) <= hi - lo
    if at_edge:
        if lo - tmin <= tmax - hi:
            theta = lo = tmin
        else:
            theta = hi = tmax

    fp_res = math.nan
    if not at_edge and hasattr(scenario.transient, "derivative"):
        fp_res = abs(_log_pmd_slope(scenario, theta))

    point = _pmd_point(scenario, theta)
    family = scenario.transient.family
    b_res = float(abs(_b(scenario, theta))) if family in TRANSIENT_FAMILIES else math.nan
    return CriticalPoint(
        theta_star=theta,
        Q_star=point.Q,
        b_residual=b_res,
        fixed_point_residual=fp_res,
        iterations=rounds,
        bracket=(lo, hi),
        boundary=at_edge,
        method="grid-zoom",
    )


# the CLI and bench/ call the worst-case solve by this name
solve = find_critical_point


def worst_case_pmd(scenario: AttackScenario) -> PmdPoint:
    """Missed-detection probability at the adversary's best spend rate:
    the one-lane batched solve, bit for bit any batch's matching lane."""
    lanes = _critical_lanes(scenario, [scenario.detector.M])
    return PmdPoint(
        theta=float(lanes.theta[0]), L=float(lanes.L[0]), Q=float(lanes.Q[0]), r=float(lanes.r[0])
    )
