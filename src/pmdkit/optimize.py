"""Worst-case spend rate: the theta maximizing the missed-detection
probability, and the value there.

For both transient families, dr/dtheta factors through a
strictly decreasing function b(theta) whose sign matches dr/dtheta:

    reciprocal  (L = A/theta):     b = -(log q - log q0) + theta * d log q/dtheta
    exponential (L = a e^-theta):  b = -(log q - log q0) +         d log q/dtheta

as dr/dtheta = (A/theta^2) b and L b. Proof that b decreases: mu is
convex and strictly decreasing, so u = x_star - sqrt(M) mu(gamma(theta))
is concave and strictly increasing; log_cdf is strictly concave and
increasing, so (log q)'' < 0 < (log q)', and b' = theta (log q)'' or
(log q)'' - (log q)' is < 0. So r rises to the unique root of b and
falls after it, and find_critical_point finds it with a seeded
multi-point bracket search. One seed kernel call evaluates b at
SEED_POINTS even points of the domain, edges included; the edge values
decide whether the maximizer sits on a boundary, and otherwise the first
grid cell where b changes sign is the bracket. Each step then evaluates
b, in one kernel call, at ten points of the bracket [lo, hi], each
clipped to it:

    x            lo + (hi - lo) * b(lo) / (b(lo) - b(hi))   (regula falsi)
    x -+ ITP_EPS * 1000^j, j = 0..3
                 a ladder of pairs around x: the root falls between two
                 rungs, so the new bracket is at most about 1000 times
                 x's error, and the j = 0 pair closes it to 2 * ITP_EPS
                 as soon as x lands within ITP_EPS of the root
    midpoint     lo + (hi - lo) / 2

and keeps the tightest sub-bracket with a sign change: the first one
along lo, the sorted points, hi (Brent's safeguard, Algorithms for
Minimization without Derivatives, 1973). The midpoint is among the
points, so every step at least halves the bracket and no search takes
more steps than bisection. Regula falsi on the smooth b has an error of
order the square of the bracket width, so the ladder makes the error
shrink about quadratically from step to step: over the generated
scenario pools a search settles in a median of three steps, and at most
five, where bisection takes about 40. Next to a kernel call's fixed
cost the extra points are nearly free. A lane settles when its bracket
is 2 * ITP_EPS wide or when an evaluated point has |b| <= B_RESIDUAL;
that point is then the root, and otherwise the root is the
regula-falsi point of the final bracket. When b has constant sign over
the domain, r is monotone there and the maximizer sits on the boundary;
that result is returned flagged rather than treated as an error. b is
evaluated from the log-space kernel in analytics, so it stays finite
where q and q0 underflow; only a non-finite log q (an overflowing
shift) makes the solver raise NumericalError.

The solver works on lanes: one lane per sensor count M, each with its
own bracket and its own boundary/interior decision, all advanced by one
kernel call per step; a settled lane leaves the kernel calls. Every
update is elementwise, and a single solve is the one-lane case of the
same code, so a lane of a batched solve (as sizing runs) is
bit-identical to the solve of that M alone.

Note a structural fact about the reciprocal family: q(0) = q0 makes
b(0) = 0 exactly, and b strictly decreases, so b < 0 on all theta > 0.
Every admissible domain (theta_min >= A/K) therefore has its maximizer
at the theta_min boundary: the adversary stretches the transient across
as much of the window as the budget allows. Interior critical points
occur for the exponential family, where b(0) > 0.

maximize_unimodal checks the root search from values of r alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analytics import (
    PmdPoint, _check_theta, _kernel, _log_pmd, _slope_of, _Slot,
)
from .errors import NumericalError
from .model import AttackScenario

ITP_EPS = 1e-12             # root search: half-width of the bracket target
SEED_POINTS = 16            # b values per lane in the root search's seed call
_SEED_FRACTIONS = np.arange(SEED_POINTS) / (SEED_POINTS - 1)
# a step's points around the regula falsi point x: x and the rungs
# x -+ ITP_EPS * 1000^j, j = 0..3, one row each
_RUNGS = ITP_EPS * 1e3 ** np.arange(4)
_STEP_OFFSETS = np.concatenate((-_RUNGS[::-1], [0.0], _RUNGS))[:, None]
B_RESIDUAL = 1e-15          # |b| at which an evaluated point is taken as the root
_ZOOM_POINTS = 256          # r values per grid-zoom round
# r within this many ulps of its largest sampled value counts as the peak
_FLAT_ULPS = 32
# the method labels that optimize-v1 prints for an interior root and for
# a closed-form boundary result, where no root search runs; they name
# earlier solvers and stay until the schema changes
_ROOT_METHOD = "itp"
_BOUNDARY_METHOD = "bisect-newton"

# |b| below this is indistinguishable from rounding noise in double
# precision (b combines logs and ratios of O(1) probabilities); edge
# values inside the band are treated as zero so that flat, no-trade-off
# profiles resolve to a flagged boundary instead of chasing noise roots
B_NOISE_FLOOR = 1e-13


@dataclass(frozen=True)
class CriticalPoint:
    """Solver output: the worst-case theta and solution diagnostics.

    b_residual is |b(theta_star)|; fixed_point_residual checks the
    family's rearranged stationarity identity (theta = q log(q/q0) / q'
    for the reciprocal family, q = q'/log(q/q0) for the exponential one),
    or is |dr/dtheta| for a grid-zoom result, and is nan on a boundary. method is "itp" for an
    interior root and "bisect-newton" for a closed-form boundary, both
    labels frozen by the optimize-v1 output schema, and "grid-zoom" for
    maximize_unimodal. iterations counts the root search's steps after
    its seed call (0 on a boundary) or grid-zoom's rounds, and bracket is
    the final one.
    """

    theta_star: float
    Q_star: float
    b_residual: float
    fixed_point_residual: float
    iterations: int
    bracket: tuple[float, float]
    boundary: bool = False
    method: str = _ROOT_METHOD


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
    return _b_of(scenario.transient.family, theta, _kernel(scenario, theta, m))


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


def _bracket_search(scenario: AttackScenario, m: np.ndarray, grid: np.ndarray, seed: np.ndarray):
    """Root of b for each lane of m, from the seed values of b on the grid
    (one column per lane, with b(grid[0]) > 0 > b(grid[-1])).

    Returns the root estimates, the final brackets (lo, hi) and each
    lane's step count. A lane settles when its bracket is 2 * ITP_EPS
    wide, or when |b| falls to B_RESIDUAL at an evaluated point, which is
    then its root inside the bracket it had; settled lanes leave the
    kernel calls while the others step on.
    """
    if not np.isfinite(seed).all():
        raise NumericalError("b is not finite on the seed grid of the root search")
    n = k = m.size
    cols = live = np.arange(n)
    # the seed cell: the first grid point with b <= 0 and the one before it
    cell = (seed <= 0.0).argmax(axis=0)
    at = cell * n + cols
    lo, hi, b_lo, b_hi = grid.take(cell - 1), grid.take(cell), seed.take(at - n), seed.take(at)
    out = np.empty((3, n))  # root, lo, hi
    steps = np.empty(n, dtype=int)
    # bisection's step count over the whole domain to a 2 * ITP_EPS bracket;
    # at least 1, since only a step writes a lane's result
    n_max = max(1, math.ceil(math.log2((scenario.theta_max - scenario.theta_min) / (2.0 * ITP_EPS))))
    for step in range(1, n_max + 1):
        width = hi - lo
        x = lo + width * (b_lo / (b_lo - b_hi))  # regula falsi
        # rows: lo, then the step points in order, then hi
        xs = np.empty((_STEP_OFFSETS.size + 3, k))
        xs[0], xs[-2], xs[-1] = lo, lo + 0.5 * width, hi
        np.clip(x + _STEP_OFFSETS, lo, hi, out=xs[1:-2])
        points = xs[1:-1]
        points.sort(axis=0)
        y = _b(scenario, points, m)
        if not np.isfinite(y).all():
            bad = points[~np.isfinite(y)][0]
            raise NumericalError(f"b({bad}) is not finite during the root search")
        ys = np.concatenate((b_lo[None], y, b_hi[None]))
        size = np.abs(ys)
        settled = np.minimum.reduce(size) <= B_RESIDUAL
        # the tightest bracket: the first sign change along lo, the points, hi
        at = (ys <= 0.0).argmax(axis=0) * k + cols
        below = at - k
        new_lo, new_hi, b_lo, b_hi = xs.take(below), xs.take(at), ys.take(below), ys.take(at)
        done = settled | (new_hi - new_lo <= 2.0 * ITP_EPS)
        if step == n_max:
            done[:] = True
        if done.any():
            # a settled lane keeps its bracket and ends at its smallest |b|
            # point; the others end at the regula falsi point of the new one
            root = np.where(settled, xs.take(size.argmin(axis=0) * k + cols),
                            new_lo + (new_hi - new_lo) * (b_lo / (b_lo - b_hi)))
            ends = np.array((root, np.where(settled, lo, new_lo), np.where(settled, hi, new_hi)))
            out[:, live[done]] = ends[:, done]
            steps[live[done]] = step
            keep = ~done
            live = live[keep]
            k = live.size
            if not k:
                break
            m, cols = m[keep], cols[:k]
            new_lo, new_hi, b_lo, b_hi = new_lo[keep], new_hi[keep], b_lo[keep], b_hi[keep]
        lo, hi = new_lo, new_hi
    return out[0], out[1], out[2], steps


def _critical_lanes(scenario: AttackScenario, m) -> _Lanes:
    """Worst case for each sensor count in m.

    One kernel call evaluates b at SEED_POINTS even points of the domain
    per lane, edges included. Each lane settles on a boundary from its
    edge values or joins the bracket search from its seed cell. r at
    every lane's theta_star comes from the seed call's edge values when
    every lane is a boundary, and otherwise from one more kernel call. A
    non-finite b on any lane raises NumericalError.
    """
    family = scenario.transient.family
    m = np.asarray(m, dtype=float).reshape(-1)
    tmin, tmax = scenario.theta_min, scenario.theta_max
    grid = (tmin + (tmax - tmin) * _SEED_FRACTIONS)[:, None]
    grid[-1] = tmax
    # inf - inf in b is a nan that is reported, not a warning
    with np.errstate(invalid="ignore"):
        seed_slot = _kernel(scenario, grid, m)
        seed = _b_of(family, grid, seed_slot)
        b_lo, b_hi = seed[0], seed[-1]
        finite = np.isfinite(b_lo) & np.isfinite(b_hi)
        if not finite.all():
            bad = int(np.argmin(finite))
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
            theta[inner], lo[inner], hi[inner], iterations[inner] = _bracket_search(
                scenario, m[inner], grid[:, 0], seed[:, inner]
            )
            length, slot, r = _log_pmd(scenario, theta, m=m)
        else:
            # every lane sits on a domain edge, where the seed call has
            # evaluated the kernel already
            log_q = np.where(at_lo, seed_slot.log_q[0], seed_slot.log_q[-1])
            dlog_q = np.where(at_lo, seed_slot.dlog_q[0], seed_slot.dlog_q[-1])
            length, slot, r = _log_pmd(scenario, theta, slot=_Slot(log_q, seed_slot.log_q0, dlog_q))
    return _Lanes(theta=theta, L=length, r=r, Q=np.exp(r), iterations=iterations,
                  lo=lo, hi=hi, boundary=boundary, slot=slot)


def find_critical_point(scenario: AttackScenario) -> CriticalPoint:
    """Locate the unique critical point of r.

    The bracket search finds the root of b: the regula-falsi point of
    the final bracket, or an evaluated point where |b| <= B_RESIDUAL. If
    b does not change sign over [theta_min, theta_max], r is monotone
    and the matching boundary theta is returned with boundary=True. This
    is the one-lane case of the batched solve.
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
        method=_BOUNDARY_METHOD if boundary else _ROOT_METHOD,
    )


def maximize_unimodal(scenario: AttackScenario) -> CriticalPoint:
    """Maximize r from its values alone, zooming a grid in on the peak.

    r has a single peak (module docstring). Each round evaluates r at
    _ZOOM_POINTS points of the bracket in one kernel call and keeps the
    points within _FLAT_ULPS ulps of the top, plus one grid step each
    side. The first round that does not shrink the bracket fourfold (r is
    flat to rounding there) ends the search at the centre of the
    near-maximal points, or at a domain edge within the bracket's width,
    with the bracket widened to it. Over the bench/gen.py pools of seeds
    1-200 the bracket holds solve's theta_star on all 8,935 interior
    solves, within 1.4e-8 of the domain width, in at most 8 rounds.
    """
    tmin, tmax = scenario.theta_min, scenario.theta_max
    lo, hi, rounds = tmin, tmax, 0
    while True:
        grid = np.linspace(lo, hi, _ZOOM_POINTS)
        _, _, r = _log_pmd(scenario, grid)
        rounds += 1
        top = np.max(r)
        near = np.flatnonzero(r >= top - _FLAT_ULPS * np.spacing(abs(top)))
        width = hi - lo
        lo = float(grid[max(near[0] - 1, 0)])
        hi = float(grid[min(near[-1] + 1, _ZOOM_POINTS - 1)])
        if 4.0 * (hi - lo) > width:
            break

    theta = float(0.5 * (grid[near[0]] + grid[near[-1]]))
    at_edge = min(lo - tmin, tmax - hi) <= hi - lo
    if at_edge:
        if lo - tmin <= tmax - hi:
            theta = lo = tmin
        else:
            theta = hi = tmax

    # L, the kernel output and r at theta, shared by the slope, Q and b
    length, slot, r = _log_pmd(scenario, theta)
    fp_res = math.nan if at_edge else abs(_slope_of(scenario.transient.derivative(theta), length, slot))
    return CriticalPoint(
        theta_star=theta,
        Q_star=math.exp(r),
        b_residual=float(abs(_b_of(scenario.transient.family, theta, slot))),
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
