"""Detector sizing: the smallest sensor count that caps the adversary's
worst-case missed-detection probability.

Q*(M), the worst case over theta, is non-increasing in M. The per-slot
miss probability is q = cdf(x_star - sqrt(M) * mu(gamma)), and x_star does
not depend on M. Under per_sensor, gamma = theta/M and

    d/dM [sqrt(M) * mu(theta/M)] = (mu - 2 (theta/M) mu') / (2 sqrt(M)) > 0

because mu > 0 and mu' < 0; under raw, sqrt(M) * mu(theta) grows with M.
So q(theta; M) falls with M at every theta, q0 = q(0) included, hence so
do Q(theta; M) = q^L * q0^(K - L) and its maximum over theta. The
MonotonicityError guard below only catches numerical error.

The answer is bracketed in closed form. mu is decreasing with mu(0) = c,
so q0 <= q(theta) <= q(theta_max), and 0 <= L <= K gives, for every
admissible theta,

    q0(M)^K  <=  Q(theta; M)  <=  q(theta_max; M)^K.

- Lower bound: Q*(M) <= delta needs q0(M)^K <= delta, that is
  sqrt(M) * c >= x_star - quantile(delta^(1/K)). So M_min >= M_lo =
  ceil(((x_star - quantile(delta^(1/K))) / c)^2), or 1 when the numerator
  is <= 0: the sensors the detector would need with no adversary.
- Upper bound: once K log q(theta_max; M) <= log delta, Q*(M) <= delta.
  So M_min <= M_hi, the smallest such M, which a search finds because
  q(theta_max; M) falls with M.

M_min - M_lo is the price of the adversary. min_sensors solves every M
from max(1, M_lo - 1) to min(M_hi, m_max) in batched chunks of LANE_CHUNK
lanes, stopping at the first chunk with an M that meets delta. The extra
lane M_lo - 1 must fail; if rounding made it pass, the scan widens
downward, so no M below a reported M_min is left unsolved.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import stdnorm
from .analytics import _kernel
from .errors import DomainError, InfeasibleAtCapError, MonotonicityError
from .model import AttackScenario, _require_whole
from .optimize import _critical_lanes

LANE_CHUNK = 64  # sensor counts per batched solve or bound probe
_MONOTONE_SLACK = 1e-12


@dataclass(frozen=True)
class SizingResult:
    """Smallest adequate sensor count and the evidence for it.

    scan lists every (M, worst-case Q) pair the search evaluated, sorted
    by M: every M from max(1, M_lo - 1) up to at least M_min, and the cap
    m_max when M_hi lies above it. Q_at_M_min_minus_1 is None only when
    M_min == 1. M_lo and M_hi are the closed-form bounds on M_min; M_hi
    is None when it lies above m_max.
    """

    delta: float
    M_min: int
    Q_at_M_min: float
    Q_at_M_min_minus_1: float | None
    scan: tuple[tuple[int, float], ...]
    M_lo: int
    M_hi: int | None


def scenario_with_sensors(scenario: AttackScenario, m: int) -> AttackScenario:
    """Copy of the scenario with the detector using m sensors."""
    detector = dataclasses.replace(scenario.detector, M=m)
    return dataclasses.replace(scenario, detector=detector)


def _lower_bound(scenario: AttackScenario, delta: float, m_max: int) -> int:
    """M_lo, the no-adversary sensor count; m_max + 1 when it exceeds m_max."""
    log_p = math.log(delta) / scenario.detector.K  # log delta^(1/K)
    # delta^(1/K) is often close to 1: take its quantile from the upper tail
    if log_p < -math.log(2.0):
        z = stdnorm.quantile(math.exp(log_p))
    else:
        z = -stdnorm.quantile(-math.expm1(log_p))
    root = (scenario.detector.x_star - z) / scenario.mean.c
    if root <= 0.0:
        return 1
    need = root * root
    return m_max + 1 if need > m_max else max(1, math.ceil(need))


def _upper_bound(scenario: AttackScenario, delta: float, m_lo: int, m_max: int) -> int | None:
    """M_hi, the smallest M <= m_max with K log q(theta_max; M) <= log
    delta, or None when there is none. Each round probes up to LANE_CHUNK
    counts in one kernel call."""
    scale, target = scenario.detector.K, math.log(delta)
    lo, hi = m_lo - 1, m_max + 1  # the bound fails at lo (M_hi >= M_lo); hi: not found
    while hi - lo > 1:
        if hi - lo - 1 <= LANE_CHUNK:
            probes = np.arange(lo + 1, hi)
        else:
            probes = np.linspace(lo, hi, LANE_CHUNK + 2)[1:-1].astype(np.int64)
        met = scale * _kernel(scenario, scenario.theta_max, probes.astype(float)).log_q <= target
        first = int(np.argmax(met)) if met.any() else probes.size
        if first < probes.size:
            hi = int(probes[first])
        if first > 0:
            lo = int(probes[first - 1])
    return None if hi > m_max else hi


def _worst_q(scenario: AttackScenario, ms: np.ndarray) -> np.ndarray:
    """Worst-case Q at each sensor count, from one batched solve."""
    return _critical_lanes(scenario, ms).Q


def min_sensors(scenario_template: AttackScenario, delta: float, m_max: int) -> SizingResult:
    """Smallest M <= m_max with worst-case PMD at most delta.

    Every M in the closed-form bracket is solved, in batched chunks, up to
    the first chunk that meets delta; the assumption that Q* decreases in
    M is re-checked between every pair of consecutive evaluated M (a
    violation raises rather than returning a wrong M).
    """
    delta = float(delta)
    if not math.isfinite(delta) or not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie strictly between 0 and 1, got {delta!r}")
    m_max = _require_whole(m_max, "m_max")

    evaluated: dict[int, float] = {}

    def first_meeting(first: int, last: int) -> int | None:
        """Solve first..last as one batch; the smallest M there with Q <= delta."""
        ms = np.arange(first, last + 1)
        qs = _worst_q(scenario_template, ms)
        evaluated.update(zip(ms.tolist(), qs.tolist()))
        met = np.flatnonzero(qs <= delta)
        return first + int(met[0]) if met.size else None

    m_lo = _lower_bound(scenario_template, delta, m_max)
    if m_lo > m_max:
        first_meeting(m_max, m_max)
        raise InfeasibleAtCapError(delta, m_max, evaluated[m_max])
    m_hi = _upper_bound(scenario_template, delta, m_lo, m_max)
    if m_hi is None and first_meeting(m_max, m_max) is None:
        raise InfeasibleAtCapError(delta, m_max, evaluated[m_max])

    top = m_max if m_hi is None else m_hi
    bottom = first = max(1, m_lo - 1)
    m_min = None
    while m_min is None:
        if first > m_max:  # rounding broke the upper bound at the cap
            raise InfeasibleAtCapError(delta, m_max, evaluated[m_max])
        # past top only if rounding broke the upper bound
        last = min(first + LANE_CHUNK - 1, top if first <= top else m_max)
        m_min = first_meeting(first, last)
        first = last + 1
    while m_min == bottom > 1:  # rounding broke the lower bound: widen down
        bottom = max(1, bottom - LANE_CHUNK)
        m_min = first_meeting(bottom, m_min - 1) or m_min

    scan = tuple(sorted(evaluated.items()))
    for (m_a, q_a), (m_b, q_b) in zip(scan, scan[1:]):
        if q_b > q_a + _MONOTONE_SLACK:
            raise MonotonicityError(
                f"worst-case PMD increased from Q({m_a}) = {q_a:.12g} to "
                f"Q({m_b}) = {q_b:.12g}; refusing to trust the bracketing search"
            )

    return SizingResult(
        delta=delta,
        M_min=m_min,
        Q_at_M_min=evaluated[m_min],
        Q_at_M_min_minus_1=evaluated.get(m_min - 1),
        scan=scan,
        M_lo=m_lo,
        M_hi=m_hi,
    )
