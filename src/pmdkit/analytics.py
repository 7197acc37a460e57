"""Closed-form detection quantities.

Per-slot miss probability for a slot-level spend theta:

    q(theta) = cdf(u),   u = x_star - sqrt(M) * mu(gamma(theta))

with gamma(theta) = theta/M or theta depending on the scenario convention,
and q0 = q(0) = cdf(x_star - sqrt(M) * mu(0)) for post-transient slots.
The missed-detection probability over the K-slot window is

    Q(theta) = q(theta)^L * q0^(K - L),      r = log Q.

Every quantity comes from one array-first kernel, _kernel, which works
in log space: log q = log_cdf(u), and with the Mills ratio
lam = exp(log pdf(u) - log cdf(u)) and u' = du/dtheta,

    d log q / dtheta = lam * u'
    dr/dtheta        = L' * (log q - log q0) + L * d log q / dtheta

so neither q nor q0 underflowing to 0 stops r or its slope, and q is
reported as exp(log q). No result needs a second derivative. The public
functions validate their arguments and are thin views over the kernel;
internal callers (the optimizer) call the kernel directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special

from . import stdnorm
from .errors import DomainError, NumericalError, TransientExceedsWindowError
from .model import AttackScenario, _require_whole


@dataclass(frozen=True)
class SlotMiss:
    """Per-slot miss probability and its theta-derivative."""

    theta: float
    q_theta: float
    q0: float
    dq_dtheta: float


@dataclass(frozen=True)
class PmdPoint:
    """Missed-detection probability at one theta, with its log value."""

    theta: float
    L: float
    Q: float
    r: float


@dataclass(frozen=True)
class PmdCurve:
    """Vectorized PMD profile over a theta grid (parallel arrays)."""

    theta: np.ndarray
    L: np.ndarray
    q_theta: np.ndarray
    Q: np.ndarray
    r: np.ndarray


class _Slot(NamedTuple):
    """Kernel output, elementwise over the broadcast of theta and M."""

    log_q: float | np.ndarray
    log_q0: float | np.ndarray
    dlog_q: float | np.ndarray


# a huge shift overflows to inf on purpose (numpy arithmetic, where Python
# floats would raise); the solver reports the nan that follows
@np.errstate(over="ignore", invalid="ignore")
def _kernel(scenario: AttackScenario, theta, m=None) -> _Slot:
    """log q, log q0 and d log q/dtheta at theta (float or ndarray), unchecked.

    m is the sensor count, the detector's M by default; an ndarray of
    counts makes one lane per entry, broadcast against theta. Every step
    is elementwise, so a lane's values do not depend on the other lanes.
    """
    det = scenario.detector
    if m is None:
        m, sqrt_m = det.M, math.sqrt(det.M)
    else:
        sqrt_m = np.sqrt(m)
    cf = scenario.gamma(1.0, m)
    mu, mu1 = scenario.mean._profile(scenario.gamma(np.asarray(theta, dtype=float), m))
    u = det.x_star - sqrt_m * mu
    du = -sqrt_m * mu1 * cf
    log_q = special.log_ndtr(u)
    # mu(0) = c for every mean family
    log_q0 = special.log_ndtr(det.x_star - sqrt_m * scenario.mean.c)
    lam = np.exp(-0.5 * u * u - stdnorm.LOG_SQRT_2PI - log_q)
    return _Slot(log_q=log_q, log_q0=log_q0, dlog_q=lam * du)


def _log_pmd(scenario: AttackScenario, theta, length=None, m=None, slot=None):
    """(L, kernel output, r) at theta, unchecked; L defaults to L(theta),
    m, the sensor count lanes, to the detector's M, and the kernel output
    to a kernel call at theta. A non-finite r (log q = log q0 = -inf, from
    an overflowing shift) raises NumericalError."""
    if length is None:
        length = scenario.transient_length(theta)
    if slot is None:
        slot = _kernel(scenario, theta, m)
    with np.errstate(invalid="ignore"):  # -inf - -inf is the nan refused below
        r = length * (slot.log_q - slot.log_q0) + scenario.detector.K * slot.log_q0
    if not np.isfinite(r).all():
        raise NumericalError("log Q is not finite: the mean shift overflows the normal tail")
    return length, slot, r


def _slope_of(d1, length, slot: _Slot) -> float:
    """dr/dtheta from L' (d1), L and the kernel output at one theta."""
    return float(d1 * (slot.log_q - slot.log_q0) + length * slot.dlog_q)


def _check_theta(theta, lo: float, hi: float, strict: bool = False) -> float:
    """theta as a float, refused unless it lies in [lo, hi] (or strictly inside)."""
    theta = float(theta)
    inside = lo < theta < hi if strict else lo - 1e-12 <= theta <= hi + 1e-12
    if not inside:  # also refuses nan
        where = "strictly inside" if strict else "in"
        raise DomainError(f"theta must lie {where} [{lo}, {hi}], got {theta!r}")
    return theta


def q0(scenario: AttackScenario) -> float:
    """Post-transient per-slot miss probability (full shift mu(0))."""
    return float(np.exp(_kernel(scenario, 0.0).log_q0))


def slot_miss(scenario: AttackScenario, theta: float) -> SlotMiss:
    """Per-slot miss probability q(theta) with analytic derivatives.

    theta = 0 is allowed (it reproduces q0); theta may not exceed the
    scenario's theta_max.
    """
    theta = _check_theta(theta, 0.0, scenario.theta_max)
    slot = _kernel(scenario, theta)
    q = float(np.exp(slot.log_q))
    return SlotMiss(
        theta=theta,
        q_theta=q,
        q0=float(np.exp(slot.log_q0)),
        dq_dtheta=float(q * slot.dlog_q),
    )


def pmd(scenario: AttackScenario, theta: float, transient_slots: int | None = None) -> PmdPoint:
    """Missed-detection probability over the K-slot window at spend theta.

    transient_slots overrides the real-valued L with an explicit whole
    number of transient slots; the simulator truncates L that way, and
    passing floor(L) here aligns the closed form with it.
    """
    theta = _check_theta(theta, scenario.theta_min, scenario.theta_max)
    if transient_slots is not None:
        transient_slots = _require_whole(transient_slots, "transient_slots", lo=0)
        if transient_slots > scenario.detector.K:
            raise TransientExceedsWindowError(
                f"transient_slots = {transient_slots} exceeds the window K = "
                f"{scenario.detector.K}"
            )
        transient_slots = float(transient_slots)
    length, _, r = _log_pmd(scenario, theta, transient_slots)
    return PmdPoint(theta=theta, L=float(length), Q=math.exp(r), r=float(r))


def pmd_curve(scenario: AttackScenario, thetas) -> PmdCurve:
    """Vectorized PMD over a theta grid (same kernel as pmd)."""
    th = np.asarray(thetas, dtype=float)
    if th.ndim != 1 or th.size == 0:
        raise DomainError("thetas must be a non-empty 1-d array")
    lo, hi = scenario.theta_min, scenario.theta_max
    if not ((th >= lo - 1e-12) & (th <= hi + 1e-12)).all():  # also refuses nan
        raise DomainError(f"thetas must be finite and lie in [{lo}, {hi}]")
    length, slot, r = _log_pmd(scenario, th)
    return PmdCurve(theta=th, L=length, q_theta=np.exp(slot.log_q), Q=np.exp(r), r=r)


def log_pmd_derivative(scenario: AttackScenario, theta: float) -> float:
    """dr/dtheta at an interior theta; zero exactly at the worst case."""
    theta = _check_theta(theta, scenario.theta_min, scenario.theta_max, strict=True)
    length = scenario.transient_length(theta)
    return _slope_of(scenario.transient.derivative(theta), length, _kernel(scenario, theta))


def allocation_miss(scenario: AttackScenario, allocations) -> float | np.ndarray:
    """Per-slot miss probability for an explicit per-sensor allocation.

    Sensor i receives allocations[i] resources, so its mean is
    mu(allocations[i]); the slot misses when the summed statistic stays
    below threshold:  cdf(x_star - sum_i mu(alloc_i) / sqrt(M)).
    A length-M vector gives a float; an (n, M) stack of allocations gives
    the n miss probabilities, one per row.
    """
    det = scenario.detector
    return stdnorm.cdf(det.x_star - scenario.allocation_shift(allocations) / math.sqrt(det.M))
