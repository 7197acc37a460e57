"""Standard normal pdf, CDF, inverse CDF, and the lower-tail Mills margin.

Every function accepts a float or a numpy array and returns the matching
kind. Accuracy matters more than usual here: downstream code raises the
per-slot miss probability to powers of order K, so CDF error is amplified
roughly K-fold. The CDF is evaluated through the complementary error
function (relative error around 1e-15 in the central range, positive all
the way down to x = -38), and the quantile is a rational approximation
polished by two Halley steps against that CDF.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import DomainError

SQRT_2PI = math.sqrt(2.0 * math.pi)
LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# mills_margin evaluation regimes: direct ratio, log-space ratio, asymptote
_MILLS_LOG_CUTOFF = -30.0
_MILLS_ASYMPTOTIC_CUTOFF = -38.0


def _finite_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    return arr


def _like_input(out: np.ndarray, x) -> float | np.ndarray:
    if np.ndim(x) == 0:
        return float(out)
    return out


def pdf(x) -> float | np.ndarray:
    """Density of N(0, 1): exp(-x^2/2) / sqrt(2*pi)."""
    arr = _finite_array(x, "x")
    return _like_input(np.exp(-0.5 * arr * arr) / SQRT_2PI, x)


def cdf(x) -> float | np.ndarray:
    """Lower-tail probability of N(0, 1).

    Computed as 0.5 * erfc(-x / sqrt(2)) in the central range; below
    x = -36 the erfc evaluation underflows prematurely, so the tail is
    recovered as exp(log_cdf) instead, which stays strictly positive
    (subnormal) for x >= -38.
    """
    arr = _finite_array(x, "x")
    out = special.ndtr(arr)
    deep = arr < -36.0
    if np.any(deep):
        out = np.where(deep, np.exp(special.log_ndtr(arr)), out)
    return _like_input(out, x)


def log_cdf(x) -> float | np.ndarray:
    """log cdf(x), accurate arbitrarily far into the lower tail."""
    arr = _finite_array(x, "x")
    return _like_input(special.log_ndtr(arr), x)


def quantile(p) -> float | np.ndarray:
    """Inverse of cdf: the x with cdf(x) = p, for p strictly in (0, 1).

    A rational initial approximation is refined by two Halley steps
    against cdf, which pins the residual |cdf(x) - p| below 1e-12
    independent of the initial approximation's own error.
    """
    arr = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("p must lie strictly between 0 and 1")
    x = special.ndtri(arr)
    for _ in range(2):
        dens = np.exp(-0.5 * x * x) / SQRT_2PI
        with np.errstate(divide="ignore", invalid="ignore"):
            d = (special.ndtr(x) - arr) / dens
            step = d / (1.0 + 0.5 * x * d)
        # where the density underflows the initial approximation is final
        x = np.where(np.isfinite(step), x - step, x)
    return _like_input(x, p)


def mills_margin(x) -> float | np.ndarray:
    """pdf(x)/cdf(x) + x, strictly positive for every finite x.

    Three regimes keep the positivity visible in floating point: the
    direct ratio for x >= -30, a log-space ratio on [-38, -30) where pdf
    and cdf are subnormal-prone, and the asymptote -1/x below -38 (from
    pdf/cdf ~ -x - 1/x; an approximation, relative error under 2e-3 at
    the switch point).
    """
    arr = _finite_array(x, "x")
    scalar = np.ndim(x) == 0
    a = np.atleast_1d(arr).astype(float)
    out = np.empty_like(a)

    direct = a >= _MILLS_LOG_CUTOFF
    logspace = (a < _MILLS_LOG_CUTOFF) & (a >= _MILLS_ASYMPTOTIC_CUTOFF)
    tail = a < _MILLS_ASYMPTOTIC_CUTOFF

    if direct.any():
        xd = a[direct]
        out[direct] = np.exp(-0.5 * xd * xd) / SQRT_2PI / special.ndtr(xd) + xd
    if logspace.any():
        xl = a[logspace]
        log_ratio = (-0.5 * xl * xl - LOG_SQRT_2PI) - special.log_ndtr(xl)
        out[logspace] = np.exp(log_ratio) + xl
    if tail.any():
        out[tail] = -1.0 / a[tail]

    return float(out[0]) if scalar else out.reshape(arr.shape)
