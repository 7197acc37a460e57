"""Normal-kernel contracts: closed-form values, round trips, tail safety.

Reference values were frozen from a 50-digit mpmath evaluation of the
error function and its inverse.
"""

import math

import mpmath
import numpy as np
import pytest

from pmdkit import DomainError, stdnorm


def test_pdf_closed_form_values():
    assert stdnorm.pdf(0.0) == pytest.approx(0.3989422804014327, abs=1e-16)
    assert stdnorm.pdf(1.0) == pytest.approx(0.24197072451914337, abs=1e-16)


def test_pdf_symmetry():
    xs = np.linspace(-10, 10, 1001)
    np.testing.assert_array_equal(stdnorm.pdf(xs), stdnorm.pdf(-xs))


def test_cdf_values():
    assert stdnorm.cdf(0.0) == 0.5
    # cdf at the 90% quantile (mpmath oracle)
    assert stdnorm.cdf(1.2815515655446004) == pytest.approx(0.9, abs=1e-12)


def test_cdf_no_underflow_to_zero_down_to_minus_38():
    xs = np.array([-30.0, -35.0, -38.0])
    assert np.all(stdnorm.cdf(xs) > 0.0)


def test_cdf_complement_identity():
    xs = np.linspace(-8, 8, 2001)
    np.testing.assert_allclose(stdnorm.cdf(xs) + stdnorm.cdf(-xs), 1.0, atol=1e-14)


def test_cdf_strictly_increasing():
    # strict ordering holds wherever the result is not pinned to 1.0 by
    # double rounding (cdf(x) == 1.0 exactly for x above ~8.3)
    xs = np.sort(np.random.default_rng(3).uniform(-10, 8, 500))
    vals = stdnorm.cdf(xs)
    assert np.all(np.diff(vals) > 0)
    wide = np.sort(np.random.default_rng(4).uniform(-40, 40, 500))
    assert np.all(np.diff(stdnorm.cdf(wide)) >= 0)


def test_quantile_values():
    assert stdnorm.quantile(0.5) == 0.0
    assert stdnorm.quantile(0.9) == pytest.approx(1.2815515655446004, abs=1e-9)
    assert stdnorm.quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-9)


def test_quantile_residual_contract():
    ps = np.concatenate(
        [
            np.linspace(1e-6, 1 - 1e-6, 501),
            np.array([1e-300, 1e-20, 1e-10, 1 - 1e-10, 1 - 1e-15]),
        ]
    )
    residual = np.abs(stdnorm.cdf(stdnorm.quantile(ps)) - ps)
    assert residual.max() <= 1e-12


def test_quantile_within_four_ulps_of_the_exact_root():
    # the exact root lies between x - 4 ulp and x + 4 ulp exactly when the
    # cdf brackets p there (cdf is increasing); near p = 1 the bracket is
    # about 1e-30 wide, so 40 digits resolve it
    ps = np.concatenate((np.geomspace(1e-300, 0.5, 1250), 1.0 - np.geomspace(1e-16, 0.5, 1250)))
    xs = stdnorm.quantile(ps)
    with mpmath.workdps(40):
        for p, x in zip(ps, xs):
            step = mpmath.mpf(4.0 * np.spacing(abs(x)))
            lo, hi = mpmath.ncdf(mpmath.mpf(x) - step), mpmath.ncdf(mpmath.mpf(x) + step)
            assert lo <= mpmath.mpf(p) <= hi, (p, x)


def test_quantile_monotone():
    ps = np.linspace(1e-9, 1 - 1e-9, 400)
    assert np.all(np.diff(stdnorm.quantile(ps)) > 0)


def test_round_trip_quantile_cdf():
    # Above x ~ 5.2 the double representing cdf(x) cannot separate nearby
    # x (spacing near 1 is 1.1e-16, i.e. ~1.1e-16/pdf(x) in x terms), so
    # the achievable round-trip error is the representability limit there;
    # everywhere the probability carries the information, 1e-9 is enforced.
    xs = np.linspace(-8, 8, 801)
    err = np.abs(stdnorm.quantile(stdnorm.cdf(xs)) - xs)
    info_limit = 2.0 * np.spacing(stdnorm.cdf(xs)) / stdnorm.pdf(xs)
    assert np.all(err <= np.maximum(1e-9, info_limit))
    lower = xs <= 5.0
    assert np.all(err[lower] <= 1e-9)


def test_mills_margin_closed_form_and_oracle_values():
    assert stdnorm.mills_margin(0.0) == pytest.approx(2.0 * stdnorm.pdf(0.0), rel=1e-15)
    assert stdnorm.mills_margin(3.0) == pytest.approx(3.0044378390421257, rel=1e-13)
    value_minus5 = stdnorm.mills_margin(-5.0)
    assert 0.0 < value_minus5 < 0.2
    assert value_minus5 == pytest.approx(0.18650396712584212, rel=1e-12)


def test_mills_margin_positive_on_quasi_random_screen():
    n = 100_000
    phi_frac = (math.sqrt(5.0) - 1.0) / 2.0
    xs = -12.0 + 24.0 * (np.arange(1, n + 1) * phi_frac % 1.0)
    assert np.min(stdnorm.mills_margin(xs)) > 0.0


def test_mills_margin_log_space_regime():
    # [-38, -30): direct ratio is subnormal-prone, log space stays sound.
    # The margin is a near-cancellation (ratio ~ -x, margin ~ -1/x), which
    # amplifies the log-domain rounding by ~x^2; 1e-8 relative is the
    # honest achievable tolerance here.
    assert stdnorm.mills_margin(-31.0) == pytest.approx(0.03219127677772473, rel=1e-8)
    assert stdnorm.mills_margin(-35.0) == pytest.approx(0.02852497059668787, rel=1e-8)
    assert stdnorm.mills_margin(-38.0) == pytest.approx(0.026279466575868988, rel=1e-8)


def test_mills_margin_asymptotic_regime():
    # below -38 the documented -1/x approximation takes over
    assert stdnorm.mills_margin(-40.0) == pytest.approx(0.025, rel=1e-12)
    assert stdnorm.mills_margin(-100.0) == pytest.approx(0.01, rel=1e-12)
    # the hand-off is continuous to within the approximation's error
    assert stdnorm.mills_margin(-38.0) == pytest.approx(
        stdnorm.mills_margin(-38.0000001), rel=2e-3
    )


def test_mills_margin_positive_everywhere_sampled():
    xs = np.linspace(-60, 12, 5000)
    assert np.min(stdnorm.mills_margin(xs)) > 0.0


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_inputs_rejected(bad):
    with pytest.raises(DomainError):
        stdnorm.pdf(bad)
    with pytest.raises(DomainError):
        stdnorm.cdf(bad)
    with pytest.raises(DomainError):
        stdnorm.mills_margin(bad)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5, math.nan])
def test_quantile_domain(bad):
    with pytest.raises(DomainError):
        stdnorm.quantile(bad)


def test_scalar_in_scalar_out():
    assert isinstance(stdnorm.cdf(0.3), float)
    assert isinstance(stdnorm.quantile(0.3), float)
    assert isinstance(stdnorm.mills_margin(0.3), float)
    out = stdnorm.cdf(np.array([0.1, 0.2]))
    assert isinstance(out, np.ndarray) and out.shape == (2,)
    out = stdnorm.mills_margin(np.array([[-40.0, -31.0], [0.0, 2.0]]))
    assert out.shape == (2, 2)
