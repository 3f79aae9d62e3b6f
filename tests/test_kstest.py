"""KS statistic and p-values, cross-checked against scipy.stats; the normal
CDF and the Kolmogorov law against scipy.special, bit for bit."""

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from quenched_limits import kstest


def test_statistic_matches_scipy_uniform():
    rng = np.random.default_rng(0)
    x = rng.random(500)
    d = kstest.ks_statistic(x, lambda t: t)
    ref = scipy.stats.kstest(x, "uniform").statistic
    assert d == pytest.approx(ref, abs=1e-12)


def test_statistic_matches_scipy_normal():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(300)
    d = kstest.ks_statistic(x, kstest.normal_cdf)
    ref = scipy.stats.kstest(x, "norm").statistic
    assert d == pytest.approx(ref, abs=1e-12)


def stephens_factor(n):
    sqn = math.sqrt(n)
    return sqn + 0.12 + 0.11 / sqn


def pvalue_at(lam, n=400):
    """ks_pvalue at the statistic whose Stephens-corrected lambda is lam."""
    return kstest.ks_pvalue(lam / stephens_factor(n), n)


def test_kolmogorov_sf_values():
    # K distribution survival: classical table values
    assert pvalue_at(1.36) == pytest.approx(0.05, abs=1e-3)
    assert pvalue_at(1.63) == pytest.approx(0.01, abs=2e-3)
    assert pvalue_at(0.0) == 1.0
    assert pvalue_at(5.0) < 1e-20


def test_kolmogorov_sf_matches_scipy():
    for lam in (0.5, 0.8, 1.0, 1.5, 2.0):
        assert kstest._kolmogorov_sf(lam) == scipy.special.kolmogorov(lam)
        assert pvalue_at(lam) == scipy.special.kolmogorov(stephens_factor(400) * (
            lam / stephens_factor(400)))


# The series switch at 0.82, and the law is 1 up to pi / sqrt(746 * 8)
SWITCH, FLAT = 0.82, math.pi / math.sqrt(5968)


@settings(max_examples=300, deadline=None)
@given(lam=st.floats(0.0, 10.0))
@example(lam=SWITCH)
@example(lam=math.nextafter(SWITCH, 1.0))
@example(lam=math.nextafter(SWITCH, 0.0))
@example(lam=FLAT)
@example(lam=math.nextafter(FLAT, 1.0))
@example(lam=math.nextafter(FLAT, 0.0))
@example(lam=0.0)
@example(lam=-1.0)
@example(lam=math.nan)
def test_kolmogorov_sf_is_scipy_bit_for_bit(lam):
    p, ref = kstest._kolmogorov_sf(lam), float(scipy.special.kolmogorov(lam))
    assert type(p) is float
    assert p == ref or (math.isnan(p) and math.isnan(ref))


@settings(max_examples=200, deadline=None)
@given(lam=st.one_of(st.floats(0.0, 0.05), st.floats(0.0, 3.0)),
       n=st.integers(1, 10 ** 6))
def test_pvalue_is_kolmogorov_at_stephens_lambda(lam, n):
    # a truncated alternating series gave 0.397 at lambda = 0.005; the law is 1 there
    d = lam / stephens_factor(n)
    stephens_lam = stephens_factor(n) * d
    p = kstest.ks_pvalue(d, n)
    assert p == scipy.special.kolmogorov(stephens_lam)
    if stephens_lam <= 0.05:
        assert p == 1.0


def test_pvalue_sane_under_null():
    rng = np.random.default_rng(2)
    pvals = []
    for _ in range(200):
        x = rng.random(200)
        d = kstest.ks_statistic(x, lambda t: t)
        pvals.append(kstest.ks_pvalue(d, 200))
    pvals = np.array(pvals)
    # p-values approximately uniform: moderate rejection rates at both levels
    assert 0.0 <= np.mean(pvals < 0.05) <= 0.12
    assert np.mean(pvals < 0.5) == pytest.approx(0.5, abs=0.15)


def test_empty_sample_rejected():
    with pytest.raises(ValueError):
        kstest.ks_statistic(np.array([]), lambda t: t)


def test_normal_cdf_symmetry():
    assert kstest.normal_cdf(0.0) == pytest.approx(0.5)
    x = np.linspace(-3, 3, 13)
    assert kstest.normal_cdf(x) + kstest.normal_cdf(-x) == pytest.approx(np.ones(13))


def same_bits_or_both_nan(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and bool(np.all(
        (a.view(np.int64) == b.view(np.int64)) | (np.isnan(a) & np.isnan(b))))


# |a| = 1, sqrt 2, 8 sqrt 2 and sqrt(2 MAXLOG) = 37.677... are where ndtr's
# erf, erfc, large-x erfc and underflow branches meet; each with its
# neighbours and both signs
EDGES = (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * 709.782712893384), 37.68)
BRANCH_EDGES = np.array([s * math.nextafter(e, to) for e in EDGES
                         for to in (0.0, e, math.inf) for s in (1.0, -1.0)])
SPECIALS = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                     2.2e-308, -1e-310, 1e308, -1e308, 1.7976931348623157e308])
# every float, and the range where all of ndtr's branches are live
FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                   st.floats(-40.0, 40.0))
SHAPES = st.one_of(st.just(()), st.tuples(st.integers(0, 40)),
                   st.tuples(st.integers(0, 10), st.just(8)))


@settings(max_examples=200, deadline=None)
@given(x=SHAPES.flatmap(lambda shape: arrays(np.float64, shape, elements=FLOATS)))
@example(x=BRANCH_EDGES)
@example(x=np.linspace(-40.0, 40.0, 16001))
@example(x=SPECIALS)
@example(x=SPECIALS.reshape(-1, 1) * np.ones(8))
@example(x=np.array(37.68))
def test_normal_cdf_is_ndtr_bit_for_bit(x):
    with np.errstate(invalid="ignore"):            # signalling NaNs
        got = kstest.normal_cdf(x)
    assert type(got) is type(scipy.special.ndtr(x))
    assert same_bits_or_both_nan(got, scipy.special.ndtr(x))


@settings(max_examples=100, deadline=None)
@given(x=FLOATS)
@example(x=37.68)
@example(x=-math.inf)
def test_normal_cdf_of_a_float_is_a_numpy_float64_like_ndtr(x):
    with np.errstate(invalid="ignore"):
        got = kstest.normal_cdf(x)
    assert type(got) is np.float64
    assert same_bits_or_both_nan(got, scipy.special.ndtr(x))
