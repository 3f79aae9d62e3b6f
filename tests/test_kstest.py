"""KS statistic and p-values, cross-checked against scipy.stats."""

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings, strategies as st

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
        assert pvalue_at(lam) == pytest.approx(scipy.stats.kstwobign.sf(lam), abs=1e-10)


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
