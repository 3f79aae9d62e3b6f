"""Birkhoff-sum ensembles, limit-law tests, Brownian oracle, rate formulas."""

import math

import numpy as np
import pytest

from quenched_limits import stats
from quenched_limits.kstest import ks_statistic, normal_cdf
from quenched_limits.maps import get_observable
from quenched_limits.omega import make_sequence


def small_doubling_ensemble(n_steps=256, n_samples=3000):
    seq = make_sequence(1, "doubling", (0.0, 0.0))
    return stats.birkhoff_ensemble(seq, get_observable("cos2pi"), n_steps,
                                   n_samples, "equivariant", 2 ** 10, 8, 32)


def test_dyadic_records():
    recs = stats._dyadic_records(1024)
    assert recs.tolist() == [4, 8, 16, 32, 64, 128, 256, 512, 1024]
    assert stats._dyadic_records(100)[-1] == 100


def test_doubling_values_uniform():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))
    it = stats._doubling_orbit_values(20000, 3, rng)
    for _ in range(3):
        xs = next(it)
        d = ks_statistic(xs, lambda t: t)
        assert d < 0.015
        assert np.all((xs >= 0) & (xs < 1))


def test_doubling_values_follow_doubling_map():
    # consecutive values satisfy x_{k+1} = 2 x_k mod 1 up to the dropped bit
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(1)))
    it = stats._doubling_orbit_values(1000, 2, rng)
    x1 = next(it)
    x2 = next(it)
    err = np.abs(np.mod(2.0 * x1, 1.0) - x2)
    err = np.minimum(err, 1.0 - err)    # wraparound of the lowest bit
    assert np.max(err) <= 2.0 ** -52


def test_ensemble_shapes_and_extrema():
    ens = small_doubling_ensemble()
    assert ens.record_ns[-1] == ens.n_steps
    assert ens.S_records.shape == (ens.record_ns.size, ens.n_samples)
    assert np.all(ens.path_max >= 0) and np.all(ens.path_min <= 0)
    assert np.all(ens.path_absmax >= np.maximum(ens.path_max, -ens.path_min) - 1e-12)
    assert np.all(ens.path_absmax >= np.abs(ens.terminal) - 1e-12)
    with pytest.raises(ValueError):
        small_doubling_ensemble(0, 10)


def test_ensemble_reproducible():
    a = small_doubling_ensemble(64, 100)
    b = small_doubling_ensemble(64, 100)
    assert np.array_equal(a.S_records, b.S_records)


def test_variance_growth_flat_for_doubling():
    ens = small_doubling_ensemble(512, 5000)
    vg = stats.variance_growth(ens)
    for i, n in enumerate(vg["n"]):
        if n >= 64:
            assert vg["ci_lo"][i] < 0.5 < vg["ci_hi"][i] or \
                abs(vg["var_over_n"][i] - 0.5) < 0.05


def test_qclt_doubling():
    ens = small_doubling_ensemble(512, 5000)
    res = stats.qclt_test(ens, 0.5)
    assert res["ks_distance"] < 0.03
    with pytest.raises(ValueError):
        stats.qclt_test(ens, 0.0)


def test_null_calibration():
    cal = stats.qclt_null_calibration(2000, n_steps=64, reps=60)
    assert cal["rejection_rate"] <= 0.05


def test_qlil_envelope_orders():
    ens = small_doubling_ensemble(2048, 2000)
    env = stats.qlil_envelope(ens, 0.5)
    # scaled max should be positive O(1), and the c2 normalization is the
    # c1 one divided by sqrt(2)
    assert env["c2"]["max"]["median"] == pytest.approx(
        env["c1"]["max"]["median"] / math.sqrt(2.0), rel=1e-9)
    assert 0.2 < env["c1"]["max"]["median"] < 2.5
    assert -2.5 < env["c1"]["min"]["median"] < -0.2


def test_brownian_sup_cdf_reflection():
    # P(sup B <= a) = 2 Phi(a) - 1 for sigma = 1
    a = np.array([0.5, 1.0, 2.0])
    ref = 2.0 * normal_cdf(a) - 1.0
    assert stats.brownian_sup_cdf(a) == pytest.approx(ref, abs=1e-12)
    assert stats.brownian_sup_cdf(np.array([0.0]))[0] == 0.0


def test_brownian_oracle_self_test():
    res = stats.brownian_oracle_self_test(n_paths=40000)
    assert res["ks_distance"] < 0.01


def test_brownian_terminal_law():
    s = stats.brownian_functional_samples("terminal", 2.0, 50000, 256)
    d = ks_statistic(s / 2.0, normal_cdf)
    assert d < 0.01


def test_qfclt_terminal_equals_qclt():
    ens = small_doubling_ensemble(256, 2000)
    a = stats.qfclt_paths(ens, 0.5, "terminal")
    b = stats.qclt_test(ens, 0.5)
    assert a["ks_distance"] == b["ks_distance"]


def test_qfclt_sup_doubling():
    ens = small_doubling_ensemble(1024, 4000)
    res = stats.qfclt_paths(ens, 0.5, "sup", brownian_paths=40000)
    assert res["ks_distance"] < 0.05


def test_asip_rate_reference_point():
    res = stats.asip_rate(stats.RateParams(p=math.inf, D=10.0))
    assert res["epsilon_1"] == 0.25
    assert res["epsilon_D"] == 0.1640625
    assert res["epsilon_0_interval"] == [0.1640625, 0.25]


def test_asip_rate_finite_p():
    res = stats.asip_rate(stats.RateParams(p=4.0, D=12.0))
    assert res["epsilon_1"] == pytest.approx(4.0 / 15.0)
    assert res["epsilon_D"] < 0.25


def test_asip_rate_inadmissible():
    with pytest.raises(ValueError):
        stats.asip_rate(stats.RateParams(p=2.0, D=9.0))
    with pytest.raises(ValueError):
        stats.asip_rate(stats.RateParams(p=1.0, D=100.0))


def test_asip_rate_exponential():
    res = stats.asip_rate(stats.RateParams(p=math.inf, exponential=True, a=1.0, b=0.5))
    assert res["arbitrarily_small"]
    with pytest.raises(ValueError):
        stats.asip_rate(stats.RateParams(p=math.inf, exponential=True, a=-1.0, b=0.5))
