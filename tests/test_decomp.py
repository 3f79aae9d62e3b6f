"""Martingale-coboundary decomposition and the variance/degeneracy tests."""

import numpy as np
import pytest

from quenched_limits import decomp, transfer
from quenched_limits.maps import get_observable
from quenched_limits.omega import make_sequence


def test_doubling_cos_variance_is_half():
    # all correlations of cos(2 pi x) vanish under doubling, so
    # sigma^2 = int cos^2(2 pi x) dx = 1/2
    s2, se, per = decomp.sigma_squared("doubling", (0.0, 0.0), [1], get_observable("cos2pi"),
                                       16, 2 ** 12, 16, 32)
    assert s2 == pytest.approx(0.5, abs=0.01)
    assert len(per) == 1
    assert per[0].sigma2_fiber == s2


def test_doubling_cos_residual_vanishes():
    seq = make_sequence(1, "doubling", (0.0, 0.0))
    d = decomp.martingale_psi(seq, get_observable("cos2pi"), 8, 2 ** 12, 16, 32)
    assert d.residual < 1e-6
    assert d.truncation_tail < 1e-6
    assert d.masked_fraction == 0.0


def test_psi_has_zero_mean():
    # int psi dmu_w = 0 by construction (it is a martingale difference)
    seq = make_sequence(4, "lsv", (0.05, 0.15))
    d = decomp.martingale_psi(seq, get_observable("cos2pi"), 12, 2 ** 11, 24, 32)
    h0 = transfer.equivariant_density(seq, 2 ** 11, 12 + 24, 32)
    assert abs(float(d.psi @ h0)) < 1e-6
    # the kept fiber-0 density is the one anchored at -(K_trunc + depth)
    assert np.array_equal(d.h, h0)


def test_residual_decreases_as_K_doubles():
    seq = make_sequence(1, "lsv", (0.05, 0.15))
    phi = get_observable("cos2pi")
    res = [decomp.martingale_psi(seq, phi, K, 2 ** 11, 24, 32).residual
           for K in (4, 8, 16)]
    assert res[1] <= 2.0 * res[0]
    assert res[2] <= 2.0 * res[1]
    assert res[2] < res[0]


def test_truncation_tail_shrinks_with_K():
    seq = make_sequence(2, "lsv", (0.1, 0.3))
    phi = get_observable("cos2pi")
    tails = [decomp.martingale_psi(seq, phi, K, 2 ** 10, 16, 32).truncation_tail
             for K in (2, 8, 24)]
    assert tails[2] < tails[1] < tails[0]


def test_sigma_squared_ensemble():
    s2, se, per = decomp.sigma_squared("lsv", (0.05, 0.15), [1, 2, 3],
                                       get_observable("cos2pi"), 12, 2 ** 10, 16, 32)
    assert len(per) == 3
    assert se > 0.0
    assert s2 == pytest.approx(np.mean([d.sigma2_fiber for d in per]))
    assert s2 > 0.1


def test_coboundary_detected_as_degenerate():
    res = decomp.coboundary_test("doubling", (0.0, 0.0), [1], get_observable("coboundary_cos"),
                                 n_bins=2 ** 13, depth=16, subsamples=32)
    assert res["verdict"] == "degenerate"
    assert res["pointwise_residual"] < 1e-3


def test_cos_detected_as_nondegenerate():
    res = decomp.coboundary_test("doubling", (0.0, 0.0), [1], get_observable("cos2pi"),
                                 n_bins=2 ** 11, depth=8, subsamples=32)
    assert res["verdict"] == "nondegenerate"
    assert res["pointwise_residual"] is None
    assert res["sigma2"] == pytest.approx(0.5, abs=0.02)


def test_sample_from_density_matches_masses():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(5)))
    mass = np.array([0.5, 0.25, 0.125, 0.125])
    xs = decomp.sample_from_density(mass, 200000, rng)
    assert np.all((xs >= 0) & (xs <= 1))
    counts = np.histogram(xs, bins=4, range=(0, 1))[0] / xs.size
    assert counts == pytest.approx(mass, abs=5e-3)


def test_invalid_k():
    seq = make_sequence(1, "doubling", (0.0, 0.0))
    with pytest.raises(ValueError):
        decomp.martingale_psi(seq, get_observable("cos2pi"), -1, 64, 4)
