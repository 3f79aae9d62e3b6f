"""Martingale-coboundary decomposition and the variance/degeneracy tests."""

import numpy as np
import pytest

from quenched_limits import decomp, transfer
from quenched_limits.maps import get_observable
from quenched_limits.omega import make_sequence

DOUBLING = [make_sequence(1, "doubling", (0.0, 0.0))]   # the one driving sequence, seed 1


def test_doubling_cos_variance_is_half():
    # all correlations of cos(2 pi x) vanish under doubling, so
    # sigma^2 = int cos^2(2 pi x) dx = 1/2
    s2, se, per = decomp.sigma_squared(DOUBLING, get_observable("cos2pi"), 16, 2 ** 12, 16, 32)
    assert s2 == pytest.approx(0.5, abs=0.01)
    assert len(per) == 1
    assert per[0].sigma2_fiber == s2


def test_doubling_cos_residual_vanishes():
    seq = make_sequence(1, "doubling", (0.0, 0.0))
    d = decomp.martingale_psi(seq, get_observable("cos2pi"), 8, 2 ** 12, 16, 32)
    assert d.residual < 1e-6
    assert d.truncation_tail < 1e-6
    assert d.min_density == 1.0   # uniform, a bitwise fixed point of the doubling push


def test_psi_has_zero_mean():
    # int psi dmu_w = 0 by construction (it is a martingale difference)
    seq = make_sequence(4, "lsv", (0.05, 0.15))
    d = decomp.martingale_psi(seq, get_observable("cos2pi"), 12, 2 ** 11, 24, 32)
    h0 = transfer.equivariant_density(seq, 2 ** 11, 12 + 24)
    assert abs(float(d.psi @ h0)) < 1e-6
    # the kept fiber-0 density is the one anchored at -(K_trunc + depth)
    assert np.array_equal(d.h, h0)


def anchored_walk(seq, phi, K_trunc, n_bins, depth, subsamples):
    """One walk from Lebesgue at fiber -(K_trunc + depth), the series terms
    joining at -K_trunc: (mu_w, mu_sw, g_w, g_sw, psi_w), the oracle."""
    phi_bar = transfer.bin_average(phi, n_bins, subsamples)
    anchor = -(K_trunc + depth)
    h1 = transfer.uniform_density(n_bins)
    A, B = np.zeros(n_bins), np.zeros(n_bins)
    for j, a in zip(range(anchor, 1), seq.params(anchor, 1).tolist()):
        step = transfer.push_step(a, n_bins)
        h0 = h1
        if j >= -K_trunc:
            c = (phi_bar - float(h0 @ phi_bar)) * h0
            A = A + c
            if j > -K_trunc:
                B = B + c
        if j < 0:
            A = transfer.push(step, A)
        B = transfer.push(step, B)
        h1 = transfer.push(step, h0)
    phi_c1 = phi_bar - float(h1 @ phi_bar)
    B = B + phi_c1 * h1
    g_w, g_sw = A / h0, B / h1
    # the loop ends on fiber 0, so step is its own push step
    return h0, h1, g_w, g_sw, transfer.pull(step, phi_c1 - g_sw) + g_w


@pytest.mark.parametrize("family, bounds", [("lsv", (0.05, 0.3)), ("doubling", (0.0, 0.0))])
@pytest.mark.parametrize("n_bins", [64, 33])
def test_decomposition_equals_one_anchored_walk(family, bounds, n_bins):
    seq = make_sequence(7, family, bounds)
    phi = get_observable("cos2pi")
    for K in (0, 1, 3):
        for depth in (0, 1, 5):
            d = decomp.martingale_psi(seq, phi, K, n_bins, depth, 8)
            want = anchored_walk(seq, phi, K, n_bins, depth, 8)
            for got, ref in zip((d.h, d.h_next, d.g, d.g_next, d.psi), want):
                assert got.tobytes() == ref.tobytes()


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
    seqs = [make_sequence(seed, "lsv", (0.05, 0.15)) for seed in (1, 2, 3)]
    s2, se, per = decomp.sigma_squared(seqs, get_observable("cos2pi"), 12, 2 ** 10, 16, 32)
    assert len(per) == 3
    assert se > 0.0
    assert s2 == pytest.approx(np.mean([d.sigma2_fiber for d in per]))
    assert s2 > 0.1


def test_coboundary_detected_as_degenerate():
    res = decomp.coboundary_test(DOUBLING, get_observable("coboundary_cos"),
                                 n_bins=2 ** 13, depth=16, subsamples=32)
    assert res["verdict"] == "degenerate"
    assert res["pointwise_residual"] < 1e-3


def test_cos_detected_as_nondegenerate():
    res = decomp.coboundary_test(DOUBLING, get_observable("cos2pi"),
                                 n_bins=2 ** 11, depth=8, subsamples=32)
    assert res["verdict"] == "nondegenerate"
    assert res["pointwise_residual"] is None
    assert res["sigma2"] == pytest.approx(0.5, abs=0.02)


def test_invalid_k():
    seq = make_sequence(1, "doubling", (0.0, 0.0))
    with pytest.raises(ValueError):
        decomp.martingale_psi(seq, get_observable("cos2pi"), -1, 64, 4, 64)


@pytest.mark.parametrize("K_trunc, warned", [(3, True), (6, False)])
def test_series_tail_warns_past_ten_percent_of_the_first_term(K_trunc, warned):
    # the last series term is 0.133 of the first at K_trunc 3 and 0.062 at 6
    seq = make_sequence(1, "lsv", (0.3, 0.5))
    d = decomp.martingale_psi(seq, get_observable("cos2pi"), K_trunc, 128, 6, 8)
    assert len(d.warnings) == warned
    assert all(w.startswith("series tail") for w in d.warnings)
