"""Pair matching scheme: alternating returns and simultaneous return times."""

import numpy as np
import pytest

from quenched_limits import coupling, tower
from quenched_limits.maps import FiberMap, apply
from quenched_limits.omega import make_sequence


def advance(seq, x, steps):
    y = x
    for k in range(steps):
        y = apply(FiberMap(seq.family, seq.param(k)), y)
    return y


def test_match_pair_input_validation():
    seq = make_sequence(1, "doubling", (0.0, 0.0))
    with pytest.raises(ValueError):
        coupling.match_pair(seq, 0.3, 0.7, 1)
    with pytest.raises(ValueError):
        coupling.match_pair(seq, 0.7, 0.8, 0)


def test_taus_strictly_increasing():
    seq = make_sequence(2, "doubling", (0.0, 0.0))
    tr = coupling.match_pair(seq, 0.62, 0.81, 1, max_T=8)
    assert tr.taus[0] == 0
    assert all(b > a for a, b in zip(tr.taus, tr.taus[1:]))
    assert not tr.capped


def test_T_subset_of_taus_and_simultaneous():
    # at every recorded T both orbit components must be back in the base
    seq = make_sequence(3, "lsv", (0.1, 0.3))
    tr = coupling.match_pair(seq, 0.55, 0.93, 1, max_T=6)
    assert set(tr.Ts) <= set(tr.taus)
    for T in tr.Ts:
        assert advance(seq, tr.x, T) >= 0.5
        assert advance(seq, tr.x_prime, T) >= 0.5


def test_first_tau_is_l0_return_of_x():
    seq = make_sequence(4, "doubling", (0.0, 0.0))
    x = 0.57
    for l0 in (1, 2, 3):
        tr = coupling.match_pair(seq, x, 0.84, l0, cap=2000, max_T=3)
        assert tr.taus[1] == tower.nth_return(seq, x, l0)


def test_identical_points_match_immediately():
    seq = make_sequence(5, "doubling", (0.0, 0.0))
    tr = coupling.match_pair(seq, 0.66, 0.66, 1, max_T=4)
    # both components move together, so every tau is simultaneous
    assert tr.Ts == tr.taus[1:len(tr.Ts) + 1]


def test_Ts_are_increasing():
    seq = make_sequence(6, "lsv", (0.05, 0.15))
    tr = coupling.match_pair(seq, 0.71, 0.52, 2, max_T=5)
    assert all(b > a for a, b in zip(tr.Ts, tr.Ts[1:]))


def test_estimate_l0_doubling():
    # one step after the base, half of [1/2, 1] is back: eps_1 = 1/2
    tab = coupling.estimate_l0("doubling", (0.0, 0.0), [1], 6, 100000)
    assert tab["eps"][0] == 1.0
    assert tab["eps"][1] == pytest.approx(0.5, abs=0.01)
    assert tab["suggested_l0"] == 1
    assert np.all(tab["eps"] > 0)
    assert tab["warnings"] == []


def test_estimate_l0_doubling_past_float_precision():
    # a float64 doubling orbit collapses to 0 after ~52 steps; on bit
    # streams every eps[l], l >= 1, stays at 1/2
    tab = coupling.estimate_l0("doubling", (0.1, 0.1), [1], 64, 2000)
    assert tab["suggested_l0"] == 1
    assert tab["warnings"] == []
    assert np.all(np.abs(tab["eps"][1:] - 0.5) <= 0.05)


def test_estimate_l0_lsv_positive():
    tab = coupling.estimate_l0("lsv", (0.05, 0.15), [1, 2], 8, 20000)
    assert tab["suggested_l0"] is not None
    assert np.all(tab["eps"][tab["suggested_l0"]:] > 0)


def test_coupling_tail_decreasing_and_bounded():
    ct = coupling.coupling_tail("doubling", (0.0, 0.0), [1], 1, 0.1, 24, 400)
    assert np.all(ct.tail >= 0) and np.all(ct.tail <= 1)
    assert ct.tail[-1] < ct.tail[0]
    assert ct.capped_fraction == 0.0


def test_coupling_tail_validation():
    with pytest.raises(ValueError):
        coupling.coupling_tail("doubling", (0.0, 0.0), [1], 1, 1.5, 10, 10)
