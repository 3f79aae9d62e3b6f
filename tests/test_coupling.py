"""Pair matching scheme: alternating returns and simultaneous return times."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quenched_limits import coupling, tower
from quenched_limits.maps import FiberMap, apply
from quenched_limits.omega import make_sequence
from test_tower import scalar_first_hits


def advance(seq, x, steps):
    y = x
    for k in range(steps):
        y = apply(FiberMap(seq.family, seq.param(k)), y)
    return y


def scalar_match_pair(seq, x, x_prime, l0, cap=tower.CAP_DEFAULT,
                      max_alternations=512, max_T=64):
    """The pair-by-pair recursion that the lockstep kernel replaced: the oracle."""
    taus = [0]
    Ts = []
    px, py = x, x_prime
    t = 0
    use_first = True   # each T-segment starts from the x component
    for _ in range(max_alternations):
        mover, other = (px, py) if use_first else (py, px)
        r, landed = scalar_first_hits(seq, mover, t, l0, cap)
        if r is None:
            return taus, Ts, True
        other = tower.induced_jacobian(seq.shift(t), other, r)[0]
        px, py = (landed, other) if use_first else (other, landed)
        t += r
        taus.append(t)
        if px >= tower.BASE_LO and py >= tower.BASE_LO:
            Ts.append(t)
            if len(Ts) >= max_T:
                break
            use_first = True   # recursion restarts at the moved pair
        else:
            use_first = not use_first
    return taus, Ts, False


def pair_points(seed, pairs):
    """The base pairs that coupling_tail draws for seed."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0xC9))))
    return tower.BASE_LO + 0.5 * rng.random((pairs, 2))


def pair_by_pair_coupling_tail(family, bounds, seeds, l0, alpha_exp, n_max,
                               pair_samples, cap):
    """coupling_tail as it was before the kernel: scalar pairs, one mean per n."""
    ns = np.arange(1, n_max + 1)
    k_of_n = np.maximum(np.floor(ns.astype(float) ** alpha_exp).astype(int), 1)
    k_max = int(k_of_n.max())
    per_seed = np.empty((len(seeds), n_max))
    capped_pairs = 0
    for si, seed in enumerate(seeds):
        seq = make_sequence(seed, family, bounds)
        pts = pair_points(seed, pair_samples)
        Tk = np.full((pair_samples, k_max + 1), np.inf)
        Tk[:, 0] = 0.0
        for pi in range(pair_samples):
            _, Ts, capped = scalar_match_pair(seq, pts[pi, 0], pts[pi, 1], l0, cap=cap,
                                              max_T=k_max, max_alternations=8 * (n_max + 4))
            if capped:
                capped_pairs += 1
                continue
            for k, T in enumerate(Ts, start=1):
                if k <= k_max:
                    Tk[pi, k] = T
        per_seed[si] = np.array([np.mean(Tk[:, k_of_n[i]] > n)
                                 for i, n in enumerate(ns)])
    tail = per_seed.mean(axis=0)
    if len(seeds) > 1:
        se = per_seed.std(axis=0, ddof=1) / math.sqrt(len(seeds))
    else:
        se = np.sqrt(np.clip(tail * (1 - tail), 0, None) / pair_samples)
    return tail, se, capped_pairs / (len(seeds) * pair_samples)


base_points = st.floats(min_value=0.5, max_value=1.0)


@st.composite
def pair_configs(draw):
    """A driving sequence, recursion limits and a handful of pairs, some with x == x'."""
    # Orbits that stick run into the cap: a float64 doubling orbit reaches 0
    # after about 53 steps, and x = 1/2 maps onto the fixed point 0.  Moderate
    # caps keep such examples cheap.
    kind = draw(st.sampled_from(["doubling", "lsv", "lsv-slow"]))
    if kind == "doubling":
        seq = make_sequence(draw(st.integers(0, 99)), "doubling", (0.0, 0.0))
        cap = draw(st.sampled_from([5, 50, 200]))
    elif kind == "lsv":
        lo = draw(st.floats(0.05, 0.5))
        seq = make_sequence(draw(st.integers(0, 99)), "lsv", (lo, lo + 0.1))
        cap = draw(st.sampled_from([5, 50, 1000]))
    else:   # near-neutral fixed point: legs often run into the cap
        seq = make_sequence(draw(st.integers(0, 99)), "lsv", (0.85, 0.95))
        cap = draw(st.integers(1, 50))
    xs = draw(st.lists(base_points, min_size=1, max_size=6))
    pairs = [(x, x if draw(st.booleans()) else draw(base_points)) for x in xs]
    return (seq, np.array(pairs), draw(st.integers(1, 3)), cap,
            draw(st.integers(0, 30)), draw(st.integers(1, 8)))


@settings(max_examples=80, deadline=None)
@given(pair_configs())
def test_lockstep_kernel_matches_scalar_recursion(config):
    seq, pts, l0, cap, max_alternations, max_T = config
    pair, tau, k, capped = coupling._match_pairs(seq, pts, l0, cap, max_alternations, max_T)
    for i, (x, x_prime) in enumerate(pts):
        taus, Ts, was_capped = scalar_match_pair(seq, x, x_prime, l0, cap,
                                                 max_alternations, max_T)
        mine = pair == i
        assert [0] + tau[mine].tolist() == taus
        assert tau[mine & (k > 0)].tolist() == Ts
        assert k[mine & (k > 0)].tolist() == list(range(1, len(Ts) + 1))
        assert bool(capped[i]) == was_capped
        # match_pair runs the same recursion with at most 512 alternations
        tr = coupling.match_pair(seq, x, x_prime, l0, cap, max_T)
        assert (tr.taus, tr.Ts) == scalar_match_pair(seq, x, x_prime, l0, cap, 512, max_T)[:2]


@pytest.mark.parametrize("family, bounds, seeds, alpha_exp, n_max, pairs, cap", [
    ("lsv", (0.85, 0.95), [3], 0.5, 30, 200, 50),     # about a quarter of the pairs cap
    ("doubling", (0.0, 0.0), [1, 2], 0.3, 24, 300, tower.CAP_DEFAULT),
])
def test_coupling_tail_matches_pair_by_pair_loop(family, bounds, seeds, alpha_exp, n_max,
                                                 pairs, cap):
    ct = coupling.coupling_tail(family, bounds, seeds, 1, alpha_exp, n_max, pairs, cap)
    tail, se, capped_fraction = pair_by_pair_coupling_tail(family, bounds, seeds, 1, alpha_exp,
                                                           n_max, pairs, cap)
    assert ct.tail.tobytes() == tail.tobytes()
    assert ct.std_err.tobytes() == se.tobytes()
    assert ct.capped_fraction == capped_fraction
    if family == "lsv":
        assert capped_fraction > 0.1
        # some capped pairs record T_1 first; they still score T = infinity at every k
        seq = make_sequence(seeds[0], family, bounds)
        pair, _, k, capped = coupling._match_pairs(seq, pair_points(seeds[0], pairs), 1, cap,
                                                   8 * (n_max + 4), 5)
        assert np.any(capped[pair[k > 0]])


def test_coupling_tail_applies_once_per_tower_time(monkeypatch):
    calls = []

    def counting(fmap, x):
        calls.append(np.size(x))
        return apply(fmap, x)

    monkeypatch.setattr(coupling, "apply", counting)
    seq = make_sequence(1, "doubling", (0.0, 0.0))
    ct = coupling.coupling_tail("doubling", (0.0, 0.0), [1], 1, 0.1, 40, 2000)
    final_t = [scalar_match_pair(seq, x, xp, 1, max_T=1, max_alternations=8 * 44)[0][-1]
               for x, xp in pair_points(1, 2000)]
    assert ct.capped_fraction == 0.0
    # one array step of every active pair per tower time, not one per pair and step
    assert len(calls) == max(final_t)
    assert calls[0] == 2 * 2000
    assert all(b <= a for a, b in zip(calls, calls[1:]))


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
    capped = coupling._match_pairs(seq, np.array([[0.62, 0.81]]), 1, tower.CAP_DEFAULT, 512, 8)[3]
    assert not capped[0]


def test_T_subset_of_taus_and_simultaneous():
    # at every recorded T both orbit components must be back in the base
    seq = make_sequence(3, "lsv", (0.1, 0.3))
    tr = coupling.match_pair(seq, 0.55, 0.93, 1, max_T=6)
    assert set(tr.Ts) <= set(tr.taus)
    for T in tr.Ts:
        assert advance(seq, 0.55, T) >= 0.5
        assert advance(seq, 0.93, T) >= 0.5


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
    # l0 = 0 would score every pair as never matched; no pairs would divide by zero
    with pytest.raises(ValueError, match="l0"):
        coupling.coupling_tail("doubling", (0.0, 0.0), [1], 0, 0.1, 10, 10)
    with pytest.raises(ValueError, match="pair_samples"):
        coupling.coupling_tail("doubling", (0.0, 0.0), [1], 1, 0.1, 10, 0)


def test_estimate_l0_needs_a_sample():
    with pytest.raises(ValueError, match="samples"):
        coupling.estimate_l0("doubling", (0.0, 0.0), [1], 4, 0)
