"""Return times, the return-time partition, tails, separation, distortion."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quenched_limits import tower
from quenched_limits.maps import _iterates, apply, derivative, left_branch_inverse
from quenched_limits.omega import make_sequence


def doubling_seq(seed=1):
    return make_sequence(seed, "doubling", (0.0, 0.0))


def lsv_seq(seed=1, bounds=(0.05, 0.15)):
    return make_sequence(seed, "lsv", bounds)


def test_return_time_doubling_examples():
    seq = doubling_seq()
    # 0.75 -> 0.5: back in the base after one step
    assert tower.return_time(seq, 0.75).R == 1
    # 0.6 -> 0.2 -> 0.4 -> 0.8: three steps
    assert tower.return_time(seq, 0.6).R == 3


def test_return_time_domain():
    seq = doubling_seq()
    with pytest.raises(ValueError):
        tower.return_time(seq, 0.3)


def scalar_first_hits(seq, x, t0, l, cap):
    """The scalar l-fold walk that the array first-entry walk replaced: the oracle.

    Steps x from tower time t0 until its l-th entry to the base and returns
    (steps, landing point), or (None, last point) once a single leg runs cap
    steps without entering.
    """
    y = x
    steps = 0
    for _ in range(l):
        for _step in range(cap):
            y = apply(seq.param(t0 + steps), y)
            steps += 1
            if y >= tower.BASE_LO:
                break
        else:
            return None, y
    return steps, y


def scalar_separation_time(seq, x, y, cap, return_cap):
    """separation_time as it was: one scalar walk per end and return."""
    if x == y:
        return math.inf
    t, px, py = 0, x, y
    for n in range(cap):
        rx, px = scalar_first_hits(seq, px, t, 1, return_cap)
        ry, py = scalar_first_hits(seq, py, t, 1, return_cap)
        if rx is None or ry is None:
            return math.inf
        if rx != ry:
            return n
        t += rx
    return math.inf


def first_return_times(seq, xs, cap):
    """Each point's first return time from one _first_entries walk; cap + 1 when it caps."""
    R = tower._first_entries(seq, xs, 0, cap)[0]
    return np.where(R < 0, cap + 1, R)


def drawn_base_points(seed, samples):
    """The base points tail_curve draws for seed, as one array."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0xA11))))
    return 0.5 + 0.5 * rng.random(samples)


def test_first_return_times_match_scalar():
    seq = lsv_seq(4)
    rng = np.random.default_rng(0)
    xs = 0.5 + 0.5 * rng.random(50)
    vec = first_return_times(seq, xs, cap=10 ** 5)
    for x, r in zip(xs, vec):
        assert scalar_first_hits(seq, float(x), 0, 1, 10 ** 5)[0] == r


@st.composite
def sequences(draw):
    if draw(st.booleans()):
        return make_sequence(draw(st.integers(0, 99)), "doubling", (0.0, 0.0))
    lo = draw(st.floats(0.01, 0.89))
    return make_sequence(draw(st.integers(0, 99)), "lsv", (lo, lo + 0.1))


base_points = st.floats(min_value=0.5, max_value=1.0)


@settings(max_examples=100, deadline=None)
@given(seq=sequences(), xs=st.lists(base_points, min_size=1, max_size=8),
       l=st.integers(0, 6), cap=st.integers(1, 30))
def test_return_times_match_scalar_oracle(seq, xs, l, cap):
    # caps of at most 30 steps make some legs cap, in either family
    vec = first_return_times(seq, np.array(xs), cap)
    for x, r in zip(xs, vec):
        want = scalar_first_hits(seq, x, 0, 1, cap)[0]
        assert r == (cap + 1 if want is None else want)
        assert tower.return_time(seq, x, cap).R == want
        assert tower.nth_return(seq, x, l, cap) == scalar_first_hits(seq, x, 0, l, cap)[0]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(bounds=st.lists(st.floats(1e-6, 1 - 1e-6), min_size=2, max_size=2).map(sorted),
       seed=st.integers(0, 2 ** 64), xs=st.lists(base_points, max_size=8))
def test_random_return_time_lies_between_the_constant_ones(bounds, seed, xs):
    # on [0, 1/2) the LSV left branch x (1 + (2x)^alpha) rises with x and falls
    # with alpha, so the orbit under alpha_min stays ahead of the random one
    # and that under alpha_max behind it: R_{alpha_min} <= R_w <= R_{alpha_max},
    # a capped walk (cap + 1) above every finite one
    lo, hi = bounds
    xs = np.concatenate((xs, drawn_base_points(seed, 200)))
    r_lo, r_w, r_hi = (first_return_times(make_sequence(s, "lsv", b), xs, 300)
                       for s, b in ((0, (lo, lo)), (seed, (lo, hi)), (0, (hi, hi))))
    bad = (r_lo > r_w) | (r_w > r_hi)
    assert not bad.any(), (xs[bad], r_lo[bad], r_w[bad], r_hi[bad])


@settings(max_examples=100, deadline=None)
@given(seq=sequences(), x=base_points, gap=st.sampled_from([0.0, 1e-12, 1e-8, 1e-4, 0.1]),
       swap=st.booleans(), cap=st.integers(1, 64), return_cap=st.integers(1, 30))
def test_separation_time_matches_scalar_oracle(seq, x, gap, swap, cap, return_cap):
    # either end may be the larger, so either may be the one whose return caps
    x, y = (min(x + gap, 1.0), x) if swap else (x, min(x + gap, 1.0))
    assert (tower.separation_time(seq, x, y, cap, return_cap)
            == scalar_separation_time(seq, x, y, cap, return_cap))


def test_nth_return_additive():
    seq = lsv_seq(2)
    x = 0.77
    r1 = tower.return_time(seq, x).R
    assert tower.nth_return(seq, x, 1) == r1
    y = tower.induced_jacobian(seq, x, r1)[0]
    assert y >= 0.5
    r2 = tower.return_time(seq.shift(r1), y).R
    assert tower.nth_return(seq, x, 2) == r1 + r2
    assert tower.nth_return(seq, x, 0) == 0


def test_partition_doubling_masses():
    # {R = n} for the doubling map has Lebesgue mass 2^-n-1 = |Lambda| 2^-n
    part = tower.build_partition(doubling_seq(), 10)
    masses = dict(zip(part.R.tolist(), (part.hi - part.lo).tolist()))
    lam = 0.5
    for n in range(1, 9):
        assert masses[n] == pytest.approx(lam * 0.5 ** n, abs=1e-12)
    assert part.residual_mass == pytest.approx(lam * 0.5 ** 10, abs=1e-12)


def test_partition_cells_tile_base():
    part = tower.build_partition(lsv_seq(3), 25)
    # sorted, disjoint, covering (1/2 + residual, 1]
    assert np.all(part.lo < part.hi)
    assert part.hi[:-1] == pytest.approx(part.lo[1:], abs=1e-12)
    assert part.hi[-1] == 1.0
    covered = sum((part.hi - part.lo).tolist())
    assert covered + part.residual_mass == pytest.approx(0.5, abs=1e-9)


def test_partition_cells_have_correct_return_time():
    seq = lsv_seq(5)
    part = tower.build_partition(seq, 20)
    for lo, hi, R, ok in zip(part.lo, part.hi, part.R.tolist(), part.image_ok):
        mid = 0.5 * (lo + hi)
        assert tower.return_time(seq, mid).R == R
        assert ok


def test_partition_image_onto():
    # f^R maps each cell onto the full base (Markov property)
    seq = lsv_seq(6)
    part = tower.build_partition(seq, 15)
    for lo, hi, R in zip(part.lo[:6], part.hi[:6], part.R[:6].tolist()):
        (y_lo, y_hi), _ = tower.induced_jacobian(
            seq, np.array([lo + (hi - lo) * 1e-9, hi - (hi - lo) * 1e-9]), R)
        assert y_lo <= 0.5 + 1e-6
        assert y_hi >= 1.0 - 1e-5


def test_image_ok_matches_per_cell_walks():
    # the one shared walk gives each cell the bits of its own walk to R
    seq = lsv_seq(4, (0.3, 0.7))
    part = tower.build_partition(seq, 30)
    for tol in (1e-12, 1e-3, 0.2):
        want = []
        for lo, hi, R in zip(part.lo.tolist(), part.hi.tolist(), part.R.tolist()):
            offsets = (hi - lo) * np.array([10.0 ** -j for j in range(1, 13)])
            *_, y_lo = _iterates(seq, lo + offsets, R)
            *_, y_hi = _iterates(seq, hi - offsets, R)
            want.append(np.any(y_lo <= 0.5 + max(tol, 1e-9))
                        and np.any(y_hi >= 1.0 - max(tol, 1e-6)))
        assert tower._image_ok(seq, part.lo, part.hi, part.R, tol).tolist() == want
    assert part.image_ok.all()


def test_image_ok_low_end_tolerance_is_1e_9():
    # doubling's R = 1 cell is [3/4, 1]; shrunk to (3/4 + 2e-9, 1], all its
    # low-end probes land at 1/2 + 4e-9 or above, past 1/2 + 1e-9
    lo, hi, R = np.array([0.75, 0.75 + 2e-9]), np.ones(2), np.ones(2, dtype=np.int64)
    assert tower._image_ok(doubling_seq(), lo, hi, R, 1e-12).tolist() == [True, False]


@pytest.mark.parametrize("refine_tol", [math.nan, -1e-12, math.inf])
def test_build_partition_rejects_bad_refine_tol(refine_tol):
    # a NaN tolerance used to mark every cell's image as not onto the base
    with pytest.raises(ValueError, match="refine_tol"):
        tower.build_partition(lsv_seq(3), 8, refine_tol)


def test_exact_tail_doubling():
    t = tower.exact_tail(0.0, 12)
    assert t == pytest.approx(0.5 ** np.arange(13))


def test_exact_tail_doubling_equals_closed_form_past_underflow():
    # chained t / 2 inverses give the closed form 0.5 ** n bit for bit, through
    # the subnormals (n > 1022) and down to 0 (n = 1075 on)
    t = tower.exact_tail(0.0, 1100)
    assert t.tobytes() == (0.5 ** np.arange(1101)).tobytes()
    assert t[1074] == 5e-324 and t[1075] == 0.0
    assert tower.exact_tail(0.0, 0).tolist() == [1.0]


def test_exact_tail_lsv_boundary_relation():
    # successive tail values are left-branch preimages of 1/2: f(z_{n+1}) = z_n
    alpha = 0.2
    t = tower.exact_tail(alpha, 40)
    assert t[1] == 0.5
    for n in range(1, 40):
        assert apply(alpha, t[n + 1]) == pytest.approx(t[n], abs=1e-13)
    assert np.all(np.diff(t) < 0)


def test_exact_tail_lsv_regression_value():
    t = tower.exact_tail(0.2, 10)
    assert t[10] == pytest.approx(0.007057208025653605, rel=1e-9)


def test_tail_curve_consistent_with_exact():
    tc = tower.tail_curve([doubling_seq()], 10, 100000)
    exact = 0.5 ** np.arange(11)
    for n in range(11):
        assert abs(tc.tail[n] - exact[n]) < 4 * max(tc.std_err[n], 1e-9)
    assert tc.capped_fraction == 0.0
    assert tc.tail[0] == 1.0


@pytest.mark.parametrize("size", [1, 7, 1000, 250000])
def test_fraction_above_equals_mean_per_n(size):
    # return times as first_return_times gives them: 1 .. cap, and cap + 1 when capped
    cap = 30
    rng = np.random.default_rng(size)
    R = np.minimum(rng.geometric(0.15, size), cap + 1)
    R[0] = cap + 1
    for n_max in (2, 10, cap, cap + 1, 80):   # up to n far beyond max R
        old = np.array([np.mean(R > n) for n in range(n_max + 1)])
        counts = tower._value_counts(R, n_max)
        assert tower._fraction_above(counts).tobytes() == old.tobytes()


# small blocks cross block edges and leave a remainder of the 3000 samples
@pytest.mark.parametrize("block_values", [1, 7, 1000, tower._BLOCK_VALUES])
def test_tail_curve_with_capped_returns_matches_mean_loop(block_values, monkeypatch):
    monkeypatch.setattr(tower, "_BLOCK_VALUES", block_values)
    tc = tower.tail_curve([make_sequence(seed, "lsv", (0.85, 0.95)) for seed in (2, 5)],
                          40, 3000, cap=25)
    per_seed = []
    for seed in (2, 5):
        seq = make_sequence(seed, "lsv", (0.85, 0.95))
        R = first_return_times(seq, drawn_base_points(seed, 3000), 25)
        # a capped sample (R = cap + 1) is above every n
        per_seed.append([np.mean((R > n) | (R > 25)) for n in range(41)])
    assert tc.capped_fraction > 0.0
    assert tc.tail.tobytes() == np.mean(per_seed, axis=0).tobytes()


def test_count_returns_counts_each_entry_once_and_tops_out_the_last_bin():
    # 1/2 is in the base, as _first_entries has it: 0.75 -> 0.5 enters at n = 1, and
    # 0.5625 -> 0.125 -> 0.25 -> 0.5 at n = 3, past n_max = 1, so in the top bin;
    # 0.53125 -> 0.0625 -> 0.125 -> 0.25 is still out
    counts = np.zeros(3, dtype=np.int64)
    xs = np.array([0.75, 0.5625, 0.53125])
    left = tower._count_returns(doubling_seq(), xs, 0, 3, counts)
    assert counts.tolist() == [0, 1, 1]
    assert left.tolist() == [0.25]
    assert tower._first_entries(doubling_seq(), xs, 0, 3)[0].tolist() == [1, 3, -1]


def oracle_tail_curve(family, bounds, seeds, n_max, samples, cap):
    """tail_curve from each point's own first return time: one mean per n and seed."""
    per_seed, capped = [], 0
    for seed in seeds:
        seq = make_sequence(seed, family, bounds)
        R = first_return_times(seq, drawn_base_points(seed, samples), cap)
        # a capped sample (R = cap + 1) is above every n
        per_seed.append([np.mean((R > n) | (R > cap)) for n in range(n_max + 1)])
        capped += int(np.count_nonzero(R > cap))
    return tower._pooled_tail(np.arange(n_max + 1), np.array(per_seed), samples, capped)


def assert_same_curve(got, want):
    for name in ("n", "tail", "std_err"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert (got.n_eff, got.capped_fraction, got.warnings) == (
        want.n_eff, want.capped_fraction, want.warnings)


families = st.one_of(st.just(("doubling", (0.0, 0.0))),
                     st.floats(0.01, 0.89).map(lambda lo: ("lsv", (lo, lo + 0.1))))


# the examples: caps below, at and above the merge step, one sample, and 2500 samples,
# which is no multiple of 7 or 1000
@settings(max_examples=40, deadline=None)
@given(family=families, seeds=st.lists(st.integers(0, 99), min_size=1, max_size=2),
       n_max=st.integers(2, 45), samples=st.integers(1, 1500), cap=st.integers(1, 40),
       merge=st.sampled_from([1, 2, 8, "cap", "cap + 5"]),
       block_values=st.sampled_from([1, 7, 1000, tower._BLOCK_VALUES]))
@example(family=("lsv", (0.85, 0.95)), seeds=[2], n_max=20, samples=1, cap=3, merge=8,
         block_values=tower._BLOCK_VALUES)
@example(family=("lsv", (0.85, 0.95)), seeds=[2, 5], n_max=20, samples=2500, cap=8, merge=8,
         block_values=1000)
@example(family=("lsv", (0.5, 0.6)), seeds=[1], n_max=40, samples=2500, cap=30, merge=8,
         block_values=7)
@example(family=("doubling", (0.0, 0.0)), seeds=[3], n_max=16, samples=2500, cap=40,
         merge="cap + 5", block_values=1000)
def test_tail_curve_equals_per_point_return_times(family, seeds, n_max, samples, cap, merge,
                                                   block_values):
    merge = {"cap": cap, "cap + 5": cap + 5}.get(merge, merge)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(tower, "_MERGE_AT", merge)
        m.setattr(tower, "_BLOCK_VALUES", block_values)
        got = tower.tail_curve([make_sequence(seed, *family) for seed in seeds], n_max,
                               samples, cap)
    assert_same_curve(got, oracle_tail_curve(*family, seeds, n_max, samples, cap))


def test_tail_curve_walks_no_array_past_the_block_size(monkeypatch):
    # 30 blocks of 1000 leave about 70 survivors each at step 8, so the parked
    # points must walk on early, before the last block is drawn
    monkeypatch.setattr(tower, "_BLOCK_VALUES", 1000)
    sizes, parked_walks = [], []
    count_returns = tower._count_returns

    def sized_apply(alpha, y):
        sizes.append(np.size(y))
        return apply(alpha, y)

    def watched_count_returns(seq, y, t, t_end, counts):
        if t > 0:
            parked_walks.append(y.size)
        return count_returns(seq, y, t, t_end, counts)

    monkeypatch.setattr(tower, "apply", sized_apply)
    monkeypatch.setattr(tower, "_count_returns", watched_count_returns)
    got = tower.tail_curve([make_sequence(2, "lsv", (0.85, 0.95))], 40, 30000, cap=200)
    assert max(sizes) <= 1000
    assert len(parked_walks) >= 2 and max(parked_walks) <= 1000
    monkeypatch.undo()
    assert_same_curve(got, oracle_tail_curve("lsv", (0.85, 0.95), [2], 40, 30000, 200))


@pytest.mark.parametrize("seed", [1, 2])
def test_tail_curve_walks_each_seed_once_past_the_merge_step(seed, monkeypatch):
    # 150000 samples: two full blocks and a remainder, whose survivors walk on together
    calls = []

    def counting_apply(alpha, y):
        calls.append(np.size(y))
        return apply(alpha, y)

    monkeypatch.setattr(tower, "apply", counting_apply)
    seq = make_sequence(seed, "lsv", (0.2, 0.4))
    tower.tail_curve([seq], 16, 150000)
    monkeypatch.undo()
    largest_R = int(first_return_times(seq, drawn_base_points(seed, 150000), 10 ** 6).max())
    assert largest_R <= len(calls) <= 3 * tower._MERGE_AT + largest_R - tower._MERGE_AT


def test_tail_curve_counts_a_capped_sample_above_every_n():
    # cap 10 < n_max 40: past the cap only the capped samples are left above n
    tc = tower.tail_curve([make_sequence(1, "lsv", (0.5, 0.6))], 40, 2000, cap=10)
    assert tc.capped_fraction > 0.0
    assert np.all(tc.tail[10:] == tc.capped_fraction)


@pytest.mark.parametrize("capped, warned", [(10, False), (11, True)])
def test_pooled_tail_warns_only_past_one_percent_capped(capped, warned):
    tc = tower._pooled_tail(np.arange(3), np.full((1, 3), 0.5), 1000, capped)
    assert tc.capped_fraction == capped / 1000
    assert tc.warnings == ([f"capped fraction {capped / 1000:.3f} exceeds 1%"] if warned else [])


def test_tail_curve_needs_a_sample_per_seed():
    with pytest.raises(ValueError, match="samples_per_omega"):
        tower.tail_curve([doubling_seq()], 10, 0)


def test_tail_curve_memory_does_not_grow_with_samples():
    # a whole-array walk of 10^6 samples peaks above 60 MB
    tracemalloc.start()
    try:
        tower.tail_curve([make_sequence(1, "lsv", (0.2, 0.2))], 60, 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_gcd_check():
    part = tower.build_partition(doubling_seq(), 12)
    assert tower.gcd_check(part, 0.01) == 1
    with pytest.raises(ValueError):
        tower.gcd_check(part, 0.9)


def test_separation_time_basics():
    seq = doubling_seq()
    assert tower.separation_time(seq, 0.7, 0.7) == math.inf
    # points in different first-return cells separate immediately
    assert tower.separation_time(seq, 0.8, 0.6) == 0
    # nearby points survive several returns together
    assert tower.separation_time(seq, 0.76, 0.76 + 1e-9) >= 5


def test_separation_monotone_in_distance():
    seq = lsv_seq(8)
    close = tower.separation_time(seq, 0.9, 0.9 + 1e-10)
    far = tower.separation_time(seq, 0.9, 0.93)
    assert close >= far


def test_induced_jacobian_doubling():
    seq = doubling_seq()
    rec = tower.return_time(seq, 0.6)
    y, jac = tower.induced_jacobian(seq, 0.6, rec.R)
    assert jac == pytest.approx(2.0 ** rec.R)
    *_, want = _iterates(seq, 0.6, rec.R)
    assert y == want >= 0.5


def test_induced_jacobian_array_matches_per_point_walks():
    seq = lsv_seq(5)
    xs = np.linspace(0.5, 1.0, 17)
    for R in (1, 4, 9):
        ys, jacs = tower.induced_jacobian(seq, xs, R)
        for x, y, jac in zip(xs, ys, jacs):
            # scalar reference: one walk for the Jacobian, one for the image
            j, z = 1.0, x
            for k in range(R):
                alpha = seq.param(k)
                j *= derivative(alpha, z)
                z = apply(alpha, z)
            assert jac == j
            w = x
            for alpha in seq.params(0, R):
                w = apply(alpha, w)
            assert y == w


@settings(max_examples=150, deadline=None)
@given(seq=sequences(), xs=st.lists(base_points, min_size=1, max_size=8),
       Rs=st.lists(st.integers(0, 12), min_size=8, max_size=8), scalar_x=st.booleans())
def test_induced_jacobian_per_point_R_matches_scalar_walks(seq, xs, Rs, scalar_x):
    # one walk, each point stopping at its own R, gives every point the bits
    # of its own scalar walk; a scalar x is broadcast against R
    x = xs[0] if scalar_x else np.array(xs)
    R = np.array(Rs if scalar_x else Rs[:len(xs)])
    ys, jacs = tower.induced_jacobian(seq, x, R)
    assert ys.shape == jacs.shape == R.shape
    for xi, r, y, jac in zip(np.broadcast_to(x, R.shape).tolist(), R.tolist(), ys, jacs):
        z, j = xi, 1.0
        for k in range(r):
            alpha = seq.param(k)
            j *= derivative(alpha, z)
            z = apply(alpha, z)
        assert (y, jac) == (z, j)


def test_build_partition_inverts_once_per_level(monkeypatch):
    calls = []

    def counting(alpha, t):
        calls.append(np.size(t))
        return left_branch_inverse(alpha, t)

    monkeypatch.setattr(tower, "left_branch_inverse", counting)
    tower.build_partition(lsv_seq(3), 24)
    # level k pulls back the boundaries of every n > k at once
    assert calls == list(range(1, 24))


def test_distortion_check_doubling_is_exact():
    seq = doubling_seq()
    part = tower.build_partition(seq, 12)
    d = tower.distortion_check(seq, part, 200)
    # piecewise-linear map: zero distortion, expansion exactly 2^R >= 2
    assert d["empirical_CF"] == 0.0
    assert d["min_expansion"] >= 2.0 - 1e-9
    assert d["violations"] == 0


def test_distortion_check_lsv_bounded():
    seq = lsv_seq(9)
    part = tower.build_partition(seq, 20)
    d = tower.distortion_check(seq, part, 200)
    assert d["beta"] == 0.5
    assert d["violations"] == 0
    assert np.isfinite(d["empirical_CF"])
    assert d["beta_hat"] <= 0.5 + 1e-12
