"""Ulam matrices, the matrix-free push, equivariant densities, the dual operator."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quenched_limits import transfer
from quenched_limits.maps import FiberMap, apply
from quenched_limits.omega import make_sequence


def test_ulam_doubling_small_grid():
    # bin 0 = [0, 1/4) maps onto [0, 1/2): half into bin 0, half into bin 1
    M = transfer.ulam_matrix(FiberMap("doubling", 0.0), 4, subsamples=64)
    dense = np.zeros((4, 4))
    dense[M.rows, M.cols] = M.weights
    expected = np.array([
        [0.5, 0.5, 0.0, 0.0],
        [0.0, 0.0, 0.5, 0.5],
        [0.5, 0.5, 0.0, 0.0],
        [0.0, 0.0, 0.5, 0.5],
    ])
    assert dense == pytest.approx(expected, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(["doubling", "lsv"]), alpha=st.floats(0.01, 0.99),
       n_bins=st.integers(2, 600), seed=st.integers(0, 2 ** 32 - 1))
def test_ulam_matches_scipy_csr_oracle(family, alpha, n_bins, seed):
    # the triplets are one CSR matrix: products bit for bit
    import scipy.sparse as sp

    fmap = FiberMap(family, 0.0 if family == "doubling" else alpha)   # doubling is lsv at 0
    M = transfer.ulam_matrix(fmap, n_bins)
    assert np.all(np.diff(M.rows * n_bins + M.cols) > 0)   # row-major, ascending columns
    assert np.all(M.weights > 0)
    ref = sp.coo_matrix((M.weights, (M.rows, M.cols)), shape=(n_bins, n_bins)).tocsr()
    rng = np.random.default_rng(seed)
    mass = rng.standard_normal(n_bins)
    values = rng.standard_normal(n_bins)
    assert np.array_equal(transfer.pushforward(M, mass), mass @ ref)
    assert np.array_equal(transfer.pull(M, values), ref @ values)
    # row sums in CSR-product order; scipy's sum(axis=1) adds a + (b + c)
    # (numpy reduceat) and may differ in the last bit
    defect = transfer.row_stochasticity_defect(M)
    assert defect == np.max(np.abs(ref @ np.ones(n_bins) - 1.0))
    assert defect == pytest.approx(np.max(np.abs(ref.sum(axis=1) - 1.0)), abs=1e-15)


def full_grid_ulam(f, n_bins, subsamples):
    """The whole-grid np.unique build of sampled entries, kept as an oracle."""
    offs = (np.arange(subsamples) + 0.5) / subsamples
    pts = ((np.arange(n_bins)[:, None] + offs[None, :]) / n_bins).ravel()
    j = transfer.nearest_bin(f(pts), n_bins)
    i = np.repeat(np.arange(n_bins, dtype=np.int64), subsamples)
    keys, counts = np.unique(i * n_bins + j, return_counts=True)
    weights = np.cumsum(np.full(subsamples, 1.0 / subsamples))[counts - 1]
    return keys // n_bins, keys % n_bins, weights


@pytest.mark.parametrize("n_bins", [64, 63])
@pytest.mark.parametrize("alpha", [0.0, 0.05, 0.3, 0.9])
def test_ulam_entries_match_sampled_full_grid_oracle(n_bins, alpha):
    # a sampled entry counts the midpoints of one interval: off by at most
    # one, plus one whose image rounds across a bin edge
    fmap = FiberMap("lsv", alpha)
    M = transfer.ulam_matrix(fmap, n_bins)
    rows, cols, weights = full_grid_ulam(lambda x: apply(fmap, x), n_bins, 2 ** 12)
    exact, sampled = np.zeros((2, n_bins, n_bins))
    exact[M.rows, M.cols] = M.weights
    sampled[rows, cols] = weights
    assert np.max(np.abs(exact - sampled)) <= 2.0 / 2 ** 12


GRIDS = [*range(2, 601), 4095, 8191]


def test_row_stochastic():
    for fam, a in (("doubling", 0.0), ("lsv", 0.1), ("lsv", 0.35), ("lsv", 0.9)):
        for n_bins in GRIDS:
            M = transfer.ulam_matrix(FiberMap(fam, a), n_bins)
            assert transfer.row_stochasticity_defect(M) < 1e-12


def test_doubling_has_two_triplets_per_row():
    # the left preimages 0.5 * (j / n) of even j are bin edges bit for bit,
    # and so are the right preimages (n + j) / (2n) of odd n + j
    for n_bins in GRIDS:
        M = transfer.ulam_matrix(FiberMap("doubling", 0.0), n_bins)
        assert np.array_equal(np.bincount(M.rows, minlength=n_bins), np.full(n_bins, 2))


def test_pushforward_conserves_mass():
    rng = np.random.default_rng(1)
    mass = rng.random(2 ** 10)
    mass /= mass.sum()
    M = transfer.ulam_matrix(FiberMap("lsv", 0.2), 2 ** 10)
    out = transfer.pushforward(M, mass)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(out >= 0.0)


def test_pushforward_dimension_check():
    M = transfer.ulam_matrix(FiberMap("doubling", 0.0), 8)
    with pytest.raises(ValueError):
        transfer.pushforward(M, transfer.uniform_density(16))


def one_mass(kind, n_bins, rng):
    if kind == "positive":
        return rng.random(n_bins)
    if kind == "signed":
        return rng.standard_normal(n_bins)
    mass = np.zeros(n_bins)   # one bin
    mass[rng.integers(n_bins)] = rng.standard_normal()
    return mass


@settings(max_examples=100, deadline=None)
@given(alpha=st.floats(0.0, 1.0, exclude_max=True), n_bins=st.integers(2, 8192),
       kind=st.sampled_from(["positive", "signed", "one-bin"]), seed=st.integers(0, 2 ** 32 - 1))
@example(alpha=0.0, n_bins=2, kind="signed", seed=0)
@example(alpha=0.999, n_bins=3, kind="one-bin", seed=1)
@example(alpha=0.3, n_bins=4095, kind="one-bin", seed=2)
@example(alpha=0.05, n_bins=8192, kind="positive", seed=3)
def test_push_matches_pushforward_of_the_ulam_matrix(alpha, n_bins, kind, seed):
    # one operator, its terms summed in another order: the gap stays within
    # the n_bins * eps rounding that the matrix weights carry on odd grids
    fmap = FiberMap("lsv", alpha)
    mass = one_mass(kind, n_bins, np.random.default_rng(seed))
    got = transfer.push(transfer.push_step(fmap, n_bins), mass)
    want = transfer.pushforward(transfer.ulam_matrix(fmap, n_bins), mass)
    assert np.max(np.abs(got - want)) <= n_bins * np.finfo(float).eps * np.abs(mass).sum()


@pytest.mark.parametrize("k", [1, 2, 7, 12, 13])
def test_uniform_is_a_bitwise_fixed_point_of_the_doubling_push(k):
    # every term is a dyadic rational: y_j = j / 2 bins, shares 0 and 1/2
    rho = transfer.uniform_density(2 ** k)
    step = transfer.push_step(FiberMap("doubling", 0.0), 2 ** k)
    assert transfer.push(step, rho).tobytes() == rho.tobytes()


def test_push_conserves_mass_and_checks_its_grid():
    rng = np.random.default_rng(1)
    mass = rng.random(2 ** 10)
    mass /= mass.sum()
    step = transfer.push_step(FiberMap("lsv", 0.2), 2 ** 10)
    out = transfer.push(step, mass)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(out >= 0.0)
    with pytest.raises(ValueError, match="dimension"):
        transfer.push(step, transfer.uniform_density(2 ** 9))
    with pytest.raises(ValueError):
        transfer.push_step(FiberMap("doubling", 0.0), 1)


def test_doubling_uniform_is_invariant():
    M = transfer.ulam_matrix(FiberMap("doubling", 0.0), 2 ** 8)
    rho = transfer.uniform_density(2 ** 8)
    out = transfer.pushforward(M, rho)
    assert out == pytest.approx(rho, abs=1e-15)


def test_bin_average_linear_function_exact():
    g = transfer.bin_average(lambda x: x, 64, 16)
    assert g == pytest.approx((np.arange(64) + 0.5) / 64, abs=1e-15)


def test_equivariant_density_normalized():
    seq = make_sequence(3, "lsv", (0.05, 0.15))
    h = transfer.equivariant_density(seq, 2 ** 10, 16)
    assert h.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(h >= 0.0)
    # depth 0 is uniform by convention
    h0 = transfer.equivariant_density(seq, 64, 0)
    assert h0 == pytest.approx(np.full(64, 1.0 / 64))


def reference_steps(seq, k_lo, k_hi, n_bins):
    """The push step of each step k_lo .. k_hi - 1, one per distinct parameter."""
    params = seq.params(k_lo, k_hi).tolist()
    made = {a: transfer.push_step(FiberMap(seq.family, a), n_bins) for a in set(params)}
    return [made[a] for a in params]


def density_pushing_every_step(seq, n_bins, depth):
    """equivariant_density as first written: Lebesgue pushed by every past step."""
    mass = transfer.uniform_density(n_bins)
    for step in reference_steps(seq, -depth, 0, n_bins):
        mass = transfer.push(step, mass)
    return mass


def chain_pushing_every_step(seq, k_lo, k_hi, n_bins, depth):
    """_density_chain as a reference walk: every step computed and pushed."""
    h = transfer.uniform_density(n_bins)
    for a in seq.params(k_lo - depth, k_lo).tolist():
        h = transfer.push(transfer.push_step(FiberMap(seq.family, a), n_bins), h)
    out = [(None, h)]
    for a in seq.params(k_lo, k_hi).tolist():
        step = transfer.push_step(FiberMap(seq.family, a), n_bins)
        h = transfer.push(step, h)
        out.append((step, h))
    return out


@settings(max_examples=40, deadline=None)
@given(family_bounds=st.sampled_from([("lsv", (0.05, 0.15)), ("lsv", (0.1, 0.1)),
                                      ("doubling", (0.0, 0.0))]),
       seed=st.integers(0, 2 ** 32 - 1), k_lo=st.integers(-8, 4), length=st.integers(0, 12),
       depth=st.integers(0, 12), n_bins=st.sampled_from([16, 33, 64]))
def test_density_chain_equals_pushing_every_step(family_bounds, seed, k_lo, length, depth,
                                                 n_bins):
    seq = make_sequence(seed, *family_bounds)
    k_hi = k_lo + length
    want = chain_pushing_every_step(seq, k_lo, k_hi, n_bins, depth)
    made, push_step = [], transfer.push_step
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transfer, "push_step", lambda *a: made.append(a) or push_step(*a))
        got = list(transfer._density_chain(seq, k_lo, k_hi, n_bins, depth))
    assert len(got) == len(want) == length + 1
    for (step, h), (step_want, h_want) in zip(got, want):
        assert h.tobytes() == h_want.tobytes()
        assert (step is None) == (step_want is None)
        if step is not None:
            for field in ("index", "to_edge", "from_edge"):
                assert getattr(step, field).tobytes() == getattr(step_want, field).tobytes()
    # one step per parameter change along steps k_lo - depth .. k_hi - 1
    params = seq.params(k_lo - depth, k_hi).tolist()
    assert len(made) == sum(a != b for a, b in zip(params, [None] + params))


# doubling maps Lebesgue to itself bit for bit, so the second push finds the
# fixed point; constant lsv reuses one step but its masses keep moving for
# many more than 16 steps; varying lsv computes a new step per step
@pytest.mark.parametrize("family, bounds, fixed_after", [
    ("doubling", (0.0, 0.0), 2), ("lsv", (0.1, 0.1), None), ("lsv", (0.05, 0.15), None)])
@pytest.mark.parametrize("depth", [0, 1, 16])
def test_equivariant_density_equals_pushing_every_step(monkeypatch, family, bounds,
                                                       fixed_after, depth):
    n_bins = 2 ** 8
    seq = make_sequence(2, family, bounds)
    want = density_pushing_every_step(seq, n_bins, depth)
    pushes, push = [], transfer.push
    monkeypatch.setattr(transfer, "push", lambda *a: pushes.append(1) or push(*a))
    got = transfer.equivariant_density(seq, n_bins, depth)
    assert got.tobytes() == want.tobytes()
    assert len(pushes) == (depth if fixed_after is None else min(depth, fixed_after))


def test_equivariance_residual_decreases_with_depth():
    seq = make_sequence(1, "lsv", (0.05, 0.15))
    r4 = transfer.equivariance_residual(seq, 2 ** 10, 4, 32)
    r16 = transfer.equivariance_residual(seq, 2 ** 10, 16, 32)
    assert r16 < r4


def two_walk_residual(seq, n_bins, depth):
    """The residual as first written: h_w and h_{shift w} pulled back apart."""
    h = transfer.equivariant_density(seq, n_bins, depth)
    step0 = reference_steps(seq, 0, 1, n_bins)[0]
    h_next = transfer.equivariant_density(seq.shift(1), n_bins, depth)
    return float(np.abs(transfer.push(step0, h) - h_next).sum())


def one_loop_residual(seq, n_bins, depth):
    """The residual as one loop over the steps -depth .. 0: h takes steps
    -depth .. -1 and h_{shift w} steps -depth+1 .. 0, every one pushed."""
    steps = reference_steps(seq, -depth, 1, n_bins)
    h = h_next = transfer.uniform_density(n_bins)
    for step, step_next in zip(steps, steps[1:]):
        h = transfer.push(step, h)
        h_next = transfer.push(step_next, h_next)
    return float(np.abs(transfer.push(steps[-1], h) - h_next).sum())


@pytest.mark.parametrize("family, bounds, n_bins, depth, subsamples", [
    ("lsv", (0.05, 0.15), 64, 0, 8),
    ("lsv", (0.05, 0.15), 64, 1, 8),
    ("lsv", (0.1, 0.3), 333, 7, 12),
    ("doubling", (0.0, 0.0), 128, 5, 8),
    ("lsv", (0.1, 0.1), 333, 9, 8),
    ("lsv", (0.05, 0.15), 2 ** 10, 16, 32),
])
def test_equivariance_residual_equals_two_walks(family, bounds, n_bins, depth, subsamples):
    seq = make_sequence(4, family, bounds)
    got = transfer.equivariance_residual(seq, n_bins, depth, subsamples)
    assert got == two_walk_residual(seq, n_bins, depth) == one_loop_residual(seq, n_bins, depth)


@pytest.mark.parametrize("depth", [0, 1, 9])
def test_equivariance_residual_builds_both_depths(monkeypatch, depth):
    # a varying sequence computes depth + 1 steps for push(h_w) and depth
    # for h_{shift w}, and builds no matrix
    made, builds = [], []
    push_step = transfer.push_step
    monkeypatch.setattr(transfer, "push_step", lambda *args: made.append(args) or push_step(*args))
    monkeypatch.setattr(transfer, "ulam_matrix", lambda *args: builds.append(args))
    transfer.equivariance_residual(make_sequence(5, "lsv", (0.05, 0.15)), 64, depth, 8)
    assert len(made) == 2 * depth + 1
    assert builds == []


def test_equivariance_residual_rejects_negative_depth():
    with pytest.raises(ValueError, match="pullback_depth"):
        transfer.equivariance_residual(make_sequence(5, "lsv", (0.05, 0.15)), 64, -1, 8)


def test_dual_normalization():
    # P 1 = 1: the signed mass 1 * h_w pushes to the next fiber's chained
    # density h_sw itself, bit for bit, and h_sw stays well away from zero
    seq = make_sequence(2, "lsv", (0.1, 0.3))
    n_bins = 2 ** 10
    h = transfer.equivariant_density(seq, n_bins, 16)
    step0 = reference_steps(seq, 0, 1, n_bins)[0]
    h_next = transfer.equivariant_density(seq.shift(1), n_bins, 17)
    assert np.array_equal(transfer.push(step0, np.ones(n_bins) * h), h_next)
    assert n_bins * h_next.min() > 0.5


def test_dual_preserves_integral():
    # int (P psi) dmu_{sw} = int psi dmu_w: the signed mass psi * h keeps its total
    seq = make_sequence(5, "doubling", (0.0, 0.0))
    n_bins = 2 ** 9
    h = transfer.equivariant_density(seq, n_bins, 8)
    psi = np.cos(2 * np.pi * (np.arange(n_bins) + 0.5) / n_bins) + 0.3
    step0 = reference_steps(seq, 0, 1, n_bins)[0]
    assert np.array_equal(transfer.push(step0, h), h)   # uniform, the doubling fixed point
    lhs = float(transfer.push(step0, psi * h).sum())
    rhs = float((psi * h).sum())
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_decay_curve_doubling_cos():
    # the doubling pushforward doubles Fourier frequencies, so the centered
    # cos mode is annihilated after a single step (up to grid error)
    from quenched_limits.maps import get_observable

    dc = transfer.decay_curve("doubling", (0.0, 0.0), [1], get_observable("cos2pi"),
                              8, 2 ** 10, 8, subsamples=32)
    assert dc.decay[0] == pytest.approx(2.0 / np.pi, abs=1e-2)  # mean |cos|
    assert dc.decay[1] < 0.01
    assert np.all(dc.decay[1:] < 0.01)


def decay_pushing_every_step(seq, phi_bar, n_max, n_bins, depth):
    """One seed's decay row as first written: w and h both pushed every step."""
    h = transfer.equivariant_density(seq, n_bins, depth)
    w = (phi_bar - float(h @ phi_bar)) * h
    row = [np.abs(w).sum()]
    for step in reference_steps(seq, 0, n_max, n_bins):
        w, h = transfer.push(step, w), transfer.push(step, h)
        row.append(np.abs(w).sum())
    return row


# both constant chains reach a bitwise fixed point of their one step well
# within n_max steps, after which decay_curve pushes only w
@pytest.mark.parametrize("family, bounds", [("doubling", (0.0, 0.0)), ("lsv", (0.1, 0.1))])
def test_decay_curve_equals_pushing_every_step(monkeypatch, family, bounds):
    from quenched_limits.maps import get_observable
    from quenched_limits.util import seed_mean

    n_max, n_bins, depth, subsamples, seeds = 200, 2 ** 8, 8, 32, [1, 2]
    phi = get_observable("cos2pi")
    phi_bar = transfer.bin_average(phi, n_bins, subsamples)
    rows = [decay_pushing_every_step(make_sequence(seed, family, bounds), phi_bar, n_max,
                                     n_bins, depth) for seed in seeds]
    want, want_se = seed_mean(np.array(rows))
    pushes, push = [], transfer.push
    monkeypatch.setattr(transfer, "push", lambda *a: pushes.append(1) or push(*a))
    dc = transfer.decay_curve(family, bounds, seeds, phi, n_max, n_bins, depth, subsamples)
    assert dc.decay.tobytes() == want.tobytes()
    assert dc.std_err.tobytes() == want_se.tobytes()
    # per seed: depth pushes of h_0, n_max of w and fewer than n_max of h
    assert len(pushes) < len(seeds) * (depth + 2 * n_max)


def test_sample_from_density_matches_masses():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(5)))
    mass = np.array([0.5, 0.25, 0.125, 0.125])
    xs = transfer.sample_from_density(mass, 200000, rng)
    assert np.all((xs >= 0) & (xs <= 1))
    counts = np.histogram(xs, bins=4, range=(0, 1))[0] / xs.size
    assert counts == pytest.approx(mass, abs=5e-3)


def test_nearest_bin_edges():
    assert transfer.nearest_bin(np.array([0.0, 0.999, 1.0]), 10).tolist() == [0, 9, 9]


def test_ulam_validation():
    with pytest.raises(ValueError):
        transfer.ulam_matrix(FiberMap("doubling", 0.0), 1)
