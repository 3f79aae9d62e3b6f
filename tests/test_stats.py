"""Birkhoff-sum ensembles, limit-law tests, Brownian oracle, rate formulas."""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from quenched_limits import maps, stats
from quenched_limits.kstest import ks_statistic, normal_cdf
from quenched_limits.maps import get_observable
from quenched_limits.omega import make_sequence


def small_doubling_ensemble(n_steps=256, n_samples=3000):
    seq = make_sequence(1, "doubling", (0.0, 0.0))
    return stats.birkhoff_ensemble(seq, get_observable("cos2pi"), n_steps,
                                   n_samples, "equivariant", 2 ** 10, 8, 32)


def test_doubling_ensemble_computes_one_push_step(monkeypatch):
    # a doubling sequence is constant whatever its bounds, so the one walk
    # through the pullback and the centering chain computes one push step
    # and builds no matrix
    from quenched_limits import transfer

    made, push_step, builds = [], transfer.push_step, []
    monkeypatch.setattr(transfer, "push_step", lambda *a: made.append(a) or push_step(*a))
    monkeypatch.setattr(transfer, "ulam_matrix", lambda *a, **k: builds.append(a))
    phi = get_observable("cos2pi")
    args = (phi, 64, 20, "equivariant", 2 ** 6, 8, 4)
    ens = stats.birkhoff_ensemble(make_sequence(1, "doubling", (0.05, 0.15)), *args)
    assert len(made) == 1 and builds == []
    ref = stats.birkhoff_ensemble(make_sequence(1, "doubling", (0.0, 0.0)), *args)
    assert ens.S_records.tobytes() == ref.S_records.tobytes()


def test_dyadic_records():
    recs = stats._dyadic_records(1024)
    assert recs.tolist() == [4, 8, 16, 32, 64, 128, 256, 512, 1024]
    assert stats._dyadic_records(100)[-1] == 100


def test_doubling_values_uniform():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))
    it = maps._doubling_orbit_values(20000, 3, rng)
    for _ in range(3):
        xs = next(it)
        d = ks_statistic(xs, lambda t: t)
        assert d < 0.015
        assert np.all((xs >= 0) & (xs < 1))


def test_doubling_values_follow_doubling_map():
    # consecutive values satisfy x_{k+1} = 2 x_k mod 1 up to the dropped bit
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(1)))
    it = maps._doubling_orbit_values(1000, 2, rng)
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
    cal = stats.qclt_null_calibration(2000, reps=60)
    assert cal["rejection_rate"] <= 0.05


def whole_matrix_variance_growth(ens, n_boot=200, ci_level=0.95):
    """The bootstrap as first written: one (n_boot, n_samples) index matrix."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((1, 0xB007))))
    ns = ens.record_ns
    v, lo, hi = np.empty((3, ns.size))
    tail = 0.5 * (1.0 - ci_level)
    idx = rng.integers(0, ens.n_samples, size=(n_boot, ens.n_samples))
    for i, n in enumerate(ns):
        s = ens.S_records[i]
        v[i] = s.var(ddof=1) / n
        boots = s[idx].var(axis=1, ddof=1) / n
        lo[i], hi[i] = np.quantile(boots, [tail, 1.0 - tail])
    return {"n": ns, "var_over_n": v, "ci_lo": lo, "ci_hi": hi}


def random_ensemble(n_steps, n_samples, seed):
    """An ensemble whose checkpoint sums are Gaussian with variance n / 2."""
    ns = stats._dyadic_records(n_steps)
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((ns.size, n_samples)) * np.sqrt(0.5 * ns)[:, None]
    zeros = np.zeros(n_samples)
    return stats.BirkhoffEnsemble(n_steps, n_samples, ns, S, zeros, zeros, zeros, zeros)


# n_boot off the multiples of the block rows; budgets of one row, a few rows
# and the default
@settings(max_examples=60, deadline=None)
@given(n_samples=st.integers(2, 3000), n_boot=st.sampled_from([1, 7, 200, 401]),
       ci_level=st.floats(0.01, 0.99), n_steps=st.integers(1, 300),
       block_values=st.sampled_from([1, 997, stats._BLOCK_VALUES]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_variance_growth_equals_whole_matrix_oracle(n_samples, n_boot, ci_level, n_steps,
                                                    block_values, seed):
    ens = random_ensemble(n_steps, n_samples, seed)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(stats, "_BLOCK_VALUES", block_values)
        got = stats.variance_growth(ens, n_boot, ci_level)
    want = whole_matrix_variance_growth(ens, n_boot, ci_level)
    assert got.keys() == want.keys()
    for key in want:
        assert got[key].shape == want[key].shape
        assert got[key].tobytes() == want[key].tobytes(), key


def test_variance_growth_memory_does_not_grow_with_n_boot():
    # one (200, 20000) index matrix and its gathers would take 92.6 MB
    import tracemalloc

    ens = random_ensemble(20, 20000, 0)
    assert ens.record_ns.size == 4
    tracemalloc.start()
    try:
        stats.variance_growth(ens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def whole_matrix_null_calibration(n_samples, reps, level, seen):
    """The null calibration with its normalized sums drawn whole: one
    (n_samples,) normal vector per repetition, the exact law of a sum of
    i.i.d. standard normal increments over its root length."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((7, 0xCA1))))
    rejections = 0
    for _ in range(reps):
        z = rng.standard_normal(n_samples)
        seen.append(z)
        d = ks_statistic(z, normal_cdf)
        if stats.ks_pvalue(d, n_samples) < level:
            rejections += 1
    return {"rejection_rate": rejections / reps, "reps": reps, "level": level}


@pytest.mark.parametrize("n_samples", [2000, 333, 10000])
def test_null_calibration_equals_whole_matrix_oracle(monkeypatch, n_samples):
    seen = []
    monkeypatch.setattr(stats, "ks_statistic",
                        lambda z, cdf: seen.append(z.copy()) or ks_statistic(z, cdf))
    got = stats.qclt_null_calibration(n_samples, reps=3, level=0.5)
    want_z = []
    want = whole_matrix_null_calibration(n_samples, 3, 0.5, want_z)
    assert got == want
    assert [z.tobytes() for z in seen] == [z.tobytes() for z in want_z]


def chained_means(seq, phi_bar, h, n_steps, n_bins):
    """The centering chain as first written: one push per step."""
    from quenched_limits import transfer

    params = seq.params(0, n_steps).tolist()
    made = {a: transfer.push_step(a, n_bins) for a in set(params)}
    means = np.empty(n_steps + 1)
    means[0] = float(h @ phi_bar)
    mass = h
    for k, a in enumerate(params, start=1):
        mass = transfer.push(made[a], mass)
        means[k] = float(mass @ phi_bar)
    return means


# doubling reaches a bitwise fixed point; varying lsv computes a new step per
# step, so the fixed-point check never runs; constant lsv reuses one step
# from the pullback on, so every chain push is checked, but its masses keep
# moving for many steps
@pytest.mark.parametrize("family, bounds, n_steps", [
    ("doubling", (0.0, 0.0), 4096), ("lsv", (0.05, 0.15), 40), ("lsv", (0.1, 0.1), 64)])
def test_centering_means_equal_pushing_every_step(monkeypatch, family, bounds, n_steps):
    from quenched_limits import transfer

    n_bins, depth, subsamples = 2 ** 10, 8, 32
    seq = make_sequence(1, family, bounds)
    phi_bar = transfer.bin_average(get_observable("cos2pi"), n_bins, subsamples)
    chain = transfer._density_chain(seq, 0, n_steps, n_bins, depth)
    M, h = next(chain)
    assert M is None
    assert h.tobytes() == transfer.equivariant_density(seq, n_bins, depth).tobytes()
    want = chained_means(seq, phi_bar, h, n_steps, n_bins)
    pushes, checks = [], []
    push, equal = transfer.push, np.array_equal
    monkeypatch.setattr(transfer, "push", lambda *a: pushes.append(1) or push(*a))
    monkeypatch.setattr(np, "array_equal", lambda *a: checks.append(1) or equal(*a))
    got = np.array([float(h @ phi_bar)] + [float(m @ phi_bar) for _, m in chain])
    monkeypatch.undo()
    assert got.tobytes() == want.tobytes()
    if family == "doubling":
        assert len(pushes) < 10
    else:
        assert len(pushes) == n_steps
        assert len(checks) == (0 if bounds[0] != bounds[1] else n_steps)


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



# The alternating series round; 1e-15 is a few ulps of 1.
ROUNDING = 1e-15


@settings(max_examples=200, deadline=None)
@given(a=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=50),
       sigma=st.floats(0.1, 5.0))
def test_brownian_sup_abs_cdf_properties(a, sigma):
    a = np.sort(np.array(a))
    F = stats.brownian_sup_abs_cdf(a, sigma)
    G = stats.brownian_sup_cdf(a, sigma)
    assert np.all((F >= 0.0) & (F <= 1.0))
    assert np.all(np.diff(F) >= -ROUNDING)
    assert stats.brownian_sup_abs_cdf(0.0, sigma) == 0.0
    # {sup |B| <= a} lies in {sup B <= a}, and {sup |B| > a} in the union of
    # {sup B > a} and {inf B < -a}, which have the same law
    assert np.all(F <= G + ROUNDING)
    assert np.all(1.0 - F <= 2.0 * (1.0 - G) + ROUNDING)


def where_sup_abs_cdf(a, sigma=1.0):
    """brownian_sup_abs_cdf as first written: both series on every point."""
    x = np.maximum(np.asarray(a, dtype=float) / sigma, 0.0)
    return np.clip(np.where(x < 1.0, stats._sup_abs_theta(x), stats._sup_abs_image(x)),
                   0.0, 1.0)


SUP_ABS_EDGES = [0.0, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 1e-300, 50.0,
                 np.inf, np.nan]


@settings(max_examples=200, deadline=None)
@given(a=st.lists(st.one_of(st.floats(0.0, 6.0), st.floats(-1e300, 1e300),
                            st.sampled_from(SUP_ABS_EDGES)), min_size=1, max_size=40),
       sigma=st.sampled_from([0.7, 1.0, 1.2]) | st.floats(0.1, 5.0),
       shape=st.sampled_from(["flat", "row", "scalar"]))
def test_brownian_sup_abs_cdf_is_the_where_form_bit_for_bit(a, sigma, shape):
    a = np.array(a)
    if shape == "row":
        a = a.reshape(1, -1)
    elif shape == "scalar":
        a = a[0]
    got, want = stats.brownian_sup_abs_cdf(a, sigma), where_sup_abs_cdf(a, sigma)
    assert np.shape(got) == np.shape(want) == np.shape(a)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_brownian_sup_abs_cdf_is_the_where_form_on_a_large_sample():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(22)))
    a = np.concatenate((np.abs(rng.normal(0.0, 1.2, 10 ** 4)), SUP_ABS_EDGES))
    for sigma in (0.7, 1.0, 1.2):
        assert (stats.brownian_sup_abs_cdf(a, sigma).tobytes()
                == where_sup_abs_cdf(a, sigma).tobytes())


@settings(max_examples=200, deadline=None)
@given(x=st.floats(0.5, 2.0))
def test_sup_abs_theta_and_image_forms_agree(x):
    x = np.array([x])
    assert abs(stats._sup_abs_theta(x) - stats._sup_abs_image(x))[0] <= 1e-12


@pytest.mark.parametrize("n_steps", [64, 256])
def test_brownian_sup_abs_cdf_matches_grid_sampler(n_steps):
    # The oracle's sup_abs is the max over n grid points, which falls short
    # of the continuous sup by about beta / sqrt(n) with beta = -zeta(1/2) /
    # sqrt(2 pi) (Siegmund's discrete-monitoring correction).
    beta = -scipy.special.zeta(0.5) / math.sqrt(2.0 * math.pi)
    grid_max = whole_chunk_brownian("sup_abs", 1.0, 10 ** 5, n_steps, 11, 4096)
    d = ks_statistic(grid_max, lambda a: stats.brownian_sup_abs_cdf(
        a + beta / math.sqrt(n_steps)))
    assert d < 0.01


@pytest.mark.parametrize("n_steps", [1, 64])
def test_brownian_oracle_self_test(n_steps):
    # each step's max is drawn exactly from the bridge law, so the sampled
    # sup has the law of sup B at any grid, one step included
    sup = stats.brownian_functional_samples("sup", 1.0, 40000, n_steps, 13)
    d = ks_statistic(sup, stats.brownian_sup_cdf)
    assert d < 0.01
    if n_steps == 64:
        assert stats.brownian_oracle_self_test(n_paths=40000) == {"ks_distance": d,
                                                                  "n_paths": 40000}


def whole_chunk_brownian(functional, sigma, n_paths, n_steps, rng_seed, chunk):
    """The sampler as first written: one thread, whole-chunk temporaries.

    Besides sup it still draws sup_abs, the max of |w| over the grid nodes.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((rng_seed, 0xB2))))
    dt = 1.0 / n_steps
    out = np.empty(n_paths)
    done = 0
    while done < n_paths:
        m = min(chunk, n_paths - done)
        inc = rng.standard_normal((m, n_steps)) * (sigma * math.sqrt(dt))
        w = np.cumsum(inc, axis=1)
        if functional == "sup_abs":
            out[done:done + m] = np.max(np.abs(w), axis=1)
        else:
            a = np.concatenate([np.zeros((m, 1)), w[:, :-1]], axis=1)
            b = w
            u = rng.random((m, n_steps))
            step_max = 0.5 * (a + b + np.sqrt((b - a) ** 2
                                              - 2.0 * sigma * sigma * dt * np.log(u)))
            out[done:done + m] = step_max.max(axis=1)
        done += m
    return out


# budgets of one row, a few rows (off the multiples of n_steps) and the
# default, which holds every path here in one block
@settings(max_examples=150, deadline=None)
@given(n_paths=st.integers(0, 300), n_steps=st.integers(1, 40),
       block_values=st.sampled_from([1, 997, stats._BLOCK_VALUES]),
       sigma=st.floats(0.1, 3.0), rng_seed=st.integers(0, 2 ** 32 - 1))
def test_brownian_samples_equal_whole_chunk_oracle(n_paths, n_steps, block_values, sigma,
                                                   rng_seed):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(stats, "_BLOCK_VALUES", block_values)
        got = stats.brownian_functional_samples("sup", sigma, n_paths, n_steps, rng_seed)
        chunk = stats._block_rows(n_steps)
    want = whole_chunk_brownian("sup", sigma, n_paths, n_steps, rng_seed, chunk)
    assert got.shape == (n_paths,)
    assert got.tobytes() == want.tobytes()


def test_brownian_sampler_memory_does_not_grow_with_n_paths():
    # one (30000, 1024) normal matrix would take 234 MiB
    import tracemalloc

    tracemalloc.start()
    try:
        sup = stats.brownian_functional_samples("sup", 1.0, 30000, 2 ** 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    assert ks_statistic(sup, stats.brownian_sup_cdf) < 0.01


@pytest.mark.parametrize("functional", ["sup_abs", "terminal"])
def test_brownian_sampler_draws_only_sup(functional):
    with pytest.raises(ValueError, match="unknown functional"):
        stats.brownian_functional_samples(functional, 1.0, 10)


@pytest.mark.parametrize("buffer_pos", range(5))
@pytest.mark.parametrize("n", range(10))
def test_skip_draws_equals_drawing(buffer_pos, n):
    # A block's normals start wherever the previous block's uniforms left the
    # Philox buffer (four draws per counter step; buffer_pos of them used).
    # Started at each buffer position, the sampler's blocks of 7 rows must
    # read the stream as the whole-chunk oracle's draws of its chunks do.
    start = np.random.Philox(2024)
    start.random_raw(5)
    state = start.state
    state["buffer_pos"] = buffer_pos
    philox = np.random.Philox

    def positioned(seed):
        bit_gen = philox()
        bit_gen.state = state
        return bit_gen

    with pytest.MonkeyPatch.context() as m:
        m.setattr(np.random, "Philox", positioned)
        m.setattr(stats, "_BLOCK_VALUES", 35)
        got = stats.brownian_functional_samples("sup", 0.8, 30 * n, 5)
        want = whole_chunk_brownian("sup", 0.8, 30 * n, 5, 11, 7)
    assert got.tobytes() == want.tobytes()


def test_qfclt_terminal_equals_qclt():
    ens = small_doubling_ensemble(256, 2000)
    a = stats.qfclt_paths(ens, 0.5, "terminal")
    b = stats.qclt_test(ens, 0.5)
    assert a["ks_distance"] == b["ks_distance"]


def test_qfclt_sup_doubling():
    ens = small_doubling_ensemble(1024, 4000)
    res = stats.qfclt_paths(ens, 0.5, "sup")
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
    res = stats.asip_rate(stats.RateParams(p=math.inf, exponential=True))
    assert res["arbitrarily_small"]
