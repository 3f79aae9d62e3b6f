"""Fiber map evaluation, derivatives, branch inverse, observables."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quenched_limits import maps
from quenched_limits.maps import (_iterates, apply, derivative, get_observable,
                                  left_branch_inverse)
from quenched_limits.omega import make_sequence


def test_lsv_point_values():
    alpha = 0.1
    assert apply(alpha, 0.25) == pytest.approx(0.48326, abs=1e-5)
    assert apply(alpha, 0.0) == 0.0
    assert apply(alpha, 0.5) == 0.0          # branch point belongs to the right branch
    assert apply(alpha, 0.75) == 0.5
    assert apply(alpha, 1.0) == 1.0


def test_lsv_derivative_value():
    # 1 + 2^a (1+a) x^a at a=0.1, x=0.25
    alpha = 0.1
    expected = 1.0 + 2.0 ** 0.1 * 1.1 * 0.25 ** 0.1
    assert derivative(alpha, 0.25) == pytest.approx(expected, rel=1e-15)
    assert derivative(alpha, 0.25) == pytest.approx(2.0263362906904883, rel=1e-12)


def test_derivative_matches_finite_difference():
    alpha = 0.3
    for x in (0.1, 0.2, 0.4, 0.6, 0.9):
        h = 1e-7
        fd = (apply(alpha, x + h) - apply(alpha, x - h)) / (2 * h)
        assert derivative(alpha, x) == pytest.approx(fd, rel=1e-5)


def test_neutral_fixed_point():
    alpha = 0.5
    assert apply(alpha, 0.0) == 0.0
    assert derivative(alpha, 0.0) == 1.0


def test_doubling_period_two():
    alpha = 0.0
    x = 1.0 / 3.0
    y = apply(alpha, x)
    assert y == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert apply(alpha, y) == pytest.approx(x, abs=1e-15)


# The doubling formulas that the lsv formulas replace at alpha = 0, kept as oracles.
def old_doubling_apply(x):
    return np.clip(np.where(x < 0.5, 2.0 * x, 2.0 * x - 1.0), 0.0, 1.0)


def old_doubling_derivative(x):
    return np.full_like(x, 2.0)


EDGE_POINTS = [0.0, 5e-324, 2.0 ** -1060, 2.0 ** -1022, math.nextafter(0.5, 0.0), 0.5,
               math.nextafter(1.0, 0.0), 1.0]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(EDGE_POINTS), st.floats(0.0, 1.0)), max_size=30))
def test_doubling_is_lsv_at_zero_bit_for_bit(xs):
    alpha = 0.0
    arr = np.array(xs, dtype=float)
    for x in [arr, *(np.array(v) for v in xs)]:   # the array, then each 0-d point
        for got, want in ((apply(alpha, x), old_doubling_apply(x)),
                          (derivative(alpha, x), old_doubling_derivative(x))):
            assert np.ndim(got) == x.ndim
            assert np.asarray(got, dtype=float).tobytes() == np.asarray(want).tobytes()


def test_left_branch_inverse_at_alpha_zero_is_half_bit_for_bit():
    # Newton starts on the root and keeps it, also on the edges of a 4096-bin
    # grid and on subnormals
    ts = np.concatenate((np.linspace(0.0, 1.0, 17), np.arange(4097) / 4096,
                         [5e-324, 1e-310]))
    assert left_branch_inverse(0.0, ts).tobytes() == (0.5 * ts).tobytes()


def test_domain_check():
    alpha = 0.2
    for bad in (-0.1, [-0.1], [1.3], np.array([0.2, 1.3]), [math.nan, -1.0]):
        with pytest.raises(ValueError, match="outside"):
            apply(alpha, bad)
    # NaN is not out of range: the check ignores it, as x < 0 and x > 1 do
    assert np.isnan(apply(alpha, [math.nan, 0.2])).tolist() == [True, False]


def reference_apply(a, x):
    # both branches on every point, as apply computed them before it chose one
    return np.clip(np.where(x < 0.5, x * (1.0 + 2.0 ** a * x ** a), 2.0 * x - 1.0), 0.0, 1.0)


_BELOW_HALF = math.nextafter(0.5, 0.0)
SIDES = {"left": st.one_of(st.sampled_from([0.0, -0.0, _BELOW_HALF]),
                           st.floats(0.0, _BELOW_HALF)),
         "right": st.one_of(st.sampled_from([0.5, 1.0]), st.floats(0.5, 1.0))}
SIDES["mixed"] = st.one_of(SIDES["left"], SIDES["right"])


@settings(max_examples=300, deadline=None)
@given(alpha=st.one_of(st.none(), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
       side=st.sampled_from(sorted(SIDES)), ndim=st.sampled_from([0, 1, 2]),
       nan=st.booleans(), data=st.data())
def test_apply_matches_the_two_branch_reference_bit_for_bit(alpha, side, ndim, nan, data):
    # one-sided arrays compute one branch, mixed ones both; every point keeps
    # the bits of the reference, for 0-d, empty and 2-D inputs alike
    alpha = 0.0 if alpha is None else alpha
    xs = data.draw(st.lists(SIDES[side], max_size=24))
    if nan:
        xs.insert(data.draw(st.integers(0, len(xs))), math.nan)
    if ndim == 0:
        x = np.array(xs[0] if xs else 0.5)
    else:
        x = np.array(xs[:len(xs) // 2 * 2]).reshape(2, -1) if ndim == 2 else np.array(xs)
    got, want = apply(alpha, x), reference_apply(alpha, x)
    assert isinstance(got, float) == (x.ndim == 0)
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == x.shape and np.array_equal(np.isnan(got), np.isnan(want))
    # NaN compared as NaN, every other point bit for bit (-0.0 included)
    got, want = (np.where(np.isnan(v), 2.0, v) for v in (got, want))
    assert got.tobytes() == want.tobytes()


def test_vectorized_matches_scalar():
    alpha = 0.25
    xs = np.linspace(0.0, 1.0, 37)
    ys = apply(alpha, xs)
    assert ys == pytest.approx([apply(alpha, float(x)) for x in xs])


@given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
       st.floats(min_value=0.05, max_value=0.95))
def test_left_branch_inverse_roundtrip(t, alpha):
    y = left_branch_inverse(alpha, t)
    assert 0.0 <= y < 0.5
    assert apply(alpha, y) == pytest.approx(t, abs=1e-13)


def test_left_branch_inverse_doubling():
    alpha = 0.0
    assert left_branch_inverse(alpha, 0.3) == pytest.approx(0.15, abs=1e-15)


def test_orbit_composition_order():
    # the orbit applies f_{w0} first, then f_{w1}, ...
    seq = make_sequence(9, "lsv", (0.05, 0.4))
    assert list(_iterates(seq, 0.3, 0)) == []
    x, want = 0.3, []
    for k in range(4):
        x = apply(seq.param(k), x)
        want.append(x)
    assert list(_iterates(seq, 0.3, 4)) == want


def bisection_left_branch_inverse(alpha, t):
    """The oracle: each entry bisects [0, min(t, 1/2)] (f(y) >= y) until no
    float lies inside its bracket, comparing f(mid) with t in long double,
    and takes the bracket end whose image is nearer t."""
    a = np.longdouble(alpha)

    def f(y):
        y = y.astype(np.longdouble)
        return y + 2 ** a * y ** (1 + a)
    t = np.asarray(t, dtype=float)
    tt = t.ravel()
    lo, hi = np.zeros(tt.size), np.minimum(tt, 0.5)
    while True:
        mid = 0.5 * (lo + hi)
        moving = (lo < mid) & (mid < hi)
        if not moving.any():
            break
        below = f(mid) < tt
        lo, hi = np.where(moving & below, mid, lo), np.where(moving & ~below, mid, hi)
    return np.where(np.abs(f(lo) - tt) <= np.abs(f(hi) - tt), lo, hi).reshape(t.shape)


@settings(deadline=None, max_examples=300)
@given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
       st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True), min_size=1,
                max_size=20))
def test_left_branch_inverse_within_2_ulp_of_bisection(alpha, ts):
    got = left_branch_inverse(alpha, np.array(ts))
    want = bisection_left_branch_inverse(alpha, ts)
    # 2 ulp relative; below the normal range, 2 steps of the smallest subnormal
    assert np.all(np.abs(got - want) <= 2.0 ** -51 * np.maximum(want, 2.0 ** -1022))


@settings(deadline=None, max_examples=60)
@given(st.one_of(st.just(None), st.floats(min_value=0.01, max_value=0.99)),
       st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                          st.floats(min_value=0.0, max_value=1.0)), max_size=40))
def test_left_branch_inverse_array_matches_scalar(alpha, ts):
    # alpha None stands for the doubling map
    alpha = 0.0 if alpha is None else alpha
    ys = left_branch_inverse(alpha, np.array(ts))
    assert ys.shape == (len(ts),)
    assert ys.tobytes() == np.array([left_branch_inverse(alpha, t) for t in ts]).tobytes()
    assert left_branch_inverse(alpha, np.array(ts).reshape(-1, 1)).tobytes() == ys.tobytes()


def test_left_branch_inverse_of_zero_is_zero():
    for alpha in (1e-3, 0.3, 0.999):
        assert left_branch_inverse(alpha, 0.0) == 0.0


def test_inverse_takes_at_most_8_evaluations_per_entry(monkeypatch):
    # each Newton step evaluates every entry once, so the steps of a call
    # count the evaluations of each of its entries
    rng = np.random.default_rng(5)
    steps = []
    newton_step = maps._newton_step

    def counting(a, y, t):
        steps[-1] += 1
        return newton_step(a, y, t)
    monkeypatch.setattr(maps, "_newton_step", counting)
    ts = np.concatenate([rng.uniform(0.0, 1.0, 300), 10.0 ** rng.uniform(-300, 0, 100)])
    for alpha, t in zip(rng.uniform(0.01, 0.99, ts.size), ts):
        steps.append(0)
        left_branch_inverse(alpha, t)
    for alpha in (0.1, 0.5, 0.9, 0.99):   # every edge of a 4096-bin grid in one call
        steps.append(0)
        left_branch_inverse(alpha, np.arange(4097) / 4096)
    assert 0 < min(steps) and max(steps) <= 8


def test_orbit_array_matches_per_point_walk():
    seq = make_sequence(9, "lsv", (0.05, 0.4))
    xs = np.linspace(0.0, 1.0, 29)
    for n in (1, 7):
        # scalar reference: one apply per step and point
        walked = []
        for x in xs:
            y = x
            for alpha in seq.params(0, n):
                y = apply(alpha, y)
            walked.append(y)
        *_, y = _iterates(seq, xs, n)
        assert y.tolist() == walked


def test_observable_registry():
    phi = get_observable("cos2pi")
    assert phi(0.0) == pytest.approx(1.0)
    assert phi(0.5) == pytest.approx(-1.0)
    hg = get_observable("holder_gamma", gamma=0.5)
    assert hg(0.5) == 0.0
    assert hg(1.0) == pytest.approx(math.sqrt(0.5))
    with pytest.raises(ValueError):
        get_observable("holder_gamma", gamma=0.0)
    with pytest.raises(ValueError):
        get_observable("nope")


def test_coboundary_observable_is_exact_coboundary():
    # phi = u o f - u with u = cos(2 pi x) and f the doubling map
    phi = get_observable("coboundary_cos")
    alpha = 0.0
    u = lambda x: np.cos(2.0 * np.pi * x)
    xs = np.linspace(0.0, 1.0, 101)[:-1]
    assert phi(xs) == pytest.approx(u(apply(alpha, xs)) - u(xs), abs=1e-12)


@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_holder_certificates(x, y):
    # name -> (Holder exponent, Holder constant); holder_gamma at its default gamma 0.5
    certificates = {"cos2pi": (1.0, 2.0 * np.pi), "holder_gamma": (0.5, 1.0),
                    "smooth_indicator": (1.0, 12.0), "coboundary_cos": (1.0, 6.0 * np.pi)}
    for name, (exponent, constant) in certificates.items():
        phi = get_observable(name)
        lhs = abs(float(phi(x)) - float(phi(y)))
        assert lhs <= constant * abs(x - y) ** exponent + 1e-12


LONG_DOUBLE_IS_WIDER = np.finfo(np.longdouble).eps < np.finfo(np.float64).eps
PI_LONG = 4 * np.arctan(np.longdouble(1))
UNIT_EDGES = [0.0, 0.25, 0.5, 0.75, 1.0, 5e-324, math.nextafter(0.5, 0.0),
              math.nextafter(1.0, 0.0)]
UNIT_POINTS = st.lists(st.one_of(st.sampled_from(UNIT_EDGES), st.floats(0.0, 1.0)),
                       min_size=1, max_size=200)


def cos2pi_long(x):
    """cos 2 pi x of the float64 points x, in long double."""
    return np.cos(2 * PI_LONG * np.asarray(x, dtype=np.longdouble))


def assert_cos_kernels_near_long_double(x):
    assert np.max(np.abs(maps._cos2pi(x) - cos2pi_long(x))) <= 1.5e-15
    # u(2x) - u(x) for u = cos 2 pi x
    want = cos2pi_long(2 * x) - cos2pi_long(x)
    assert np.max(np.abs(maps._coboundary_cos(x) - want)) <= 3e-15


@pytest.mark.skipif(not LONG_DOUBLE_IS_WIDER, reason="long double is no wider than float64")
@settings(deadline=None, max_examples=200)
@given(UNIT_POINTS)
def test_cos_kernels_are_near_long_double_cos(xs):
    assert_cos_kernels_near_long_double(np.array(xs))


@pytest.mark.skipif(not LONG_DOUBLE_IS_WIDER, reason="long double is no wider than float64")
def test_cos_kernels_are_near_long_double_cos_on_a_dense_sample():
    assert_cos_kernels_near_long_double(np.concatenate((
        np.linspace(0.0, 1.0, 2 ** 16 + 1), np.random.default_rng(3).random(10 ** 5))))


def test_cos2pi_kernel_is_exact_at_whole_and_half_turns():
    assert maps._cos2pi(np.array([0.0, 0.5, 1.0])).tolist() == [1.0, -1.0, 1.0]
    assert [maps._cos2pi(x) for x in (0.0, 0.5, 1.0)] == [1.0, -1.0, 1.0]


@settings(deadline=None, max_examples=100)
@given(UNIT_POINTS)
def test_cos_kernels_give_a_scalar_the_bits_of_its_array_entry(xs):
    for fn in (maps._cos2pi, maps._coboundary_cos):
        arr = fn(np.array(xs))
        assert arr.shape == (len(xs),)
        for x, want in zip(xs, arr):
            got = fn(x)
            assert type(got) is np.float64
            assert got.tobytes() == want.tobytes()
        assert fn(np.array(xs).reshape(1, -1)).tobytes() == arr.tobytes()


def test_cos_kernels_never_write_their_input():
    x = np.linspace(0.0, 1.0, 1001)
    before = x.tobytes()
    frozen = x.copy()
    frozen.flags.writeable = False   # a write would raise
    for fn in (maps._cos2pi, maps._coboundary_cos):
        assert fn(x).tobytes() == fn(frozen).tobytes()
    assert x.tobytes() == before


def strided_doubling_orbit_values(n_samples, n_steps, rng):
    """The oracle: each step reads its two word columns straight from the
    (n_samples, n_words) array, one stride of n_words words apart."""
    n_words = (n_steps + 54) // 64 + 2
    words = rng.integers(0, 2 ** 64, size=(n_samples, n_words), dtype=np.uint64)
    for k in range(1, n_steps + 1):
        wi, off = divmod(k, 64)
        if off == 0:
            chunk = words[:, wi]
        else:
            chunk = (words[:, wi] << np.uint64(off)) | (words[:, wi + 1] >> np.uint64(64 - off))
        yield (chunk >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


@pytest.mark.parametrize("n_samples", [1, 3])
@pytest.mark.parametrize("n_steps", [1, 65, 129, 200])
def test_doubling_orbit_values_equal_the_strided_oracle(n_samples, n_steps):
    got = list(maps._doubling_orbit_values(n_samples, n_steps, np.random.default_rng(11)))
    want = list(strided_doubling_orbit_values(n_samples, n_steps, np.random.default_rng(11)))
    assert len(got) == len(want) == n_steps
    for g, w in zip(got, want):   # k = 63, 64, 65, 127 and 128 lie inside the longer walks
        assert g.tobytes() == w.tobytes()
