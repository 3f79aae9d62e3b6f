"""Driving-sequence generation: determinism, indexing, shift law."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quenched_limits import omega
from quenched_limits.omega import ParamSequence, make_sequence, zigzag


def test_zigzag_encoding():
    assert [zigzag(i) for i in (0, -1, 1, -2, 2, -3)] == [0, 1, 2, 3, 4, 5]


@given(st.integers(min_value=-10**6, max_value=10**6))
def test_zigzag_injective_on_pairs(i):
    assert zigzag(i) != zigzag(i + 1)
    assert zigzag(i) >= 0


def test_param_deterministic():
    seq = make_sequence(42, "lsv", (0.05, 0.15))
    a = [seq.param(i) for i in range(-5, 5)]
    b = [seq.param(i) for i in range(-5, 5)]
    assert a == b


@given(seed=st.integers(0, 2 ** 64 - 1), counter=st.integers(0, 2 ** 40))
def test_memoized_raw_uniform_equals_its_draw(seed, counter):
    # the memo returns the SeedSequence draw bit for bit, on a miss and on a hit
    want = omega._raw_uniform.__wrapped__(seed, counter)
    for _ in range(2):
        assert np.float64(omega._raw_uniform(seed, counter)).tobytes() == np.float64(want).tobytes()


def test_param_bounds():
    seq = make_sequence(7, "lsv", (0.05, 0.15))
    vals = seq.params(-200, 200)
    assert np.all(vals >= 0.05) and np.all(vals <= 0.15)


def test_degenerate_bounds_constant():
    seq = make_sequence(7, "doubling", (0.0, 0.0))
    assert set(seq.params(-10, 10).tolist()) == {0.0}


def test_doubling_sequence_is_zero_whatever_its_bounds():
    # doubling is the lsv map at alpha = 0: checked bounds are then ignored
    seq = make_sequence(1, "doubling", (0.05, 0.15))
    assert (seq.alpha_min, seq.alpha_max) == (0.0, 0.0)
    assert seq.params(-32, 64).tolist() == [0.0] * 96
    assert seq.param(5) == 0.0
    with pytest.raises(ValueError, match="empty"):
        make_sequence(1, "doubling", (0.15, 0.05))


@given(alpha=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
       family=st.sampled_from(["lsv", "doubling"]),
       seed=st.integers(0, 2 ** 32 - 1), offset=st.integers(-10 ** 6, 10 ** 6),
       indices=st.lists(st.integers(-10 ** 9, 10 ** 9), min_size=1, max_size=20))
def test_constant_sequence_param_skips_the_draw(alpha, family, seed, offset, indices):
    # alpha_min + 0.0 * u is alpha_min bit for bit, so no uniform is drawn
    def no_draw(*args):
        raise AssertionError("constant sequence drew a uniform")

    want = alpha + (alpha - alpha) * omega._raw_uniform(seed, 0)
    seq = ParamSequence(seed, family, alpha, alpha, offset)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(omega, "_raw_uniform", no_draw)
        got = [seq.param(i) for i in indices]
    assert {np.float64(g).tobytes() for g in got} == {np.float64(want).tobytes()}


@given(st.integers(min_value=-100, max_value=100),
       st.integers(min_value=-100, max_value=100),
       st.integers(min_value=-50, max_value=50))
def test_shift_composition(k1, k2, i):
    seq = make_sequence(3, "lsv", (0.1, 0.9 - 1e-9))
    assert seq.shift(k1).shift(k2).param(i) == seq.shift(k1 + k2).param(i)


@given(st.integers(min_value=-100, max_value=100),
       st.integers(min_value=-50, max_value=50))
def test_shift_reindexes(k, i):
    seq = make_sequence(11, "lsv", (0.2, 0.4))
    assert seq.shift(k).param(i) == seq.param(i + k)


def test_different_seeds_differ():
    a = make_sequence(1, "lsv", (0.05, 0.15)).params(0, 50)
    b = make_sequence(2, "lsv", (0.05, 0.15)).params(0, 50)
    assert not np.allclose(a, b)


def test_params_marginal_uniform():
    seq = make_sequence(5, "lsv", (0.0 + 1e-12, 1.0 - 1e-12))
    vals = seq.params(0, 20000)
    # mean of U(0,1) is 1/2, sd of the mean ~ 0.002
    assert abs(vals.mean() - 0.5) < 0.01
    assert abs(np.mean(vals < 0.25) - 0.25) < 0.02


def test_family_validation():
    with pytest.raises(ValueError):
        make_sequence(1, "tent", (0.1, 0.2))
    with pytest.raises(ValueError):
        make_sequence(1, "lsv", (0.3, 0.2))
    with pytest.raises(ValueError):
        make_sequence(1, "lsv", (0.0, 1.0))
    # NaN would pass every comparison above
    for bounds in [(math.nan, math.nan), (0.0, math.inf), (-math.inf, 0.0)]:
        with pytest.raises(ValueError, match="finite"):
            make_sequence(1, "doubling", bounds)


@pytest.mark.parametrize("family, bounds", [("lsv", (0.1, 0.2)), ("doubling", (0.0, 0.0))])
def test_negative_seed_rejected(family, bounds):
    # a doubling sequence draws nothing, so a negative seed never raised there
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        make_sequence(-1, family, bounds)


def test_frozen():
    seq = make_sequence(1, "lsv", (0.1, 0.2))
    with pytest.raises(Exception):
        seq.master_seed = 2
