"""The seed average that every multi-seed estimate shares."""

import math

import numpy as np
import pytest

from quenched_limits import coupling, decomp, tower, transfer
from quenched_limits.maps import get_observable
from quenched_limits.util import seed_mean

ROWS = np.array([[0.5, 1.0], [0.25, 1.0], [0.0, 1.0]])


def test_several_seeds_take_the_standard_error_across_seeds():
    mean, se = seed_mean(ROWS)
    assert mean.tolist() == [0.25, 1.0]
    assert se[0] == pytest.approx(0.25 / math.sqrt(3))
    assert se[1] == 0.0


def test_one_seed_takes_the_binomial_error_or_none():
    mean, se = seed_mean(ROWS[:1], draws=100)
    assert mean.tolist() == [0.5, 1.0]
    assert se[0] == pytest.approx(0.05)
    assert se[1] == 0.0
    assert seed_mean(ROWS[:1])[1].tolist() == [0.0, 0.0]


COS = get_observable("cos2pi")
ESTIMATES = {
    "tail_curve": lambda seeds: tower.tail_curve("doubling", (0.0, 0.0), seeds, 4, 10),
    "coupling_tail": lambda seeds: coupling.coupling_tail("doubling", (0.0, 0.0), seeds, 1,
                                                          n_max=4, pair_samples=10),
    "decay_curve": lambda seeds: transfer.decay_curve("doubling", (0.0, 0.0), seeds, COS,
                                                      2, 16, 1, 4),
    "sigma_squared": lambda seeds: decomp.sigma_squared("doubling", (0.0, 0.0), seeds, COS,
                                                        1, 16, 1, 4),
    "estimate_l0": lambda seeds: coupling.estimate_l0("doubling", (0.0, 0.0), seeds, 2, 10),
}


@pytest.mark.parametrize("name", sorted(ESTIMATES))
def test_every_seed_average_rejects_an_empty_seed_list(name):
    with pytest.raises(ValueError, match="need at least one seed"):
        ESTIMATES[name]([])
    ESTIMATES[name]([1])   # the same call with one seed runs
