"""The seed average that every multi-seed estimate shares, and the CSV writer."""

import math

import numpy as np
import pytest

from quenched_limits import coupling, decomp, tower, transfer
from quenched_limits.maps import get_observable
from quenched_limits.omega import make_sequence
from quenched_limits.util import fmt17, seed_mean, write_csv

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
    "tail_curve": lambda seqs: tower.tail_curve(seqs, 4, 10),
    "coupling_tail": lambda seqs: coupling.coupling_tail(seqs, 1, 0.1, n_max=4, pair_samples=10),
    "decay_curve": lambda seqs: transfer.decay_curve(seqs, COS, 2, 16, 1, 4),
    "sigma_squared": lambda seqs: decomp.sigma_squared(seqs, COS, 1, 16, 1, 4),
    "estimate_l0": lambda seqs: coupling.estimate_l0(seqs, 2, 10),
}


@pytest.mark.parametrize("name", sorted(ESTIMATES))
def test_every_seed_average_rejects_an_empty_seed_list(name):
    with pytest.raises(ValueError, match="need at least one seed"):
        ESTIMATES[name]([])
    ESTIMATES[name]([make_sequence(1, "doubling", (0.0, 0.0))])   # one sequence runs


def per_value_write_csv(path, header, columns):
    # the writer write_csv replaced: one isinstance test and one format per value
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(fmt17(v) if isinstance(v, (float, np.floating)) else str(v)
                              for v in row) + "\n")


def test_write_csv_matches_the_per_value_writer(tmp_path):
    edges = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e308,
                      -1.7976931348623157e308, 3.0, -17.0, 2.0 ** 53, 1e16, 0.1, 1.0 / 3.0])
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2 ** 64, 3000 - edges.size, dtype=np.uint64)
    floats = np.concatenate([edges, bits.view(np.float64)])   # every exponent and sign
    n = floats.size
    singles = rng.integers(0, 2 ** 32, n, dtype=np.uint32).view(np.float32)
    columns = [np.arange(n), floats, singles, np.arange(n) % 3 == 0,
               (np.arange(n) % 2).astype(int), np.arange(n, dtype=np.int64) - 2 ** 62,
               np.full(n, 5e-324)]
    header = [f"c{i}" for i in range(len(columns))]
    # whole and partial 1024-row blocks, no rows, unequal lengths and no columns
    for cols in (columns, [c[:0] for c in columns], columns[:1], columns[3:5],
                 [columns[1], columns[0][:1500]], []):
        write_csv(tmp_path / "new.csv", header[:len(cols)], cols)
        per_value_write_csv(tmp_path / "old.csv", header[:len(cols)], cols)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
