"""Two-sided i.i.d. parameter sequences driving the random map compositions.

A ParamSequence realizes the Bernoulli base: an infinite bi-directional
sequence of map parameters, lazily materialized from a 64-bit master seed.
Shifting the sequence is O(1); every parameter is a pure function of
(master_seed, signed index), so concurrent readers always agree bit for bit.

The doubling map is the LSV map at alpha = 0, so a doubling sequence is the
constant 0.0 whatever bounds it was given; make_sequence still checks them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

FAMILIES = ("lsv", "doubling")

# Conversion of a 64-bit word to a double in [0, 1): keep the top 53 bits.
_U64_TO_UNIT = 2.0 ** -53


def zigzag(i: int) -> int:
    """Map the signed index i to a distinct non-negative counter.

    Encoding order is 0, -1, 1, -2, 2, ...  (0->0, -1->1, 1->2, -2->3, ...).
    Fixing this encoding keeps parameter values bit-identical across
    platforms and across processes.
    """
    return 2 * i if i >= 0 else -2 * i - 1


# A pure function of its key, so a memo hit returns the same float; walks
# that start over from tower time 0 read the same parameters again.
@functools.lru_cache(maxsize=2 ** 12)
def _raw_uniform(master_seed: int, counter: int) -> float:
    """Counter-based uniform draw in [0, 1), keyed on (seed, counter)."""
    word = np.random.SeedSequence((master_seed, counter)).generate_state(1, np.uint64)[0]
    return float(word >> np.uint64(11)) * _U64_TO_UNIT


@dataclass(frozen=True)
class ParamSequence:
    """A two-sided i.i.d. sequence of map parameters with shift access.

    param(i) is uniform on [alpha_min, alpha_max], independent across
    indices, and depends only on (master_seed, i + origin_offset).
    """

    master_seed: int
    family: str
    alpha_min: float
    alpha_max: float
    origin_offset: int = 0

    def param(self, i: int) -> float:
        if self.alpha_min == self.alpha_max:
            return self.alpha_min          # what alpha_min + 0.0 * u gives
        u = _raw_uniform(self.master_seed, zigzag(i + self.origin_offset))
        return self.alpha_min + (self.alpha_max - self.alpha_min) * u

    def params(self, lo: int, hi: int) -> np.ndarray:
        """Parameters for indices lo..hi-1 as an array (batch evaluation)."""
        if self.alpha_min == self.alpha_max:
            return np.full(hi - lo, self.alpha_min)
        return np.array([self.param(i) for i in range(lo, hi)])

    def shift(self, k: int) -> "ParamSequence":
        """The shifted sequence: shift(k).param(i) == param(i + k)."""
        return replace(self, origin_offset=self.origin_offset + k)


def make_sequence(master_seed: int, family: str, bounds: tuple[float, float]) -> ParamSequence:
    """Validate and construct a ParamSequence with origin at zero."""
    alpha_min, alpha_max = float(bounds[0]), float(bounds[1])
    if master_seed < 0:
        raise ValueError(f"seed must be >= 0, got {master_seed}")
    if family not in FAMILIES:
        raise ValueError(f"unknown map family {family!r}; choose from {FAMILIES}")
    if not (math.isfinite(alpha_min) and math.isfinite(alpha_max)):
        raise ValueError(f"alpha bounds must be finite, got ({alpha_min}, {alpha_max})")
    if alpha_min > alpha_max:
        raise ValueError(f"empty parameter interval: alpha_min={alpha_min} > alpha_max={alpha_max}")
    if family == "lsv" and not (0.0 < alpha_min and alpha_max < 1.0):
        raise ValueError("lsv family needs 0 < alpha_min <= alpha_max < 1")
    if family == "doubling":
        alpha_min = alpha_max = 0.0
    return ParamSequence(int(master_seed), family, alpha_min, alpha_max)
