"""Induced return-time structure on the base interval [1/2, 1].

First returns to Lambda = [1/2, 1], each one from a single first-entry
walk, the return-time partition, tail statistics, separation times, and
empirical distortion / expansion checks for the induced map.

For both map families the orbit of a base point stays in [0, 1/2) between
returns and every branch involved is increasing, so {R = n} is a single
interval and the return-time value labels the partition cell uniquely.  In
particular first returns and Markov-partition returns coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .maps import apply, derivative, left_branch_inverse
from .omega import ParamSequence
from .util import _BLOCK_VALUES, seed_mean

BASE_LO = 0.5
CAP_DEFAULT = 10 ** 6
_MERGE_AT = 8   # steps a tail_curve block walks alone before its survivors are parked


@dataclass
class ReturnRecord:
    R: int | None              # None when the cap was hit


@dataclass
class ReturnPartition:
    """The cells {R = n}, one entry per cell, in increasing lo."""

    lo: np.ndarray
    hi: np.ndarray
    R: np.ndarray
    image_ok: np.ndarray   # does f^R map the cell onto the base?
    depth_cap: int
    residual_mass: float   # Lebesgue mass of {R > depth_cap} plus merged slivers


def _check_base(x: float):
    if not (BASE_LO <= x <= 1.0):
        raise ValueError(f"point {x} outside the base [1/2, 1]")


def _first_entries(seq: ParamSequence, xs: np.ndarray, t0: int, cap: int):
    """Step every point of xs from tower time t0 to its first entry to the base.

    Step t makes one seq.param(t) call and one array apply over the
    points not yet back; apply gives the same bits for a point and an array.
    Returns (steps, points): each point's step count, or -1 once it runs cap
    steps without entering, and where it stopped.
    """
    y = np.array(xs, dtype=float)
    steps = np.full(y.shape, -1, dtype=np.int64)
    active = np.arange(y.size)
    for n in range(1, cap + 1):
        if active.size == 0:
            break
        z = apply(seq.param(t0 + n - 1), y[active])
        y[active] = z
        returned = z >= BASE_LO
        steps[active[returned]] = n
        active = active[~returned]
    return steps, y


def return_time(seq: ParamSequence, x: float, cap: int = CAP_DEFAULT) -> ReturnRecord:
    """First n >= 1 with f^n(x) back in [1/2, 1], or a capped record."""
    _check_base(x)
    if cap < 1:
        raise ValueError("cap must be >= 1")
    n = int(_first_entries(seq, [x], 0, cap)[0][0])
    return ReturnRecord(None if n < 0 else n)


def nth_return(seq: ParamSequence, x: float, n: int, cap: int = CAP_DEFAULT):
    """Cumulative n-th return time R^n (R^0 = 0), one walk per leg; None once a leg caps."""
    _check_base(x)
    if n < 0:
        raise ValueError("n must be >= 0")
    t, y = 0, [x]
    for _ in range(n):
        r, y = _first_entries(seq, y, t, cap)
        if r[0] < 0:
            return None
        t += int(r[0])
    return t


def build_partition(seq: ParamSequence, depth_cap: int,
                    refine_tol: float = 1e-12) -> ReturnPartition:
    """Return-time cells {R = n}, n <= depth_cap, from pulled-back boundaries.

    The boundary of {R > n} is the base point whose orbit sits exactly at
    1/2 at time n; it is found by pulling 1/2 back through the left-branch
    inverses of the fiber maps at steps n-1, ..., 1 and then through the
    right branch at step 0.  All n are pulled back together, one array
    inverse per step k; the boundary of n = k + 1 joins at step k.
    """
    if depth_cap < 1:
        raise ValueError("depth_cap must be >= 1")
    if not 0.0 <= refine_tol < math.inf:   # NaN fails too
        raise ValueError(f"refine_tol must be finite and >= 0, got {refine_tol}")
    w = np.empty(0)      # w[i] belongs to n = depth_cap - i
    for k in range(depth_cap - 1, 0, -1):
        w = left_branch_inverse(seq.param(k), np.append(w, 0.5))
    w = np.append(w, 0.5)[::-1]
    b = np.append(1.0, (w + 1.0) / 2.0)   # right branch inverse of w
    residual, kept = b[depth_cap] - BASE_LO, []
    for n in range(1, depth_cap + 1):
        if b[n - 1] - b[n] < refine_tol:
            residual += b[n - 1] - b[n]
        else:
            kept.append(n)
    R = np.array(sorted(kept, key=b.__getitem__), dtype=np.int64)
    lo, hi = b[R], b[R - 1]
    image_ok = _image_ok(seq, lo, hi, R, refine_tol)
    return ReturnPartition(lo, hi, R, image_ok, depth_cap, float(residual))


def _image_ok(seq: ParamSequence, lo: np.ndarray, hi: np.ndarray, R: np.ndarray,
              tol: float) -> np.ndarray:
    """Does f^R map each cell (lo, hi) onto the base up to tol at both ends?

    Twelve probes inside each end of every cell walk together, in one
    induced_jacobian walk, and each cell's probes stop at its own R.
    """
    offsets = (hi - lo)[:, None] * np.array([10.0 ** -j for j in range(1, 13)])
    probes = np.concatenate([lo[:, None] + offsets, hi[:, None] - offsets], axis=1)
    at_R = induced_jacobian(seq, probes, R[:, None])[0]
    low_ok = np.any(at_R[:, :12] <= BASE_LO + max(tol, 1e-9), axis=1)
    high_ok = np.any(at_R[:, 12:] >= 1.0 - max(tol, 1e-6), axis=1)
    return low_ok & high_ok


def exact_tail(alpha: float, n_max: int) -> np.ndarray:
    """Deterministic tail Leb(R > n)/Leb(base) for a constant-parameter map.

    Computed by tracking the boundary of {R > n} through left-branch
    preimages of 1/2; exact up to the inverse's rounding, so it resolves
    tails far below any Monte Carlo floor.  Index n of the result is the tail at n.
    """
    tail = np.empty(n_max + 1)
    tail[0] = 1.0
    z = 0.5
    tail[1:2] = z   # a slice, empty when n_max is 0
    for n in range(2, n_max + 1):
        z = left_branch_inverse(alpha, z)
        tail[n] = z
    return tail


def _value_counts(values: np.ndarray, n_max: int) -> np.ndarray:
    """Counts of the integer values >= 0 equal to 0 .. n_max, and above n_max last."""
    return np.bincount(np.minimum(values, n_max + 1), minlength=n_max + 2)


def _fraction_above(counts: np.ndarray) -> np.ndarray:
    """np.mean(values > n) for n = 0 .. n_max, from counts laid out as _value_counts does.

    The counts are exact integers, so each entry equals np.mean's sum / size,
    however many arrays the counts were added up from.
    """
    size = counts.sum()
    return (size - np.cumsum(counts[:-1])) / size


@dataclass
class TailCurve:
    n: np.ndarray
    tail: np.ndarray
    std_err: np.ndarray
    n_eff: int
    capped_fraction: float
    warnings: list = field(default_factory=list)


def tail_curve(seqs: list[ParamSequence], n_max: int, samples_per_omega: int,
               cap: int = CAP_DEFAULT) -> TailCurve:
    """Monte Carlo estimate of the annealed return-time tail.

    Base points are drawn uniformly on [1/2, 1], _BLOCK_VALUES at a time,
    from one stream per driving sequence keyed on its master_seed; the curve
    is the pooled fraction of samples with R > n, where a capped sample counts
    as above every n, as coupling_tail scores a capped pair.  Each block walks
    alone for _MERGE_AT steps; the survivors then walk on together to cap, in
    groups of at most _BLOCK_VALUES, so memory does not grow with
    samples_per_omega.  Only exact integer counts are kept, whatever _MERGE_AT is.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if samples_per_omega < 1:
        raise ValueError("samples_per_omega must be >= 1")
    per_seed = np.empty((len(seqs), n_max + 1))
    merge, capped_total = min(_MERGE_AT, cap), 0
    for si, seq in enumerate(seqs):
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence((seq.master_seed, 0xA11))))
        counts = np.zeros(n_max + 2, dtype=np.int64)
        parked = []
        # one empty block past the last walks what is still parked
        for start in [*range(0, samples_per_omega, _BLOCK_VALUES), samples_per_omega]:
            xs = BASE_LO + 0.5 * rng.random(min(_BLOCK_VALUES, samples_per_omega - start))
            y = _count_returns(seq, xs, 0, merge, counts)
            if start == samples_per_omega or sum(p.size for p in parked) + y.size > _BLOCK_VALUES:
                capped = _count_returns(seq, np.concatenate(parked), merge, cap, counts).size
                counts[-1] += capped   # a capped sample is above every n
                capped_total += capped
                parked = []
            parked.append(y)
        per_seed[si] = _fraction_above(counts)
    return _pooled_tail(np.arange(0, n_max + 1), per_seed, samples_per_omega, capped_total)


def _count_returns(seq: ParamSequence, y: np.ndarray, t: int, t_end: int, counts: np.ndarray):
    """Step y from tower time t to t_end; returns the points that have not entered the base.

    The points that enter it at time n are added to counts[min(n, counts.size - 1)]."""
    for n in range(t + 1, t_end + 1):
        if y.size == 0:
            break
        z = apply(seq.param(n - 1), y)
        y = z[z < BASE_LO]
        counts[min(n, counts.size - 1)] += z.size - y.size
    return y


def _pooled_tail(ns: np.ndarray, per_seed: np.ndarray, draws: int, capped: int) -> TailCurve:
    """Pool per-seed tail rows of draws samples each; capped counts the capped samples."""
    tail, se = seed_mean(per_seed, draws)
    n_eff = len(per_seed) * draws
    capped_fraction = capped / n_eff
    warnings = []
    if capped_fraction > 0.01:
        warnings.append(f"capped fraction {capped_fraction:.3f} exceeds 1%")
    return TailCurve(ns, tail, se, n_eff, capped_fraction, warnings)


def gcd_check(partition: ReturnPartition, mass_floor: float) -> int:
    """gcd of the return times whose cells carry mass above mass_floor."""
    times = partition.R[partition.hi - partition.lo > mass_floor].tolist()
    if not times:
        raise ValueError(f"no cell carries mass above {mass_floor}")
    return math.gcd(*times)


def separation_time(seq: ParamSequence, x: float, y: float, cap: int = 64,
                    return_cap: int = CAP_DEFAULT) -> float:
    """Markov returns survived together before x and y land in different cells.

    Cells of the return partition are labeled by the return-time value (one
    interval per value for these families), so separation is detected by the
    first disagreement of the successive return times, which the pair takes
    as one 2-point first-entry walk each.  math.inf when the pair does not
    separate within cap returns or a return runs past return_cap steps.
    """
    _check_base(x)
    _check_base(y)
    if x == y:
        return math.inf
    t, pts = 0, [x, y]
    for n in range(cap):
        r, pts = _first_entries(seq, pts, t, return_cap)
        if r.min() < 0:
            return math.inf
        if r[0] != r[1]:
            return n
        t += int(r[0])
    return math.inf


def induced_jacobian(seq: ParamSequence, x, R):
    """(f^R x, product of the derivatives along the first R steps); scalars or arrays.

    R may be an integer array broadcast against x: the points walk together,
    step k maps only those with k < R, so each stops at its own R.  apply
    and derivative give a point the same bits in any array.
    """
    y, R = np.broadcast_arrays(np.asarray(x, dtype=float), R)
    y, jac = y.copy(), np.ones(y.shape)   # broadcast views are read-only
    for k in range(int(R.max(initial=0))):
        alpha, go = seq.param(k), k < R
        jac[go] = jac[go] * derivative(alpha, y[go])
        y[go] = apply(alpha, y[go])
    return y[()], jac[()]


def distortion_check(seq: ParamSequence, partition: ReturnPartition,
                     pair_samples: int, rng_seed: int = 0) -> dict:
    """Sampled distortion and expansion diagnostics for the induced map.

    For same-cell pairs (x, y): the Jacobian-ratio deviation
    |J f^R(x)/J f^R(y) - 1| is compared against beta^s with s the
    separation time, and the one-return expansion |f^R x - f^R y| / |x - y|
    is checked against 1/beta, for beta = 1/2.
    """
    beta = 0.5
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((rng_seed, 0xD157))))
    masses = partition.hi - partition.lo
    probs = masses / masses.sum()
    ci, u = np.empty(pair_samples, dtype=np.int64), np.empty((pair_samples, 2))
    for i in range(pair_samples):   # stream order: a cell, then a pair in it, per sample
        ci[i], u[i] = rng.choice(masses.size, p=probs), rng.random(2)
    lo, hi = partition.lo[ci, None], partition.hi[ci, None]
    pts = lo + (hi - lo) * u
    keep = pts[:, 0] != pts[:, 1]
    (x, y), R = pts[keep].T, partition.R[ci[keep]]
    (fx, fy), (jx, jy) = induced_jacobian(seq, np.array([x, y]), R)
    dev = np.abs(jx / jy - 1.0)
    expansion = np.abs(fx - fy) / np.abs(x - y)
    min_expansion = float(expansion.min(initial=math.inf))
    violations = int(np.count_nonzero(expansion < 1.0 / beta))
    max_cf = 0.0
    for xi, yi, d in zip(x[dev > 0], y[dev > 0], dev[dev > 0]):
        s = separation_time(seq, xi, yi, cap=64)
        if s != math.inf:
            max_cf = max(max_cf, d / beta ** s)
    return {
        "empirical_CF": max_cf,
        "beta_hat": 1.0 / min_expansion,   # the largest inverse expansion
        "min_expansion": min_expansion,
        "violations": violations,
        "pair_samples": pair_samples,
        "beta": beta,
    }
