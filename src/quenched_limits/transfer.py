"""Ulam-discretized transfer operators and equivariant densities.

An Ulam matrix is stored as (row, col, weight) triplets; ``pushforward``
(mass @ M) and ``pull`` (M @ values) are the only two ways to apply it.
Measures are stored as bin-mass arrays (not density values), which keeps
every pushforward exactly mass-conserving; densities are masses times
n_bins, and the mean of bin values under a measure is ``mass @ values``.
The dual operator is never formed: the dual of psi against h is pushed as
the signed mass psi * h.  The equivariant density h_w is obtained by pushing
Lebesgue forward through the fiber maps of the recent past (finite
pullback), which is the direct discretization of its construction; the
family mu_{s^k w} = (f_w^k)_* mu_w that centering, decay and the
decomposition walk comes from one walker, _density_chain.

Ulam builds share their per-grid work.  The stratified points of each
(n_bins, subsamples) grid are cached read-only.  On an even grid 1/2 is a bin
edge and both families map the right half x >= 1/2 by 2x - 1, whatever alpha
is, so those rows' triplets are cached per grid and only the left half goes
through the fiber map's left branch.  Both branches are increasing, so the
keys row * n_bins + col come out sorted and are counted by a run-length pass;
unsorted keys (the bin straddling 1/2 on an odd grid) go through np.unique.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .maps import FiberMap, _left_branch, apply
from .omega import ParamSequence, make_sequence
from .util import seed_mean

MASS_FLOOR = 1e-12


def uniform_density(n_bins: int) -> np.ndarray:
    return np.full(n_bins, 1.0 / n_bins)


def nearest_bin(x: np.ndarray, n_bins: int) -> np.ndarray:
    """Index of the grid bin holding each point; x = 1 goes to the last bin."""
    return np.minimum((np.asarray(x) * n_bins).astype(np.int64), n_bins - 1)


def bin_average(fn, n_bins: int) -> np.ndarray:
    """Bin-averaged observable values from 16 stratified midpoints per bin."""
    return np.asarray(fn(_stratified_points(n_bins, 16))).reshape(n_bins, 16).mean(axis=1)


@functools.lru_cache(maxsize=8)
def _stratified_points(n_bins: int, subsamples: int) -> np.ndarray:
    """The subsamples midpoints of each bin, bin-major; cached read-only per grid."""
    offs = (np.arange(subsamples) + 0.5) / subsamples
    pts = ((np.arange(n_bins)[:, None] + offs[None, :]) / n_bins).ravel()
    pts.flags.writeable = False
    return pts


@dataclass(frozen=True)
class UlamMatrix:
    """Sparse matrix M[rows[k], cols[k]] = weights[k], one triplet per nonzero.

    Triplets are row-major with ascending columns, so pushforward and pull
    add their terms in the same order as a CSR product (bit-identical sums).
    """
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    n_bins: int


def _triplets(images: np.ndarray, row0: int, n_bins: int, subsamples: int):
    """(rows, cols, weights) of consecutive rows from row0 on, given their points' images."""
    j = nearest_bin(images, n_bins).reshape(-1, subsamples)
    i = np.arange(row0, row0 + j.shape[0], dtype=np.int64)
    keys = (i[:, None] * n_bins + j).ravel()
    steps = np.diff(keys)
    if np.all(steps >= 0):
        # sorted keys: each run of equal keys is one triplet
        starts = np.flatnonzero(np.concatenate(([True], steps != 0)))
        keys, counts = keys[starts], np.diff(np.append(starts, keys.size))
    else:
        keys, counts = np.unique(keys, return_counts=True)
    # The weight of c hits is 1/subsamples added c times in sequence, not
    # c/subsamples: the two differ in the last bit for non-dyadic counts.
    weights = np.cumsum(np.full(subsamples, 1.0 / subsamples))[counts - 1]
    return keys // n_bins, keys % n_bins, weights


@functools.lru_cache(maxsize=8)
def _right_half(n_bins: int, subsamples: int):
    """Read-only triplets of the rows x >= 1/2 of an even grid, mapped by 2x - 1."""
    half = n_bins // 2
    x = _stratified_points(n_bins, subsamples)[half * subsamples:]
    out = _triplets(2.0 * x - 1.0, half, n_bins, subsamples)
    for a in out:
        a.flags.writeable = False
    return out


def ulam_matrix(fmap: FiberMap, n_bins: int, subsamples: int = 64) -> UlamMatrix:
    """Row-stochastic bin-to-bin transition fractions under one fiber map.

    M[i, j] estimates Leb(bin_i intersect f^-1 bin_j) / Leb(bin_i) by
    stratified midpoint subsampling of bin i.  Row sums are exactly 1 when
    subsamples is a power of two (dyadic weights add exactly).

    On an even grid only the left half x < 1/2 is mapped, by the left branch
    alone; the rows of the right half, where every fiber map is 2x - 1, come
    from a per-grid cache.  An odd grid maps all its points.  Distinct
    (row, col) keys are counted by a run-length pass when they come out
    sorted, as they do for increasing branches, and by np.unique otherwise;
    either way the triplets are the same bits as one np.unique over the
    whole grid.
    """
    if n_bins < 2 or subsamples < 1:
        raise ValueError("need n_bins >= 2 and subsamples >= 1")
    pts = _stratified_points(n_bins, subsamples)
    if n_bins % 2:
        return UlamMatrix(*_triplets(apply(fmap, pts), 0, n_bins, subsamples), n_bins)
    left = _triplets(_left_branch(fmap, pts[:n_bins // 2 * subsamples]), 0, n_bins, subsamples)
    right = _right_half(n_bins, subsamples)
    return UlamMatrix(*(np.concatenate(pair) for pair in zip(left, right)), n_bins)


def pushforward(M: UlamMatrix, mass: np.ndarray) -> np.ndarray:
    """mass @ M: the image of a (signed) mass vector under one Ulam step."""
    if mass.size != M.n_bins:
        raise ValueError("dimension mismatch between matrix and mass vector")
    return np.bincount(M.cols, M.weights * mass[M.rows], minlength=M.n_bins)


def pull(M: UlamMatrix, values: np.ndarray) -> np.ndarray:
    """M @ values: bin averages of values composed with the fiber map."""
    return np.bincount(M.rows, M.weights * values[M.cols], minlength=M.n_bins)


def row_stochasticity_defect(M: UlamMatrix) -> float:
    return float(np.max(np.abs(pull(M, np.ones(M.n_bins)) - 1.0)))


def matrices_along(seq: ParamSequence, k_lo: int, k_hi: int, n_bins: int,
                   subsamples: int = 64):
    """Yield the Ulam matrices of the fiber maps at steps k_lo .. k_hi-1.

    A step whose parameter equals the previous one reuses its matrix, so a
    constant-parameter sequence builds a single matrix.
    """
    M, last = None, None
    for alpha in seq.params(k_lo, k_hi).tolist():
        if alpha != last:
            M, last = ulam_matrix(FiberMap(seq.family, alpha), n_bins, subsamples), alpha
        yield M


def equivariant_density(seq: ParamSequence, n_bins: int, pullback_depth: int,
                        subsamples: int = 64) -> np.ndarray:
    """Bin masses of h_w approximated by pushing Lebesgue through the past fiber maps.

    Depth 0 returns the uniform density by convention.  A constant stretch
    of the past stops being pushed once it reaches a bitwise fixed point
    (_pushes); the masses are the same bits as pushing every step.
    """
    if pullback_depth < 0:
        raise ValueError("pullback_depth must be >= 0")
    mass = uniform_density(n_bins)
    for _, mass in _pushes(matrices_along(seq, -pullback_depth, 0, n_bins, subsamples),
                           mass):
        pass
    return mass


def _pushes(mats, h: np.ndarray):
    """Yield (M, h pushed by every matrix of mats up to M) for each M of mats.

    Once a repeated matrix object has mapped h to itself bit for bit,
    pushing again returns the same h, so the walk stops pushing until the
    matrix changes.
    """
    last, fixed = None, False
    for M in mats:
        if not (fixed and M is last):
            pushed = pushforward(M, h)
            fixed = M is last and np.array_equal(pushed, h)
            h, last = pushed, M
        yield M, h


def _density_chain(seq: ParamSequence, k_lo: int, k_hi: int, n_bins: int, depth: int,
                   subsamples: int = 64):
    """Yield (M_{k-1}, h_k) for k = k_lo .. k_hi: the masses of mu on fiber k
    and the matrix that pushed them there.

    h_{k_lo} is equivariant_density of the sequence shifted to k_lo and comes
    with None; each later h_k is h_{k-1} pushed by M_{k-1} (_pushes, which
    skips the pushes of a bitwise fixed point).
    """
    h = equivariant_density(seq.shift(k_lo), n_bins, depth, subsamples)
    yield None, h
    yield from _pushes(matrices_along(seq, k_lo, k_hi, n_bins, subsamples), h)


def sample_from_density(mass: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF sampling from grid bin masses (uniform within each bin)."""
    cdf = np.cumsum(mass)
    cdf[-1] = 1.0
    u = rng.random(n)
    j = np.searchsorted(cdf, u, side="right")
    j = np.minimum(j, mass.size - 1)
    left = np.concatenate(([0.0], cdf[:-1]))
    frac = np.where(mass[j] > 0, (u - left[j]) / np.where(mass[j] > 0, mass[j], 1.0), 0.5)
    return (j + np.clip(frac, 0.0, 1.0)) / mass.size


def equivariance_residual(seq: ParamSequence, n_bins: int, pullback_depth: int,
                          subsamples: int = 64) -> float:
    """L1 gap between push(h_w) and the independently pulled-back h_{shift w}.

    One walk over the matrices of steps -depth .. 0: h takes steps
    -depth .. -1 and h_{shift w} takes steps -depth+1 .. 0, the same pushes
    as equivariant_density of w and of shift w.
    """
    if pullback_depth < 0:
        raise ValueError("pullback_depth must be >= 0")
    mats = matrices_along(seq, -pullback_depth, 1, n_bins, subsamples)
    h = h_next = uniform_density(n_bins)
    M = next(mats)
    for M_next in mats:
        h = pushforward(M, h)
        h_next = pushforward(M_next, h_next)
        M = M_next
    return float(np.abs(pushforward(M, h) - h_next).sum())


@dataclass
class DecayCurve:
    n: np.ndarray
    decay: np.ndarray
    std_err: np.ndarray
    warnings: list = field(default_factory=list)


def decay_curve(family: str, bounds: tuple[float, float], seeds: list[int],
                phi: Callable[[np.ndarray], np.ndarray], n_max: int, n_bins: int,
                pullback_depth: int, subsamples: int = 64) -> DecayCurve:
    """Annealed L1 decay of the iterated dual on the centered observable.

    Per seed the signed measure (phi - mean) d mu_w is pushed forward step
    by step beside the density chain; its total variation at step n equals
    the L1(mu) norm of P^n(phi_w - int phi_w d mu_w), so no divisions are
    needed except for the mask bookkeeping.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    phi_bar = bin_average(phi, n_bins)
    curves = np.empty((len(seeds), n_max + 1))
    masked = np.empty((len(seeds), n_max + 1))   # masked-bin fraction per step
    for si, seed in enumerate(seeds):
        seq = make_sequence(seed, family, bounds)
        chain = _density_chain(seq, 0, n_max, n_bins, pullback_depth, subsamples)
        for n, (M, h) in enumerate(chain):
            w = (phi_bar - float(h @ phi_bar)) * h if M is None else pushforward(M, w)
            mask = h >= MASS_FLOOR
            curves[si, n] = np.abs(w[mask]).sum()
            masked[si, n] = 1.0 - mask.mean()
    decay, se = seed_mean(curves)
    masked_mean = masked[:, [0, -1]].mean(axis=0)
    warnings = []
    if masked_mean[1] > masked_mean[0] + 0.01:
        warnings.append("masked-bin fraction grows along the chain")
    return DecayCurve(np.arange(n_max + 1), decay, se, warnings)
