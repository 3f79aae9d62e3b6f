"""Ulam-discretized transfer operators and equivariant densities.

Measures are bin-mass arrays (densities are masses times n_bins).  Both
branches are increasing, so an Ulam step takes the distribution function C
of the masses to F(j/n) = C(f_L^-1(j/n)) + C((n + j)/(2n)) - C(1/2) (Lasota
and Mackey 1994, ch. 4; Li 1976): push_step places a fiber map's edge
preimages on the grid, push moves any signed mass through them (the dual of
psi against h as psi * h), and _density_chain pushes Lebesgue through the
recent past and on along mu_{s^k w} = (f_w^k)_* mu_w for centering, decay
and the decomposition.  ulam_matrix builds the same operator independently,
as exact triplets, for the soundness checks and the decomposition's one pull.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .maps import FiberMap, left_branch_inverse
from .omega import ParamSequence, make_sequence
from .util import seed_mean


def uniform_density(n_bins: int) -> np.ndarray:
    return np.full(n_bins, 1.0 / n_bins)


def nearest_bin(x: np.ndarray, n_bins: int) -> np.ndarray:
    """Index of the grid bin holding each point; x = 1 goes to the last bin."""
    return np.minimum((np.asarray(x) * n_bins).astype(np.int64), n_bins - 1)


def bin_average(fn, n_bins: int, subsamples: int) -> np.ndarray:
    """Bin-averaged observable values from subsamples stratified midpoints per bin."""
    offs = (np.arange(subsamples) + 0.5) / subsamples
    pts = ((np.arange(n_bins)[:, None] + offs[None, :]) / n_bins).ravel()   # bin-major
    return np.asarray(fn(pts)).reshape(n_bins, subsamples).mean(axis=1)


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


def ulam_matrix(fmap: FiberMap, n_bins: int) -> UlamMatrix:
    """Row-stochastic bin-to-bin transition fractions under one fiber map.

    M[i, j] = Leb(bin_i intersect f^-1 bin_j) * n_bins, exactly.  Both
    branches are increasing, so the cuts at the bin edges k/n, the left
    preimages f_L^-1(j/n) and the right preimages (n + j) / (2n) split
    [0, 1] into pieces that each lie in one bin and map into one bin.  The
    three sorted runs of cuts are merged by one stable sort (an edge first
    among equal cuts); a piece's row and column count the edges and the
    preimages at or left of it, and its weight is its length in bin units,
    measured from its row's own edge so that each row adds up to exactly 1.
    """
    if n_bins < 2:
        raise ValueError("need n_bins >= 2")
    n = n_bins
    edges = np.arange(n + 1) / n
    # f_L^-1(0) = 0 and f_L^-1(1) = 1/2 are cuts already: edge 0 and (n + 0) / (2n)
    cuts = np.concatenate((edges, left_branch_inverse(fmap, edges[1:-1]),
                           np.arange(n, 2 * n) / (2 * n)))
    order = np.argsort(cuts, kind="stable")
    x = cuts[order]
    rows = np.cumsum(order <= n) - 1
    cols = np.arange(x.size) - rows   # the preimages at or left of each cut
    cols[np.searchsorted(x, 0.5):] -= n   # the right branch's count from 1/2 on
    weights = np.diff(np.minimum(rows + n * (x - edges[rows]), rows + 1))
    keep = np.flatnonzero(weights > 0)   # no zero-length pieces
    rows, cols, weights = rows[keep], cols[keep], weights[keep]
    # ascending columns in each row: on an odd grid the bin holding 1/2 maps
    # its left part to the last columns and its right part to the first
    mid = slice(*np.searchsorted(rows, [(n - 1) // 2, (n + 1) // 2]))
    order = np.argsort(cols[mid], kind="stable")
    cols[mid], weights[mid] = cols[mid][order], weights[mid][order]
    return UlamMatrix(rows, cols, weights, n)


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


@dataclass(frozen=True)
class PushStep:
    """Bin j receives to_edge[j] of bin index[j] and from_edge[j] of bin index[j + 1]."""
    index: np.ndarray
    to_edge: np.ndarray
    from_edge: np.ndarray


def push_step(fmap: FiberMap, n_bins: int) -> PushStep:
    """Where one fiber map's left preimages y_j = f_L^-1(j/n) fall on the grid:
    f_L' > 1 on (0, 1/2], so y_j and y_{j+1} are less than a bin apart, and the
    edge index[j + 1] splits their gap into to_edge = index[j + 1] - y_j, in
    bin index[j] (negative when both lie in one bin), and from_edge."""
    if n_bins < 2:
        raise ValueError("need n_bins >= 2")
    n = n_bins
    # in bin units; f_L^-1(0) = 0 and f_L^-1(1) = 1/2
    y = np.concatenate(([0.0], left_branch_inverse(fmap, np.arange(1, n) / n) * n, [n / 2]))
    index = y.astype(np.int64)
    return PushStep(index, index[1:] - y[:-1], y[1:] - index[1:])


def push(step: PushStep, mass: np.ndarray) -> np.ndarray:
    """mass @ M without M: the image of a (signed) mass vector under one Ulam step.
    Bin j's differences of C are summed from bin-local pieces, so rounding
    scales with the masses moved; the right branch gives it half of bin (n + j) // 2."""
    n = step.to_edge.size
    if mass.size != n:
        raise ValueError("dimension mismatch between step and mass vector")
    left, right = mass[step.index], np.repeat(mass[n // 2:], 2)[n % 2:]
    return step.to_edge * left[:-1] + step.from_edge * left[1:] + 0.5 * right


def equivariant_density(seq: ParamSequence, n_bins: int, pullback_depth: int) -> np.ndarray:
    """Bin masses of h_w, Lebesgue pushed through the past fiber maps (uniform at depth 0)."""
    return next(_density_chain(seq, 0, 0, n_bins, pullback_depth))[1]


def _density_chain(seq: ParamSequence, k_lo: int, k_hi: int, n_bins: int, depth: int):
    """Yield (step_{k-1}, h_k) for k = k_lo .. k_hi >= k_lo: the masses of mu on
    fiber k and the push step that took them there (None for h_{k_lo}).

    One walk from Lebesgue over steps k_lo - depth .. k_hi - 1.  A step is
    computed only when the parameter changes, and once a repeated parameter's
    step has mapped h to itself bit for bit, the walk stops pushing until the
    parameter changes: pushing again would return the same h.
    """
    if depth < 0:
        raise ValueError("pullback_depth must be >= 0")
    alphas = seq.params(k_lo - depth, k_hi).tolist()
    h, last, fixed = uniform_density(n_bins), None, False
    for i, alpha in enumerate(alphas):
        if i == depth:
            yield None, h
        if alpha != last:
            step, last = push_step(FiberMap(seq.family, alpha), n_bins), alpha
            h, fixed = push(step, h), False
        elif not fixed:
            pushed = push(step, h)
            h, fixed = pushed, np.array_equal(pushed, h)
        if i >= depth:
            yield step, h
    if len(alphas) == depth:
        yield None, h


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


def equivariance_residual(seq: ParamSequence, n_bins: int, pullback_depth: int) -> float:
    """L1 gap between push(h_w) and the independently pulled-back h_{shift w}.

    push(h_w) is h_{shift w} pulled back one step deeper, so the residual
    compares two depths of one density.
    """
    s = seq.shift(1)
    return float(np.abs(equivariant_density(s, n_bins, pullback_depth + 1)
                        - equivariant_density(s, n_bins, pullback_depth)).sum())


@dataclass
class DecayCurve:
    n: np.ndarray
    decay: np.ndarray
    std_err: np.ndarray


def decay_curve(family: str, bounds: tuple[float, float], seeds: list[int],
                phi: Callable[[np.ndarray], np.ndarray], n_max: int, n_bins: int,
                pullback_depth: int, subsamples: int = 64) -> DecayCurve:
    """Annealed L1 decay of the iterated dual on the centered observable.

    Per seed the signed measure (phi - mean) d mu_w is pushed forward step
    by step beside the density chain; its total variation at step n equals
    the L1(mu) norm of P^n(phi_w - int phi_w d mu_w), with no division.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    phi_bar = bin_average(phi, n_bins, subsamples)
    curves = np.empty((len(seeds), n_max + 1))
    for si, seed in enumerate(seeds):
        seq = make_sequence(seed, family, bounds)
        chain = _density_chain(seq, 0, n_max, n_bins, pullback_depth)
        for n, (step, h) in enumerate(chain):
            w = (phi_bar - float(h @ phi_bar)) * h if step is None else push(step, w)
            curves[si, n] = np.abs(w).sum()
    decay, se = seed_mean(curves)
    return DecayCurve(np.arange(n_max + 1), decay, se)
