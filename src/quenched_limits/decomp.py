"""Martingale-coboundary decomposition on the Ulam grid.

For a fiberwise-centered observable phi the function
g_w = sum_{i>=0} P^i(phi at fiber -i) (truncated at K_trunc) and
psi_w = phi_{sw} o F_w - g_{sw} o F_w + g_w are assembled from the grid
transfer machinery.  P_w psi_w vanishes identically in the continuum; the
reported residual measures how far the truncated grid version is from that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .maps import apply
from .omega import ParamSequence
from .transfer import (_density_chain, bin_average, nearest_bin, pull, push,
                       sample_from_density)
from .util import seed_mean

K_TRUNC_DEFAULT = 16

# Deterministic driving (zero seed-to-seed spread) makes a pure
# 3-standard-error criterion vacuous, so the degeneracy verdict also uses an
# absolute floor well above the grid-noise scale of sigma2.
SIGMA2_FLOOR = 1e-4


@dataclass
class Decomposition:
    K_trunc: int
    h: np.ndarray                   # masses of mu_w, from the chain g and psi are built on
    h_next: np.ndarray              # masses of mu_sw, its image under step 0
    g: np.ndarray                   # on fiber w
    g_next: np.ndarray              # on fiber sw
    psi: np.ndarray                 # on fiber w
    residual: float                 # L1(mu_sw) norm of P_w psi_w
    sigma2_fiber: float             # int psi^2 dmu_w
    truncation_tail: float          # L1(mu_w) size of the last series term
    min_density: float              # smallest n_bins * mass on fibers 0 and 1
    warnings: list

    def report(self) -> dict:
        return {
            "K_trunc": self.K_trunc,
            "residual_l1": self.residual,
            "sigma2_fiber": self.sigma2_fiber,
            "truncation_tail": self.truncation_tail,
            "min_density": self.min_density,
        }


def _decompose(seq: ParamSequence, phi: Callable[[np.ndarray], np.ndarray], K_trunc: int,
               n_bins: int, depth: int, subsamples: int) -> Decomposition:
    """Single sweep through the fibers -K_trunc .. 0 building g_w, g_sw and psi_w.

    The density chain (transfer._density_chain) walks from Lebesgue on fiber
    -(K_trunc + depth); from mu on fiber -K_trunc on, signed masses for the
    truncated series are pushed along the same steps.  psi is pulled through
    step 0, the push step of fiber 0; a zero-mass bin raises FloatingPointError.
    """
    if K_trunc < 0:
        raise ValueError("K_trunc must be >= 0")
    phi_bar = bin_average(phi, n_bins, subsamples)
    chain = _density_chain(seq, -K_trunc, 1, n_bins, depth)
    h1 = next(chain)[1]
    A, B, tail = np.zeros(n_bins), np.zeros(n_bins), np.zeros(n_bins)
    for j, (step, h_next) in enumerate(chain, start=-K_trunc):
        h0, h1 = h1, h_next
        c = (phi_bar - float(h0 @ phi_bar)) * h0   # centered mass on fiber j
        A = A + c   # not A = c: 0.0 + c turns a -0.0 of c into 0.0
        if j == -K_trunc:
            tail = c
        else:
            B = B + c
        if j < 0:
            # A and tail live on fiber 0; only B crosses step 0.
            A, tail = push(step, A), push(step, tail)
        B = push(step, B)
    # the loop ends at j = 0: h0, h1 are the fiber 0 and 1 masses, c the j = 0 term
    phi_c1 = phi_bar - float(h1 @ phi_bar)
    B = B + phi_c1 * h1

    with np.errstate(divide="raise", invalid="raise"):
        g_w, g_sw = A / h0, B / h1
    psi = pull(step, phi_c1 - g_sw) + g_w
    residual = float(np.abs(push(step, psi * h0)).sum())
    sigma2_fiber = float(np.sum(psi ** 2 * h0))
    tail_norm = float(np.abs(tail).sum())
    first_norm = float(np.abs(c).sum())
    warnings = []
    if first_norm > 0 and tail_norm > 0.10 * first_norm:
        warnings.append(
            f"series tail {tail_norm:.3e} exceeds 10% of the first term {first_norm:.3e}")
    min_density = n_bins * float(min(h0.min(), h1.min()))
    return Decomposition(K_trunc, h0, h1, g_w, g_sw, psi,
                         residual, sigma2_fiber, tail_norm, min_density, warnings)


def martingale_psi(seq: ParamSequence, phi: Callable[[np.ndarray], np.ndarray], K_trunc: int,
                   n_bins: int, depth: int, subsamples: int) -> Decomposition:
    """Full decomposition on fiber w (g, g at sw, psi, residual, variance)."""
    return _decompose(seq, phi, K_trunc, n_bins, depth, subsamples)


def sigma_squared(seqs: list[ParamSequence], phi: Callable[[np.ndarray], np.ndarray],
                  K_trunc: int, n_bins: int, depth: int,
                  subsamples: int) -> tuple[float, float, list[Decomposition]]:
    """Ensemble average of int psi^2 dmu_w over the driving sequences.

    Also returns the per-sequence decompositions, so callers that need one
    (seqs[0] for the artifacts and the pointwise check) do not rebuild it.
    Nothing is sampled: each decomposition is a function of its sequence alone.
    """
    decomps = [_decompose(seq, phi, K_trunc, n_bins, depth, subsamples) for seq in seqs]
    s2, se = seed_mean(np.array([d.sigma2_fiber for d in decomps]))
    return float(s2), float(se), decomps


def coboundary_test(seqs: list[ParamSequence], phi: Callable[[np.ndarray], np.ndarray],
                    n_bins: int, depth: int, subsamples: int) -> dict:
    """Degenerate-vs-nondegenerate verdict for the limiting variance.

    Degenerate when the sigma^2 estimate (series truncated at
    K_TRUNC_DEFAULT) is below both 3 standard errors and the absolute
    grid-noise floor SIGMA2_FLOOR; in that case the pointwise coboundary
    identity is additionally checked on 4096 points sampled from mu_w of
    seqs[0], from a stream keyed on its master_seed.
    """
    s2, se, decomps = sigma_squared(seqs, phi, K_TRUNC_DEFAULT, n_bins, depth, subsamples)
    degenerate = s2 < max(3.0 * se, SIGMA2_FLOOR)
    out = {"verdict": "degenerate" if degenerate else "nondegenerate",
           "sigma2": s2, "sigma2_se": se, "pointwise_residual": None}
    if degenerate:
        seq, d = seqs[0], decomps[0]
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence((seq.master_seed, 0xC0B))))
        xs = sample_from_density(d.h, 4096, rng)
        fx = apply(seq.param(0), xs)
        mean1 = float(d.h_next @ bin_average(phi, n_bins, subsamples))
        resid = (phi(fx) - mean1
                 - d.g_next[nearest_bin(fx, n_bins)]
                 + d.g[nearest_bin(xs, n_bins)])
        out["pointwise_residual"] = float(np.mean(np.abs(resid)))
    return out

