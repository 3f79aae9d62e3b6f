"""Birkhoff-sum Monte Carlo and the quenched limit-law verification suite.

Partial sums S_k = sum_{j<=k} phi_{s^j w}(f^j_w x) are accumulated over an
ensemble of initial points; the stored per-sample summaries (checkpointed
sums, path extrema, iterated-logarithm envelopes) feed the CLT, LIL and
functional-CLT tests without keeping the full trajectory matrix.

The doubling family is iterated on sliding windows of a random bit stream
(maps._doubling_orbit_values), since float64 orbits collapse to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kstest import ks_statistic, ks_pvalue, normal_cdf
from .maps import _doubling_orbit_values, _iterates
from .omega import ParamSequence
from .transfer import _density_chain, bin_average, sample_from_density
from .util import _BLOCK_VALUES

LIL_MIN_N = 16


@dataclass
class BirkhoffEnsemble:
    n_steps: int
    n_samples: int
    record_ns: np.ndarray              # checkpointed times, ends at n_steps
    S_records: np.ndarray              # [len(record_ns), n_samples]
    path_max: np.ndarray               # max_k S_k including S_0 = 0
    path_min: np.ndarray
    lil_max_c1: np.ndarray             # max_{k>=16} S_k / sqrt(k loglog k)
    lil_min_c1: np.ndarray

    @property
    def terminal(self) -> np.ndarray:
        return self.S_records[-1]

    # Negation and correctly rounded division by a constant are monotone, so
    # the derived extrema below equal the per-step ones bit for bit.
    @property
    def path_absmax(self) -> np.ndarray:
        return np.maximum(self.path_max, -self.path_min)

    @property
    def lil_max_c2(self) -> np.ndarray:
        """Same as lil_max_c1 with sqrt(2 k loglog k)."""
        return self.lil_max_c1 / math.sqrt(2.0)

    @property
    def lil_min_c2(self) -> np.ndarray:
        return self.lil_min_c1 / math.sqrt(2.0)


def _dyadic_records(n_steps: int) -> np.ndarray:
    ks = [2 ** j for j in range(2, n_steps.bit_length()) if 2 ** j < n_steps]
    return np.array(sorted(set(ks + [n_steps])))


def birkhoff_ensemble(seq: ParamSequence, phi: Callable[[np.ndarray], np.ndarray],
                      n_steps: int, n_samples: int, sampling_mode: str, n_bins: int,
                      depth: int, subsamples: int) -> BirkhoffEnsemble:
    """Simulate partial sums of the fiberwise-centered observable.

    Centering constants are grid quadratures of phi against the masses of
    the equivariant density chain (transfer._density_chain), fiber by fiber;
    initial points are drawn from the fiber-0 density (inverse CDF) or from
    Lebesgue.
    """
    if sampling_mode not in ("equivariant", "lebesgue"):
        raise ValueError("sampling_mode must be 'equivariant' or 'lebesgue'")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    record_ns = _dyadic_records(n_steps)
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence((seq.master_seed, seq.origin_offset, 0xB1F, 0))))

    phi_bar = bin_average(phi, n_bins, subsamples)
    chain = _density_chain(seq, 0, n_steps, n_bins, depth)
    h = next(chain)[1]
    means = np.array([float(h @ phi_bar)] + [float(m @ phi_bar) for _, m in chain])

    if seq.family == "doubling":
        values = _doubling_orbit_values(n_samples, n_steps, rng)
    elif sampling_mode == "equivariant":
        values = _iterates(seq, sample_from_density(h, n_samples, rng), n_steps)
    else:
        values = _iterates(seq, rng.random(n_samples), n_steps)

    S = np.zeros(n_samples)
    S_records = np.empty((record_ns.size, n_samples))
    path_max = np.zeros(n_samples)
    path_min = np.zeros(n_samples)
    lil_max_c1 = np.full(n_samples, -np.inf)
    lil_min_c1 = np.full(n_samples, np.inf)
    ri = 0
    for k, xk in enumerate(values, start=1):
        S += phi(xk) - means[k]
        np.maximum(path_max, S, out=path_max)
        np.minimum(path_min, S, out=path_min)
        if k >= LIL_MIN_N:
            norm1 = math.sqrt(k * math.log(math.log(k)))
            z = S / norm1
            np.maximum(lil_max_c1, z, out=lil_max_c1)
            np.minimum(lil_min_c1, z, out=lil_min_c1)
        if ri < record_ns.size and k == record_ns[ri]:
            S_records[ri] = S
            ri += 1
    return BirkhoffEnsemble(n_steps, n_samples, record_ns, S_records, path_max, path_min,
                            lil_max_c1, lil_min_c1)


def _block_rows(row_len: int) -> int:
    """Rows per block of the row-blocked bootstrap and Brownian sampler."""
    return max(1, _BLOCK_VALUES // row_len)


def variance_growth(ens: BirkhoffEnsemble, n_boot: int = 200,
                    ci_level: float = 0.95) -> dict:
    """Per-checkpoint sample variance of S_n over n, with bootstrap CIs.

    One set of n_boot resamples of the sample indices serves every
    checkpoint, so the CIs of different checkpoints are correlated.
    ci_level is per checkpoint; joint statements over many checkpoints
    should widen it accordingly.  The resamples are drawn and reduced a
    block of rows at a time.
    """
    if not (0.0 < ci_level < 1.0):
        raise ValueError("ci_level must be in (0, 1)")
    if ens.n_samples < 2:
        raise ValueError("a sample variance needs n_samples >= 2")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((1, 0xB007))))
    ns = ens.record_ns
    v = ens.S_records.var(axis=1, ddof=1) / ns
    boots = np.empty((ns.size, n_boot))
    rows = _block_rows(ens.n_samples)
    for r in range(0, n_boot, rows):
        # the blocks' indices are the rows of one (n_boot, n_samples) draw
        idx = rng.integers(0, ens.n_samples, size=(min(rows, n_boot - r), ens.n_samples))
        for i, n in enumerate(ns):
            boots[i, r:r + len(idx)] = ens.S_records[i][idx].var(axis=1, ddof=1) / n
    tail = 0.5 * (1.0 - ci_level)
    lo, hi = np.quantile(boots, [tail, 1.0 - tail], axis=1)
    return {"n": ns, "var_over_n": v, "ci_lo": lo, "ci_hi": hi}


def qclt_test(ens: BirkhoffEnsemble, sigma2: float) -> dict:
    """KS distance of S_n / (sigma sqrt n) against the standard normal."""
    res = qfclt_paths(ens, sigma2, "terminal")
    del res["functional"]
    return res


def qclt_null_calibration(n_samples: int, reps: int = 100, level: float = 0.01) -> dict:
    """Rejection rate of the KS test on injected i.i.d. Gaussian increments.

    The normalized sum of any number of i.i.d. standard normal increments is
    exactly N(0, 1), so each sample is one standard normal draw.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((7, 0xCA1))))
    rejections = 0
    for _ in range(reps):
        d = ks_statistic(rng.standard_normal(n_samples), normal_cdf)
        if ks_pvalue(d, n_samples) < level:
            rejections += 1
    return {"rejection_rate": rejections / reps, "reps": reps, "level": level}


def qlil_envelope(ens: BirkhoffEnsemble, sigma2: float) -> dict:
    """Iterated-logarithm envelope statistics under both normalizations.

    c=1 is the normalization sqrt(n loglog n); c=2 the classical
    sqrt(2 n loglog n).  Summaries are the ensemble median and IQR of the
    per-sample trajectory max (and min).
    """
    if ens.n_steps < LIL_MIN_N:
        raise ValueError(f"need n_steps >= {LIL_MIN_N} for loglog normalization")

    def summary(arr):
        q1, q2, q3 = np.quantile(arr, [0.25, 0.5, 0.75])
        return {"median": float(q2), "iqr": float(q3 - q1)}

    return {
        "sigma": math.sqrt(max(sigma2, 0.0)),
        "c1": {"max": summary(ens.lil_max_c1), "min": summary(ens.lil_min_c1)},
        "c2": {"max": summary(ens.lil_max_c2), "min": summary(ens.lil_min_c2)},
    }


def brownian_functional_samples(functional: str, sigma: float, n_paths: int,
                                n_steps: int = 2 ** 10, rng_seed: int = 11) -> np.ndarray:
    """Monte Carlo samples of the running sup of sigma * B on [0, 1].

    functional must be "sup", the only functional sampled.  The per-step
    maximum is drawn exactly from the Brownian-bridge reflection law,
    removing the discrete-grid bias that a plain max over grid points would
    carry: on step k it is 0.5 * (a + b + sqrt((b - a)^2 - c log u)) with
    a = w_{k-1} (w_0 = 0), b = w_k and u uniform, where w = cumsum(scale * z)
    is the path of the row of standard normals z.  0.5 * max equals max of
    0.5 * (...) because halving is exact and monotone.

    Stream layout: paths come in blocks of _block_rows(n_steps) rows, and for
    each block of m paths the Philox stream holds its m * n_steps standard
    normals (row-major), then its m * n_steps uniforms.  A block is computed
    with whole-block array temporaries, so memory is bounded by the block
    size, not by n_paths.
    """
    if functional != "sup":
        raise ValueError(f"unknown functional {functional!r}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((rng_seed, 0xB2))))
    dt = 1.0 / n_steps
    scale = sigma * math.sqrt(dt)
    c = 2.0 * sigma * sigma * dt
    out = np.empty(n_paths)
    rows = _block_rows(n_steps)
    for r in range(0, n_paths, rows):
        m = min(rows, n_paths - r)
        w = np.cumsum(rng.standard_normal((m, n_steps)) * scale, axis=1)
        u = rng.random((m, n_steps))
        a = np.concatenate((np.zeros((m, 1)), w[:, :-1]), axis=1)   # w_0 = 0
        out[r:r + m] = 0.5 * np.max(a + w + np.sqrt((w - a) ** 2 - c * np.log(u)), axis=1)
    return out


def brownian_sup_cdf(a: np.ndarray, sigma: float = 1.0) -> np.ndarray:
    """Reflection principle: P(sup_{[0,1]} sigma B <= a) = 2 Phi(a/sigma) - 1."""
    a = np.asarray(a, dtype=float)
    return np.clip(2.0 * normal_cdf(a / sigma) - 1.0, 0.0, 1.0)


# Odd numbers 2k + 1 and signs (-1)^k of the terms kept in each series of
# brownian_sup_abs_cdf; either series is below 1e-16 of 1 after them on its
# side of a / sigma = 1.
_ODD = np.arange(1.0, 17.0, 2.0)
_SIGN = np.resize([1.0, -1.0], _ODD.size)


def _sup_abs_theta(x: np.ndarray) -> np.ndarray:
    """(4/pi) sum_k (-1)^k/(2k+1) exp(-(2k+1)^2 pi^2 / (8 x^2)), fast for small x."""
    # x -> 0 sends the exponent to -inf, and exp to 0
    with np.errstate(divide="ignore", over="ignore"):
        terms = np.exp(-(_ODD * math.pi) ** 2 / (8.0 * x[..., None] ** 2))
    return (4.0 / math.pi) * np.sum(_SIGN / _ODD * terms, axis=-1)


def _sup_abs_image(x: np.ndarray) -> np.ndarray:
    """1 - 4 sum_k (-1)^k (1 - Phi((2k+1) x)), fast for large x."""
    return 1.0 - 4.0 * np.sum(_SIGN * normal_cdf(-_ODD * x[..., None]), axis=-1)


def brownian_sup_abs_cdf(a: np.ndarray, sigma: float = 1.0) -> np.ndarray:
    """Erdos-Kac: P(sup_{[0,1]} |sigma B| <= a), from the theta series below
    a / sigma = 1 and the image sum above it."""
    x = np.maximum(np.asarray(a, dtype=float) / sigma, 0.0)
    F, small = np.empty_like(x), x < 1.0   # each series only on its own side
    F[small], F[~small] = _sup_abs_theta(x[small]), _sup_abs_image(x[~small])
    return np.clip(F, 0.0, 1.0)


def brownian_oracle_self_test(n_paths: int = 10 ** 5) -> dict:
    """KS of simulated Brownian sup samples against the reflection-law CDF.

    The sampler's sup has the law of sup B at any grid, so 64 steps exercise
    the cumsum, the multi-step max and the bridge formula at 1/16 the cost
    of 1024."""
    sup = brownian_functional_samples("sup", 1.0, n_paths, 2 ** 6, 13)
    d = ks_statistic(sup, brownian_sup_cdf)
    return {"ks_distance": d, "n_paths": n_paths}


def empirical_functional(ens: BirkhoffEnsemble, sigma2: float,
                         functional: str) -> np.ndarray:
    """Per-sample path functional of S^{n,w}; the sup functionals are compared
    with sigma B, so only the terminal value (the CLT statistic) is scaled."""
    if functional == "terminal":
        return ens.terminal / math.sqrt(sigma2 * ens.n_steps)
    if functional == "sup":
        return ens.path_max / math.sqrt(ens.n_steps)
    if functional == "sup_abs":
        return ens.path_absmax / math.sqrt(ens.n_steps)
    raise ValueError(f"unknown functional {functional!r}")


# The law of each functional as empirical_functional scales it: the terminal
# value is standardized, the sups are compared with sigma B.
_LAWS = {"terminal": lambda a, sigma: normal_cdf(a),
         "sup": brownian_sup_cdf, "sup_abs": brownian_sup_abs_cdf}


def qfclt_paths(ens: BirkhoffEnsemble, sigma2: float, functional: str) -> dict:
    """One-sample KS of a path functional of S^{n,w} against its law for sigma B.

    The piecewise-linear path attains its extrema at the nodes S_k / sqrt n,
    so the stored path extrema determine the sup functionals exactly; their
    laws are closed-form (brownian_sup_cdf, brownian_sup_abs_cdf).  The
    terminal functional is the CLT statistic.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive; degenerate observables "
                         "belong to the coboundary route")
    emp = empirical_functional(ens, sigma2, functional)
    law = _LAWS[functional]
    d = ks_statistic(emp, lambda a: law(a, math.sqrt(sigma2)))
    return {"functional": functional, "ks_distance": d, "p_value": ks_pvalue(d, emp.size),
            "n_samples": emp.size}


@dataclass(frozen=True)
class RateParams:
    p: float                       # integrability exponent, may be math.inf
    D: float = 0.0                 # polynomial tail exponent
    exponential: bool = False


def asip_rate(params: RateParams) -> dict:
    """Explicit convergence-rate exponents for the invariance principle.

    Polynomial tails 1/n^D need D > 2 + 4p/(p-1); then
    eps_1 = 2p / ((p-1)(D-2)) and
    eps_D = max{1/4 + (3e - 2e^3 - e^2)/4, e, (1+e)/4} - 1/4 at e = eps_1,
    with any rate exponent in (eps_D, 1/4) attainable.  Exponential tails
    admit arbitrarily small exponents.
    """
    if params.exponential:
        return {"epsilon_0_interval": [0.0, 0.25],
                "arbitrarily_small": True, "tail": "exponential"}
    p, D = params.p, params.D
    if not p > 1:
        raise ValueError(f"need p > 1, got p={p}")
    ratio = 4.0 if math.isinf(p) else 4.0 * p / (p - 1.0)
    if not D > 2.0 + ratio:
        raise ValueError(
            f"inadmissible tail exponent: D={D} is not > 2 + 4p/(p-1) = {2.0 + ratio}")
    e1 = 2.0 / (D - 2.0) if math.isinf(p) else 2.0 * p / ((p - 1.0) * (D - 2.0))
    eD = max(0.25 + (3.0 * e1 - 2.0 * e1 ** 3 - e1 ** 2) / 4.0,
             e1, (1.0 + e1) / 4.0) - 0.25
    return {"epsilon_1": e1, "epsilon_D": eD,
            "epsilon_0_interval": [eD, 0.25], "tail": "polynomial"}
