"""Alternating matching scheme for pairs of orbits and its coupling tail.

tau_1 is an l0-fold return time of the first component; subsequent tau_i
alternate between the components, each evaluated at the correctly shifted
driving sequence.  T is the first tau_i at which both components sit in the
base simultaneously; T_n restarts the recursion (from the first component,
by construction) at the moved pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .maps import _doubling_orbit_values, apply, fiber_map, orbit
from .omega import ParamSequence, make_sequence
from .tower import BASE_LO, CAP_DEFAULT, _first_hits

ALPHA_EXP_DEFAULT = 0.1


@dataclass
class CouplingTrace:
    x: float
    x_prime: float
    l0: int
    taus: list[int]
    Ts: list[int]
    capped: bool


def match_pair(seq: ParamSequence, x: float, x_prime: float, l0: int,
               cap: int = CAP_DEFAULT, max_alternations: int = 512,
               max_T: int = 64) -> CouplingTrace:
    """Run the alternating recursion and record tau_i and simultaneous T_n."""
    if not (BASE_LO <= x <= 1.0 and BASE_LO <= x_prime <= 1.0):
        raise ValueError("both points must start in the base [1/2, 1]")
    if l0 < 1:
        raise ValueError("l0 must be >= 1")
    taus = [0]
    Ts: list[int] = []
    px, py = x, x_prime
    t = 0
    use_first = True   # each T-segment starts from the x component
    for _ in range(max_alternations):
        mover, other = (px, py) if use_first else (py, px)
        r, landed = _first_hits(seq, mover, t, l0, cap)
        if r is None:
            return CouplingTrace(x, x_prime, l0, taus, Ts, True)
        other = orbit(seq.shift(t), other, r)
        px, py = (landed, other) if use_first else (other, landed)
        t += r
        taus.append(t)
        if px >= BASE_LO and py >= BASE_LO:
            Ts.append(t)
            if len(Ts) >= max_T:
                break
            use_first = True   # recursion restarts at the moved pair
        else:
            use_first = not use_first
    return CouplingTrace(x, x_prime, l0, taus, Ts, False)


def estimate_l0(family: str, bounds: tuple[float, float], seeds: list[int],
                l_max: int, samples: int) -> dict:
    """Fraction of base points back in the base at each tower time l.

    The times at which an orbit visits the base are exactly its cumulative
    return times, so eps[l] is the base-occupation fraction at time l, for
    l = 0 .. l_max.  suggested_l0 is the first l >= 1 from which every eps
    stays positive, or None (with a warning) when there is none.  Doubling
    runs on bit streams (maps._doubling_orbit_values); x_l, l >= 1, skips
    the first bit, so conditioning on the base stays exact in law.
    """
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    occ = np.zeros((len(seeds), l_max + 1))
    for si, seed in enumerate(seeds):
        seq = make_sequence(seed, family, bounds)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0x10))))
        occ[si, 0] = 1.0
        if family == "doubling":
            for l, y in enumerate(_doubling_orbit_values(samples, l_max, rng), start=1):
                occ[si, l] = np.mean(y >= BASE_LO)
            continue
        y = BASE_LO + 0.5 * rng.random(samples)
        for l in range(1, l_max + 1):
            y = apply(fiber_map(seq, l - 1), y)
            occ[si, l] = np.mean(y >= BASE_LO)
    eps = occ.mean(axis=0)
    suggested = None
    for l in range(1, l_max + 1):
        if np.all(eps[l:] > 0):
            suggested = l
            break
    warnings = [] if suggested is not None else [f"no l0 found up to l_max={l_max}"]
    return {"suggested_l0": suggested, "eps": eps, "warnings": warnings}


@dataclass
class CouplingTail:
    n: np.ndarray
    tail: np.ndarray
    std_err: np.ndarray
    capped_fraction: float
    alpha_exp: float


def coupling_tail(family: str, bounds: tuple[float, float], seeds: list[int],
                  l0: int, alpha_exp: float = ALPHA_EXP_DEFAULT,
                  n_max: int = 64, pair_samples: int = 1000,
                  cap: int = CAP_DEFAULT) -> CouplingTail:
    """Monte Carlo tail of the simultaneous-return counting process.

    tail(n) estimates the pair-measure of {T_{floor(n^alpha_exp)} > n};
    pairs are drawn Lebesgue x Lebesgue on the base.  Pairs whose return
    computation caps are scored as T = infinity (conservative).
    """
    if not (0.0 < alpha_exp < 1.0):
        raise ValueError("alpha_exp must be in (0, 1)")
    ns = np.arange(1, n_max + 1)
    k_of_n = np.maximum(np.floor(ns.astype(float) ** alpha_exp).astype(int), 1)
    k_max = int(k_of_n.max())
    per_seed = np.empty((len(seeds), n_max))
    capped_pairs = 0
    total_pairs = len(seeds) * pair_samples
    for si, seed in enumerate(seeds):
        seq = make_sequence(seed, family, bounds)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0xC9))))
        pts = BASE_LO + 0.5 * rng.random((pair_samples, 2))
        # T_k per pair, inf when not reached before the horizon
        Tk = np.full((pair_samples, k_max + 1), np.inf)
        Tk[:, 0] = 0.0
        for pi in range(pair_samples):
            tr = match_pair(seq, pts[pi, 0], pts[pi, 1], l0, cap=cap,
                            max_T=k_max, max_alternations=8 * (n_max + 4))
            if tr.capped:
                capped_pairs += 1
                continue
            for k, T in enumerate(tr.Ts, start=1):
                if k <= k_max:
                    Tk[pi, k] = T
        per_seed[si] = np.array([np.mean(Tk[:, k_of_n[i]] > n)
                                 for i, n in enumerate(ns)])
    tail = per_seed.mean(axis=0)
    if len(seeds) > 1:
        se = per_seed.std(axis=0, ddof=1) / math.sqrt(len(seeds))
    else:
        se = np.sqrt(np.clip(tail * (1 - tail), 0, None) / pair_samples)
    return CouplingTail(ns, tail, se, capped_pairs / total_pairs, alpha_exp)
