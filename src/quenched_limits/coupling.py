"""Alternating matching scheme for pairs of orbits and its coupling tail.

tau_1 is an l0-fold return time of the first component; subsequent tau_i
alternate between the components, each evaluated at the correctly shifted
driving sequence.  T is the first tau_i at which both components sit in the
base simultaneously; T_n restarts the recursion (from the first component,
by construction) at the moved pair.

Both components of a pair always sit at the same tower time t: the mover's
l0 returns and the other component's catch-up run through the same maps
f_{w_t}, f_{w_{t+1}}, ...  Every pair therefore takes step t with the same
fiber map, and _match_pairs moves all pairs in lockstep, one array apply
per tower time.  apply gives the same bits for a point and for an array,
so this is exact: each pair gets the values a pair-by-pair loop would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maps import _doubling_orbit_values, _iterates, apply
from .omega import ParamSequence
from .tower import (BASE_LO, CAP_DEFAULT, TailCurve, _fraction_above, _pooled_tail,
                    _value_counts)
from .util import seed_mean


@dataclass
class CouplingTrace:
    taus: list[int]
    Ts: list[int]


def _match_pairs(seq: ParamSequence, pts: np.ndarray, l0: int, cap: int,
                 max_alternations: int, max_T: int):
    """The alternating recursion for the pairs pts[i] = (x, x'), all in lockstep.

    Returns (pair, tau, k, capped): every tau_i > 0 in time order with its
    pair index and k, the number of simultaneous returns up to it when tau
    is one (tau = T_k) and 0 otherwise, and per pair whether a leg ran cap
    steps without entering the base.  A pair stops once it caps, records
    max_T simultaneous returns or runs max_alternations alternations.
    """
    n = pts.shape[0]
    capped = np.zeros(n, dtype=bool)
    pair = np.arange(n if max_alternations > 0 else 0)
    pos = np.asarray(pts, dtype=float)[pair]   # (x, x') per active pair
    first = np.ones(pair.size, dtype=bool)     # is x the moving component?
    hits = np.zeros(pair.size, dtype=np.int64)   # mover's base entries this alternation
    leg = np.zeros(pair.size, dtype=np.int64)    # mover's steps since its last entry
    n_alt = np.zeros(pair.size, dtype=np.int64)
    n_T = np.zeros(pair.size, dtype=np.int64)
    done = np.zeros(pair.size, dtype=bool)
    events = [(np.zeros(0, dtype=np.int64),) * 3]
    t = 0
    while True:
        out = leg >= cap   # a leg ran cap steps without entering the base
        capped[pair[out]] = True
        keep = ~(out | done)
        if not keep.all():
            pair, pos, first, hits, leg, n_alt, n_T = (
                a[keep] for a in (pair, pos, first, hits, leg, n_alt, n_T))
        if pair.size == 0:
            break
        pos = apply(seq.param(t), pos)
        t += 1
        in_base = pos >= BASE_LO
        entered = np.where(first, in_base[:, 0], in_base[:, 1])
        hits += entered
        leg = np.where(entered, 0, leg + 1)
        ends = hits == l0
        both = ends & in_base[:, 0] & in_base[:, 1]
        n_T += both
        n_alt += ends
        if ends.any():
            events.append((pair[ends], np.full(np.count_nonzero(ends), t),
                           np.where(both, n_T, 0)[ends]))
        hits[ends] = 0
        first = np.where(ends, both | ~first, first)   # T restarts from x
        done = (both & (n_T >= max_T)) | (n_alt >= max_alternations)
    return (*(np.concatenate(col) for col in zip(*events)), capped)


def match_pair(seq: ParamSequence, x: float, x_prime: float, l0: int,
               cap: int = CAP_DEFAULT, max_T: int = 64) -> CouplingTrace:
    """Run the alternating recursion (at most 512 alternations) and record tau_i and T_n."""
    if not (BASE_LO <= x <= 1.0 and BASE_LO <= x_prime <= 1.0):
        raise ValueError("both points must start in the base [1/2, 1]")
    if l0 < 1:
        raise ValueError("l0 must be >= 1")
    _, tau, k, _ = _match_pairs(seq, np.array([[x, x_prime]]), l0, cap, 512, max_T)
    return CouplingTrace([0] + tau.tolist(), tau[k > 0].tolist())


def estimate_l0(seqs: list[ParamSequence], l_max: int, samples: int) -> dict:
    """Fraction of base points back in the base at each tower time l.

    The times at which an orbit visits the base are exactly its cumulative
    return times, so eps[l] is the base-occupation fraction at time l, for
    l = 0 .. l_max, averaged over the sequences, each one's points drawn from a
    stream keyed on its master_seed.  suggested_l0 is the first l >= 1 from
    which every eps stays positive, or None (with a warning) when there is
    none.  Doubling runs on bit streams (maps._doubling_orbit_values); x_l,
    l >= 1, skips the first bit, so conditioning on the base stays exact in law.
    """
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    occ = np.zeros((len(seqs), l_max + 1))
    for si, seq in enumerate(seqs):
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence((seq.master_seed, 0x10))))
        occ[si, 0] = 1.0
        if seq.family == "doubling":
            values = _doubling_orbit_values(samples, l_max, rng)
        else:
            values = _iterates(seq, BASE_LO + 0.5 * rng.random(samples), l_max)
        for l, y in enumerate(values, start=1):
            occ[si, l] = np.mean(y >= BASE_LO)
    eps, _ = seed_mean(occ)
    suggested = None
    for l in range(1, l_max + 1):
        if np.all(eps[l:] > 0):
            suggested = l
            break
    warnings = [] if suggested is not None else [f"no l0 found up to l_max={l_max}"]
    return {"suggested_l0": suggested, "eps": eps, "warnings": warnings}


def coupling_tail(seqs: list[ParamSequence], l0: int, alpha_exp: float, n_max: int,
                  pair_samples: int, cap: int = CAP_DEFAULT) -> TailCurve:
    """Monte Carlo tail of the simultaneous-return counting process.

    tail(n) estimates the pair-measure of {T_{floor(n^alpha_exp)} > n},
    averaged over the driving sequences; each sequence's pairs are drawn
    Lebesgue x Lebesgue on the base from a stream keyed on its master_seed.
    Pairs whose return computation caps are scored as T = infinity (conservative).
    """
    if not (0.0 < alpha_exp < 1.0):
        raise ValueError("alpha_exp must be in (0, 1)")
    if l0 < 1:
        raise ValueError("l0 must be >= 1")
    if pair_samples < 1:
        raise ValueError("pair_samples must be >= 1")
    ns = np.arange(1, n_max + 1)
    k_of_n = np.maximum(np.floor(ns.astype(float) ** alpha_exp).astype(int), 1)
    k_max = int(k_of_n.max())
    per_seed = np.empty((len(seqs), n_max))
    capped_pairs = 0
    for si, seq in enumerate(seqs):
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence((seq.master_seed, 0xC9))))
        pts = BASE_LO + 0.5 * rng.random((pair_samples, 2))
        pair, tau, k, capped = _match_pairs(seq, pts, l0, cap, 8 * (n_max + 4), k_max)
        # T_k per pair; n_max + 1 stands for not reached, and for every k of a capped pair
        Tk = np.full((pair_samples, k_max), n_max + 1)
        sim = k > 0
        Tk[pair[sim], k[sim] - 1] = tau[sim]
        Tk[capped] = n_max + 1
        capped_pairs += int(np.count_nonzero(capped))
        above = np.array([_fraction_above(_value_counts(Tk[:, j], n_max))
                          for j in range(k_max)])
        per_seed[si] = above[k_of_n - 1, ns]
    return _pooled_tail(ns, per_seed, pair_samples, capped_pairs)
