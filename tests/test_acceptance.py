"""Acceptance suite: one test per numbered criterion.

Each test prints a single "criterion N ...: PASS" line (visible with -s or
on failure) and enforces the stated tolerance.  Heavier ensembles are built
once per session and shared.
"""

import math
import time

import numpy as np
import pytest

from quenched_limits import coupling, decomp, stats, tower, transfer
from quenched_limits.cli import main as cli_main
from quenched_limits.maps import FiberMap, apply, get_observable
from quenched_limits.omega import make_sequence
from quenched_limits.util import fit_loglinear, fit_loglog

COS = get_observable("cos2pi")


def report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def doubling_ensemble():
    seq = make_sequence(1, "doubling", (0.0, 0.0))
    return stats.birkhoff_ensemble(seq, COS, 2 ** 12, 10 ** 4, "equivariant",
                                   2 ** 12, 16, 32)


@pytest.fixture(scope="module")
def lsv_ensemble():
    seq = make_sequence(1, "lsv", (0.05, 0.15))
    return stats.birkhoff_ensemble(seq, COS, 2 ** 12, 10 ** 4, "equivariant",
                                   2 ** 12, 32, 32)


@pytest.fixture(scope="module")
def lsv_sigma2():
    s2, se, _ = decomp.sigma_squared("lsv", (0.05, 0.15), [1], COS,
                                     16, 2 ** 12, 32, 32)
    return s2


def test_criterion_01_transfer_soundness():
    t0 = time.perf_counter()
    defects = []
    for fam, a in (("doubling", 0.0), ("lsv", 0.08), ("lsv", 0.35)):
        M = transfer.ulam_matrix(FiberMap(fam, a), 2 ** 12)
        defects.append(transfer.row_stochasticity_defect(M))
        rng = np.random.default_rng(0)
        mass = rng.random(2 ** 12)
        mass /= mass.sum()
        out = transfer.pushforward(M, mass)
        defects.append(abs(out.sum() - 1.0))
    elapsed = time.perf_counter() - t0
    ok = max(defects) < 1e-12 and elapsed < 3 * 1.0
    report(1, "transfer-operator soundness", ok,
           f"max defect {max(defects):.2e}, {elapsed:.2f}s for 3 matrices")


def test_criterion_02_doubling_variance(doubling_ensemble):
    s2, _, _ = decomp.sigma_squared("doubling", (0.0, 0.0), [1], COS,
                                    16, 2 ** 12, 16, 32)
    # joint statement over ~5 checkpoints, so widen the per-point CI to 99%
    vg = stats.variance_growth(doubling_ensemble, n_boot=400, ci_level=0.99)
    flat = all(vg["ci_lo"][i] <= 0.5 <= vg["ci_hi"][i]
               for i, n in enumerate(vg["n"]) if n >= 2 ** 8)
    ok = abs(s2 - 0.5) <= 0.01 and flat
    report(2, "doubling baseline variance", ok,
           f"sigma2={s2:.4f}, variance growth flat={flat}")


def test_criterion_03_martingale_residual():
    seq_d = make_sequence(1, "doubling", (0.0, 0.0))
    r_doubling = decomp.martingale_psi(seq_d, COS, 16, 2 ** 12, 16, 32).residual
    seq_l = make_sequence(1, "lsv", (0.05, 0.15))
    res = {K: decomp.martingale_psi(seq_l, COS, K, 2 ** 12, 24, 32).residual
           for K in (4, 8, 16)}
    # monotone decrease within a factor-2 noise allowance per doubling
    monotone = res[8] <= 2.0 * res[4] and res[16] <= 2.0 * res[8] and res[16] < res[4]
    ok = r_doubling < 1e-6 and monotone
    report(3, "martingale residual", ok,
           f"doubling {r_doubling:.2e}; lsv K=4/8/16 -> "
           f"{res[4]:.2e}/{res[8]:.2e}/{res[16]:.2e}")


def test_criterion_04_equivariance():
    wins = 0
    worst = 0.0
    for seed in range(1, 11):
        seq = make_sequence(seed, "lsv", (0.05, 0.15))
        r4 = transfer.equivariance_residual(seq, 2 ** 12, 4)
        r32 = transfer.equivariance_residual(seq, 2 ** 12, 32)
        worst = max(worst, r32)
        if r32 < r4 and r32 <= 1e-2:
            wins += 1
    ok = wins >= 9
    report(4, "equivariant density", ok,
           f"{wins}/10 seeds improved at depth 32, worst residual {worst:.2e}")


def test_criterion_05_return_time_tail():
    # deterministic boundary-tracked tail over the stated window [1e2, 1e4]
    et = tower.exact_tail("lsv", 0.2, 10 ** 4)
    fit = fit_loglog(np.arange(et.size), et, (100, 10 ** 4))
    exponent_ok = abs(fit["exponent"] - 5.0) / 5.0 <= 0.15
    # Monte Carlo cross-check (1e6 samples) on the resolvable part of the tail
    tc = tower.tail_curve("lsv", (0.2, 0.2), [1], 60, 10 ** 6)
    mc_fit = fit_loglog(tc.n, tc.tail, (10, 60))
    mc_ok = abs(mc_fit["exponent"] - 5.0) / 5.0 <= 0.15
    # doubling tail equals 2^-n within 3 standard errors
    td = tower.tail_curve("doubling", (0.0, 0.0), [1], 15, 10 ** 6)
    dev = [abs(td.tail[n] - 0.5 ** n) / max(td.std_err[n], 1e-12)
           for n in range(1, 14)]
    doubling_ok = max(dev) <= 3.0
    ok = exponent_ok and mc_ok and doubling_ok
    report(5, "return-time tail", ok,
           f"exact-fit exponent {fit['exponent']:.3f}, MC {mc_fit['exponent']:.3f}, "
           f"doubling max dev {max(dev):.2f} SE")


def test_criterion_06_aperiodicity():
    gcds = []
    for seed in range(1, 11):
        seq = make_sequence(seed, "lsv", (0.05, 0.15))
        part = tower.build_partition(seq, 40)
        gcds.append(tower.gcd_check(part, 0.01))
    ok = all(g == 1 for g in gcds)
    report(6, "aperiodicity (gcd of return times)", ok, f"gcds={gcds}")


def test_criterion_07_qclt(doubling_ensemble, lsv_ensemble, lsv_sigma2):
    r_d = stats.qclt_test(doubling_ensemble, 0.5)
    r_l = stats.qclt_test(lsv_ensemble, lsv_sigma2)
    cal = stats.qclt_null_calibration(10 ** 4, reps=100, level=0.01)
    ok = (r_d["ks_distance"] < 0.03 and r_l["ks_distance"] < 0.03
          and cal["rejection_rate"] <= 0.05)
    report(7, "quenched CLT", ok,
           f"KS doubling {r_d['ks_distance']:.4f}, lsv {r_l['ks_distance']:.4f}, "
           f"null rejection {cal['rejection_rate']:.2f}")


def test_criterion_08_qfclt(doubling_ensemble):
    self_test = stats.brownian_oracle_self_test(n_paths=10 ** 5)
    res = stats.qfclt_paths(doubling_ensemble, 0.5, "sup")
    ok = res["ks_distance"] < 0.05 and self_test["ks_distance"] < 0.01
    report(8, "quenched functional CLT (sup)", ok,
           f"KS {res['ks_distance']:.4f}, Brownian self-test "
           f"{self_test['ks_distance']:.4f}")


def test_criterion_09_coupling():
    # exact unit-level checks of the alternation bookkeeping
    seq = make_sequence(3, "doubling", (0.0, 0.0))
    tr = coupling.match_pair(seq, 0.62, 0.81, 1, cap=2000, max_T=6)
    structural = (tr.taus[0] == 0
                  and all(b > a for a, b in zip(tr.taus, tr.taus[1:]))
                  and set(tr.Ts) <= set(tr.taus)
                  and tr.taus[1] == tower.nth_return(seq, 0.62, 1))
    for T in tr.Ts:
        y1, y2 = 0.62, 0.81
        for k in range(T):
            f = FiberMap("doubling", seq.param(k))
            y1, y2 = apply(f, y1), apply(f, y2)
        structural = structural and y1 >= 0.5 and y2 >= 0.5
    ct = coupling.coupling_tail("doubling", (0.0, 0.0), [1], 1, 0.1, 40, 10 ** 4)
    fit = fit_loglinear(ct.n, ct.tail, (1, 40))
    ok = structural and fit["rate"] > 0.0
    report(9, "coupling scheme", ok,
           f"structural checks {structural}, log-linear decay rate {fit['rate']:.3f}")


def test_criterion_10_rate_calculator():
    res = stats.asip_rate(stats.RateParams(p=math.inf, D=10.0))
    exact = res["epsilon_1"] == 0.25 and res["epsilon_D"] == 0.1640625
    try:
        stats.asip_rate(stats.RateParams(p=2.0, D=9.0))
        rejected = False
    except ValueError:
        rejected = True
    ok = exact and rejected
    report(10, "invariance-principle rate calculator", ok,
           f"eps1={res['epsilon_1']}, epsD={res['epsilon_D']}, "
           f"inadmissible rejected={rejected}")


def test_criterion_11_coboundary_dichotomy():
    cob = decomp.coboundary_test("doubling", (0.0, 0.0), [1],
                                 get_observable("coboundary_cos"),
                                 n_bins=2 ** 13, depth=16, subsamples=32)
    seq = make_sequence(1, "doubling", (0.0, 0.0))
    ens = stats.birkhoff_ensemble(seq, get_observable("coboundary_cos"),
                                  2 ** 11, 4000, "equivariant", 2 ** 11, 8, 32)
    vg = stats.variance_growth(ens)
    decay_fit = fit_loglog(vg["n"], np.maximum(vg["var_over_n"], 1e-12), (16, 2 ** 11))
    one_over_n = abs(decay_fit["exponent"] - 1.0) <= 0.3
    nondeg = decomp.coboundary_test("doubling", (0.0, 0.0), [1], COS,
                                    n_bins=2 ** 11, depth=8, subsamples=32)
    ok = (cob["verdict"] == "degenerate" and cob["pointwise_residual"] < 1e-3
          and one_over_n and nondeg["verdict"] == "nondegenerate")
    report(11, "coboundary dichotomy", ok,
           f"pointwise residual {cob['pointwise_residual']:.2e}, "
           f"variance decay exponent {decay_fit['exponent']:.2f}, "
           f"cos verdict {nondeg['verdict']}")


def test_criterion_12_reproducibility(tmp_path):
    args = ["decay", "--family", "lsv", "--alpha_min", "0.1", "--alpha_max", "0.3",
            "--n_max", "10", "--n_bins", "512", "--depth", "8",
            "--subsamples", "16"]
    assert cli_main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "b")]) == 0
    same = (tmp_path / "a" / "decay.csv").read_bytes() == \
        (tmp_path / "b" / "decay.csv").read_bytes()
    args2 = ["tail", "--family", "doubling", "--alpha_min", "0",
             "--alpha_max", "0", "--n_max", "10", "--samples", "20000"]
    assert cli_main(args2 + ["--out", str(tmp_path / "c")]) == 0
    assert cli_main(args2 + ["--out", str(tmp_path / "d")]) == 0
    same = same and (tmp_path / "c" / "tail.csv").read_bytes() == \
        (tmp_path / "d" / "tail.csv").read_bytes()
    report(12, "byte-identical reruns", same, "decay.csv and tail.csv compared")
