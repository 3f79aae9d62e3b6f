"""CLI config parsing, artifact emission, exit codes, reproducibility."""

import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quenched_limits
from quenched_limits import cli, stats
from quenched_limits.cli import (ConfigError, ExperimentConfig, NumericError, load_config,
                                 main)
from quenched_limits.util import sha256_of


def test_defaults_and_overrides():
    cfg = load_config(None, [("family", "doubling"), ("alpha_min", "0"),
                             ("alpha_max", "0"), ("n_bins", "256")])
    assert cfg.family == "doubling"
    assert cfg.n_bins == 256
    assert cfg.p == math.inf


def test_config_file_parsing(tmp_path):
    f = tmp_path / "cfg.txt"
    f.write_text("# comment line\nfamily = lsv\nalpha_min=0.1  # inline comment\n"
                 "alpha_max=0.3\n\nseed=9\n")
    cfg = load_config(str(f), [])
    assert cfg.family == "lsv"
    assert cfg.alpha_min == 0.1
    assert cfg.seed == 9


def test_override_beats_file(tmp_path):
    f = tmp_path / "cfg.txt"
    f.write_text("seed=1\n")
    cfg = load_config(str(f), [("seed", "5")])
    assert cfg.seed == 5


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        load_config(None, [("not_a_key", "1")])


def test_bad_value_rejected():
    with pytest.raises(ConfigError):
        load_config(None, [("n_bins", "many")])
    with pytest.raises(ConfigError):
        load_config(None, [("family", "tent")])
    with pytest.raises(ConfigError):
        load_config(None, [("alpha_min", "0.5"), ("alpha_max", "0.1")])


def test_missing_config_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/cfg.txt", [])


def test_rate_subcommand(tmp_path):
    out = tmp_path / "rate"
    code = main(["rate", "--p", "inf", "--D", "10", "--out", str(out)])
    assert code == 0
    res = json.loads((out / "rate.json").read_text())
    assert res["epsilon_1"] == 0.25
    assert res["epsilon_D"] == 0.1640625
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "rate"
    assert manifest["files"]["rate.json"] == sha256_of(out / "rate.json")


def test_inadmissible_rate_is_config_error(tmp_path):
    code = main(["rate", "--p", "2", "--D", "9", "--out", str(tmp_path / "x")])
    assert code == 2


def test_out_is_a_file_exits_4(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("x")
    assert main(["rate", "--out", str(taken)]) == 4
    assert capsys.readouterr().err.startswith("i/o error:")
    assert list(tmp_path.iterdir()) == [taken]
    assert taken.read_text() == "x"


def test_couple_reports_l0_estimate(tmp_path):
    out = tmp_path / "c"
    assert main(["couple", "--family", "lsv", "--n_max", "8", "--pairs", "200",
                 "--cap", "10000", "--out", str(out)]) == 0
    est = json.loads((out / "couple_fit.json").read_text())["l0_estimate"]
    assert sorted(est) == ["eps", "suggested_l0", "warnings"]
    assert len(est["eps"]) == 9 and est["eps"][0] == 1.0
    assert est["suggested_l0"] is not None and est["warnings"] == []


def test_unknown_key_exit_code(tmp_path):
    code = main(["tail", "--bogus", "1", "--out", str(tmp_path / "x")])
    assert code == 2


def test_tail_rerun_byte_identical(tmp_path):
    args = ["tail", "--family", "doubling", "--alpha_min", "0", "--alpha_max", "0",
            "--n_max", "12", "--samples", "5000"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("tail.csv", "tail_fit.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_partition_artifacts(tmp_path):
    out = tmp_path / "p"
    code = main(["partition", "--family", "doubling", "--alpha_min", "0",
                 "--alpha_max", "0", "--depth_cap", "8", "--out", str(out)])
    assert code == 0
    lines = (out / "partition.csv").read_text().splitlines()
    assert lines[0] == "lo,hi,R,image_ok"
    assert len(lines) == 9   # header + 8 cells
    info = json.loads((out / "partition.json").read_text())
    assert info["gcd"] == 1
    # piecewise-linear doubling: no distortion, every induced branch expands by 2^R
    dist = info["distortion"]
    assert dist["empirical_CF"] == 0.0
    assert dist["violations"] == 0
    assert dist["min_expansion"] >= 2
    assert dist["pair_samples"] == 64


@pytest.mark.parametrize("subcommand, changes", [
    ("clt", True), ("decompose", True), ("decay", True), ("density", False)])
def test_subsamples_sets_the_bin_average_points(tmp_path, subcommand, changes):
    # the Ulam entries are exact; --subsamples reaches only the observable's
    # bin averages, which density does not take
    grid = ["--n_bins", "64", "--depth", "4", "--k_trunc", "2", "--n_steps", "16",
            "--n_samples", "50", "--n_max", "4"]
    runs = []
    for subsamples in ("8", "16"):
        out = tmp_path / subsamples
        assert main([subcommand, *grid, "--subsamples", subsamples, "--out", str(out)]) == 0
        runs.append({p.name: sha256_of(p) for p in out.glob("*.csv")})
    assert (runs[0] != runs[1]) == changes


def test_density_artifacts(tmp_path):
    out = tmp_path / "d"
    code = main(["density", "--family", "lsv", "--alpha_min", "0.1",
                 "--alpha_max", "0.3", "--n_bins", "256", "--depth", "8",
                 "--subsamples", "16", "--out", str(out)])
    assert code == 0
    rows = (out / "density.csv").read_text().splitlines()[1:]
    masses = np.array([float(r.split(",")[1]) for r in rows])
    assert masses.sum() == pytest.approx(1.0, abs=1e-12)
    info = json.loads((out / "density.json").read_text())
    assert info["equivariance_residual_l1"] < 0.05


def test_clt_subcommand_small(tmp_path):
    out = tmp_path / "clt"
    code = main(["clt", "--family", "doubling", "--alpha_min", "0",
                 "--alpha_max", "0", "--n_steps", "128", "--n_samples", "800",
                 "--n_bins", "256", "--depth", "6", "--subsamples", "16",
                 "--out", str(out)])
    assert code == 0
    res = json.loads((out / "clt.json").read_text())
    assert res["sigma2"] == pytest.approx(0.5, abs=0.02)
    # the KS distance and p-value carry the test; a fixed-distance verdict
    # would mean something else at every n
    assert "verdict" not in res
    assert {"ks_distance", "p_value"} <= res.keys()


def test_clt_single_sample_exits_2(tmp_path, capsys):
    # one sample has no sample variance: a config error, not a csv of nan
    out = tmp_path / "clt"
    code = main(["clt", "--family", "doubling", "--alpha_min", "0", "--alpha_max", "0",
                 "--n_steps", "16", "--n_samples", "1", "--n_bins", "64", "--depth", "2",
                 "--subsamples", "4", "--out", str(out)])
    assert code == 2
    assert "n_samples >= 2" in capsys.readouterr().err
    assert not out.exists()


def test_empty_fit_window_exits_2(tmp_path):
    # the library ValueError from the fit reaches main as a config error
    out = tmp_path / "t"
    code = main(["tail", "--n_max", "10", "--window_lo", "100", "--window_hi", "200",
                 "--samples", "1000", "--out", str(out)])
    assert code == 2
    # the handler failed after computing tail.csv's columns; no directory was made
    assert not out.exists()


def test_nan_alpha_bounds_exit_2(tmp_path, capsys):
    out = tmp_path / "t"
    code = main(["tail", "--family", "doubling", "--alpha_min", "nan",
                 "--alpha_max", "nan", "--n_max", "8", "--samples", "100",
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["tail", "partition"])
def test_negative_seed_exit_2_names_seed(tmp_path, subcommand, capsys):
    # numpy's own "expected non-negative integer" used to name no key
    out = tmp_path / "s"
    code = main([subcommand, "--seed", "-1", "--n_max", "8", "--samples", "100",
                 "--depth_cap", "8", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: seed must be >= 0")
    assert not out.exists()


# values that used to run with a silently different meaning: a NaN refine_tol
# marked every cell's image as not onto, a negative or NaN fit window fell back
# to the default window, and an unknown observable was never looked up
@pytest.mark.parametrize("argv", [
    ["partition", "--refine_tol", "nan", "--depth_cap", "8"],
    ["tail", "--window_lo", "-5", "--n_max", "8", "--samples", "1000"],
    ["tail", "--window_lo", "nan", "--n_max", "8", "--samples", "1000"],
    ["tail", "--window_hi", "nan", "--n_max", "8", "--samples", "1000"],
    ["tail", "--observable", "nope", "--n_max", "8", "--samples", "1000"],
], ids=["refine_tol-nan", "window_lo-negative", "window_lo-nan", "window_hi-nan",
        "unknown-observable"])
def test_silently_wrong_config_values_exit_2(tmp_path, argv, capsys):
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


@pytest.mark.parametrize("exc",[NumericError("no variance"), FloatingPointError("overflow")])
def test_numeric_failure_exits_3(tmp_path, exc, monkeypatch, capsys):
    def fail(cfg):
        raise exc
    monkeypatch.setitem(cli.HANDLERS, "rate", fail)
    out = tmp_path / "r"
    assert main(["rate", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("numeric failure:")
    assert not out.exists()


def test_zero_mass_bin_exits_3(tmp_path, monkeypatch, capsys):
    # g = A / h has no value on a bin of zero mass: no bin is masked, the run fails
    from quenched_limits import transfer

    push = transfer.push

    def emptying_push(step, mass):
        out = push(step, mass)
        out[0] = 0.0
        return out

    monkeypatch.setattr(transfer, "push", emptying_push)   # the density chain's push only
    out = tmp_path / "d"
    argv = ["decompose", "--n_bins", "64", "--depth", "2", "--k_trunc", "1", "--out", str(out)]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("numeric failure:")
    assert not out.exists()


@pytest.mark.parametrize("argv", [["tail", "--out", "t", "--n_ma", "8"],
                                  ["tail", "--out", "t", "--seed"], ["tail"], []],
                         ids=["prefix", "no-value", "no-out", "no-subcommand"])
def test_key_prefix_and_missing_value_exit_2(tmp_path, argv, monkeypatch, capsys):
    # a unique prefix is not taken as the key it abbreviates; a missing --out
    # or subcommand returns 2 instead of raising SystemExit
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr().err.startswith("config error:")


def test_help_lists_every_config_key(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "{tail,partition,density,decay,decompose,couple,clt,lil,fclt,rate}" in text
    for f in fields(ExperimentConfig):
        assert f"--{f.name} " in text


def test_cli_import_loads_no_scipy():
    src = Path(quenched_limits.__file__).resolve().parents[1]
    probe = ("import sys, threading, quenched_limits.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
             "print('concurrent.futures' in sys.modules); "
             "print(threading.active_count())")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    scipy_modules, futures_loaded, threads = out.stdout.splitlines()
    assert scipy_modules == "[]"
    # nor a thread pool, and no thread is started
    assert futures_loaded == "False"
    assert threads == "1"


FCLT = ["fclt", "--family", "doubling", "--alpha_min", "0", "--alpha_max", "0",
        "--n_steps", "64", "--n_samples", "200", "--n_bins", "128", "--depth", "6",
        "--k_trunc", "4", "--subsamples", "8"]


def test_ks_runs_load_no_scipy(tmp_path):
    # the normal and Kolmogorov laws are the package's own, so a clt run and
    # both sup fclt runs (the sup one with its Brownian self-test) load none
    src = Path(quenched_limits.__file__).resolve().parents[1]
    clt = ["clt", "--family", "doubling", "--alpha_min", "0", "--alpha_max", "0",
           "--n_steps", "16", "--n_samples", "100", "--n_bins", "64", "--depth", "2",
           "--subsamples", "4"]
    runs = [clt, FCLT + ["--functional", "sup"], FCLT + ["--functional", "sup_abs"]]
    argvs = [argv + ["--out", str(tmp_path / str(i))] for i, argv in enumerate(runs)]
    probe = ("import sys, threading; from quenched_limits.cli import main; "
             f"print([main(argv) for argv in {argvs!r}]); "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
             "print('concurrent.futures' in sys.modules); "
             "print(threading.active_count())")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    # and the runs, the sup self-test included, start no thread
    assert out.stdout.splitlines() == ["[0, 0, 0]", "[]", "False", "1"]
    fclt = json.loads((tmp_path / "1" / "fclt.json").read_text())
    assert set(fclt["brownian_self_test"]) == {"ks_distance", "n_paths"}
    for i, name in enumerate(["clt.json", "fclt.json", "fclt.json"]):
        assert 0.0 <= json.loads((tmp_path / str(i) / name).read_text())["p_value"] <= 1.0


def fail_with(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


# the KS step runs before the self-test, so its error wins; either way
# nothing is written
@pytest.mark.parametrize("paths_fail, self_test_fails, code, err", [
    (False, True, 3, "numeric failure: self-test failed\n"),
    (True, False, 2, "config error: paths failed\n"),
    (True, True, 2, "config error: paths failed\n"),
], ids=["self-test", "main", "both"])
def test_fclt_errors_exit_without_output(tmp_path, monkeypatch, capsys, paths_fail,
                                         self_test_fails, code, err):
    if paths_fail:
        monkeypatch.setattr(stats, "qfclt_paths", fail_with(ValueError("paths failed")))
    if self_test_fails:
        monkeypatch.setattr(stats, "brownian_oracle_self_test",
                            fail_with(RuntimeError("self-test failed")))
    out = tmp_path / "f"
    assert main(FCLT + ["--out", str(out)]) == code
    assert capsys.readouterr().err == err
    assert not out.exists()


@pytest.mark.parametrize("functional, runs", [("sup", 1), ("sup_abs", 0),
                                              ("terminal", 0)])
def test_fclt_runs_the_self_test_on_one_worker_for_sup_only(tmp_path, monkeypatch,
                                                            functional, runs):
    # the worker is the main thread: the self-test runs there, once, for sup only
    self_tests = []
    self_test = stats.brownian_oracle_self_test
    monkeypatch.setattr(stats, "brownian_oracle_self_test",
                        lambda **kw: self_tests.append(kw) or self_test(**kw))
    argv = FCLT + ["--functional", functional, "--out", str(tmp_path / "f")]
    assert main(argv) == 0
    assert self_tests == [{"n_paths": 2000}] * runs


def test_float_format_17_digits(tmp_path):
    out = tmp_path / "t"
    main(["tail", "--family", "doubling", "--alpha_min", "0", "--alpha_max", "0",
          "--n_max", "8", "--samples", "1000", "--out", str(out)])
    row = (out / "tail.csv").read_text().splitlines()[3]
    val = row.split(",")[1]
    # the printed value round-trips to the same float exactly
    assert format(float(val), ".17g") == val


# a tiny run of every subcommand, the edge values a key may take on top, and
# values past an edge, one for each range the config check enforces
SMALL = ["--n_bins", "16", "--depth", "2", "--k_trunc", "2", "--n_steps", "16",
         "--n_samples", "20", "--samples", "200", "--cap", "50", "--n_max", "8",
         "--pairs", "50", "--depth_cap", "4", "--subsamples", "2"]
EDGES = [("n_bins", "2"), ("n_bins", "3"), ("n_steps", "1"), ("n_steps", "2"),
         ("n_samples", "1"), ("n_samples", "2"), ("samples", "1"), ("samples", "2"),
         ("pairs", "1"), ("pairs", "2"), ("cap", "1"), ("depth", "0"),
         ("alpha_min", "1e-9"), ("alpha_max", "1e-9"), ("alpha_min", "0.999999"),
         ("alpha_max", "0.999999"), ("p", "nan"), ("D", "nan"), ("seed", str(2 ** 64)),
         ("observable", "holder_gamma"), ("gamma", "1e-300")]
PAST_EDGES = [("n_steps", "0"), ("depth", "-1"), ("n_max", "1"), ("alpha_max", "1"),
              ("gamma", "0"), ("observable", "nope"), ("alpha_exp", "1"),
              ("sampling", "grid"), ("functional", "max"), ("refine_tol", "nan")]
NON_FINITE = {"nan", "inf", "-inf"}   # as %.17g and write_json print them


def finite_json(value) -> bool:
    """No float in value is NaN or infinite, as a number or as write_json's string."""
    if isinstance(value, dict):
        return all(map(finite_json, value.values()))
    if isinstance(value, list):
        return all(map(finite_json, value))
    if isinstance(value, float):
        return math.isfinite(value)
    return not (isinstance(value, str) and value.lower() in NON_FINITE)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(subcommand=st.sampled_from(sorted(cli.HANDLERS)),
       edges=st.lists(st.sampled_from(EDGES), max_size=4),
       past=st.none() | st.sampled_from(PAST_EDGES))
def test_edge_configs_exit_cleanly_and_write_finite_artifacts(subcommand, edges, past):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        keys = [*edges, past] if past else edges   # on the command line the last value wins
        code = main([subcommand, *SMALL, *(a for k, v in keys for a in (f"--{k}", v)),
                     "--out", str(out)])
        assert code in (0, 2, 3)
        if past:   # a config error whatever the subcommand
            assert code == 2
            with pytest.raises(ConfigError):
                load_config(None, keys)
        if code != 0:
            assert not out.exists()
            return
        manifest = json.loads((out / "manifest.json").read_text())
        names = sorted(f.name for f in out.iterdir() if f.name != "manifest.json")
        assert sorted(manifest["files"]) == names
        for name in names:
            assert manifest["files"][name] == sha256_of(out / name)
            text = (out / name).read_text()
            if name.endswith(".csv"):
                cells = {c.lower() for row in text.splitlines()[1:] for c in row.split(",")}
                assert not NON_FINITE & cells, name
            else:
                assert finite_json(json.loads(text)), name
