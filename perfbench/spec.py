"""Workloads and metric definitions of the benchmark; the source of BENCHMARK.json.

A workload is a fixed list of CLI subcommand runs.  Every run gets the
benchmark seed as ``--seed``; everything else is fixed here, so the same
seed always gives the same inputs.
"""

from __future__ import annotations

import json
import re

REFERENCE_SEED = 1
RUN_SECONDS = 40
COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]

_LSV_GRID = {"family": "lsv", "alpha_min": 0.05, "alpha_max": 0.15,
             "n_bins": 4096, "depth": 32, "subsamples": 32}

# name -> (why, [(subcommand, fixed config overrides), ...])
WORKLOADS = {
    "clt-lsv": (
        "the paper's headline LSV CLT plus decomposition; one Ulam matrix is "
        "rebuilt per chain step, no tower or coupling work",
        [("clt", {**_LSV_GRID, "n_steps": 256, "n_samples": 10000}),
         ("decompose", {**_LSV_GRID, "n_seeds": 2})]),
    "orbits": (
        "scalar orbit loops (partition inverses, coupling pairs) and the "
        "vectorised return-time tail; no transfer-operator work",
        [("partition", {"family": "lsv", "depth_cap": 24}),
         ("couple", {"family": "doubling", "pairs": 2000}),
         ("tail", {"family": "lsv", "alpha_min": 0.2, "alpha_max": 0.4,
                   "n_seeds": 4, "samples": 250000})]),
    "fclt-doubling": (
        "doubling FCLT sup test: Brownian Monte Carlo and KS dominate; one cached "
        "constant-parameter Ulam matrix is pushed along the chain",
        [("fclt", {"family": "doubling", "alpha_min": 0.1, "alpha_max": 0.1,
                   "functional": "sup", "n_steps": 4096, "n_samples": 3000,
                   "depth": 16, "subsamples": 32})]),
}

SUBCOMMANDS = tuple(dict.fromkeys(sub for _, ops in WORKLOADS.values() for sub, _ in ops))

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

# Per-layer metrics of the traced run (name, unit); counts repeat exactly for
# a given seed, times are span self times (duration minus child spans).
PER_LAYER = [
    ("omega.param_calls", "count"),
    ("omega.param_s", "s"),
    ("omega.params_calls", "count"),
    ("omega.param_unique_ratio", "ratio"),
    ("maps.apply_calls", "count"),
    ("maps.apply_points", "count"),
    ("maps.points_per_call", "ratio"),
    ("maps.apply_s", "s"),
    ("maps.inverse_calls", "count"),
    ("maps.inverse_s", "s"),
    ("tower.calls", "count"),
    ("tower.partition_s", "s"),
    ("tower.return_vec_s", "s"),
    ("tower.self_s", "s"),
    ("transfer.ulam_builds", "count"),
    ("transfer.ulam_s", "s"),
    ("transfer.ulam_unique_ratio", "ratio"),
    ("transfer.push_calls", "count"),
    ("transfer.push_s", "s"),
    ("transfer.equivariant_s", "s"),
    ("decomp.decompose_calls", "count"),
    ("decomp.self_s", "s"),
    ("coupling.calls", "count"),
    ("coupling.pairs", "count"),
    ("coupling.match_pair_s", "s"),
    ("coupling.self_s", "s"),
    ("stats.birkhoff_self_s", "s"),
    ("stats.brownian_s", "s"),
    ("stats.brownian_paths", "count"),
    ("kstest.calls", "count"),
    ("kstest.s", "s"),
    *[(f"cli.{sub}_s", "s") for sub in SUBCOMMANDS],
    ("cli.io_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("cli.artifact_drift", "count"),
    ("trace.overhead_s", "s"),
]

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def cli_argv(subcommand: str, overrides: dict, seed: int, out: str) -> list[str]:
    """The argv that ``quenched_limits.cli.main`` receives for one run."""
    argv = [subcommand]
    for key, value in {**overrides, "seed": seed}.items():
        argv += [f"--{key}", str(value)]
    return argv + ["--out", out]


def benchmark_json() -> dict:
    """The BENCHMARK.json document described by this module."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, (why, _) in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        # every ratio here is useful work per call, so higher is better
        "per_layer": [{"name": n, "unit": u, "better": "higher" if u == "ratio" else "lower"}
                      for n, u in PER_LAYER],
    }


def benchmark_json_text() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"
