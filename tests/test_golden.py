"""Golden pins: sha256 of every CSV and JSON artifact (the manifest excepted,
since it carries wall time) each subcommand writes at a tiny config.

The reruns check (criterion 12) only compares two runs of the same code;
these pins catch silent numeric drift between versions.

Every config runs in one child interpreter whose NPY_DISABLE_CPU_FEATURES
names every dispatch target of numpy (``__cpu_dispatch__``), so the pins are
numpy's baseline bits (X86_V2 on x86-64): ``x ** a``, ``log`` and ``exp`` give
other bits under the AVX2 and AVX-512 loops.  Byte identity still holds only
within one environment, so the pins file records the child's Python, numpy
and scipy versions, machine and dispatch, and a mismatch names any
difference from the running one.  After a deliberate numeric change, re-pin
the configs it moved with ``PYTHONPATH=src python tests/test_golden.py
[key ...]`` (every config when no key is given; it runs the same child and
prints each changed digest) and say why in CHANGES.md.
"""

import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

import quenched_limits
from quenched_limits.cli import main
from quenched_limits.util import sha256_of

PINS = Path(__file__).parent / "golden" / "pins.json"

LSV = ["--family", "lsv", "--alpha_min", "0.05", "--alpha_max", "0.15", "--seed", "3"]
DOUBLING = ["--family", "doubling", "--alpha_min", "0", "--alpha_max", "0", "--seed", "3"]
GRID = ["--n_bins", "128", "--depth", "6", "--k_trunc", "4", "--subsamples", "8"]
ENSEMBLE = GRID + ["--n_steps", "64", "--n_samples", "200"]
CONFIGS = {
    "tail": LSV + ["--n_max", "16", "--samples", "2000", "--cap", "10000"],
    # 150000 samples per seed: two full 65536-point blocks and a remainder
    "tail-blocks": LSV + ["--n_seeds", "2", "--n_max", "16", "--samples", "150000",
                          "--cap", "10000"],
    # a cap below n_max: 12.7 % of the samples cap and count above every n
    "tail-capped": LSV + ["--n_max", "16", "--samples", "2000", "--cap", "3"],
    "tail-doubling": DOUBLING + ["--n_max", "16", "--samples", "2000"],
    "partition":LSV + ["--depth_cap", "12"],
    # deep cells take the most left-branch inverse levels
    "partition-deep": LSV + ["--depth_cap", "40"],
    "density": LSV + GRID,
    "density-doubling": DOUBLING + GRID,
    "decay": LSV + GRID + ["--n_max", "8"],
    "decay-seeds": LSV + GRID + ["--n_max", "8", "--n_seeds", "2"],
    # a constant chain: its masses reach a bitwise fixed point of the one step
    "decay-doubling": DOUBLING + GRID + ["--n_max", "16"],
    "decompose": LSV + GRID + ["--n_seeds", "2"],
    "decompose-holder": LSV + GRID + ["--observable", "holder_gamma", "--gamma", "0.3"],
    # an exact doubling coboundary: the degenerate branch of the dichotomy
    "decompose-coboundary": DOUBLING + GRID + ["--observable", "coboundary_cos"],
    # odd grid: the bin holding 1/2 maps to the last columns and then the
    # first; 12 points per bin average the observable
    "decompose-odd-grid": LSV + ["--n_bins", "333", "--depth", "6", "--k_trunc", "0",
                                 "--subsamples", "12", "--n_seeds", "2"],
    "decompose-doubling": DOUBLING + GRID + ["--n_seeds", "2"],
    "couple": LSV + ["--l0", "2", "--n_max", "16", "--pairs", "100", "--cap", "10000"],
    # two seeds: the pooled seed average and its standard error
    "couple-doubling": DOUBLING + ["--n_seeds", "2", "--l0", "2", "--n_max", "16",
                                   "--pairs", "100", "--cap", "10000"],
    "clt": LSV + ENSEMBLE,
    "clt-lebesgue": LSV + ENSEMBLE + ["--sampling", "lebesgue"],
    "clt-smooth-indicator": LSV + ENSEMBLE + ["--observable", "smooth_indicator"],
    "lil": LSV + ENSEMBLE,
    # sup: the reflection-law KS and the sampler's self-test
    "fclt": ["--family", "doubling", "--alpha_min", "0", "--alpha_max", "0"] + ENSEMBLE,
    "fclt-supabs": LSV + ENSEMBLE + ["--functional", "sup_abs"],
    "fclt-terminal": LSV + ENSEMBLE + ["--functional", "terminal"],
    # a finite p: the integrability branch of the exponents
    "rate": ["--p", "4", "--D", "10"],
}


def digests(key: str, out: Path) -> dict:
    """{artifact name: sha256} of one run of the key's subcommand."""
    subcommand = key.split("-")[0]
    assert main([subcommand, *CONFIGS[key], "--out", str(out)]) == 0
    return {p.name: sha256_of(p) for p in sorted(out.iterdir())
            if p.suffix in (".csv", ".json") and p.name != "manifest.json"}


def environment() -> dict:
    """What the pinned bits depend on, read in the running interpreter."""
    from numpy._core._multiarray_umath import (__cpu_baseline__, __cpu_dispatch__,
                                               __cpu_features__)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "cpu_baseline": list(__cpu_baseline__),
            "cpu_dispatch": [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]}


def run_configs(keys: list[str]) -> dict:
    """The child's side: its environment and the digests of each key."""
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for key in keys:
            runs[key] = digests(key, Path(tmp) / key)
    return {"environment": environment(), "digests": runs}


def run_in_baseline_child(keys: list[str]) -> dict:
    """run_configs(keys) in a fresh interpreter with every numpy dispatch target off."""
    from numpy._core._multiarray_umath import __cpu_dispatch__

    paths = [str(Path(quenched_limits.__file__).parent.parent), str(Path(__file__).parent)]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(__cpu_dispatch__),
           "PYTHONPATH": os.pathsep.join(paths + [os.environ.get("PYTHONPATH", "")])}
    code = ("import json, sys, test_golden; "
            "json.dump(test_golden.run_configs(sys.argv[1:]), sys.stdout)")
    out = subprocess.run([sys.executable, "-c", code, *keys], env=env, capture_output=True,
                         text=True)
    if out.returncode:
        raise RuntimeError(f"golden child failed:\n{out.stderr}")
    return json.loads(out.stdout)


def environment_difference(pinned: dict, running: dict) -> str:
    diff = [f"{k}: pinned {pinned.get(k)!r}, running {running.get(k)!r}"
            for k in sorted(pinned.keys() | running.keys()) if pinned.get(k) != running.get(k)]
    return "; ".join(diff) or "the environment matches the pins"


@pytest.fixture(scope="module")
def child_run():
    """All configs run once, in one child; the tests share its digests."""
    return run_in_baseline_child(sorted(CONFIGS))


def assert_pinned(child_run, key, suffix):
    pins = json.loads(PINS.read_text())
    want = {n: d for n, d in pins["digests"][key].items() if n.endswith(suffix)}
    got = {n: d for n, d in child_run["digests"][key].items() if n.endswith(suffix)}
    assert got == want, environment_difference(pins["environment"], child_run["environment"])


@pytest.mark.parametrize("key", sorted(CONFIGS))
def test_csv_matches_golden_pin(key, child_run):
    assert_pinned(child_run, key, ".csv")


@pytest.mark.parametrize("key", sorted(CONFIGS))
def test_json_matches_golden_pin(key, child_run):
    assert_pinned(child_run, key, ".json")


def test_child_runs_every_config_on_baseline_loops(child_run):
    env = child_run["environment"]
    assert env["cpu_dispatch"] == []
    assert environment_difference({**env, "numpy": "0.0"}, env) == (
        f"numpy: pinned '0.0', running {env['numpy']!r}")


if __name__ == "__main__":
    keys = sys.argv[1:] or sorted(CONFIGS)
    unknown = [key for key in keys if key not in CONFIGS]
    if unknown:
        sys.exit(f"unknown config(s) {unknown}; choose from {sorted(CONFIGS)}")
    run = run_in_baseline_child(keys)
    pins = json.loads(PINS.read_text()) if PINS.exists() else {"digests": {}}
    if pins.get("environment", run["environment"]) != run["environment"]:
        print("environment:", environment_difference(pins["environment"], run["environment"]))
    for key in keys:
        old, new = pins["digests"].get(key, {}), run["digests"][key]
        for name in sorted(old.keys() | new.keys()):
            if old.get(name) != new.get(name):
                print(f"{key} {name}: {old.get(name)} -> {new.get(name)}")
        pins["digests"][key] = new
    pins = {"environment": run["environment"],
            "digests": {key: pins["digests"][key] for key in sorted(pins["digests"])
                        if key in CONFIGS}}
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
