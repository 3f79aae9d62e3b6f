"""Golden pins: sha256 of every CSV and JSON artifact (the manifest excepted,
since it carries wall time) each subcommand writes at a tiny config.

The reruns check (criterion 12) only compares two runs of the same code;
these pins catch silent numeric drift between versions.  Byte identity holds
within one environment (Python, numpy, scipy versions).  After a deliberate
numeric change, re-pin the configs it moved with
``PYTHONPATH=src python tests/test_golden.py [key ...]`` (every config when
no key is given; each changed digest is printed) and say why in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import pytest

from quenched_limits.cli import main
from quenched_limits.util import sha256_of

GOLDEN = Path(__file__).parent / "golden"
PINS = {suffix: GOLDEN / f"{suffix}_sha256.json" for suffix in ("csv", "json")}

LSV = ["--family", "lsv", "--alpha_min", "0.05", "--alpha_max", "0.15", "--seed", "3"]
DOUBLING = ["--family", "doubling", "--alpha_min", "0", "--alpha_max", "0", "--seed", "3"]
GRID = ["--n_bins", "128", "--depth", "6", "--k_trunc", "4", "--subsamples", "8"]
ENSEMBLE = GRID + ["--n_steps", "64", "--n_samples", "200"]
CONFIGS = {
    "tail": LSV + ["--n_max", "16", "--samples", "2000", "--cap", "10000"],
    # 150000 samples per seed: two full 65536-point blocks and a remainder
    "tail-blocks": LSV + ["--n_seeds", "2", "--n_max", "16", "--samples", "150000",
                          "--cap", "10000"],
    "partition": LSV + ["--depth_cap", "12"],
    # deep cells take the most left-branch inverse levels
    "partition-deep": LSV + ["--depth_cap", "40"],
    "density": LSV + GRID,
    "decay": LSV + GRID + ["--n_max", "8"],
    "decay-seeds": LSV + GRID + ["--n_max", "8", "--n_seeds", "2"],
    # a constant chain: its masses reach a bitwise fixed point of the one matrix
    "decay-doubling": DOUBLING + GRID + ["--n_max", "16"],
    "decompose": LSV + GRID + ["--n_seeds", "2"],
    # odd grid and non-dyadic subsamples: weights that do not add exactly
    "decompose-odd-grid": LSV + ["--n_bins", "333", "--depth", "6", "--k_trunc", "0",
                                 "--subsamples", "12", "--n_seeds", "2"],
    "decompose-doubling": DOUBLING + GRID + ["--n_seeds", "2"],
    "couple": LSV + ["--l0", "2", "--n_max", "16", "--pairs", "100", "--cap", "10000"],
    # two seeds: the pooled seed average and its standard error
    "couple-doubling": DOUBLING + ["--n_seeds", "2", "--l0", "2", "--n_max", "16",
                                   "--pairs", "100", "--cap", "10000"],
    "clt": LSV + ENSEMBLE,
    "clt-lebesgue": LSV + ENSEMBLE + ["--sampling", "lebesgue"],
    "lil": LSV + ENSEMBLE,
    # sup: the reflection-law KS and the sampler's self-test
    "fclt": ["--family", "doubling", "--alpha_min", "0", "--alpha_max", "0"] + ENSEMBLE,
    "fclt-supabs": LSV + ENSEMBLE + ["--functional", "sup_abs"],
}


def digests(key: str, out: Path) -> dict:
    """{suffix: {artifact name: sha256}} of one run of the key's subcommand."""
    subcommand = key.split("-")[0]
    assert main([subcommand, *CONFIGS[key], "--out", str(out)]) == 0
    return {suffix: {p.name: sha256_of(p) for p in sorted(out.glob(f"*.{suffix}"))
                     if p.name != "manifest.json"}
            for suffix in PINS}


@pytest.fixture(scope="module")
def run_digests(tmp_path_factory):
    """Each config runs once; the CSV and JSON tests share its digests."""
    cache = {}

    def get(key):
        if key not in cache:
            cache[key] = digests(key, tmp_path_factory.mktemp(key))
        return cache[key]
    return get


@pytest.mark.parametrize("key", sorted(CONFIGS))
def test_csv_matches_golden_pin(key, run_digests):
    pins = json.loads(PINS["csv"].read_text())
    assert run_digests(key)["csv"] == pins[key]


@pytest.mark.parametrize("key", sorted(CONFIGS))
def test_json_matches_golden_pin(key, run_digests):
    pins = json.loads(PINS["json"].read_text())
    assert run_digests(key)["json"] == pins[key]


def test_fclt_matches_golden_pin_under_fast_thread_switching(tmp_path):
    # the main thread and the self-test's worker trade the GIL every
    # microsecond; the bytes must not depend on how they interleave
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = digests("fclt", tmp_path)
    finally:
        sys.setswitchinterval(interval)
    assert got == {suffix: json.loads(path.read_text())["fclt"]
                   for suffix, path in PINS.items()}


if __name__ == "__main__":
    import tempfile

    keys = sys.argv[1:] or sorted(CONFIGS)
    unknown = [key for key in keys if key not in CONFIGS]
    if unknown:
        sys.exit(f"unknown config(s) {unknown}; choose from {sorted(CONFIGS)}")
    with tempfile.TemporaryDirectory() as tmp:
        runs = {key: digests(key, Path(tmp) / key) for key in keys}
    GOLDEN.mkdir(exist_ok=True)
    for suffix, path in PINS.items():
        pins = json.loads(path.read_text()) if path.exists() else {}
        for key in keys:
            old, new = pins.get(key, {}), runs[key][suffix]
            for name in sorted(old.keys() | new.keys()):
                if old.get(name) != new.get(name):
                    print(f"{key} {name}: {old.get(name)} -> {new.get(name)}")
            pins[key] = new
        pins = {key: pins[key] for key in pins if key in CONFIGS}
        path.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
