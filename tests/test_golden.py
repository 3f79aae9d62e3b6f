"""Golden pins: sha256 of every CSV each subcommand writes at a tiny config.

The reruns check (criterion 12) only compares two runs of the same code;
these pins catch silent numeric drift between versions.  Byte identity holds
within one environment (Python, numpy, scipy versions).  After a deliberate
numeric change, regenerate with ``PYTHONPATH=src python tests/test_golden.py``
and say why in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from quenched_limits.cli import main
from quenched_limits.util import sha256_of

PINS = Path(__file__).parent / "golden" / "csv_sha256.json"

LSV = ["--family", "lsv", "--alpha_min", "0.05", "--alpha_max", "0.15", "--seed", "3"]
GRID = ["--n_bins", "128", "--depth", "6", "--k_trunc", "4", "--subsamples", "8"]
ENSEMBLE = GRID + ["--n_steps", "64", "--n_samples", "200"]
CONFIGS = {
    "tail": LSV + ["--n_max", "16", "--samples", "2000", "--cap", "10000"],
    "partition": LSV + ["--depth_cap", "12"],
    "density": LSV + GRID,
    "decay": LSV + GRID + ["--n_max", "8"],
    "decompose": LSV + GRID + ["--n_seeds", "2"],
    # odd grid and non-dyadic subsamples: weights that do not add exactly
    "decompose-odd-grid": LSV + ["--n_bins", "333", "--depth", "6", "--k_trunc", "0",
                                 "--subsamples", "12", "--n_seeds", "2"],
    "couple": LSV + ["--l0", "2", "--n_max", "16", "--pairs", "100", "--cap", "10000"],
    "clt": LSV + ENSEMBLE,
    "lil": LSV + ENSEMBLE,
    "fclt": ["--family", "doubling", "--alpha_min", "0", "--alpha_max", "0"] + ENSEMBLE,
    "fclt-supabs": LSV + ENSEMBLE + ["--functional", "sup_abs"],
}


def csv_digests(key: str, out: Path) -> dict:
    subcommand = key.split("-")[0]
    assert main([subcommand, *CONFIGS[key], "--out", str(out)]) == 0
    return {p.name: sha256_of(p) for p in sorted(out.glob("*.csv"))}


@pytest.mark.parametrize("key", sorted(CONFIGS))
def test_csv_matches_golden_pin(key, tmp_path):
    pins = json.loads(PINS.read_text())
    assert csv_digests(key, tmp_path) == pins[key]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pins = {s: csv_digests(s, Path(tmp) / s) for s in sorted(CONFIGS)}
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
