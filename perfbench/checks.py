"""Correctness checks on the artifacts of one subcommand run.

Each check returns a list of problems; an empty list means the run passed.
The oracle checks hold for every seed: they test exact identities or
statistics far inside the limits the package's own acceptance suite uses.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

ARTIFACTS = {
    "clt": ("clt.csv", "clt.json"),
    "decompose": ("decompose.csv", "decompose.json"),
    "partition": ("partition.csv", "partition.json"),
    "couple": ("couple.csv", "couple_fit.json"),
    "tail": ("tail.csv", "tail_fit.json"),
    "fclt": ("fclt.csv", "fclt.json"),
}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def _column(path: Path, name: str) -> list[float]:
    with open(path, newline="") as fh:
        return [float(row[name]) for row in csv.DictReader(fh)]


def _positive_finite(value, label: str) -> list[str]:
    v = float(value)   # non-finite floats are serialized as strings
    return [] if math.isfinite(v) and v > 0 else [f"{label}={value!r} is not finite and > 0"]


def _clt(d: Path) -> list[str]:
    res = _json(d / "clt.json")
    bad = _positive_finite(res["sigma2"], "sigma2")
    if not res["ks_distance"] < 0.03:
        bad.append(f"clt ks_distance {res['ks_distance']} >= 0.03")
    return bad


def _decompose(d: Path) -> list[str]:
    return _positive_finite(_json(d / "decompose.json")["sigma2"], "sigma2")


def _partition(d: Path) -> list[str]:
    info = _json(d / "partition.json")
    bad = [] if info["gcd"] == 1 else [f"partition gcd {info['gcd']} != 1"]
    widths = [hi - lo for lo, hi in zip(_column(d / "partition.csv", "lo"),
                                        _column(d / "partition.csv", "hi"))]
    mass = math.fsum(widths + [info["residual_mass"]])
    if abs(mass - 0.5) > 1e-12:
        bad.append(f"cell masses plus residual sum to {mass!r}, not 0.5")
    return bad


def _tail(d: Path) -> list[str]:
    tail = _column(d / "tail.csv", "tail_estimate")
    bad = [] if tail[0] == 1.0 else [f"tail[0] = {tail[0]!r}, not 1"]
    if any(b > a for a, b in zip(tail, tail[1:])):
        bad.append("tail is not nonincreasing")
    return bad


def _couple(d: Path) -> list[str]:
    rate = _json(d / "couple_fit.json")["rate"]
    return [] if rate > 0 else [f"coupling log-linear rate {rate} <= 0"]


def _fclt(d: Path) -> list[str]:
    res = _json(d / "fclt.json")
    bad = []
    if not abs(float(res["sigma2"]) - 0.5) <= 0.01:
        bad.append(f"doubling sigma2 {res['sigma2']} not within 0.01 of 0.5")
    if not res["ks_distance"] < 0.05:
        bad.append(f"sup ks_distance {res['ks_distance']} >= 0.05")
    if not res["brownian_self_test"]["ks_distance"] < 0.01:
        bad.append(f"brownian self-test ks {res['brownian_self_test']['ks_distance']} >= 0.01")
    return bad


ORACLES = {"clt": _clt, "decompose": _decompose, "partition": _partition,
           "couple": _couple, "tail": _tail, "fclt": _fclt}


def check_run(subcommand: str, out: Path, exit_code: int) -> tuple[list[str], dict]:
    """Problems found in one subcommand's output dir, and its artifact digests.

    The digests cover the data artifacts only: the manifest records wall
    time, so it is never byte-identical across runs.
    """
    if exit_code != 0:
        return [f"{subcommand} exited with {exit_code}"], {}
    digests = {name: sha256_file(out / name) for name in ARTIFACTS[subcommand]
               if (out / name).is_file()}
    missing = sorted(set(ARTIFACTS[subcommand]) - set(digests))
    if missing:
        return [f"{subcommand} did not write {missing}"], digests
    try:
        if _json(out / "manifest.json")["files"] != digests:
            return [f"{subcommand} manifest sha256 values do not match the files"], digests
        return ORACLES[subcommand](out), digests
    except (OSError, KeyError, ValueError) as exc:
        return [f"{subcommand} output unreadable: {exc!r}"], digests
