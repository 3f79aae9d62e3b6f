"""Small shared helpers: the block memory budget, the seed average, power-law
fits and deterministic serialization."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Values per temporary in every blocked loop (the bootstrap, the Brownian
# sampler, the return-time tail): 512 KB of doubles, whatever the size of
# the whole computation.
_BLOCK_VALUES = 2 ** 16


def seed_mean(per_seed: np.ndarray, draws: int | None = None):
    """Mean over the seeds (axis 0 of per_seed) and its standard error: across
    seeds for several, else the binomial error of a fraction of draws samples
    (zeros when draws is None)."""
    k = len(per_seed)
    if k == 0:
        raise ValueError("need at least one seed")
    mean = per_seed.mean(axis=0)
    if k > 1:
        se = per_seed.std(axis=0, ddof=1) / math.sqrt(k)
    elif draws is not None:
        se = np.sqrt(np.clip(mean * (1 - mean), 0, None) / draws)
    else:
        se = np.zeros_like(mean)
    return mean, se


def fit_loglog(n: np.ndarray, y: np.ndarray, window: tuple[float, float]) -> dict:
    """Least-squares slope of log y against log n over a window of n.

    Returns the decay exponent (positive for decaying curves) and the r^2
    of the fit; points with y <= 0 are excluded.
    """
    n = np.asarray(n, dtype=float)
    y = np.asarray(y, dtype=float)
    mask = (n >= window[0]) & (n <= window[1]) & (y > 0) & (n > 0)
    if mask.sum() < 2:
        raise ValueError("fewer than 2 usable points in the fit window")
    lx, ly = np.log(n[mask]), np.log(y[mask])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = np.sum((ly - ly.mean()) ** 2)
    r2 = 1.0 - np.sum(resid ** 2) / ss_tot if ss_tot > 0 else 1.0
    return {"exponent": float(-slope), "intercept": float(intercept),
            "window": [float(window[0]), float(window[1])],
            "n_points": int(mask.sum()), "r2": float(r2)}


def fit_loglinear(n: np.ndarray, y: np.ndarray, window: tuple[float, float]) -> dict:
    """Least-squares fit of log y against n (geometric decay rate)."""
    n = np.asarray(n, dtype=float)
    y = np.asarray(y, dtype=float)
    mask = (n >= window[0]) & (n <= window[1]) & (y > 0)
    if mask.sum() < 2:
        raise ValueError("fewer than 2 usable points in the fit window")
    slope, intercept = np.polyfit(n[mask], np.log(y[mask]), 1)
    return {"rate": float(-slope), "intercept": float(intercept),
            "window": [float(window[0]), float(window[1])],
            "n_points": int(mask.sum())}


def fmt17(x) -> str:
    """17-significant-digit decimal form; round-trips float64 exactly."""
    return format(float(x), ".17g")


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]):
    """Deterministic CSV emission: floats as fmt17 writes them, other values as str."""
    columns = [np.asarray(c) for c in columns]
    line = ",".join("%.17g" if c.dtype.kind == "f" else "%s" for c in columns) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(0, min(map(len, columns), default=0), 1024):   # memory stays flat
            fh.writelines(line % row for row in zip(*(c[i:i + 1024].tolist() for c in columns)))


def write_json(path: Path, obj: dict):
    with open(path, "w") as fh:
        json.dump(_jsonify(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else str(v)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    return obj


def sha256_of(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
