"""Fiber map families on [0,1] and the built-in observable registry.

Two families are implemented:

* ``lsv`` -- the intermittent family with a neutral fixed point at 0,
  f(x) = x (1 + 2^alpha x^alpha) on [0, 1/2) and f(x) = 2x - 1 on [1/2, 1].
  The branch point 1/2 belongs to the right branch, so the right branch is a
  bijection [1/2, 1] -> [0, 1].
* ``doubling`` -- f(x) = 2x mod 1, the uniformly expanding baseline with
  analytically known statistics (its parameter is ignored).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .omega import FAMILIES, ParamSequence


@dataclass(frozen=True)
class FiberMap:
    family: str
    alpha: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")

    def __call__(self, x):
        return apply(self, x)


def apply(fmap: FiberMap, x):
    """One application of the fiber map; accepts scalars or arrays."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError("point outside [0, 1]")
    if fmap.family == "doubling":
        y = np.where(x < 0.5, 2.0 * x, 2.0 * x - 1.0)
    else:
        a = fmap.alpha
        left = x * (1.0 + 2.0 ** a * x ** a)
        y = np.where(x < 0.5, left, 2.0 * x - 1.0)
    y = np.clip(y, 0.0, 1.0)
    return float(y) if y.ndim == 0 else y


def derivative(fmap: FiberMap, x):
    """f'(x); at the branch point 1/2 the left-branch value is taken."""
    x = np.asarray(x, dtype=float)
    if fmap.family == "doubling":
        d = np.full_like(x, 2.0)
    else:
        a = fmap.alpha
        d = np.where(x <= 0.5, 1.0 + 2.0 ** a * (1.0 + a) * x ** a, 2.0)
    return float(d) if d.ndim == 0 else d


def left_branch_inverse(fmap: FiberMap, t: float) -> float:
    """The unique y in [0, 1/2) with f(y) = t, located by bisection.

    The LSV left branch has no closed-form inverse; bisection to relative
    machine precision is exact enough for every boundary computation here.
    """
    if fmap.family == "doubling":
        return 0.5 * t
    lo, hi = 0.0, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if apply(fmap, mid) < t:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * max(lo, 1e-300):
            break
    return 0.5 * (lo + hi)


def fiber_map(seq: ParamSequence, k: int = 0) -> FiberMap:
    """The map acting at step k of the composition driven by seq."""
    return FiberMap(seq.family, seq.param(k))


def orbit(seq: ParamSequence, x: float, n: int) -> np.ndarray:
    """[x, f_w0(x), f_w1 f_w0(x), ...] -- n+1 points of the composed orbit."""
    if n < 0:
        raise ValueError("n must be >= 0")
    pts = np.empty(n + 1)
    pts[0] = x
    params = seq.params(0, n)
    for k in range(n):
        pts[k + 1] = apply(FiberMap(seq.family, params[k]), pts[k])
    return pts


@dataclass(frozen=True)
class Observable:
    """A Holder observable on [0,1] with its regularity certificate."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    holder_exponent: float
    holder_constant: float

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))


def _cos2pi(x):
    return np.cos(2.0 * np.pi * x)


def _coboundary_cos(x):
    # u(2x mod 1) - u(x) for u = cos(2 pi x); an exact doubling coboundary.
    return np.cos(4.0 * np.pi * x) - np.cos(2.0 * np.pi * x)


def _smooth_indicator(x):
    # C^1 smoothed indicator of [1/4, 3/4], ramp width 1/8 on each side.
    def ramp(t):
        t = np.clip(t, 0.0, 1.0)
        return t * t * (3.0 - 2.0 * t)

    return ramp((x - 0.125) * 8.0) - ramp((x - 0.75) * 8.0)


def get_observable(name: str, gamma: float = 0.5) -> Observable:
    """Look up an observable by registry name.

    ``holder_gamma`` takes the exponent from the gamma argument; the others
    are Lipschitz.
    """
    if name == "cos2pi":
        return Observable("cos2pi", _cos2pi, 1.0, 2.0 * np.pi)
    if name == "holder_gamma":
        if not (0.0 < gamma <= 1.0):
            raise ValueError("gamma must be in (0, 1]")
        return Observable("holder_gamma", lambda x, g=gamma: np.abs(x - 0.5) ** g, gamma, 1.0)
    if name == "smooth_indicator":
        return Observable("smooth_indicator", _smooth_indicator, 1.0, 12.0)
    if name == "coboundary_cos":
        return Observable("coboundary_cos", _coboundary_cos, 1.0, 6.0 * np.pi)
    raise ValueError(f"unknown observable {name!r}")
