"""Fiber map families on [0,1] and the built-in observable registry.

Two families are implemented:

* ``lsv`` -- the intermittent family with a neutral fixed point at 0,
  f(x) = x (1 + 2^alpha x^alpha) on [0, 1/2) and f(x) = 2x - 1 on [1/2, 1].
  The branch point 1/2 belongs to the right branch, so the right branch is a
  bijection [1/2, 1] -> [0, 1].
* ``doubling`` -- f(x) = 2x mod 1, the uniformly expanding baseline with
  analytically known statistics.  It is the lsv map at alpha = 0, which a
  doubling FiberMap must have: the formulas read only alpha, and at 0 they
  give 2x, 2 and the inverse t / 2 bit for bit (x ** 0.0 and 2.0 ** 0.0
  are exactly 1).
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
        if self.family == "doubling" and self.alpha != 0.0:
            raise ValueError(f"the doubling map is lsv at alpha 0, got alpha {self.alpha}")


def apply(fmap: FiberMap, x):
    """One application of the fiber map; accepts scalars or arrays.

    x's NaN-ignoring min and max are the range check and pick the branch: an
    array wholly in [1/2, 1] computes only 2x - 1, one wholly below 1/2 only
    the left formula, a mixed one both; each point keeps the mixed form's bits.
    """
    x = np.asarray(x, dtype=float)
    lo, hi = (np.fmin.reduce(x, axis=None), np.fmax.reduce(x, axis=None)) if x.size else (0.0, 1.0)
    if lo < 0.0 or hi > 1.0:
        raise ValueError("point outside [0, 1]")
    a = fmap.alpha
    if lo >= 0.5:
        y = 2.0 * x - 1.0
    elif hi < 0.5:
        y = np.clip(x * (1.0 + 2.0 ** a * x ** a), 0.0, 1.0)
    else:
        y = np.clip(np.where(x < 0.5, x * (1.0 + 2.0 ** a * x ** a), 2.0 * x - 1.0), 0.0, 1.0)
    return float(y) if y.ndim == 0 else y


def derivative(fmap: FiberMap, x):
    """f'(x); at the branch point 1/2 the left-branch value is taken."""
    x = np.asarray(x, dtype=float)
    a = fmap.alpha
    d = np.where(x <= 0.5, 1.0 + 2.0 ** a * (1.0 + a) * x ** a, 2.0)
    return float(d) if d.ndim == 0 else d


def left_branch_inverse(fmap: FiberMap, t):
    """The unique y in [0, 1/2] with f(y) = t, by Newton's method.

    Accepts scalars or arrays.  The left branch is increasing and convex,
    so Newton from y0 = t / (1 + 2^alpha t^alpha), which lies below the
    root, overshoots once and then falls; each entry stops for good once
    its iterate stops falling.  At alpha = 0 the start t / 2 is the root,
    and the step keeps it bit for bit.  Entries are always evaluated in a
    1-d array: a 0-d ``y ** a`` goes through libm's scalar pow, whose bits
    can differ from numpy's array loop, so a point gets the same bits alone
    or in an array.
    """
    t = np.asarray(t, dtype=float)
    a, tt = fmap.alpha, t.ravel()
    y = _newton_step(a, tt / (1.0 + 2.0 ** a * tt ** a), tt)   # the overshoot
    while True:
        nxt = _newton_step(a, y, tt)
        falling = nxt < y
        if not falling.any():
            break
        # an entry that stops keeps its y, so its next step stops it again
        y = np.where(falling, nxt, y)
    y = y.reshape(t.shape)
    return float(y) if y.ndim == 0 else y


def _newton_step(a: float, y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """One Newton step towards f(y) = t on the left branch; one y ** a serves f and f'.

    The residual is written (y - t) + 2^a y^(1+a), so its rounding error
    scales with t - y rather than with t.
    """
    c, ya = 2.0 ** a, y ** a
    return y - ((y - t) + c * y * ya) / (1.0 + c * (1.0 + a) * ya)


def fiber_map(seq: ParamSequence, k: int = 0) -> FiberMap:
    """The map acting at step k of the composition driven by seq."""
    return FiberMap(seq.family, seq.param(k))


def _iterates(seq: ParamSequence, x, n: int):
    """Yield f^1 x, ..., f^n x, one apply per step, from one batch of parameters."""
    for alpha in seq.params(0, n):
        x = apply(FiberMap(seq.family, alpha), x)
        yield x


def _doubling_orbit_values(n_samples: int, n_steps: int, rng: np.random.Generator):
    """Yield doubling x_k arrays for k = 1..n_steps from i.i.d. random bit streams.

    In float64, x -> 2x mod 1 exhausts its 53 mantissa bits after ~52 steps
    and every orbit collapses to 0.  x_k is read as bits k .. k+52 of the
    stream instead, which is exact in law for Lebesgue-random x_0 at any k.
    """
    n_words = (n_steps + 54) // 64 + 2
    words = rng.integers(0, 2 ** 64, size=(n_samples, n_words), dtype=np.uint64)
    scale = 2.0 ** -53
    for k in range(1, n_steps + 1):
        wi, off = divmod(k, 64)
        if off == 0 or k == 1:   # copy this block's two word columns once, contiguous
            lo, hi = (np.ascontiguousarray(words[:, w]) for w in (wi, wi + 1))
        chunk = lo if off == 0 else (lo << np.uint64(off)) | (hi >> np.uint64(64 - off))
        yield (chunk >> np.uint64(11)).astype(np.float64) * scale


def _cos2pi(x):
    # cos 2 pi x = 2 / (1 + tan^2 pi x) - 1 in one float64 buffer: numpy's float64
    # tan has an AVX-512 loop (~2 ns a point), its cos no SIMD loop (9-15 ns).
    # Within 1.5e-15 of cos 2 pi x on [0, 1] (worst seen 9.2e-16; np.cos 6.4e-16),
    # and exactly 1, -1, 1 at 0, 1/2, 1.  Without AVX-512, tan is scalar too and
    # this costs ~25 % more than np.cos.  x is never written.
    t = np.multiply(x, np.pi, out=np.empty(np.shape(x)))
    np.tan(t, out=t)
    np.square(t, out=t)
    t += 1.0
    np.divide(2.0, t, out=t)
    t -= 1.0
    return t[()]


def _coboundary_cos(x):
    # u(2x mod 1) - u(x) for u = cos(2 pi x); an exact doubling coboundary.
    return _cos2pi(2.0 * x) - _cos2pi(x)


def _smooth_indicator(x):
    # C^1 smoothed indicator of [1/4, 3/4], ramp width 1/8 on each side.
    def ramp(t):
        t = np.clip(t, 0.0, 1.0)
        return t * t * (3.0 - 2.0 * t)

    return ramp((x - 0.125) * 8.0) - ramp((x - 0.75) * 8.0)


def get_observable(name: str, gamma: float = 0.5) -> Callable[[np.ndarray], np.ndarray]:
    """Look up an observable by registry name.

    ``holder_gamma`` is |x - 1/2|^gamma, Holder with the gamma argument as
    exponent; the others are Lipschitz.
    """
    if name == "holder_gamma":
        if not (0.0 < gamma <= 1.0):
            raise ValueError("gamma must be in (0, 1]")
        return lambda x, g=gamma: np.abs(x - 0.5) ** g
    fns = {"cos2pi": _cos2pi, "smooth_indicator": _smooth_indicator,
           "coboundary_cos": _coboundary_cos}
    if name not in fns:
        raise ValueError(f"unknown observable {name!r}")
    return fns[name]
