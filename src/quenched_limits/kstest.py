"""Kolmogorov-Smirnov statistics; the Kolmogorov law comes from scipy.special.

One-sample statistic against an arbitrary CDF and its asymptotic p-value
from the Kolmogorov survival function.  scipy.special is imported inside
the functions that need it, so importing the package stays cheap.
"""

from __future__ import annotations

import math

import numpy as np


def ks_statistic(samples: np.ndarray, cdf) -> float:
    """sup-norm distance between the empirical CDF and a reference CDF."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("empty sample")
    c = np.asarray(cdf(x), dtype=float)
    hi = np.max(np.arange(1, n + 1) / n - c)
    lo = np.max(c - np.arange(0, n) / n)
    return float(max(hi, lo))


def ks_pvalue(d: float, n: int) -> float:
    """Asymptotic p-value with the Stephens small-sample correction."""
    from scipy.special import kolmogorov
    sqn = math.sqrt(n)
    lam = (sqn + 0.12 + 0.11 / sqn) * d
    return float(kolmogorov(lam))


def normal_cdf(x: np.ndarray) -> np.ndarray:
    """The standard normal CDF."""
    from scipy.special import ndtr
    return ndtr(x)
