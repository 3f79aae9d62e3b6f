"""One-sample Kolmogorov-Smirnov statistic and its asymptotic p-value.

The Kolmogorov survival function and the normal CDF give the bits of
scipy.special's ``kolmogorov`` and ``ndtr``: the latter is Cephes ``ndtr``
(Moshier, *Methods and Programs for Mathematical Functions*, 1989)."""

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
    sqn = math.sqrt(n)
    lam = (sqn + 0.12 + 0.11 / sqn) * d
    return _kolmogorov_sf(lam)


def _kolmogorov_sf(x: float) -> float:
    """P(sup |bridge| > x) as scipy.special.kolmogorov evaluates it: three terms
    of the series in exp(-pi^2 / (8 x^2)) up to 0.82, of that in exp(-2 x^2) above."""
    if x <= math.pi / math.sqrt(746 * 8):
        return 1.0
    if x <= 0.82:
        w = math.sqrt(2 * math.pi) / x
        logu8 = -math.pi * math.pi / (x * x)
        u = math.exp(logu8 / 8)
        if u == 0:
            p = math.exp(logu8 / 8 + math.log(w))
        else:
            u8 = math.exp(logu8)
            p = 1 + math.pow(u8, 3)
            p = 1 + u8 * u8 * p
            p = w * u * (1 + u8 * p)
        sf = 1 - p
    else:
        v = math.exp(-2 * x * x)
        v3 = math.pow(v, 3)
        p = 1 - v3 * v3 * v
        p = 1 - v3 * (v * v) * p
        sf = 2 * v * (1 - v3 * p)
    return min(max(sf, 0.0), 1.0)                 # NaN stays NaN


# Cephes erf (T / U, |x| <= 1) and erfc (P / Q for 1 <= x < 8, R / S above)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG, _SQRT1_2 = 7.09782712893383996843e2, 0.70710678118654752440


def _polevl(x: np.ndarray, coef: tuple, monic: bool = False) -> np.ndarray:
    """Cephes polevl (p1evl, with its implicit leading 1, when ``monic``)."""
    a = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        a = a * x + c
    return a


def normal_cdf(x: np.ndarray) -> np.ndarray:
    """The standard normal CDF, bit for bit Cephes ndtr: numpy does only + - * /,
    abs and comparisons, which round alike in every SIMD loop, and exp is libm's."""
    a = np.asarray(x, dtype=float)
    x = a.ravel() * _SQRT1_2
    z = np.abs(x)
    with np.errstate(over="ignore"):
        e = -z * z
    # erfc(|x|): 0 once -x^2 < -MAXLOG, and NaN stays NaN
    erfc = np.where(z >= 1.0, 0.0, np.nan)
    # |x| < 1: erf(x) = x T(x^2) / U(x^2) and erfc(|x|) = 1 - |erf(x)|
    near = z < 1.0
    xn = x[near]
    erf = xn * _polevl(xn * xn, _T) / _polevl(xn * xn, _U, monic=True)
    erfc[near] = 1.0 - np.abs(erf)
    # |x| >= 1: exp(-x^2) P(|x|) / Q(|x|), with R / S from |x| = 8 on
    far = (z >= 1.0) & (e >= -_MAXLOG)
    zf = z[far]
    ex = np.fromiter(map(math.exp, e[far].tolist()), float, zf.size)
    mid = zf < 8.0
    erfc[far] = np.where(mid, ex * _polevl(zf, _P), ex * _polevl(zf, _R)) / np.where(
        mid, _polevl(zf, _Q, monic=True), _polevl(zf, _S, monic=True))
    y = 0.5 * erfc
    out = np.where(x > 0, 1.0 - y, y)
    small = z < _SQRT1_2
    out[small] = 0.5 + 0.5 * erf[small[near]]
    return out.reshape(a.shape)[()]
