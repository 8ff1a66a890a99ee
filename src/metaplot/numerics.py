"""Standard normal special functions on top of the standard library.

The error function comes from the platform C library through math.erfc,
and the normal quantile from statistics.NormalDist. Results are therefore
byte-identical for the same CPython build and C math library, not across
every platform; the golden artifacts in tests/golden and the mpmath and
scipy oracle tests guard that accuracy and determinism.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add
from statistics import NormalDist

__all__ = [
    "arctanh",
    "std_normal_sf",
    "std_normal_quantile",
    "kolmogorov_sf",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_STD_NORMAL = NormalDist()


def _require_finite(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def arctanh(r: float) -> float:
    """Inverse hyperbolic tangent, 0.5 * ln((1+r)/(1-r)), for |r| < 1.

    Delegates to math.atanh once the range is checked: math.atanh returns
    NaN for a NaN argument instead of raising.
    """
    r = float(r)
    if not abs(r) < 1.0:  # also rejects NaN
        raise ValueError(f"arctanh requires |r| < 1, got {r!r}")
    return math.atanh(r)


def std_normal_sf(x: float) -> float:
    """Survival function P(X > x) for X ~ Normal(0, 1)."""
    x = _require_finite("x", x)
    return 0.5 * math.erfc(x / _SQRT2)


def std_normal_quantile(p: float) -> float:
    """Inverse of the standard normal CDF for 0 < p < 1.

    statistics.NormalDist.inv_cdf implements Wichura's algorithm AS241
    (Appl. Stat. 37, 1988), accurate to a few ulps across (0, 1).
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile requires 0 < p < 1, got {p!r}")
    return _STD_NORMAL.inv_cdf(p)


def kolmogorov_sf(t: float) -> float:
    """Survival function of the Kolmogorov distribution.

    Two classical series for the limiting distribution of sqrt(n)*D_n:
    the Jacobi theta form for small t (where the alternating series
    converges slowly) and the alternating exponential series elsewhere.
    """
    t = _require_finite("t", t)
    if t <= 0.0:
        return 1.0
    if t < 0.755:
        a = -math.pi * math.pi / (8.0 * t * t)
        # a left fold, as sum() compensates float sums from Python 3.12 on
        s = reduce(add, (math.exp(a * k * k) for k in (1, 3, 5, 7, 9, 11)), 0.0)
        return max(0.0, 1.0 - _SQRT_2PI / t * s)
    s = 0.0
    for k in range(1, 101):
        term = math.exp(-2.0 * k * k * t * t)
        s += -term if k % 2 == 0 else term
        if term < 1e-18:
            break
    return min(1.0, max(0.0, 2.0 * s))
