"""Rank-ordered p-value plots (Schweder-Spjotvoll style) with quantitative
uniformity diagnostics.

Under a true null, a set of p-values is uniform on (0, 1) and the sorted
values plotted against their ranks trace a near-45-degree line. A real
effect shows up as p-values mostly below alpha on a shallow slope. The
visual judgement is formalized here with three numbers: the one-sample
Kolmogorov-Smirnov distance to Uniform(0,1), a through-origin slope fit,
and the fraction of p-values below alpha.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass, fields
from enum import Enum
from functools import reduce
from operator import add, sub
from typing import Iterable, Sequence

from .ingest import CorrelationClass

__all__ = [
    "PlotClass",
    "ClassifyThresholds",
    "DEFAULT_CLASSIFY_THRESHOLDS",
    "PlotDiagnostics",
    "PValuePlot",
    "classify",
    "build_plot",
]

MIN_POINTS = 3
SOFT_MIN_POINTS = 10


class PlotClass(str, Enum):
    NULL_CONSISTENT = "NullConsistent"
    EFFECT_CONSISTENT = "EffectConsistent"
    AMBIGUOUS = "Ambiguous"


@dataclass(frozen=True)
class ClassifyThresholds:
    """Declared constants behind the three-way plot classification.

    null_max_frac_below admits up to 3 of 27 p-values under alpha before a
    plot stops counting as null-consistent. Under a true null at alpha =
    0.05 that count is Binomial(27, 0.05): it exceeds 2 with probability
    15.05%, so the tighter 0.10 cutoff (2 of 27) would turn about one null
    panel in seven away on this rule alone; it exceeds 3 with probability
    4.37%.
    """

    null_max_frac_below: float = 0.12
    null_min_ks_p: float = 0.05
    effect_min_frac_below: float = 0.5

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0.0 <= value <= 1.0:  # also rejects NaN
                raise ValueError(f"{f.name} must lie in [0, 1], got {value!r}")


DEFAULT_CLASSIFY_THRESHOLDS = ClassifyThresholds()


@dataclass(frozen=True)
class PlotDiagnostics:
    ks_statistic: float
    ks_p: float
    slope_fit: float
    frac_below_alpha: float
    min_p: float
    classification: PlotClass


@dataclass(frozen=True)
class PValuePlot:
    cls: CorrelationClass
    alpha: float
    ps: tuple[float, ...]  # sorted ascending; the point of rank i is (i, ps[i - 1])
    diagnostics: PlotDiagnostics

    @property
    def n(self) -> int:
        return len(self.ps)


def _sorted_unit(p_values: Iterable[float]) -> list[float]:
    """The p-values as floats, sorted, once each is checked to lie in [0, 1]."""
    ps = list(map(float, p_values))
    for p in ps:
        if not 0.0 <= p <= 1.0:  # also rejects NaN
            raise ValueError(f"p-value outside [0, 1]: {p!r}")
    ps.sort()
    return ps


def _kolmogorov_sf(t: float) -> float:
    """Survival function of the Kolmogorov distribution, for finite t.

    Two classical series for the limiting distribution of sqrt(n)*D_n:
    the Jacobi theta form for small t (where the alternating series
    converges slowly) and the alternating exponential series elsewhere.
    """
    if t <= 0.0:
        return 1.0
    if t < 0.755:
        a = -math.pi * math.pi / (8.0 * t * t)
        # a left fold, as sum() compensates float sums from Python 3.12 on
        s = reduce(add, (math.exp(a * k * k) for k in (1, 3, 5, 7, 9, 11)), 0.0)
        return max(0.0, 1.0 - math.sqrt(2.0 * math.pi) / t * s)
    s = 0.0
    for k in range(1, 101):
        term = math.exp(-2.0 * k * k * t * t)
        s += -term if k % 2 == 0 else term
        if term < 1e-18:
            break
    return min(1.0, max(0.0, 2.0 * s))


def _ks_sorted(ps: Sequence[float]) -> tuple[float, float]:
    """One-sample Kolmogorov-Smirnov test against Uniform(0, 1) of ps, which
    are non-empty, each in [0, 1] and sorted ascending: the exact
    sup-distance between the empirical CDF and the uniform CDF, and the
    p-value from the asymptotic Kolmogorov series."""
    n = len(ps)
    ranks = [i / n for i in range(n + 1)]
    d = max(max(map(sub, ranks[1:], ps)), max(map(sub, ps, ranks)))
    return d, _kolmogorov_sf(math.sqrt(n) * d)


def classify(
    frac_below_alpha: float,
    ks_p: float,
    min_p: float,
    alpha: float,
    n: int,
    thresholds: ClassifyThresholds = DEFAULT_CLASSIFY_THRESHOLDS,
) -> PlotClass:
    """Three-way reading of a p-value plot.

    EffectConsistent: at least effect_min_frac_below of the p-values sit
    under alpha and the smallest is significant. NullConsistent: few
    values under alpha, the KS test does not reject uniformity, and the
    smallest p-value is not so extreme that it alone contradicts a null
    (min_p >= c = alpha * null_max_frac_below / n). At the defaults and
    n = 27, c = 2.2e-4, and under a true null P(min_p < c) = 1 - (1 - c)^27
    = 0.60%: the rule alone turns away about one null panel in 170.
    Everything else is Ambiguous.
    """
    t = thresholds
    if frac_below_alpha >= t.effect_min_frac_below and min_p < alpha:
        return PlotClass.EFFECT_CONSISTENT
    if (
        frac_below_alpha <= t.null_max_frac_below
        and ks_p > t.null_min_ks_p
        and min_p >= alpha * t.null_max_frac_below / n
    ):
        return PlotClass.NULL_CONSISTENT
    return PlotClass.AMBIGUOUS


def _slope_through_origin(ps: Sequence[float]) -> float:
    # Least-squares slope of sorted p against the plotting positions
    # i/(n+1), constrained through the origin: exactly 1.0 when the
    # p-values sit on the uniform grid.
    n = len(ps)
    sxy = 0.0
    sxx = 0.0
    for i, p in enumerate(ps, start=1):
        x = i / (n + 1)
        sxy += x * p
        sxx += x * x
    return sxy / sxx


def build_plot(
    p_values: Iterable[float],
    cls: CorrelationClass,
    alpha: float = 0.05,
    thresholds: ClassifyThresholds = DEFAULT_CLASSIFY_THRESHOLDS,
) -> PValuePlot:
    """Rank-order p-values and attach uniformity diagnostics.

    The output is invariant under permutations of the input; ties keep
    their original input order (stable sort), which never reorders
    distinct values.
    """
    ps = _sorted_unit(p_values)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    n = len(ps)
    if n < MIN_POINTS:
        raise ValueError(f"a p-value plot needs at least {MIN_POINTS} values, got {n}")
    if n < SOFT_MIN_POINTS:
        warnings.warn(
            f"only {n} p-values; plot diagnostics are weak below {SOFT_MIN_POINTS}",
            UserWarning,
            stacklevel=2,
        )
    ks_stat, ks_p = _ks_sorted(ps)
    frac = bisect_left(ps, alpha) / n
    min_p = ps[0]
    diagnostics = PlotDiagnostics(
        ks_statistic=ks_stat,
        ks_p=ks_p,
        slope_fit=_slope_through_origin(ps),
        frac_below_alpha=frac,
        min_p=min_p,
        classification=classify(frac, ks_p, min_p, alpha, n, thresholds=thresholds),
    )
    return PValuePlot(cls=cls, alpha=alpha, ps=tuple(ps), diagnostics=diagnostics)
