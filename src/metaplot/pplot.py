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
from dataclasses import dataclass, fields
from enum import Enum
from typing import Iterable, Sequence

from .ingest import CorrelationClass
from .numerics import Probability, kolmogorov_sf

__all__ = [
    "PlotClass",
    "ClassifyThresholds",
    "DEFAULT_CLASSIFY_THRESHOLDS",
    "PlotDiagnostics",
    "PValuePlot",
    "ks_uniform",
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
    plot stops counting as null-consistent: a Binomial(27, 0.05) count
    exceeds 2 about 15% of the time, so the tighter 0.10 cutoff would
    misclassify too many genuinely null panels.
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
    ks_p: Probability
    slope_fit: float
    frac_below_alpha: Probability
    min_p: Probability
    classification: PlotClass


@dataclass(frozen=True)
class PValuePlot:
    cls: CorrelationClass | None
    alpha: float
    points: tuple[tuple[int, float], ...]  # (rank, p), sorted ascending in p
    diagnostics: PlotDiagnostics

    @property
    def n(self) -> int:
        return len(self.points)


def ks_uniform(p_values: Sequence[float]) -> tuple[float, Probability]:
    """One-sample Kolmogorov-Smirnov test against Uniform(0, 1).

    Returns the exact sup-distance between the empirical CDF and the
    uniform CDF, and the p-value from the asymptotic Kolmogorov series.
    """
    if not p_values:
        raise ValueError("ks_uniform requires at least one value")
    ps = sorted(float(p) for p in p_values)
    for p in ps:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p-value outside [0, 1]: {p!r}")
    return _ks_sorted(ps)


def _ks_sorted(ps: Sequence[float]) -> tuple[float, Probability]:
    # ps: non-empty, every value in [0, 1], sorted ascending
    n = len(ps)
    d_plus = max((i + 1) / n - p for i, p in enumerate(ps))
    d_minus = max(p - i / n for i, p in enumerate(ps))
    d = max(d_plus, d_minus)
    return d, kolmogorov_sf(math.sqrt(n) * d)


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
    (min_p >= alpha * null_max_frac_below / n). Everything else is
    Ambiguous.
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
    alpha: float = 0.05,
    cls: CorrelationClass | None = None,
    thresholds: ClassifyThresholds = DEFAULT_CLASSIFY_THRESHOLDS,
) -> PValuePlot:
    """Rank-order p-values and attach uniformity diagnostics.

    The output is invariant under permutations of the input; ties keep
    their original input order (stable sort), which never reorders
    distinct values.
    """
    ps = [float(p) for p in p_values]
    for p in ps:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p-value outside [0, 1]: {p!r}")
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
    ps.sort()
    ks_stat, ks_p = _ks_sorted(ps)
    frac = Probability(sum(1 for p in ps if p < alpha) / n)
    min_p = Probability(ps[0])
    diagnostics = PlotDiagnostics(
        ks_statistic=ks_stat,
        ks_p=ks_p,
        slope_fit=_slope_through_origin(ps),
        frac_below_alpha=frac,
        min_p=min_p,
        classification=classify(frac, ks_p, min_p, alpha, n, thresholds=thresholds),
    )
    points = tuple((i, p) for i, p in enumerate(ps, start=1))
    return PValuePlot(cls=cls, alpha=alpha, points=points, diagnostics=diagnostics)
