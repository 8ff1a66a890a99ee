"""Per-study aggregation, Fisher z-transformation, and z-statistic summaries.

A study's correlation coefficients are averaged per class, transformed to
the z scale (arctanh), scaled by the standard error 1/sqrt(n-3), and
converted back to a p-value under the standard normal distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple

from .ingest import CorrelationClass, StudyGroup
from .numerics import Probability, arctanh, std_normal_sf

__all__ = [
    "AggregationMode",
    "FisherStats",
    "StudySummary",
    "ZSummary",
    "aggregate_study",
    "r_to_pvalue",
    "summarize_group",
    "summarize_studies",
    "summarize_z",
]

HISTOGRAM_BIN_WIDTH = 0.5
_SQRT2 = math.sqrt(2.0)


class AggregationMode(str, Enum):
    """How multiple records of one class combine into a study z-statistic."""

    MEAN_R = "mean-r"  # average r, then transform (default)
    MEAN_Z = "mean-z"  # transform each r, then average on the z scale


class FisherStats(NamedTuple):
    fisher_z: float
    se: float
    z_score: float
    p_value: Probability


@dataclass(frozen=True)
class StudySummary:
    study_id: str
    cls: CorrelationClass
    mean_r: float
    n: int
    fisher_z: float
    se: float
    z_score: float
    p_value: Probability


@dataclass(frozen=True)
class ZSummary:
    """Five-number summary and fixed-width histogram of z-statistics."""

    cls: CorrelationClass
    count: int
    min: float
    q1: float
    median: float
    q3: float
    max: float
    histogram: tuple[tuple[float, float, int], ...]  # (lo, hi, count)


def aggregate_study(
    group: StudyGroup, cls: CorrelationClass, shared_n: bool = False
) -> tuple[float, int]:
    """Mean correlation and effective sample size for one class of a study.

    By default n is the sum of the class records' n. With shared_n=True the
    study-level n (largest record n in the group) is used instead, for
    extraction sheets where every record re-reports one participant pool.
    """
    recs = group.records_for(cls)
    if not recs:
        raise ValueError(f"study {group.study_id!r} has no {cls.value} records")
    mean_r = sum(rec.r for rec in recs) / len(recs)
    n = group.study_n if shared_n else sum(rec.n for rec in recs)
    return mean_r, n


def r_to_pvalue(r: float, n: int, two_sided: bool = True) -> FisherStats:
    """Fisher z, standard error, z-score, and p-value for a correlation.

    z = arctanh(r), se = 1/sqrt(n-3), z_score = z/se. The p-value is
    two-sided by default (2 * P(Z > |z_score|)); one-sided uses the upper
    tail, i.e. tests for a positive correlation.
    """
    if n < 4:
        raise ValueError("sample size must exceed 3")
    fisher_z = arctanh(r)  # rejects |r| >= 1
    se = 1.0 / math.sqrt(n - 3)
    z_score = fisher_z / se
    if two_sided:
        p = min(1.0, 2.0 * std_normal_sf(abs(z_score)))
    else:
        p = std_normal_sf(z_score)
    return FisherStats(fisher_z=fisher_z, se=se, z_score=z_score, p_value=Probability(p))


def summarize_group(
    group: StudyGroup,
    cls: CorrelationClass,
    mode: AggregationMode = AggregationMode.MEAN_R,
    shared_n: bool = False,
    two_sided: bool = True,
) -> StudySummary:
    """Full per-study pipeline for one correlation class of one study."""
    return summarize_studies([group], cls, mode=mode, shared_n=shared_n,
                             two_sided=two_sided)[0]


def summarize_studies(
    groups: Iterable[StudyGroup],
    cls: CorrelationClass,
    mode: AggregationMode = AggregationMode.MEAN_R,
    shared_n: bool = False,
    two_sided: bool = True,
) -> list[StudySummary]:
    """Per-study pipeline for one correlation class, one summary per group.

    MEAN_R: average the r values, then transform. MEAN_Z: average the
    per-record arctanh(r) values and report mean_r = tanh(mean z) so that
    fisher_z == arctanh(mean_r) holds in both modes. n is as in
    aggregate_study; the rest is r_to_pvalue, inlined with the same
    checks and the same floating-point operations in the same order.
    """
    mean_z = mode is AggregationMode.MEAN_Z
    out: list[StudySummary] = []
    for group in groups:
        recs = group.by_class.get(cls)
        if not recs:
            raise ValueError(f"study {group.study_id!r} has no {cls.value} records")
        if mean_z:
            mean_r = math.tanh(sum([arctanh(rec.r) for rec in recs]) / len(recs))
        else:
            mean_r = sum([rec.r for rec in recs]) / len(recs)
        n = group.study_n if shared_n else sum([rec.n for rec in recs])
        if n < 4:
            raise ValueError("sample size must exceed 3")
        if not abs(mean_r) < 1.0:  # also rejects NaN
            raise ValueError(f"arctanh requires |r| < 1, got {mean_r!r}")
        fisher_z = math.atanh(mean_r)
        se = 1.0 / math.sqrt(n - 3)
        z_score = fisher_z / se
        # 0.5 * erfc is std_normal_sf; doubling it rounds as r_to_pvalue does
        # when erfc is subnormal
        if two_sided:
            p = min(1.0, 2.0 * (0.5 * math.erfc(abs(z_score) / _SQRT2)))
        else:
            p = 0.5 * math.erfc(z_score / _SQRT2)
        out.append(StudySummary(group.study_id, cls, mean_r, n, fisher_z, se, z_score,
                                Probability(p)))
    return out


def _quantile(sorted_values: list[float], q: float) -> float:
    # Linear interpolation between closest ranks (the common default rule).
    n = len(sorted_values)
    if n == 1:
        return sorted_values[0]
    h = (n - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, n - 1)
    frac = h - lo
    return sorted_values[lo] + frac * (sorted_values[hi] - sorted_values[lo])


def _histogram(values: list[float]) -> tuple[tuple[float, float, int], ...]:
    # Fixed-width bins aligned to multiples of HISTOGRAM_BIN_WIDTH spanning
    # the data range; the last bin is closed so counts always sum to len().
    w = HISTOGRAM_BIN_WIDTH
    lo_edge = math.floor(min(values) / w) * w
    n_bins = max(1, math.ceil((max(values) - lo_edge) / w - 1e-12))
    counts = [0] * n_bins
    for v in values:
        idx = min(int((v - lo_edge) / w), n_bins - 1)
        counts[idx] += 1
    return tuple(
        (lo_edge + i * w, lo_edge + (i + 1) * w, c) for i, c in enumerate(counts)
    )


def summarize_z(summaries: Iterable[StudySummary], cls: CorrelationClass) -> ZSummary:
    """Order statistics and histogram of the z-scores for one class."""
    zs = sorted(s.z_score for s in summaries if s.cls is cls)
    if not zs:
        raise ValueError(f"no summaries for class {cls.value}")
    return ZSummary(
        cls=cls,
        count=len(zs),
        min=zs[0],
        q1=_quantile(zs, 0.25),
        median=_quantile(zs, 0.5),
        q3=_quantile(zs, 0.75),
        max=zs[-1],
        histogram=_histogram(zs),
    )
