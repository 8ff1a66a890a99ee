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
    """Full per-study pipeline for one correlation class.

    MEAN_R: average the r values, then transform. MEAN_Z: average the
    per-record arctanh(r) values and report mean_r = tanh(mean z) so that
    fisher_z == arctanh(mean_r) holds in both modes.
    """
    mean_r, n = aggregate_study(group, cls, shared_n=shared_n)
    if mode is AggregationMode.MEAN_Z:
        recs = group.records_for(cls)
        mean_r = math.tanh(sum(arctanh(rec.r) for rec in recs) / len(recs))
    stats = r_to_pvalue(mean_r, n, two_sided=two_sided)
    return StudySummary(
        study_id=group.study_id,
        cls=cls,
        mean_r=mean_r,
        n=n,
        fisher_z=stats.fisher_z,
        se=stats.se,
        z_score=stats.z_score,
        p_value=stats.p_value,
    )


def summarize_studies(
    groups: Iterable[StudyGroup],
    cls: CorrelationClass,
    mode: AggregationMode = AggregationMode.MEAN_R,
    shared_n: bool = False,
    two_sided: bool = True,
) -> list[StudySummary]:
    return [
        summarize_group(g, cls, mode=mode, shared_n=shared_n, two_sided=two_sided)
        for g in groups
    ]


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
