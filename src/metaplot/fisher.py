"""Per-study aggregation, Fisher z-transformation, and z-statistic summaries.

A study's correlation coefficients are averaged per class, transformed to
the z scale (arctanh), scaled by the standard error 1/sqrt(n-3), and
converted back to a p-value under the standard normal distribution.

`summarize_studies` works on columns: it reads a `Groups` and returns a
`Summaries`, whose fields hold one entry per study, computed with `math`
functions mapped over columns; mean r, z-score and p-value are arrays of
doubles, and n is a list, as a summed n can exceed 64 bits. When every
study has one record of the class, mean r is read straight from the record
column as 0.0 + r, which equals sum([r]) / 1 bit for bit. It keeps each
study's mean r, n, z-score and p-value; Fisher z and its standard error
follow exactly from mean r and n, and are not kept.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from operator import add, sub, truediv
from typing import Sequence

from .ingest import CorrelationClass, Groups

__all__ = [
    "AggregationMode",
    "Summaries",
    "ZSummary",
    "summarize_studies",
    "summarize_z",
]

HISTOGRAM_BIN_WIDTH = 0.5
# Above this many bins of HISTOGRAM_BIN_WIDTH (z-scores spanning 500), bins
# widen to the smallest multiple of it that fits: a huge n turns a moderate
# r into a huge z, and n = 10**18 at r = 0.999999 would need ~3e10 bins.
HISTOGRAM_MAX_BINS = 1000
_SQRT2 = math.sqrt(2.0)


class AggregationMode(str, Enum):
    """How multiple records of one class combine into a study z-statistic."""

    MEAN_R = "mean-r"  # average r, then transform (default)
    MEAN_Z = "mean-z"  # transform each r, then average on the z scale


@dataclass(frozen=True)
class Summaries:
    """Per-study summaries as parallel columns, one entry per study.

    `summarize_studies` returns `mean_r`, `z_score` and `p_value` as
    array('d') and `n` as a list, and checks each `p_value` to lie in
    [0, 1].
    """

    study_id: Sequence[str]
    mean_r: Sequence[float]
    n: Sequence[int]
    z_score: Sequence[float]
    p_value: Sequence[float]

    def __len__(self) -> int:
        return len(self.study_id)


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


def summarize_studies(
    groups: Groups,
    cls: CorrelationClass,
    mode: AggregationMode = AggregationMode.MEAN_R,
    shared_n: bool = False,
    two_sided: bool = True,
) -> Summaries:
    """Per-study pipeline for one correlation class, one summary per group.

    MEAN_R: average the r values, then transform. MEAN_Z: average the
    per-record arctanh(r) values and report mean_r = tanh(mean z) so that
    z = arctanh(mean_r) holds in both modes. n is the sum of the class
    records' n; with shared_n=True it is the study-level n (largest record n
    in the group), for sheets where every record re-reports one participant
    pool. Then z = arctanh(mean_r), se = 1/sqrt(n-3), z_score = z/se, and
    the p-value is two-sided (2 * P(Z > |z_score|)) or, with
    two_sided=False, the upper tail, i.e. a test for a positive
    correlation. tests/test_fisher.py writes this out from its definition
    with the math module and requires every field to be equal.

    `groups` is the `Groups` that `group_complete_studies` returns. Groups
    built directly are checked too: n must exceed 3, |mean_r| must be below
    1 (a mean of values each below 1 can still round to 1.0), and every
    p-value must lie in [0, 1].
    """
    positions = groups.positions[cls]
    if mode is AggregationMode.MEAN_R and len(positions) == len(groups.offsets[cls]) - 1:
        # one record of cls a study: sum([r]) / 1 is 0.0 + r (-0.0 gives +0.0)
        r_col, n_col = groups.records.r, groups.records.n
        mean_r = array("d", [0.0 + r_col[j] for j in positions])
        n = groups.study_n if shared_n else [n_col[j] for j in positions]
    else:
        rs = groups.values(cls, "r")
        # a left fold, as sum() compensates float sums from Python 3.12 on
        if mode is AggregationMode.MEAN_Z:
            try:
                mean_r = array("d", [math.tanh(reduce(add, map(math.atanh, v), 0.0) / len(v))
                                     for v in rs])
            except ValueError:  # |r| >= 1; a NaN r passes through to the check below
                r = next(r for v in rs for r in v if not abs(r) < 1.0)
                raise ValueError(f"arctanh requires |r| < 1, got {r!r}") from None
        else:
            mean_r = array("d", [reduce(add, v, 0.0) / len(v) for v in rs])
        n = groups.study_n if shared_n else list(map(sum, groups.values(cls, "n")))
    for k, m in zip(n, mean_r):
        if k < 4:
            raise ValueError("sample size must exceed 3")
        if not abs(m) < 1.0:  # also rejects NaN
            raise ValueError(f"arctanh requires |r| < 1, got {m!r}")
    se_of_n = {k: 1.0 / math.sqrt(k - 3) for k in set(n)}
    z_score = array("d", map(truediv, map(math.atanh, mean_r), map(se_of_n.__getitem__, n)))
    # 0.5 * erfc is the normal upper tail; halving then doubling is kept on purpose,
    # as it rounds differently from erfc alone when erfc is subnormal
    if two_sided:
        p = array("d", [min(1.0, 2.0 * (0.5 * math.erfc(abs(z) / _SQRT2))) for z in z_score])
    else:
        p = array("d", [0.5 * math.erfc(z / _SQRT2) for z in z_score])
    for v in p:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"probability must lie in [0, 1], got {v!r}")
    return Summaries(groups.study_id, mean_r, n, z_score, p)


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
    # Fixed-width bins aligned to multiples of the bin width, spanning the
    # data range; the last bin is closed so counts always sum to len(). The
    # width is HISTOGRAM_BIN_WIDTH, or its smallest multiple that needs at
    # most HISTOGRAM_MAX_BINS bins.
    lo, hi = min(values), max(values)
    # no multiple below this one can fit, as no bins cover hi - lo with fewer
    k = max(1, math.floor((hi - lo) / (HISTOGRAM_MAX_BINS * HISTOGRAM_BIN_WIDTH)))
    while True:
        w = k * HISTOGRAM_BIN_WIDTH
        lo_edge = math.floor(lo / w) * w
        n_bins = max(1, math.ceil((hi - lo_edge) / w - 1e-12))
        if n_bins <= HISTOGRAM_MAX_BINS:
            break
        k += 1
    # values are sorted and a value's bin never decreases as it grows, so
    # each bin's first position is a bisection
    starts = [bisect_left(values, b, key=lambda v: min(int((v - lo_edge) / w), n_bins - 1))
              for b in range(1, n_bins)]
    counts = map(sub, starts + [len(values)], [0] + starts)
    return tuple(
        (lo_edge + i * w, lo_edge + (i + 1) * w, c) for i, c in enumerate(counts)
    )


def summarize_z(summaries: Summaries, cls: CorrelationClass) -> ZSummary:
    """Order statistics and histogram of the z-scores of one class's
    summaries."""
    zs = sorted(summaries.z_score)
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
