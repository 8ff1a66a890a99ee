"""Gaussian group-disparity calculations: tail areas above thresholds for
two Normal(mu, sigma) group distributions and the ratio between them.

Thresholds are expressed in reference-group standard-deviation units, so
the reference tail area at threshold t is simply P(Z > t) for a standard
normal Z, and the comparison group's is P(Z > (t - mu)/sigma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "GaussianSpec",
    "TailRow",
    "TailTable",
    "PRESETS",
    "DEFAULT_THRESHOLDS",
    "tail_area",
    "ratio_table",
    "curve_points",
    "format_auc",
    "format_ratio",
]

DEFAULT_THRESHOLDS = (0.0, 1.0, 2.0, 3.0)


@dataclass(frozen=True)
class GaussianSpec:
    """A Normal(mu, sigma) group distribution in reference-SD units."""

    label: str
    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma!r}")
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise ValueError("mu and sigma must be finite")
        if not math.isfinite(1.0 / self.sigma):  # the density is below 1/sigma
            raise ValueError(f"{self.label} sigma {self.sigma!r} is too small: 1/sigma overflows")


# Built-in spec pairs (reference first). "g" is the general-ability pair,
# "things" the things-people vocational-interest pair.
PRESETS: dict[str, tuple[GaussianSpec, GaussianSpec]] = {
    "g": (GaussianSpec("male", 0.0, 1.0), GaussianSpec("female", -0.262, 0.916)),
    "things": (GaussianSpec("male", 0.0, 1.0), GaussianSpec("female", -0.93, 1.0)),
}


@dataclass(frozen=True)
class TailRow:
    threshold: float
    auc_ref: float
    auc_other: float
    ratio: float  # math.inf when auc_ref / auc_other overflows, or auc_other is zero
    overflow: bool = False


@dataclass(frozen=True)
class TailTable:
    ref: GaussianSpec
    other: GaussianSpec
    rows: tuple[TailRow, ...]


def tail_area(spec: GaussianSpec, threshold: float) -> float:
    """Probability mass of the spec's distribution above the threshold."""
    z = (threshold - spec.mu) / spec.sigma
    if not math.isfinite(z):  # an infinite or NaN threshold, or an overflow
        raise ValueError(f"threshold {threshold!r} is not a finite number of sigmas from "
                         f"the {spec.label} mean (mu {spec.mu!r}, sigma {spec.sigma!r})")
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def ratio_table(
    ref: GaussianSpec,
    other: GaussianSpec,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
) -> TailTable:
    """Tail areas for both groups at each threshold plus their ratio.

    Thresholds must be sorted ascending. A ratio that overflows, over a
    comparison-group tail that underflows to zero or to a subnormal, is
    flagged and reported as infinity (serialized as "inf").
    """
    ts = [float(t) for t in thresholds]
    if not ts:
        raise ValueError("at least one threshold required")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("thresholds must be strictly ascending")
    rows = []
    for t in ts:
        a_ref = tail_area(ref, t)
        a_other = tail_area(other, t)
        ratio = a_ref / a_other if a_other else math.inf
        rows.append(TailRow(t, a_ref, a_other, ratio, overflow=math.isinf(ratio)))
    return TailTable(ref=ref, other=other, rows=tuple(rows))


def curve_points(
    spec: GaussianSpec, lo: float, hi: float, count: int
) -> list[tuple[float, float]]:
    """Evenly spaced (x, density) samples of the spec's normal density."""
    if not lo < hi:
        raise ValueError(f"degenerate range ({lo!r}, {hi!r})")
    if count < 2:
        raise ValueError("count must be at least 2")
    norm = 1.0 / (spec.sigma * math.sqrt(2.0 * math.pi))
    step = (hi - lo) / (count - 1)
    out = []
    for i in range(count):
        x = lo + i * step
        u = (x - spec.mu) / spec.sigma
        out.append((x, norm * math.exp(-0.5 * u * u)))
    return out


def format_auc(value: float) -> str:
    """Five-decimal display form used for tail areas."""
    return f"{value:.5f}"


def format_ratio(ratio: float) -> str:
    """Display rounding for tail ratios: one decimal below 10, integers above."""
    if math.isinf(ratio):
        return "inf"
    if ratio < 10.0:
        return f"{ratio:.1f}"
    return f"{round(ratio):d}"
