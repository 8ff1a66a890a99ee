"""Synthetic two-group cohorts and the omitted-confounder gap decomposition.

A cohort has a reference group (indicator 0) and a comparison group
(indicator 1), confounder columns drawn Normal(group mean, sigma), and a
linear outcome. Regressing the outcome on the group indicator alone gives
the unadjusted gap; adding the confounders gives the adjusted gap. With a
single omitted confounder the expected difference between the two gaps is
beta * (mean_f - mean_m), the classic omitted-variable bias.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, fields, replace
from itertools import repeat
from statistics import _normal_dist_inv_cdf
from typing import Any, Sequence

import numpy as np
from numpy.random import PCG64

__all__ = [
    "Confounder",
    "CohortConfig",
    "Cohort",
    "OlsFit",
    "GapReport",
    "RankDeficiencyError",
    "generate_cohort",
    "ols_fit",
    "gap_decomposition",
    "gap_over_seeds",
]

# AS241's central-branch coefficients (|p - 0.5| <= 0.425), highest power of r
# first, digit for digit as in CPython's statistics._normal_dist_inv_cdf.
_AS241_CENTRAL_NUM = (
    2.50908_09287_30122_6727e+3,
    3.34305_75583_58812_8105e+4,
    6.72657_70927_00870_0853e+4,
    4.59219_53931_54987_1457e+4,
    1.37316_93765_50946_1125e+4,
    1.97159_09503_06551_4427e+3,
    1.33141_66789_17843_7745e+2,
    3.38713_28727_96366_6080e+0,
)
_AS241_CENTRAL_DEN = (
    5.22649_52788_52854_5610e+3,
    2.87290_85735_72194_2674e+4,
    3.93078_95800_09271_0610e+4,
    2.12137_94301_58659_5867e+4,
    5.39419_60214_24751_1077e+3,
    6.87187_00749_20579_0830e+2,
    4.23133_30701_60091_1252e+1,
    1.0,
)


# The JSON name of each type that json.loads returns
_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "number",
               float: "number", bool: "boolean", type(None): "null"}


def _json_text(value: Any) -> str:
    """value as JSON spells it (null, true, "x"), or its Python type where
    JSON cannot hold it (a set, an int of over 4,300 digits)."""
    try:
        return json.dumps(value)
    except (TypeError, ValueError, RecursionError):
        return f"a Python {type(value).__name__}"


def _store_finite(obj: Any, names: Sequence[str], prefix: str = "") -> None:
    """Require each named field to be a finite JSON number (an int or float,
    not a bool or a string) and store it as a float. `abs(v) <= max` compares
    a 400-digit int exactly, where float() would overflow; NaN fails it."""
    for name in names:
        v = getattr(obj, name)
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
            raise ValueError(f"{prefix}{name} must be a finite JSON number, got {_json_text(v)}")
        object.__setattr__(obj, name, float(v))


def _fields_of(cls: type, obj: Any, what: str) -> dict[str, Any]:
    """obj, if it is a JSON object that names every field of the dataclass
    cls without a default and no other field; ValueError otherwise."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {_JSON_TYPES[type(obj)]}")
    if unknown := obj.keys() - {f.name for f in fields(cls)}:
        raise ValueError(f"unknown {what} field(s): {', '.join(sorted(unknown))}")
    if missing := [f.name for f in fields(cls) if f.default is MISSING and f.name not in obj]:
        raise ValueError(f"missing {what} field(s): {', '.join(missing)}")
    return obj


@dataclass(frozen=True)
class Confounder:
    """One confounder column: outcome coefficient and per-group means."""

    beta: float
    mean_f: float
    mean_m: float
    sigma: float

    def __post_init__(self) -> None:
        _store_finite(self, ("beta", "mean_f", "mean_m", "sigma"), "confounder ")
        if not self.sigma > 0.0:
            raise ValueError(f"confounder sigma must be positive, got {self.sigma!r}")


@dataclass(frozen=True)
class CohortConfig:
    """The simulation's inputs, their values checked here and in Confounder:
    n_per_group and seed must be ints (not bools), every other number a
    finite number. from_json checks the JSON's objects and their fields."""

    n_per_group: int
    beta0: float
    beta1: float
    confounders: tuple[Confounder, ...] = ()
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_per_group", "seed"):
            value = getattr(self, name)
            if type(value) is not int:  # int() would truncate 7.9 and accept true or "7"
                raise ValueError(f"{name} must be a JSON integer, got {_json_text(value)}")
        _store_finite(self, ("beta0", "beta1", "noise_sigma"))
        object.__setattr__(self, "confounders", tuple(self.confounders))
        if self.n_per_group < 2 + len(self.confounders):
            raise ValueError(
                "n_per_group must be at least 2 + number of confounders "
                "for the model to be identifiable"
            )
        if self.noise_sigma < 0.0:
            raise ValueError("noise_sigma must be non-negative")
        if not 0 <= self.seed <= 2**64 - 1:
            raise ValueError(f"seed must be in [0, 2**64 - 1], got {_json_text(self.seed)}")

    @classmethod
    def from_json(cls, text: str | bytes) -> "CohortConfig":
        """The config in JSON text: an object of CohortConfig's fields, its
        confounders an array of objects of Confounder's fields."""
        config = _fields_of(cls, json.loads(text), "cohort config")
        confounders = config.get("confounders", [])
        if not isinstance(confounders, list):
            raise ValueError(f"confounders must be a JSON array, got {_JSON_TYPES[type(confounders)]}")
        return cls(**{**config, "confounders": tuple(
            Confounder(**_fields_of(Confounder, c, "confounder")) for c in confounders)})


@dataclass(frozen=True)
class Cohort:
    """Design matrix (intercept, group indicator, confounders) and outcomes."""

    x: np.ndarray
    y: np.ndarray


class RankDeficiencyError(ValueError):
    """Design matrix columns are linearly dependent."""


@dataclass(frozen=True)
class OlsFit:
    coefficients: np.ndarray
    residual_sd: float


@dataclass(frozen=True)
class GapReport:
    gap_unadjusted: float
    gap_adjusted: float
    coefficients: tuple[float, ...]
    residual_sd: float


def _horner(coefficients: Sequence[float], r: np.ndarray) -> np.ndarray:
    """((c0 * r + c1) * r + ...) * r + c_last, one rounded operation at a time."""
    acc = coefficients[0] * r
    for c in coefficients[1:-1]:
        acc += c
        acc *= r
    acc += coefficients[-1]
    return acc


def _std_normal_quantiles(u: np.ndarray) -> np.ndarray:
    """NormalDist().inv_cdf of each uniform in u, a float64 array in (0, 1),
    bit for bit on a CPython built without fused multiply-add: AS241's
    central branch in numpy, in CPython's Horner order, and its tails
    through the C kernel (README)."""
    q = u - 0.5
    r = 0.180625 - q * q
    x = _horner(_AS241_CENTRAL_NUM, r)
    x *= q
    x /= _horner(_AS241_CENTRAL_DEN, r)  # the kernel's 0.0 + x * 1.0 is x: q is never 0
    # the tails overwrite the central form's values, which stay finite there
    tail = np.flatnonzero(np.abs(q) > 0.425)  # the complement of C's fabs(q) <= 0.425
    x[tail] = np.fromiter(
        map(_normal_dist_inv_cdf, u[tail].tolist(), repeat(0.0), repeat(1.0)),
        float,
        count=tail.size,
    )
    return x


def _uniforms(seed: int, m: int) -> np.ndarray:
    """m uniforms (u32 + 0.5) / 2^32 in the open (0, 1), u32 the top 32 bits of
    each PCG64(seed).random_raw draw: numpy fixes that integer stream for a
    seed (NEP 19), not what Generator methods make of it. Take at most 52
    bits: from k = 2^52 on, k + 0.5 rounds, to 1.0 at the top."""
    return ((PCG64(seed).random_raw(m) >> np.uint64(32)) + 0.5) / 4294967296.0


def generate_cohort(config: CohortConfig) -> Cohort:
    """Deterministically generate a cohort for the configured model.

    Rows are the reference group (indicator 0) first, then the comparison
    group (indicator 1). Each subject draws its confounders in declared
    order, then its noise term, each mean + sigma * NormalDist().inv_cdf(u)
    of the next uniform u of _uniforms(config.seed, ...).
    """
    n = config.n_per_group
    k = len(config.confounders)
    width = k + (config.noise_sigma > 0.0)
    z = _std_normal_quantiles(_uniforms(config.seed, 2 * n * width))
    z = z.reshape(2 * n, width)
    x = np.empty((2 * n, 2 + k), dtype=float)
    x[:, 0] = 1.0
    x[:n, 1] = 0.0
    x[n:, 1] = 1.0
    confs = config.confounders
    sigma = np.array([c.sigma for c in confs], dtype=float)
    x[:n, 2:] = np.array([c.mean_m for c in confs], dtype=float) + sigma * z[:n, :k]
    x[n:, 2:] = np.array([c.mean_f for c in confs], dtype=float) + sigma * z[n:, :k]
    if width > k:
        eps = 0.0 + config.noise_sigma * z[:, k]  # mean + sigma * z at mean 0.0: never -0.0
    else:
        eps = np.zeros(2 * n, dtype=float)
    betas = np.array(
        [config.beta0, config.beta1] + [c.beta for c in config.confounders], dtype=float
    )
    y = x @ betas + eps
    return Cohort(x=x, y=y)


def ols_fit(x: np.ndarray, y: np.ndarray) -> OlsFit:
    """Least squares via QR decomposition.

    Rank deficiency raises rather than being silently regularized away: the
    columns count as dependent when min|R_ii| <= c * max(rows, cols) * eps,
    c the largest column norm. That is numpy's `matrix_rank` tolerance with
    R's diagonal for the singular values and c for the largest one; max|R_ii|
    would miss a dependent column far longer than the rest.
    residual_sd is the degrees-of-freedom adjusted root mean squared
    residual, sqrt(RSS / (rows - cols)).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2:
        raise ValueError("design matrix must be 2-dimensional")
    rows, cols = x.shape
    if y.shape != (rows,):
        raise ValueError(f"outcome length {y.shape} does not match {rows} rows")
    if rows < cols:
        raise ValueError(f"need at least as many rows ({rows}) as columns ({cols})")
    q, r = np.linalg.qr(x)
    scale = np.linalg.norm(r, axis=0).max()  # R's column norms are x's
    if np.abs(np.diagonal(r)).min() <= scale * max(rows, cols) * np.finfo(float).eps:
        raise RankDeficiencyError("design matrix columns are linearly dependent")
    beta = np.linalg.solve(r, q.T @ y)
    residuals = y - x @ beta
    dof = rows - cols
    rss = float(residuals @ residuals)
    residual_sd = math.sqrt(rss / dof) if dof > 0 else 0.0
    return OlsFit(coefficients=beta, residual_sd=residual_sd)


def gap_decomposition(config: CohortConfig) -> GapReport:
    """Unadjusted vs. adjusted group gap for one generated cohort.

    The unadjusted gap is the group coefficient when the outcome is
    regressed on the indicator alone (the difference of group means); the
    adjusted gap is the group coefficient with every configured confounder
    in the model. Finite inputs can still overflow (beta0 = beta1 = 1e308),
    so a non-finite result raises ValueError.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        cohort = generate_cohort(config)
        gap = float(ols_fit(cohort.x[:, :2], cohort.y).coefficients[1])
        adjusted = ols_fit(cohort.x, cohort.y)
    coefficients = tuple(float(b) for b in adjusted.coefficients)
    if not all(map(math.isfinite, (gap, *coefficients, adjusted.residual_sd))):
        raise ValueError(f"the gaps overflow float64: {gap}, {coefficients[1]}")
    return GapReport(gap, coefficients[1], coefficients, adjusted.residual_sd)


def gap_over_seeds(config: CohortConfig, seeds: Sequence[int]) -> list[GapReport]:
    """Gap decomposition replicated across seeds (for mean +- sd reporting)."""
    return [gap_decomposition(replace(config, seed=s)) for s in seeds]
