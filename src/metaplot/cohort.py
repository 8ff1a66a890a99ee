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
from dataclasses import dataclass, fields, replace
from itertools import repeat
from statistics import NormalDist, _normal_dist_inv_cdf
from typing import Any, Sequence

import numpy as np

__all__ = [
    "Pcg32",
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

# Wichura's AS241 (Appl. Stat. 37, 1988), accurate to a few ulps across (0, 1).
# Pcg32.normal calls this public method; generate_cohort calls its C kernel.
_STD_NORMAL = NormalDist()


class Pcg32:
    """PCG-XSH-RR 32-bit generator (M.E. O'Neill), 64-bit state.

    The integer stream is exact and identical everywhere. Uniform doubles
    come from (u32 + 0.5) / 2^32, which never produces 0 or 1; normals use
    the inverse-CDF method via the public NormalDist().inv_cdf, the oracle for
    generate_cohort's direct calls to its C kernel, so simulated cohorts
    replay bit-identically for the same CPython and C math library.

    random_array(m) draws the next m uniforms at once with numpy uint64
    arithmetic and jump-ahead (Brown 1994, "Random number generation with
    arbitrary strides"): the state before draw i is
    MULT^i * s + inc * (1 + MULT + ... + MULT^(i-1)) mod 2^64, so one
    cumprod and one cumsum give every state. It is the same stream as m
    calls of random(), and leaves the same state behind; the scalar methods
    stay the single-draw API and the reference the tests compare against.
    """

    _MULT = 6364136223846793005
    _MASK = (1 << 64) - 1
    _DEFAULT_STREAM = 1442695040888963407

    def __init__(self, seed: int, stream: int = _DEFAULT_STREAM) -> None:
        self._inc = ((stream << 1) | 1) & self._MASK
        self._state = 0
        self.next_uint32()
        self._state = (self._state + (seed & self._MASK)) & self._MASK
        self.next_uint32()

    def next_uint32(self) -> int:
        old = self._state
        self._state = (old * self._MULT + self._inc) & self._MASK
        xorshifted = (((old >> 18) ^ old) >> 27) & 0xFFFFFFFF
        rot = old >> 59
        return ((xorshifted >> rot) | (xorshifted << ((-rot) & 31))) & 0xFFFFFFFF

    def random(self) -> float:
        """Uniform double in the open interval (0, 1)."""
        return (self.next_uint32() + 0.5) / 4294967296.0

    def random_array(self, m: int) -> np.ndarray:
        """The next m values of random() as a float64 array, in stream order."""
        if m < 0:
            raise ValueError(f"draw count must be non-negative, got {m!r}")
        # numpy uint64 arrays wrap mod 2^64 silently; scalars would warn.
        powers = np.full(m + 1, self._MULT, dtype=np.uint64)
        powers[0] = 1
        np.cumprod(powers, out=powers)  # MULT^i
        geometric = np.zeros(m + 1, dtype=np.uint64)
        np.cumsum(powers[:-1], out=geometric[1:])  # 1 + MULT + ... + MULT^(i-1)
        states = powers * np.uint64(self._state) + geometric * np.uint64(self._inc)
        self._state = int(states[m])
        old = states[:m]
        xorshifted = (((old >> np.uint64(18)) ^ old) >> np.uint64(27)) & np.uint64(0xFFFFFFFF)
        rot = old >> np.uint64(59)
        out = (xorshifted >> rot) | (xorshifted << ((np.uint64(32) - rot) & np.uint64(31)))
        out &= np.uint64(0xFFFFFFFF)
        return (out.astype(np.float64) + 0.5) / 4294967296.0

    def normal(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        return mu + sigma * _STD_NORMAL.inv_cdf(self.random())


def _store_finite(obj: Any, names: Sequence[str], prefix: str = "") -> None:
    """Require each named field to be a finite JSON number (an int or float,
    not a bool or a string) and store it as a float. `abs(v) <= max` compares
    a 400-digit int exactly, where float() would overflow; NaN fails it."""
    for name in names:
        v = getattr(obj, name)
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
            raise ValueError(f"{prefix}{name} must be a finite JSON number, got {v!r}")
        object.__setattr__(obj, name, float(v))


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
    """The simulation's inputs, checked here and in Confounder only: n_per_group
    and seed must be ints (not bools), every other number a finite number."""

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
                raise ValueError(f"{name} must be a JSON integer, got {value!r}")
        _store_finite(self, ("beta0", "beta1", "noise_sigma"))
        object.__setattr__(self, "confounders", tuple(self.confounders))
        if self.n_per_group < 2 + len(self.confounders):
            raise ValueError(
                "n_per_group must be at least 2 + number of confounders "
                "for the model to be identifiable"
            )
        if self.noise_sigma < 0.0:
            raise ValueError("noise_sigma must be non-negative")
        if not 0 <= self.seed <= Pcg32._MASK:  # Pcg32 would mask a larger seed
            raise ValueError(f"seed must be in [0, 2**64 - 1], got {self.seed}")

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "CohortConfig":
        if not isinstance(d, dict):
            raise ValueError(f"cohort config must be a JSON object, got {type(d).__name__}")
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown cohort config field(s): {', '.join(sorted(unknown))}")
        confs = tuple(Confounder(**c) for c in d.get("confounders", ()))
        return cls(**{**d, "confounders": confs})

    @classmethod
    def from_json(cls, text: str | bytes) -> "CohortConfig":
        return cls.from_dict(json.loads(text))

    def with_seed(self, seed: int) -> "CohortConfig":
        return replace(self, seed=seed)


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
    residuals: np.ndarray
    residual_sd: float


@dataclass(frozen=True)
class GapReport:
    gap_unadjusted: float
    gap_adjusted: float
    coefficients: tuple[float, ...]
    residual_sd: float


def generate_cohort(config: CohortConfig) -> Cohort:
    """Deterministically generate a cohort for the configured model.

    Rows are the reference group (indicator 0) first, then the comparison
    group (indicator 1). Draw order is fixed (per subject: confounders in
    declared order, then the noise term), so a given seed always yields a
    byte-identical data set. All uniforms come from one Pcg32.random_array
    call in that order; each z is the C kernel that NormalDist().inv_cdf
    calls after its 0 < u < 1 check, which no (u32 + 0.5) / 2^32 can fail.
    Each confounder value is mean + sigma * z, the same floating-point
    operations as Pcg32.normal; tests/test_cohort.py keeps the
    one-draw-at-a-time loop as the oracle and requires equal bytes.
    """
    n = config.n_per_group
    k = len(config.confounders)
    width = k + (config.noise_sigma > 0.0)
    u = Pcg32(config.seed).random_array(2 * n * width).tolist()
    z = np.fromiter(map(_normal_dist_inv_cdf, u, repeat(0.0), repeat(1.0)), float, count=len(u))
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
        eps = 0.0 + config.noise_sigma * z[:, k]  # Pcg32.normal(0.0, noise_sigma)
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
    return OlsFit(coefficients=beta, residuals=residuals, residual_sd=residual_sd)


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
    return [gap_decomposition(config.with_seed(s)) for s in seeds]
