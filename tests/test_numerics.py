"""Special-function checks against independent oracles.

The frozen oracle table in tests/oracles/erf_table.json was computed once
with 40-digit arbitrary-precision arithmetic (mpmath) and checks the C
library's math.erf / math.erfc that the normal functions are built on;
mpmath also serves live as the quantile oracle, and scipy as a second,
independently implemented reference for the survival and Kolmogorov
functions.
"""

import json
import math
import random
from pathlib import Path
from statistics import NormalDist

import mpmath
import pytest
from scipy.special import kolmogorov as scipy_kolmogorov
from scipy.stats import norm as scipy_norm

from metaplot.numerics import (
    Probability,
    arctanh,
    kolmogorov_sf,
    std_normal_quantile,
    std_normal_sf,
)

# The stdlib CDF, 0.5 * (1 + erf(x / sqrt 2)): an erf-based counterpart to
# the erfc-based std_normal_sf.
_STD_NORMAL_CDF = NormalDist().cdf

ORACLE_TABLE = json.loads(
    (Path(__file__).parent / "oracles" / "erf_table.json").read_text()
)


def test_probability_accepts_unit_interval():
    assert Probability(0.0) == 0.0
    assert Probability(1.0) == 1.0
    assert float(Probability(0.25)) == 0.25


@pytest.mark.parametrize("bad", [-0.001, 1.0001, 2.0, float("nan"), float("inf")])
def test_probability_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        Probability(bad)


def test_erf_matches_50_point_oracle():
    for x, expected in ORACLE_TABLE:
        assert math.erf(x) == pytest.approx(expected, abs=1e-12)


def test_erf_trivial_values():
    assert math.erf(0.0) == 0.0
    assert math.erf(1.0) == pytest.approx(0.8427007929, abs=1e-10)
    assert math.erf(-2.0) == -math.erf(2.0)


def test_erf_odd_symmetry_and_range():
    rng = random.Random(4242)
    for _ in range(500):
        x = rng.uniform(-6.0, 6.0)
        assert math.erf(-x) == pytest.approx(-math.erf(x), abs=1e-15)
        assert -1.0 <= math.erf(x) <= 1.0


def test_sf_rejects_non_finite():
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError):
            std_normal_sf(bad)


def test_erfc_complements_erf():
    for x in (-5.0, -1.3, 0.0, 0.4, 2.7, 6.0):
        assert math.erfc(x) == pytest.approx(1.0 - math.erf(x), abs=1e-14)


def test_sf_paper_tail_values():
    # Standard normal survival at integer thresholds, 5-decimal display.
    assert std_normal_sf(0.0) == pytest.approx(0.50000, abs=5e-6)
    assert std_normal_sf(1.0) == pytest.approx(0.15866, abs=5e-6)
    assert std_normal_sf(2.0) == pytest.approx(0.02275, abs=5e-6)
    assert std_normal_sf(3.0) == pytest.approx(0.00135, abs=5e-6)


def test_sf_matches_scipy():
    for i in range(-80, 81):
        x = i / 10.0
        assert std_normal_sf(x) == pytest.approx(scipy_norm.sf(x), rel=1e-12, abs=1e-300)


def test_sf_cdf_complement():
    for i in range(-600, 601):
        x = i / 100.0
        assert std_normal_sf(x) + _STD_NORMAL_CDF(x) == pytest.approx(1.0, abs=1e-14)


def test_sf_strictly_decreasing():
    # strict on [-6, 6]; outside that the step change falls below one ulp
    # of a double near 1.0, so only non-strict decrease is representable
    prev = std_normal_sf(-6.0)
    for i in range(-599, 601):
        cur = std_normal_sf(i / 100.0)
        assert cur < prev
        prev = cur
    prev = std_normal_sf(-9.0)
    for i in range(-899, 901):
        cur = std_normal_sf(i / 100.0)
        assert cur <= prev
        prev = cur


def test_sf_symmetry():
    for i in range(0, 500):
        x = i / 100.0
        assert std_normal_sf(-x) == pytest.approx(1.0 - std_normal_sf(x), abs=1e-14)


def test_quantile_center_and_table_inversions():
    assert std_normal_quantile(0.5) == 0.0
    assert std_normal_quantile(1.0 - std_normal_sf(2.0)) == pytest.approx(2.0, abs=1e-6)
    assert std_normal_quantile(std_normal_sf(1.0)) == pytest.approx(-1.0, abs=1e-6)


def test_quantile_sf_consistency():
    for i in range(1, 2000):
        p = i / 2000.0
        q = std_normal_quantile(p)
        assert abs(std_normal_sf(q) - (1.0 - p)) <= 1e-10


def test_quantile_round_trip_1000_points():
    rng = random.Random(20240818)
    for _ in range(1000):
        x = rng.uniform(-5.0, 5.0)
        assert std_normal_quantile(_STD_NORMAL_CDF(x)) == pytest.approx(x, abs=1e-8)


def test_quantile_matches_mpmath():
    # Forward relative error of q = quantile(p): the 50-digit residual
    # (Phi(q) - p) / phi(q) is the distance from q to the exact quantile.
    # Grid over (0, 1) plus log-spaced tails down to 1e-300 (lower) and
    # 1e-15 (upper, where 1 - p is still representable).
    ps = [i / 1001 for i in range(1, 1001)]
    ps += [10.0 ** (-3 - 297 * k / 399) for k in range(400)]
    ps += [1.0 - 10.0 ** (-3 - 12 * k / 99) for k in range(100)]
    with mpmath.workdps(50):
        for p in ps:
            q = mpmath.mpf(std_normal_quantile(p))
            rel = (mpmath.ncdf(q) - mpmath.mpf(p)) / mpmath.npdf(q) / q
            assert abs(rel) <= 1e-14, p


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.1])
def test_quantile_rejects_boundary(bad):
    with pytest.raises(ValueError):
        std_normal_quantile(bad)


def test_arctanh_closed_form():
    assert arctanh(0.0) == 0.0
    assert arctanh(0.5) == pytest.approx(0.5493061443340548, abs=1e-14)  # 0.5*ln(3)
    rng = random.Random(99)
    for _ in range(300):
        r = rng.uniform(-0.999, 0.999)
        assert arctanh(r) == pytest.approx(0.5 * math.log((1 + r) / (1 - r)), abs=1e-14)
        assert arctanh(-r) == -arctanh(r)


def test_arctanh_inverts_tanh():
    assert arctanh(math.tanh(1.0)) == pytest.approx(1.0, abs=1e-10)
    for i in range(-50, 51):
        z = i / 10.0
        assert arctanh(math.tanh(z)) == pytest.approx(z, abs=1e-10)


def test_arctanh_strictly_increasing():
    prev = arctanh(-0.99)
    for i in range(-98, 100):
        cur = arctanh(i / 100.0)
        assert cur > prev
        prev = cur


@pytest.mark.parametrize("bad", [1.0, -1.0, 1.5, float("nan")])
def test_arctanh_rejects_unit_and_beyond(bad):
    with pytest.raises(ValueError):
        arctanh(bad)


def test_kolmogorov_sf_matches_scipy():
    for i in range(1, 400):
        t = i / 100.0
        assert kolmogorov_sf(t) == pytest.approx(scipy_kolmogorov(t), abs=1e-12)
    assert kolmogorov_sf(0.0) == 1.0
    assert kolmogorov_sf(10.0) == pytest.approx(0.0, abs=1e-15)
