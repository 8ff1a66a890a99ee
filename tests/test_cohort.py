import json
import math
import warnings

from dataclasses import asdict, replace
from pathlib import Path
from statistics import NormalDist, _normal_dist_inv_cdf

import numpy as np
import pytest
from conftest import Pcg32
from numpy.random import PCG64

import metaplot
import metaplot.cohort

from metaplot.cohort import (
    CohortConfig,
    Confounder,
    RankDeficiencyError,
    gap_decomposition,
    gap_over_seeds,
    generate_cohort,
    ols_fit,
)
from metaplot.cohort import _AS241_CENTRAL_DEN, _AS241_CENTRAL_NUM, _std_normal_quantiles, _uniforms


def test_pcg32_reference_stream():
    # The tests' data generator (conftest): first outputs of the pcg32 reference
    # implementation for seed=42, stream=54 (published with the minimal C version).
    rng = Pcg32(42, stream=54)
    expected = [0xA15C02B7, 0x7B47F409, 0xBA1D3330, 0x83D2F293, 0xBFA4784B, 0xCBED606E]
    assert [rng.next_uint32() for _ in range(6)] == expected


def test_pcg32_deterministic_and_seed_sensitive():
    a = [Pcg32(123).random() for _ in range(5)]
    b = [Pcg32(123).random() for _ in range(5)]
    c = [Pcg32(124).random() for _ in range(5)]
    assert a == b
    assert a != c
    assert all(0.0 < u < 1.0 for u in a)


def test_pcg32_normal_moments():
    rng = Pcg32(2024)
    draws = [rng.normal() for _ in range(20000)]
    assert np.mean(draws) == pytest.approx(0.0, abs=0.03)
    assert np.std(draws) == pytest.approx(1.0, abs=0.03)


def test_pcg64_raw_stream_is_numpys_fixed_stream():
    # numpy fixes this integer stream for a seed (NEP 19): every cohort rests on it
    assert PCG64(0).random_raw(3).tolist() == [
        11749869230777074271, 4976686463289251617, 755828109848996024]


def test_uniforms_stay_inside_the_open_interval(monkeypatch):
    class Raw:  # raw draws whose top 32 bits are 0 or 2**32 - 1, low bits clear or set
        def __init__(self, seed):
            pass

        def random_raw(self, m):
            return np.array([0, 2**32 - 1, (2**32 - 1) << 32, 2**64 - 1], dtype=np.uint64)[:m]

    monkeypatch.setattr(metaplot.cohort, "PCG64", Raw)
    lo, hi = 0.5 / 2**32, (2**32 - 0.5) / 2**32
    assert _uniforms(0, 4).tolist() == [lo, lo, hi, hi]
    assert 0.0 < lo and hi < 1.0
    monkeypatch.undo()
    assert _uniforms(7, 0).dtype == np.float64 and _uniforms(7, 0).shape == (0,)


def test_config_validation():
    with pytest.raises(ValueError, match="identifiable"):
        CohortConfig(n_per_group=2, beta0=0, beta1=0,
                     confounders=(Confounder(1, 0, 0, 1),))
    with pytest.raises(ValueError):
        CohortConfig(n_per_group=10, beta0=0, beta1=0, noise_sigma=-1)
    with pytest.raises(ValueError):
        Confounder(1.0, 0.0, 0.0, 0.0)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64 - 1\]"):
            CohortConfig(n_per_group=10, beta0=0, beta1=0, seed=seed)
    assert CohortConfig(n_per_group=10, beta0=0, beta1=0, seed=2**64 - 1).seed == 2**64 - 1
    for value in ({1.0}, 10**5000):  # no JSON text holds these, and the message still forms
        with pytest.raises(ValueError, match="beta0 must be a finite JSON number, got a Python"):
            CohortConfig(n_per_group=10, beta0=value, beta1=0)


def test_config_json_round_trip():
    cfg = CohortConfig(
        n_per_group=50,
        beta0=1.5,
        beta1=-2.0,
        confounders=(Confounder(0.5, -1.0, 0.0, 2.0),),
        noise_sigma=0.3,
        seed=9,
    )
    again = CohortConfig.from_json(json.dumps(asdict(cfg)))
    assert again == cfg


def test_config_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown cohort config"):
        CohortConfig.from_json('{"n_per_group": 5, "beta0": 0, "beta1": 0, "bogus": 1}')


def test_generate_cohort_zero_noise_exact_outcomes():
    cfg = CohortConfig(n_per_group=4, beta0=10.0, beta1=-5.0)
    cohort = generate_cohort(cfg)
    male = cohort.y[:4]
    female = cohort.y[4:]
    assert np.all(male == 10.0)
    assert np.all(female == 5.0)
    assert cohort.x.shape == (8, 2)


def test_generate_cohort_byte_identical_for_fixed_seed():
    cfg = CohortConfig(
        n_per_group=30,
        beta0=1.0,
        beta1=0.5,
        confounders=(Confounder(1.0, -1.0, 0.0, 1.0),),
        noise_sigma=0.7,
        seed=321,
    )
    a = generate_cohort(cfg)
    b = generate_cohort(cfg)
    assert a.x.tobytes() == b.x.tobytes()
    assert a.y.tobytes() == b.y.tobytes()


def loop_cohort(config):
    """The one-draw-at-a-time generator generate_cohort must reproduce: each
    draw mean + sigma * NormalDist().inv_cdf(u), u from the top 32 bits of
    PCG64's next raw draw, in Python ints."""
    bits = PCG64(config.seed)

    def normal(mean, sigma):
        return mean + sigma * NormalDist().inv_cdf(((bits.random_raw() >> 32) + 0.5) / 2**32)

    n = config.n_per_group
    k = len(config.confounders)
    x = np.empty((2 * n, 2 + k), dtype=float)
    eps = np.zeros(2 * n, dtype=float)
    row = 0
    for group in (0.0, 1.0):
        for _ in range(n):
            x[row, 0] = 1.0
            x[row, 1] = group
            for j, conf in enumerate(config.confounders):
                mean = conf.mean_f if group == 1.0 else conf.mean_m
                x[row, 2 + j] = normal(mean, conf.sigma)
            if config.noise_sigma > 0.0:
                eps[row] = normal(0.0, config.noise_sigma)
            row += 1
    betas = np.array(
        [config.beta0, config.beta1] + [c.beta for c in config.confounders], dtype=float
    )
    return x, x @ betas + eps


DEMO_CONFIG = CohortConfig.from_json(
    (Path(metaplot.__file__).parent / "data" / "demo_cohort.json").read_text()
)


@pytest.mark.parametrize(
    "config",
    [
        CohortConfig(n_per_group=5, beta0=1.0, beta1=-2.0, seed=4),
        CohortConfig(n_per_group=40, beta0=0.5, beta1=1.5, noise_sigma=0.3, seed=9),
        CohortConfig(
            n_per_group=60,
            beta0=-1.0,
            beta1=0.25,
            confounders=(Confounder(0.5, 1.0, -0.25, 0.8), Confounder(-1.25, 0.0, 2.0, 3.0)),
            seed=2**64 - 1,
        ),
    ]
    + [replace(DEMO_CONFIG, seed=s) for s in (0, 7, 8, 26, 123456789)],
)
def test_generate_cohort_equals_loop_oracle(config):
    x, y = loop_cohort(config)
    cohort = generate_cohort(config)
    assert cohort.x.tobytes() == x.tobytes()
    assert cohort.y.tobytes() == y.tobytes()


def test_inv_cdf_kernel_equals_public_method_bit_for_bit():
    # generate_cohort calls the C kernel behind NormalDist().inv_cdf directly.
    # A CPython that changes or drops it fails here instead of changing gap.json.
    lo, hi = (0 + 0.5) / 4294967296.0, (0xFFFFFFFF + 0.5) / 4294967296.0  # _uniforms' extremes
    assert 0.0 < lo and hi < 1.0  # so the method's 0 < p < 1 check never fires for a draw
    ps = [lo, hi, 0.5]
    # AS241's branch points: |p - 0.5| = 0.425, and r = sqrt(-log(p)) = 5
    for p in (0.075, 0.925, math.exp(-25.0)):
        ps += [math.nextafter(p, 0.0), p, math.nextafter(p, 1.0)]
    for p in ps:
        assert _normal_dist_inv_cdf(p, 0.0, 1.0).hex() == NormalDist().inv_cdf(p).hex(), p


def _branch_point_neighbours(steps):
    """The uniforms within `steps` nextafter steps of AS241's branch points
    (|p - 0.5| = 0.425 and r = sqrt(-log(p)) = 5), and of 0.5 without 0.5
    itself, which no draw can be."""
    ps = [0.075, 0.925, math.exp(-25.0)]
    for p in (*ps, 0.5):
        lo = hi = p
        for _ in range(steps):
            lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, 1.0)
            ps += [lo, hi]
    return ps


def test_std_normal_quantiles_equal_public_method_bit_for_bit():
    # generate_cohort's normals: numpy's central branch and the C kernel's tails.
    extremes = [(0 + 0.5) / 4294967296.0, (0xFFFFFFFF + 0.5) / 4294967296.0]
    every_4096th = (np.arange(0, 2**32, 4096, dtype=np.float64) + 0.5) / 4294967296.0
    for u in (
        np.array(extremes + _branch_point_neighbours(50)),
        every_4096th,
        np.empty(0),  # the width-0 config draws none
    ):
        got = _std_normal_quantiles(u)
        want = np.array([NormalDist().inv_cdf(p) for p in u.tolist()], dtype=np.float64)
        assert got.dtype == np.float64 and got.shape == u.shape
        assert got.tobytes() == want.tobytes()


def test_as241_central_branch_is_plain_float_arithmetic():
    # The central branch, in plain Python floats and CPython's Horner order,
    # equals the public method bit for bit: the premise of the numpy branch.
    # A CPython whose C kernel fuses multiply-adds fails here first.
    def central(p):
        q = p - 0.5
        r = 0.180625 - q * q
        num = den = 0.0
        for a, b in zip(_AS241_CENTRAL_NUM, _AS241_CENTRAL_DEN):
            num, den = num * r + a, den * r + b
        return num * q / den

    ps = [(k + 0.5) / 4294967296.0 for k in range(0, 2**32, 2**15)]
    ps += _branch_point_neighbours(50)
    ps = [p for p in ps if abs(p - 0.5) <= 0.425]
    assert len(ps) > 100_000
    for p in ps:
        assert central(p).hex() == NormalDist().inv_cdf(p).hex(), p


@pytest.mark.parametrize(
    "config",
    [DEMO_CONFIG, CohortConfig(n_per_group=40, beta0=1.0, beta1=-2.0)],
    ids=["demo", "width-0"],
)
def test_generate_cohort_raises_no_floating_point_warning(config):
    # The central form's values at tail draws are thrown away, but computed:
    # they must stay finite outside gap_decomposition's np.errstate too.
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        cohort = generate_cohort(config)
    assert np.isfinite(cohort.x).all() and np.isfinite(cohort.y).all()


def test_confounder_group_means_shift():
    cfg = CohortConfig(
        n_per_group=4000,
        beta0=0.0,
        beta1=0.0,
        confounders=(Confounder(1.0, mean_f=-1.5, mean_m=0.5, sigma=2.0),),
        seed=11,
    )
    cohort = generate_cohort(cfg)
    col = cohort.x[:, 2]
    diff = col[4000:].mean() - col[:4000].mean()
    bound = 4.0 * 2.0 / math.sqrt(4000)
    assert abs(diff - (-2.0)) <= bound


def brute_force_normal_equations(x, y):
    # Independent oracle: explicit Gaussian elimination on X'X b = X'y.
    x = [[float(v) for v in row] for row in x]
    y = [float(v) for v in y]
    p = len(x[0])
    xtx = [[sum(r[i] * r[j] for r in x) for j in range(p)] for i in range(p)]
    xty = [sum(r[i] * yi for r, yi in zip(x, y)) for i in range(p)]
    aug = [xtx[i] + [xty[i]] for i in range(p)]
    for col in range(p):
        pivot = max(range(col, p), key=lambda r: abs(aug[r][col]))
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(p):
            if r != col and aug[col][col] != 0.0:
                f = aug[r][col] / aug[col][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][p] / aug[i][i] for i in range(p)]


def test_ols_exact_line():
    x = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
    y = np.array([0.0, 2.0, 4.0])
    fit = ols_fit(x, y)
    assert fit.coefficients[0] == pytest.approx(0.0, abs=1e-12)
    assert fit.coefficients[1] == pytest.approx(2.0, abs=1e-12)
    assert fit.residual_sd == pytest.approx(0.0, abs=1e-12)


def test_ols_matches_normal_equation_oracle():
    rng = Pcg32(777)
    x = np.array([[1.0, rng.normal(), rng.normal()] for _ in range(50)])
    y = np.array([rng.normal() for _ in range(50)])
    fit = ols_fit(x, y)
    oracle = brute_force_normal_equations(x, y)
    assert fit.coefficients == pytest.approx(oracle, abs=1e-9)


def test_ols_residuals_orthogonal_to_columns():
    rng = Pcg32(778)
    x = np.array([[1.0, rng.normal(), rng.normal(), rng.normal()] for _ in range(120)])
    y = np.array([rng.normal() for _ in range(120)])
    fit = ols_fit(x, y)
    scale = np.linalg.norm(y) * np.linalg.norm(x, axis=0)
    dots = np.abs(x.T @ (y - x @ fit.coefficients))
    assert np.all(dots <= 1e-8 * np.maximum(scale, 1.0))


def test_ols_duplicated_column_raises():
    col = np.arange(10.0)
    x = np.column_stack([np.ones(10), col, col])
    with pytest.raises(RankDeficiencyError):
        ols_fit(x, np.arange(10.0))


def _near_dependent_design(rows, cols, delta, seed):
    """Intercept, group indicator, normal columns; the last column is a
    combination of the others plus delta-sized noise."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, cols))
    x[:, 0] = 1.0
    x[:, 1] = np.arange(rows) >= rows // 2
    x[:, -1] = x[:, :-1] @ rng.standard_normal(cols - 1) + delta * rng.standard_normal(rows)
    return x


@pytest.mark.parametrize("rows", [6, 50, 400, 4000])
@pytest.mark.parametrize("cols", [3, 5])
@pytest.mark.parametrize("delta", [0.0, 1e-18, 1e-17, 1e-9, 1e-6, 1e-2])
def test_ols_rank_decisions_match_matrix_rank(rows, cols, delta):
    # Deltas stay two decades or more from the tolerance (~ rows * eps); in
    # that band the R-diagonal and SVD rules may legitimately disagree.
    for seed in range(5):
        x = _near_dependent_design(rows, cols, delta, seed)
        deficient = np.linalg.matrix_rank(x) < cols
        assert deficient == (delta < 1e-12)
        if deficient:
            with pytest.raises(RankDeficiencyError):
                ols_fit(x, np.ones(rows))
        else:
            ols_fit(x, np.ones(rows))


def test_ols_long_dependent_column_raises():
    # The column is 1e10 times the intercept: max|R_ii| (the indicator's,
    # ~sqrt(rows)) would set the tolerance 1e10 times too low to see it.
    x = np.column_stack([np.ones(4000), np.arange(4000) >= 2000, np.full(4000, 1e10)])
    assert np.linalg.matrix_rank(x) < 3
    with pytest.raises(RankDeficiencyError):
        ols_fit(x, np.ones(4000))


def test_ols_shape_validation():
    with pytest.raises(ValueError):
        ols_fit(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        ols_fit(np.ones((5, 2)), np.ones(4))


def test_gap_no_confounders_both_equal_beta1():
    cfg = CohortConfig(n_per_group=20, beta0=4.0, beta1=-3.0)
    rep = gap_decomposition(cfg)
    assert rep.gap_unadjusted == pytest.approx(-3.0, abs=1e-10)
    assert rep.gap_adjusted == pytest.approx(-3.0, abs=1e-10)


def test_gap_zero_noise_recovers_all_betas():
    cfg = CohortConfig(
        n_per_group=200,
        beta0=2.0,
        beta1=1.25,
        confounders=(
            Confounder(beta=2.0, mean_f=-1.0, mean_m=0.0, sigma=1.0),
            Confounder(beta=-0.75, mean_f=0.5, mean_m=-0.5, sigma=2.0),
        ),
        noise_sigma=0.0,
        seed=5,
    )
    rep = gap_decomposition(cfg)
    assert rep.gap_adjusted == pytest.approx(1.25, abs=1e-8)
    assert rep.coefficients == pytest.approx([2.0, 1.25, 2.0, -0.75], abs=1e-8)
    assert rep.residual_sd == pytest.approx(0.0, abs=1e-8)


def test_gap_single_confounder_analytic_bias():
    # beta1=0, one confounder with beta=2 and group mean difference -1:
    # the unadjusted gap absorbs 2 * (-1) = -2, the adjusted gap is 0.
    cfg = CohortConfig(
        n_per_group=60000,
        beta0=0.0,
        beta1=0.0,
        confounders=(Confounder(beta=2.0, mean_f=-1.0, mean_m=0.0, sigma=0.05),),
        noise_sigma=0.0,
        seed=13,
    )
    rep = gap_decomposition(cfg)
    assert rep.gap_unadjusted == pytest.approx(-2.0, abs=1e-2)
    assert rep.gap_adjusted == pytest.approx(0.0, abs=1e-6)


def test_gap_null_confounder_changes_little():
    base = CohortConfig(
        n_per_group=500,
        beta0=1.0,
        beta1=-0.8,
        confounders=(Confounder(beta=1.0, mean_f=-1.0, mean_m=0.0, sigma=1.0),),
        noise_sigma=1.0,
        seed=88,
    )
    with_null = CohortConfig(
        n_per_group=500,
        beta0=1.0,
        beta1=-0.8,
        confounders=base.confounders + (Confounder(0.0, 0.3, 0.0, 1.0),),
        noise_sigma=1.0,
        seed=88,
    )
    reps = [gap_decomposition(c) for c in (base, with_null)]
    # the group coefficient's standard error is roughly noise*sqrt(2/n)
    se = 1.0 * math.sqrt(2.0 / 500.0)
    assert abs(reps[0].gap_adjusted - reps[1].gap_adjusted) <= 3.0 * se


def test_gap_over_seeds_replicates():
    cfg = CohortConfig(n_per_group=20, beta0=0.0, beta1=1.0, noise_sigma=0.5, seed=3)
    reports = gap_over_seeds(cfg, [3, 4, 5])
    assert len(reports) == 3
    assert reports[0] == gap_decomposition(cfg)
