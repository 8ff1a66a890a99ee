import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from metaplot.pplot import (
    ClassifyThresholds,
    DEFAULT_CLASSIFY_THRESHOLDS,
    PlotClass,
    _kolmogorov_sf,
    _ks_sorted,
    build_plot,
    classify,
)
from metaplot.ingest import CorrelationClass

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")
ICC = CorrelationClass.ICC


def test_ks_single_point():
    stat, _ = _ks_sorted([0.5])
    assert stat == pytest.approx(0.5, abs=1e-15)


def test_ks_hand_evaluated_triplet():
    # sup distance at the jump points of the empirical CDF of {.25,.5,.75}
    stat = build_plot([0.25, 0.5, 0.75], ICC).diagnostics.ks_statistic
    assert stat == pytest.approx(0.25, abs=1e-15)


def test_ks_uniform_grid_small_statistic():
    n = 99
    grid = [(i + 1) / (n + 1) for i in range(n)]
    d = build_plot(grid, ICC).diagnostics
    stat, p = d.ks_statistic, d.ks_p
    assert stat <= 0.01 + 1.0 / n
    assert p > 0.99


def test_ks_matches_scipy_on_random_sets():
    rng = random.Random(5150)
    for _ in range(25):
        ps = [rng.random() for _ in range(rng.randint(5, 60))]
        d = build_plot(ps, ICC).diagnostics
        stat, p = d.ks_statistic, d.ks_p
        ref = kstest(ps, "uniform")
        assert stat == pytest.approx(ref.statistic, abs=1e-12)
        # scipy uses the exact small-sample distribution; the asymptotic
        # series should be close but conservative for moderate n
        assert p >= ref.pvalue - 1e-9
        assert p == pytest.approx(ref.pvalue, abs=0.12)


def test_ks_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"^p-value outside \[0, 1\]: 1.4$"):
        build_plot([0.2, 1.4, 0.5], ICC)
    with pytest.raises(ValueError, match="at least 3 values, got 0"):
        build_plot([], ICC)


def test_build_plot_sorts_and_ranks():
    plot = build_plot([0.8, 0.2, 0.6, 0.4], ICC)
    assert plot.ps == (0.2, 0.4, 0.6, 0.8)
    assert plot.n == 4


def test_build_plot_permutation_invariant():
    rng = random.Random(31)
    ps = [rng.random() for _ in range(27)]
    base = build_plot(ps, ICC)
    for _ in range(5):
        rng.shuffle(ps)
        assert build_plot(ps, ICC) == base


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_build_plot_permutation_invariant_with_ties(data):
    # a few distinct values, alpha among them at times, so that most draws tie
    pool = data.draw(st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.05, 1.0]),
                              min_size=1, max_size=4))
    ps = data.draw(st.lists(st.sampled_from(pool), min_size=3, max_size=60))
    assert build_plot(data.draw(st.permutations(ps)), ICC) == build_plot(ps, ICC)


def reference_diagnostics(p_values, alpha):
    """build_plot's numbers written out one value at a time, as hex."""
    ps = sorted(p_values)
    n = len(ps)
    d_plus = max((i + 1) / n - p for i, p in enumerate(ps))
    d_minus = max(p - i / n for i, p in enumerate(ps))
    d = max(d_plus, d_minus)
    sxy = sxx = 0.0
    for i, p in enumerate(ps, start=1):
        x = i / (n + 1)
        sxy += x * p
        sxx += x * x
    below = sum(1 for p in ps if p < alpha) / n
    return [v.hex() for v in (d, _kolmogorov_sf(math.sqrt(n) * d), sxy / sxx, below, ps[0])]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_build_plot_diagnostics_equal_a_reference(data):
    # 0.0, 1.0 and alpha itself are drawn often, and so are ties
    alpha = data.draw(st.floats(0.001, 0.999) | st.sampled_from([0.05, 0.5]))
    pool = data.draw(st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, alpha, 1.0]),
                              min_size=1, max_size=6))
    ps = data.draw(st.lists(st.sampled_from(pool) | st.floats(0.0, 1.0),
                            min_size=3, max_size=80))
    d = build_plot(ps, ICC, alpha=alpha).diagnostics
    got = [d.ks_statistic, d.ks_p, d.slope_fit, d.frac_below_alpha, d.min_p]
    assert [float(v).hex() for v in got] == reference_diagnostics(ps, alpha)
    stat, p = _ks_sorted(sorted(ps))
    assert [stat.hex(), float(p).hex()] == reference_diagnostics(ps, alpha)[:2]


@pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan, math.inf, -math.inf])
def test_out_of_range_p_values_name_the_first_offender(bad):
    with pytest.raises(ValueError, match=rf"^p-value outside \[0, 1\]: {bad!r}$"):
        build_plot([0.2, bad, 0.5, 2.0, 0.9], ICC)


def test_build_plot_tie_handling_stable():
    plot = build_plot([0.4, 0.2, 0.4, 0.9], ICC)
    assert plot.ps == (0.2, 0.4, 0.4, 0.9)


def test_build_plot_minimum_points():
    with pytest.raises(ValueError):
        build_plot([0.1, 0.9], ICC)


def test_build_plot_warns_below_ten():
    with pytest.warns(UserWarning, match="diagnostics are weak"):
        build_plot([0.1, 0.5, 0.9], ICC)


def test_build_plot_rejects_bad_alpha():
    with pytest.raises(ValueError):
        build_plot([0.1, 0.5, 0.9], ICC, alpha=0.0)


def test_grid_pvalues_slope_one_and_small_ks():
    n = 27
    grid = [(i + 1) / (n + 1) for i in range(n)]
    plot = build_plot(grid, ICC)
    assert plot.diagnostics.slope_fit == pytest.approx(1.0, abs=1e-9)
    assert plot.diagnostics.ks_statistic <= 1.0 / (n + 1) + 1e-12
    assert plot.diagnostics.classification is PlotClass.NULL_CONSISTENT


def test_frac_below_alpha_exact_count():
    ps = [0.01, 0.04, 0.05, 0.2, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99]
    plot = build_plot(ps, ICC, alpha=0.05)
    # strictly below alpha: 0.01 and 0.04 only
    assert plot.diagnostics.frac_below_alpha == pytest.approx(0.2, abs=1e-15)


def test_all_small_pvalues_classified_effect():
    ps = [0.001 * (i + 1) for i in range(27)]
    plot = build_plot(ps, ICC, alpha=0.05)
    assert plot.diagnostics.classification is PlotClass.EFFECT_CONSISTENT
    assert plot.diagnostics.slope_fit < 0.1


def test_classify_rule_table():
    t = DEFAULT_CLASSIFY_THRESHOLDS
    assert (
        classify(0.0, 0.9, 0.3, 0.05, 27, t) is PlotClass.NULL_CONSISTENT
    )
    assert (
        classify(1.0, 0.001, 0.001, 0.05, 27, t) is PlotClass.EFFECT_CONSISTENT
    )
    assert classify(0.3, 0.2, 0.04, 0.05, 27, t) is PlotClass.AMBIGUOUS


def test_classify_extreme_min_p_blocks_null_verdict():
    # A single extreme p-value is incompatible with a null verdict even if
    # the fraction below alpha is tiny and the KS test does not reject.
    n = 27
    alpha = 0.05
    tiny = alpha * (0.1 / n) * 0.5
    assert classify(1 / n, 0.5, tiny, alpha, n) is not PlotClass.NULL_CONSISTENT
    ps = [tiny] + [(i + 1) / (n + 1) for i in range(1, n)]
    plot = build_plot(ps, ICC, alpha=alpha)
    assert plot.diagnostics.classification is not PlotClass.NULL_CONSISTENT


def test_null_rates_stated_for_the_default_thresholds():
    # the figures in the ClassifyThresholds and classify docstrings
    n, alpha, t = 27, 0.05, DEFAULT_CLASSIFY_THRESHOLDS

    def count_exceeds(k):  # P(Binomial(n, alpha) > k)
        return 1.0 - sum(math.comb(n, i) * alpha**i * (1 - alpha) ** (n - i)
                         for i in range(k + 1))

    assert round(count_exceeds(2), 4) == 0.1505
    assert round(count_exceeds(3), 4) == 0.0437
    # the default admits 3 of 27 under alpha and no more
    assert classify(3 / n, 0.9, 0.3, alpha, n, t) is PlotClass.NULL_CONSISTENT
    assert classify(4 / n, 0.9, 0.3, alpha, n, t) is PlotClass.AMBIGUOUS

    cutoff = alpha * t.null_max_frac_below / n
    assert f"{cutoff:.1e}" == "2.2e-04"
    assert round(1.0 - (1.0 - cutoff) ** n, 4) == 0.0060
    assert classify(0.0, 0.9, cutoff, alpha, n, t) is PlotClass.NULL_CONSISTENT
    assert classify(0.0, 0.9, math.nextafter(cutoff, 0.0), alpha, n, t) is PlotClass.AMBIGUOUS


def test_classify_thresholds_configurable():
    strict = ClassifyThresholds(null_max_frac_below=0.0, null_min_ks_p=0.5)
    ps = [0.03] + [0.1 * (i + 1) for i in range(9)]
    default_c = build_plot(ps, ICC, alpha=0.05).diagnostics.classification
    strict_c = build_plot(ps, ICC, alpha=0.05, thresholds=strict).diagnostics.classification
    assert default_c is PlotClass.NULL_CONSISTENT
    assert strict_c is PlotClass.AMBIGUOUS


def test_null_simulation_mostly_null_consistent():
    # 27 uniform p-values per seed should usually classify as null.
    rng = random.Random(2718)
    hits = 0
    for _ in range(200):
        ps = [rng.random() for _ in range(27)]
        if build_plot(ps, ICC).diagnostics.classification is PlotClass.NULL_CONSISTENT:
            hits += 1
    assert hits >= 170


def test_appending_duplicate_never_reorders_distinct_values():
    ps = [0.1, 0.3, 0.5, 0.7]
    base = list(build_plot(ps, ICC).ps)
    extended = list(build_plot(ps + [0.3], ICC).ps)
    assert extended == sorted(ps + [0.3])
    assert [p for p in extended if p != 0.3] == [p for p in base if p != 0.3]
