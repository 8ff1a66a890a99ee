import math

import pytest

from metaplot.gaussian import (
    GaussianSpec,
    PRESETS,
    curve_points,
    format_auc,
    format_ratio,
    ratio_table,
    tail_area,
)

G_MALE, G_FEMALE = PRESETS["g"]
T_MALE, T_FEMALE = PRESETS["things"]

# Published tail-area tables for the two preset distribution pairs;
# tolerance 5e-4 absorbs the source's display rounding (its SD=0 female
# entry prints 0.38730 where direct evaluation gives about 0.38744).
TABLE_G = {
    0: (0.50000, 0.38730, "1.3"),
    1: (0.15866, 0.08412, "1.9"),
    2: (0.02275, 0.00677, "3.4"),
    3: (0.00135, 0.00018, "7.3"),
}
TABLE_THINGS = {
    0: (0.50000, 0.17619, "2.8"),
    1: (0.15866, 0.02680, "5.9"),
    2: (0.02275, 0.00169, "13"),
    3: (0.00135, 0.00004, "32"),
}


def test_spec_validation():
    with pytest.raises(ValueError):
        GaussianSpec("bad", 0.0, 0.0)
    with pytest.raises(ValueError):
        GaussianSpec("bad", math.inf, 1.0)


def test_tail_area_reference_values():
    assert tail_area(GaussianSpec("m", 0, 1), 2.0) == pytest.approx(0.02275, abs=5e-6)
    assert tail_area(GaussianSpec("f", -0.93, 1), 0.0) == pytest.approx(0.17619, abs=5e-4)
    assert tail_area(GaussianSpec("f", -0.262, 0.916), 1.0) == pytest.approx(
        0.08412, abs=5e-4
    )


@pytest.mark.parametrize("threshold,expected", sorted(TABLE_G.items()))
def test_g_pair_tail_table(threshold, expected):
    auc_m, auc_f, ratio_str = expected
    assert tail_area(G_MALE, threshold) == pytest.approx(auc_m, abs=5e-4)
    assert tail_area(G_FEMALE, threshold) == pytest.approx(auc_f, abs=5e-4)
    table = ratio_table(G_MALE, G_FEMALE, [threshold])
    assert format_ratio(table.rows[0].ratio) == ratio_str


@pytest.mark.parametrize("threshold,expected", sorted(TABLE_THINGS.items()))
def test_things_pair_tail_table(threshold, expected):
    auc_m, auc_f, ratio_str = expected
    assert tail_area(T_MALE, threshold) == pytest.approx(auc_m, abs=5e-4)
    assert tail_area(T_FEMALE, threshold) == pytest.approx(auc_f, abs=5e-4)
    table = ratio_table(T_MALE, T_FEMALE, [threshold])
    assert format_ratio(table.rows[0].ratio) == ratio_str


def test_identical_specs_ratio_one():
    a = GaussianSpec("a", 0.4, 1.3)
    b = GaussianSpec("b", 0.4, 1.3)
    table = ratio_table(a, b, [0, 1, 2, 3])
    for row in table.rows:
        assert row.ratio == pytest.approx(1.0, abs=1e-14)


def test_ratio_strictly_increasing_for_both_preset_pairs():
    for ref, other in PRESETS.values():
        ratios = [r.ratio for r in ratio_table(ref, other, [0, 1, 2, 3]).rows]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_auc_columns_strictly_decreasing():
    table = ratio_table(G_MALE, G_FEMALE, [0, 0.5, 1, 1.5, 2])
    refs = [r.auc_ref for r in table.rows]
    others = [r.auc_other for r in table.rows]
    assert all(b < a for a, b in zip(refs, refs[1:]))
    assert all(b < a for a, b in zip(others, others[1:]))


def test_tail_area_limits():
    spec = GaussianSpec("x", 0.3, 1.1)
    assert tail_area(spec, -40.0) == pytest.approx(1.0, abs=1e-12)
    assert tail_area(spec, 60.0) == pytest.approx(0.0, abs=1e-12)


def test_location_equivariance():
    ref = GaussianSpec("r", 0.0, 1.0)
    other = GaussianSpec("o", -0.7, 0.9)
    shift = 2.345
    for t in (0.0, 1.0, 2.5):
        a = tail_area(ref, t)
        b = tail_area(GaussianSpec("r", ref.mu + shift, ref.sigma), t + shift)
        assert a == pytest.approx(b, abs=1e-12)
        c = tail_area(other, t)
        d = tail_area(GaussianSpec("o", other.mu + shift, other.sigma), t + shift)
        assert c == pytest.approx(d, abs=1e-12)


def test_ratio_overflow_flagged():
    far = GaussianSpec("far", -50.0, 0.5)
    table = ratio_table(G_MALE, far, [0.0])
    row = table.rows[0]
    assert row.overflow
    assert math.isinf(row.ratio)
    # A subnormal comparison tail is not zero, yet 0.5 / it overflows.
    for mu in (-37.6, -38.0):
        row = ratio_table(G_MALE, GaussianSpec("far", mu, 1.0), [0.0]).rows[0]
        assert row.auc_other > 0.0
        assert row.overflow
        assert math.isinf(row.ratio)


def test_thresholds_must_ascend():
    with pytest.raises(ValueError):
        ratio_table(G_MALE, G_FEMALE, [1.0, 0.0])
    with pytest.raises(ValueError):
        ratio_table(G_MALE, G_FEMALE, [])


def test_curve_points_symmetry_and_peak():
    pts = curve_points(GaussianSpec("m", 0, 1), -4.0, 4.0, 9)
    xs = [x for x, _ in pts]
    ds = [d for _, d in pts]
    assert xs[0] == -4.0 and xs[-1] == 4.0
    assert ds == pytest.approx(ds[::-1], abs=1e-15)
    assert max(pts, key=lambda p: p[1])[0] == pytest.approx(0.0, abs=1e-12)


def test_curve_peak_tracks_mean():
    pts = curve_points(GaussianSpec("f", -0.93, 1.0), -5.0, 4.0, 181)
    peak_x = max(pts, key=lambda p: p[1])[0]
    assert peak_x == pytest.approx(-0.93, abs=0.05)


def test_curve_density_integrates_to_one():
    # Trapezoid quadrature over (-8, 8) as the independent oracle.
    for spec in (GaussianSpec("m", 0, 1), GaussianSpec("f", -0.262, 0.916)):
        pts = curve_points(spec, -8.0, 8.0, 4001)
        h = pts[1][0] - pts[0][0]
        total = h * (sum(d for _, d in pts) - 0.5 * (pts[0][1] + pts[-1][1]))
        assert total == pytest.approx(1.0, abs=1e-6)


def test_curve_points_rejects_degenerate_range():
    with pytest.raises(ValueError):
        curve_points(G_MALE, 2.0, 2.0, 10)
    with pytest.raises(ValueError):
        curve_points(G_MALE, 0.0, 1.0, 1)


def test_display_formats():
    assert format_auc(0.0227501) == "0.02275"
    assert format_ratio(1.2905) == "1.3"
    assert format_ratio(9.96) == "10.0"
    assert format_ratio(13.42) == "13"
    assert format_ratio(31.78) == "32"
    assert format_ratio(math.inf) == "inf"
