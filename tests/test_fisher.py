import itertools
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaplot.fisher import (
    HISTOGRAM_BIN_WIDTH,
    HISTOGRAM_MAX_BINS,
    AggregationMode,
    StudySummary,
    summarize_studies,
    summarize_z,
)
from metaplot.ingest import (
    CorrelationClass,
    StudyGroup,
    StudyRecord,
    group_complete_studies,
    parse_records,
)
from metaplot.numerics import Probability


def make_group(rs_ns, cls=CorrelationClass.ICC, sid="s1"):
    records = [
        StudyRecord(sid, "A", 2000, None, None, cls, r, n) for r, n in rs_ns
    ]
    # pad the other classes so the group is complete
    for other in CorrelationClass:
        if other is not cls:
            records.append(StudyRecord(sid, "A", 2000, None, None, other, 0.0, 10))
    (group,) = group_complete_studies(records).groups
    return group


def one_study(rs_ns, cls=CorrelationClass.ICC, sid="s1", **options):
    """summarize_studies on the one-study group that make_group builds."""
    (summary,) = summarize_studies([make_group(rs_ns, cls=cls, sid=sid)], cls, **options)
    return summary


def test_aggregate_mean_of_two():
    s = one_study([(0.2, 10), (0.4, 30)])
    assert s.mean_r == pytest.approx(0.3)
    assert s.n == 40  # per-class sum by default


def test_aggregate_single_record_identity():
    s = one_study([(-0.15, 60)])
    assert s.mean_r == -0.15
    assert s.n == 60


def test_aggregate_symmetric_cancellation():
    s = one_study([(0.9, 10), (-0.9, 10)])
    assert s.mean_r == pytest.approx(0.0, abs=1e-15)


def test_aggregate_shared_n_uses_study_level_n():
    assert one_study([(0.2, 25), (0.4, 25)], shared_n=True).n == 25


def test_aggregate_missing_class_raises():
    group = make_group([(0.2, 10)])
    bare = group.by_class.copy()
    del bare[CorrelationClass.ECC]
    with pytest.raises(ValueError, match="no ECC records"):
        summarize_studies([StudyGroup("s1", bare)], CorrelationClass.ECC)


def test_r_to_pvalue_null_case():
    s = one_study([(0.0, 10)])
    assert s.z_score == 0.0
    assert s.p_value == 1.0


def test_r_to_pvalue_spot_value():
    # Frozen from a 40-digit arbitrary-precision evaluation of
    # 2*Phi(-arctanh(0.5)*sqrt(27)).
    s = one_study([(0.5, 30)])
    assert s.fisher_z == pytest.approx(0.549306, abs=1e-6)
    assert s.se == pytest.approx(0.192450, abs=1e-6)
    assert s.z_score == pytest.approx(2.85428, abs=1e-4)
    assert s.p_value == pytest.approx(0.0043134706, abs=1e-9)


def test_r_to_pvalue_minimum_sample_size():
    s = one_study([(0.99, 4)])
    assert s.se == 1.0
    assert s.fisher_z == pytest.approx(2.64665, abs=1e-5)
    assert s.p_value == pytest.approx(0.0081292863, abs=1e-9)


def test_r_to_pvalue_one_sided_upper_tail():
    two = one_study([(0.3, 20)], two_sided=True)
    one = one_study([(0.3, 20)], two_sided=False)
    assert one.p_value == pytest.approx(two.p_value / 2.0, abs=1e-15)
    neg = one_study([(-0.3, 20)], two_sided=False)
    assert neg.p_value > 0.5


def test_r_to_pvalue_rejects_bad_inputs():
    # StudyRecord rejects r = 1 and n = 3 itself, so stand-in records reach
    # the pipeline's own checks.
    for r, n in [(1.0, 30), (0.5, 3)]:
        group = StudyGroup("s1", {CorrelationClass.ICC: (SimpleNamespace(r=r, n=n),)})
        with pytest.raises(ValueError):
            summarize_studies([group], CorrelationClass.ICC)


def test_p_decreases_in_abs_r_for_fixed_n():
    ps = [one_study([(r / 100.0, 25)]).p_value for r in range(0, 99, 7)]
    assert all(b < a for a, b in zip(ps, ps[1:]))


def test_p_decreases_in_n_for_fixed_r():
    ps = [one_study([(0.3, n)]).p_value for n in range(5, 200, 13)]
    assert all(b < a for a, b in zip(ps, ps[1:]))


def test_two_sided_sign_invariance():
    rng = random.Random(7)
    for _ in range(100):
        r = rng.uniform(0.0, 0.99)
        n = rng.randint(4, 500)
        assert one_study([(r, n)]).p_value == one_study([(-r, n)]).p_value


def test_p_consistent_with_stored_z():
    from metaplot.numerics import std_normal_sf

    rng = random.Random(11)
    for _ in range(100):
        s = one_study([(rng.uniform(-0.99, 0.99), rng.randint(4, 300))])
        recomputed = min(1.0, 2.0 * std_normal_sf(abs(s.z_score)))
        assert abs(recomputed - s.p_value) <= 1e-12


def test_summarize_group_mean_z_mode_keeps_invariant():
    summary = one_study([(0.2, 20), (0.6, 20)], mode=AggregationMode.MEAN_Z)
    mean_z = (math.atanh(0.2) + math.atanh(0.6)) / 2.0
    assert summary.mean_r == pytest.approx(math.tanh(mean_z), abs=1e-15)
    assert summary.fisher_z == pytest.approx(mean_z, abs=1e-12)
    assert summary.n == 40


def test_summarize_group_fields_tie_together():
    s = one_study([(0.35, 48)])
    assert s.fisher_z == pytest.approx(math.atanh(s.mean_r), abs=1e-14)
    assert s.se == pytest.approx(1.0 / math.sqrt(s.n - 3), abs=1e-15)
    assert s.z_score == pytest.approx(s.fisher_z / s.se, abs=1e-12)


def reference_summary(study_id, by_class, cls, mode, shared_n, two_sided):
    """The per-study pipeline written out from its definition, math module only.

    by_class maps each class to the study's (r, n) records of that class.
    """
    rs = [r for r, _ in by_class[cls]]
    if mode is AggregationMode.MEAN_Z:
        mean_r = math.tanh(sum(math.atanh(r) for r in rs) / len(rs))
    else:
        mean_r = sum(rs) / len(rs)
    if shared_n:
        n = max(n for records in by_class.values() for _, n in records)
    else:
        n = sum(n for _, n in by_class[cls])
    fisher_z = math.atanh(mean_r)
    se = 1.0 / math.sqrt(n - 3)
    z_score = fisher_z / se
    sf = 0.5 * math.erfc((abs(z_score) if two_sided else z_score) / math.sqrt(2.0))
    p = min(1.0, 2.0 * sf) if two_sided else sf
    return (study_id, cls, mean_r.hex(), n, fisher_z.hex(), se.hex(), z_score.hex(), p.hex())


record_values = st.tuples(
    st.floats(min_value=-0.99, max_value=0.99, allow_nan=False), st.integers(4, 5000)
)
study_sheets = st.lists(
    st.fixed_dictionaries(
        {cls: st.lists(record_values, min_size=1, max_size=5) for cls in CorrelationClass}
    ),
    min_size=1,
    max_size=4,
)


@pytest.mark.parametrize(
    "mode, shared_n, two_sided",
    list(itertools.product(AggregationMode, [False, True], [True, False])),
)
@settings(max_examples=60, deadline=None)
@given(sheet=study_sheets)
def test_summarize_studies_equals_reference(sheet, mode, shared_n, two_sided):
    # From CSV text (r written by repr, so it parses back exactly) through
    # parse_records and group_complete_studies; compared bit for bit.
    lines = ["study_id,author,year,title,journal,class,r,n"]
    lines += [
        f"s{i},A,2000,,,{cls.value},{r!r},{n}"
        for i, by_class in enumerate(sheet)
        for cls, values in by_class.items()
        for r, n in values
    ]
    result = parse_records("\n".join(lines) + "\n")
    assert not result.errors
    groups = group_complete_studies(result.records).groups
    studies = sorted((f"s{i}", by_class) for i, by_class in enumerate(sheet))
    for cls in CorrelationClass:
        got = summarize_studies(groups, cls, mode=mode, shared_n=shared_n, two_sided=two_sided)
        want = [reference_summary(sid, by_class, cls, mode, shared_n, two_sided)
                for sid, by_class in studies]
        columns = zip(got.study_id, got.cls, got.mean_r, got.n, got.fisher_z, got.se,
                      got.z_score, got.p_value)
        assert [(sid, c, m.hex(), n, z.hex(), se.hex(), zs.hex(), p.hex())
                for sid, c, m, n, z, se, zs, p in columns] == want
        # the StudySummary items, and the same groups passed as StudyGroup objects
        by_groups = summarize_studies(list(groups), cls, mode=mode, shared_n=shared_n,
                                      two_sided=two_sided)
        for summaries in (got, by_groups):
            assert [(s.study_id, s.cls, s.mean_r.hex(), s.n, s.fisher_z.hex(), s.se.hex(),
                     s.z_score.hex(), s.p_value.hex()) for s in summaries] == want
            assert all(type(s.p_value) is Probability for s in summaries)


@pytest.mark.parametrize("mode", list(AggregationMode))
def test_one_negative_zero_record_writes_positive_zero_mean_r(mode):
    # sum([-0.0]) is 0.0, so the one-record mean is +0.0 in both modes, as it
    # was when every class went through sum(list) / len.
    rows = [f"s1,A,2000,,,{cls.value},{'-0.0' if cls is CorrelationClass.ICC else '0.1'},10"
            for cls in CorrelationClass]
    result = parse_records("study_id,author,year,title,journal,class,r,n\n" + "\n".join(rows))
    assert result.records[0].r.hex() == (-0.0).hex()
    groups = group_complete_studies(result.records).groups
    (s,) = summarize_studies(groups, CorrelationClass.ICC, mode=mode)
    assert s.mean_r.hex() == s.fisher_z.hex() == (0.0).hex()
    assert s.p_value == 1.0


def test_summarize_studies_error_messages():
    group = make_group([(0.2, 10)])
    bare = dict(group.by_class)
    del bare[CorrelationClass.ECC]
    with pytest.raises(ValueError, match=r"^study 's1' has no ECC records$"):
        summarize_studies([group, StudyGroup("s1", bare)], CorrelationClass.ECC)
    # StudyRecord itself rejects n < 4 and |r| >= 1, so stand-in records reach
    # the pipeline's own checks.
    small_n = StudyGroup("s2", {CorrelationClass.ICC: (SimpleNamespace(r=0.2, n=3),)})
    with pytest.raises(ValueError, match=r"^sample size must exceed 3$"):
        summarize_studies([small_n], CorrelationClass.ICC)
    unit_r = StudyGroup("s3", {CorrelationClass.ICC: (SimpleNamespace(r=1.0, n=30),)})
    for mode in AggregationMode:
        with pytest.raises(ValueError, match=r"^arctanh requires \|r\| < 1, got 1\.0$"):
            summarize_studies([unit_r], CorrelationClass.ICC, mode=mode)


def summaries_from_z(zs, cls=CorrelationClass.ICC):
    # Build summaries with prescribed z-scores (r chosen to invert the pipeline).
    out = []
    for i, z in enumerate(zs):
        n = 28
        r = math.tanh(z / math.sqrt(n - 3))
        out.append(one_study([(r, n)], cls=cls, sid=f"s{i}"))
        assert out[-1].z_score == pytest.approx(z, abs=1e-9)
    return out


def test_summarize_z_median_of_symmetric_triplet():
    zsum = summarize_z(summaries_from_z([-1.0, 0.0, 1.0]), CorrelationClass.ICC)
    assert zsum.median == pytest.approx(0.0, abs=1e-9)
    assert zsum.count == 3


def test_summarize_z_quantiles_even_count():
    # Linear interpolation between closest ranks: for {1,2,3,4} the quartile
    # positions are 0.75, 1.5, 2.25 giving 1.75, 2.5, 3.25.
    zsum = summarize_z(summaries_from_z([1.0, 2.0, 3.0, 4.0]), CorrelationClass.ICC)
    assert zsum.median == pytest.approx(2.5, abs=1e-9)
    assert zsum.q1 == pytest.approx(1.75, abs=1e-9)
    assert zsum.q3 == pytest.approx(3.25, abs=1e-9)
    assert zsum.min == pytest.approx(1.0, abs=1e-9)
    assert zsum.max == pytest.approx(4.0, abs=1e-9)


def test_summarize_z_single_value_degenerate():
    zsum = summarize_z(summaries_from_z([0.7]), CorrelationClass.ICC)
    assert zsum.min == zsum.median == zsum.max == pytest.approx(0.7, abs=1e-9)


def test_summarize_z_quantiles_ordered_and_histogram_sums():
    rng = random.Random(3)
    zs = [rng.uniform(-4, 4) for _ in range(41)]
    zsum = summarize_z(summaries_from_z(zs), CorrelationClass.ICC)
    assert zsum.min <= zsum.q1 <= zsum.median <= zsum.q3 <= zsum.max
    assert sum(c for _, _, c in zsum.histogram) == zsum.count
    for lo, hi, _ in zsum.histogram:
        assert hi - lo == pytest.approx(0.5, abs=1e-12)


def test_summarize_z_empty_raises():
    with pytest.raises(ValueError):
        summarize_z([], CorrelationClass.ICC)


def z_panel(zs):
    summaries = [StudySummary(f"s{i}", CorrelationClass.ICC, 0.0, 4, 0.0, 1.0, z, Probability(1.0))
                 for i, z in enumerate(zs)]
    return summarize_z(summaries, CorrelationClass.ICC)


@pytest.mark.parametrize(
    "zs, width",
    [
        ([-3.2, 0.1, 4.9], HISTOGRAM_BIN_WIDTH),
        ([0.0, HISTOGRAM_MAX_BINS * HISTOGRAM_BIN_WIDTH], HISTOGRAM_BIN_WIDTH),
        ([0.0, HISTOGRAM_MAX_BINS * HISTOGRAM_BIN_WIDTH + 0.25], 2 * HISTOGRAM_BIN_WIDTH),
        ([-0.25, HISTOGRAM_MAX_BINS * HISTOGRAM_BIN_WIDTH], 2 * HISTOGRAM_BIN_WIDTH),
        # n = 10**18 and r = 0.999999: z = 7.254e9, 1.45e10 bins of 0.5; z / 1000
        # = 7254328.67 rounds up to the multiple 7254329.0
        ([0.3, math.atanh(0.999999) * math.sqrt(10**18 - 3)], 7254329.0),
    ],
)
def test_histogram_widens_bins_to_the_smallest_multiple_that_fits(zs, width):
    histogram = z_panel(zs).histogram
    assert len(histogram) <= HISTOGRAM_MAX_BINS
    assert sum(c for _, _, c in histogram) == len(zs)
    assert {hi - lo for lo, hi, _ in histogram} == {width}
    assert histogram[0][0] <= min(zs) and histogram[-1][1] >= max(zs)
    if width > HISTOGRAM_BIN_WIDTH:  # the next narrower multiple needs too many bins
        narrower = width - HISTOGRAM_BIN_WIDTH
        lo_edge = math.floor(min(zs) / narrower) * narrower
        assert math.ceil((max(zs) - lo_edge) / narrower) > HISTOGRAM_MAX_BINS
