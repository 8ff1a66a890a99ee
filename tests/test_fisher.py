import dataclasses
import itertools
import math
import random
import tracemalloc
from array import array
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import parse_text, wide_sheet

from metaplot.fisher import (
    HISTOGRAM_BIN_WIDTH,
    HISTOGRAM_MAX_BINS,
    AggregationMode,
    Summaries,
    summarize_studies,
    summarize_z,
)
from metaplot.gaussian import GaussianSpec, tail_area
from metaplot.ingest import (
    CorrelationClass,
    Groups,
    Records,
    group_complete_studies,
)

HEADER = "study_id,author,year,title,journal,class,r,n"


def make_groups(studies, cls=CorrelationClass.ICC):
    """The Groups of a CSV sheet (r written by repr, so it parses back exactly)
    holding study s000, s001, ... for each entry of studies: its (r, n)
    records of class cls, padded with one r = 0.0, n = 10 record of each
    other class so that the study is complete."""
    lines = [HEADER]
    for i, rs_ns in enumerate(studies):
        lines += [f"s{i:03d},A,2000,,,{cls.value},{r!r},{n}" for r, n in rs_ns]
        lines += [f"s{i:03d},A,2000,,,{other.value},0.0,10"
                  for other in CorrelationClass if other is not cls]
    result = parse_text("\n".join(lines) + "\n")
    assert not result.errors
    return group_complete_studies(result.records).groups


def one_study(rs_ns, cls=CorrelationClass.ICC, **options):
    """The fields of summarize_studies' one summary of a one-study sheet."""
    summaries = summarize_studies(make_groups([rs_ns], cls=cls), cls, **options)
    assert len(summaries) == 1
    return SimpleNamespace(**{f.name: getattr(summaries, f.name)[0]
                              for f in dataclasses.fields(summaries)})


def icc_groups(rs_ns):
    """Groups built directly as columns: one study per (r, n), each with a
    single ICC record, reaching summarize_studies without parse_records'
    checks."""
    ids = [f"s{i}" for i in range(len(rs_ns))]
    ns = [n for _, n in rs_ns]
    records = Records(ids, [CorrelationClass.ICC] * len(ids), [r for r, _ in rs_ns], ns)
    return Groups(records, ids, {CorrelationClass.ICC: list(range(len(ids)))},
                  {CorrelationClass.ICC: list(range(len(ids) + 1))}, ns)


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


def test_r_to_pvalue_null_case():
    s = one_study([(0.0, 10)])
    assert s.z_score == 0.0
    assert s.p_value == 1.0


def test_r_to_pvalue_spot_value():
    # Frozen from a 40-digit arbitrary-precision evaluation of
    # 2*Phi(-arctanh(0.5)*sqrt(27)).
    s = one_study([(0.5, 30)])
    assert math.atanh(s.mean_r) == pytest.approx(0.549306, abs=1e-6)
    assert 1.0 / math.sqrt(s.n - 3) == pytest.approx(0.192450, abs=1e-6)
    assert s.z_score == math.atanh(s.mean_r) / (1.0 / math.sqrt(s.n - 3))
    assert s.z_score == pytest.approx(2.85428, abs=1e-4)
    assert s.p_value == pytest.approx(0.0043134706, abs=1e-9)


def test_r_to_pvalue_minimum_sample_size():
    s = one_study([(0.99, 4)])
    assert 1.0 / math.sqrt(s.n - 3) == 1.0
    assert s.z_score == math.atanh(s.mean_r) == pytest.approx(2.64665, abs=1e-5)
    assert s.p_value == pytest.approx(0.0081292863, abs=1e-9)


def test_r_to_pvalue_one_sided_upper_tail():
    two = one_study([(0.3, 20)], two_sided=True)
    one = one_study([(0.3, 20)], two_sided=False)
    assert one.p_value == pytest.approx(two.p_value / 2.0, abs=1e-15)
    neg = one_study([(-0.3, 20)], two_sided=False)
    assert neg.p_value > 0.5


def test_r_to_pvalue_rejects_bad_inputs():
    # parse_records rejects r = 1 and n = 3 itself, so directly built columns
    # reach the pipeline's own checks.
    for r, n in [(1.0, 30), (0.5, 3)]:
        with pytest.raises(ValueError):
            summarize_studies(icc_groups([(r, n)]), CorrelationClass.ICC)


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
    standard = GaussianSpec("standard", 0.0, 1.0)
    rng = random.Random(11)
    for _ in range(100):
        s = one_study([(rng.uniform(-0.99, 0.99), rng.randint(4, 300))])
        recomputed = min(1.0, 2.0 * tail_area(standard, abs(s.z_score)))
        assert abs(recomputed - s.p_value) <= 1e-12


def test_summarize_group_mean_z_mode_keeps_invariant():
    summary = one_study([(0.2, 20), (0.6, 20)], mode=AggregationMode.MEAN_Z)
    mean_z = (math.atanh(0.2) + math.atanh(0.6)) / 2.0
    assert summary.mean_r == pytest.approx(math.tanh(mean_z), abs=1e-15)
    assert summary.n == 40
    assert math.atanh(summary.mean_r) == pytest.approx(mean_z, abs=1e-12)
    assert summary.z_score == pytest.approx(mean_z * math.sqrt(summary.n - 3), abs=1e-12)


def test_summarize_group_fields_tie_together():
    s = one_study([(0.35, 48)])
    assert s.z_score == math.atanh(s.mean_r) / (1.0 / math.sqrt(s.n - 3))


def reference_summary(study_id, by_class, cls, mode, shared_n, two_sided):
    """The per-study pipeline written out from its definition, math module only.

    by_class maps each class to the study's (r, n) records of that class.
    Fisher z and se are computed on the way to z_score, which Summaries keeps.
    """
    rs = [r for r, _ in by_class[cls]]
    total = 0.0  # left to right, uncompensated (sum() compensates from 3.12 on)
    for r in rs:
        total += math.atanh(r) if mode is AggregationMode.MEAN_Z else r
    mean_r = total / len(rs)
    if mode is AggregationMode.MEAN_Z:
        mean_r = math.tanh(mean_r)
    if shared_n:
        n = max(n for records in by_class.values() for _, n in records)
    else:
        n = sum(n for _, n in by_class[cls])
    fisher_z = math.atanh(mean_r)
    se = 1.0 / math.sqrt(n - 3)
    z_score = fisher_z / se
    sf = 0.5 * math.erfc((abs(z_score) if two_sided else z_score) / math.sqrt(2.0))
    p = min(1.0, 2.0 * sf) if two_sided else sf
    return (study_id, mean_r.hex(), n, z_score.hex(), p.hex())


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
    result = parse_text("\n".join(lines) + "\n")
    assert not result.errors
    groups = group_complete_studies(result.records).groups
    studies = sorted((f"s{i}", by_class) for i, by_class in enumerate(sheet))
    for cls in CorrelationClass:
        got = summarize_studies(groups, cls, mode=mode, shared_n=shared_n, two_sided=two_sided)
        want = [reference_summary(sid, by_class, cls, mode, shared_n, two_sided)
                for sid, by_class in studies]
        columns = zip(got.study_id, got.mean_r, got.n, got.z_score, got.p_value)
        assert [(sid, m.hex(), n, zs.hex(), p.hex()) for sid, m, n, zs, p in columns] == want


@pytest.mark.parametrize("mode", list(AggregationMode))
def test_one_negative_zero_record_writes_positive_zero_mean_r(mode):
    # sum([-0.0]) is 0.0, so the one-record mean is +0.0 in both modes, as it
    # was when every class went through sum(list) / len.
    rows = [f"s1,A,2000,,,{cls.value},{'-0.0' if cls is CorrelationClass.ICC else '0.1'},10"
            for cls in CorrelationClass]
    result = parse_text("study_id,author,year,title,journal,class,r,n\n" + "\n".join(rows))
    assert result.records.r[0].hex() == (-0.0).hex()
    groups = group_complete_studies(result.records).groups
    s = summarize_studies(groups, CorrelationClass.ICC, mode=mode)
    assert s.mean_r[0].hex() == s.z_score[0].hex() == (0.0).hex()
    assert s.p_value == array("d", [1.0])


def test_groups_and_summaries_hold_about_200_bytes_a_study():
    # positions, offsets, mean_r, z_score and p_value are arrays of machine
    # values: 208-214 bytes a study on Python 3.10-3.13, against 555 when
    # each was a list of objects
    records = parse_text(wide_sheet(10_000, seed=12)).records
    tracemalloc.start()
    try:
        groups = group_complete_studies(records).groups
        summaries = [summarize_studies(groups, cls) for cls in CorrelationClass]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(groups) > 9_700 and len(summaries) == 3
    assert held / len(groups) < 280, held / len(groups)


@pytest.mark.parametrize("mode", list(AggregationMode))
def test_records_sum_left_to_right_on_every_python(mode):
    # 0.5 + 1e-17 rounds to 0.5, so the left-to-right sum is 0.0; the
    # compensated sum of Python 3.12's sum() would keep 1e-17, and the mean
    # would read 3.3e-18 in either mode.
    s = one_study([(0.5, 10), (1e-17, 10), (-0.5, 10)], mode=mode)
    assert s.mean_r.hex() == (0.0).hex()


def test_summarize_studies_error_messages():
    # parse_records itself rejects n < 4 and |r| >= 1, so directly built
    # columns reach the pipeline's own checks.
    small_n = icc_groups([(0.2, 10), (0.2, 3)])
    for shared_n in (False, True):
        with pytest.raises(ValueError, match=r"^sample size must exceed 3$"):
            summarize_studies(small_n, CorrelationClass.ICC, shared_n=shared_n)


def summaries_from_z(zs, cls=CorrelationClass.ICC):
    # Build summaries with prescribed z-scores (r chosen to invert the pipeline).
    n = 28
    studies = [[(math.tanh(z / math.sqrt(n - 3)), n)] for z in zs]
    summaries = summarize_studies(make_groups(studies, cls=cls), cls)
    assert summaries.z_score == pytest.approx(zs, abs=1e-9)
    return summaries


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
        summarize_z(Summaries(*[()] * 5), CorrelationClass.ICC)


def z_panel(zs):
    k = len(zs)
    summaries = Summaries([f"s{i}" for i in range(k)], [0.0] * k, [4] * k, list(zs),
                          [1.0] * k)
    return summarize_z(summaries, CorrelationClass.ICC)


def histogram_by_value(zs):
    """summarize_z's histogram counted one value at a time, edges as hex."""
    lo, hi = min(zs), max(zs)
    k = max(1, math.floor((hi - lo) / (HISTOGRAM_MAX_BINS * HISTOGRAM_BIN_WIDTH)))
    while True:
        w = k * HISTOGRAM_BIN_WIDTH
        lo_edge = math.floor(lo / w) * w
        n_bins = max(1, math.ceil((hi - lo_edge) / w - 1e-12))
        if n_bins <= HISTOGRAM_MAX_BINS:
            break
        k += 1
    counts = [0] * n_bins
    for v in zs:
        counts[min(int((v - lo_edge) / w), n_bins - 1)] += 1
    return [((lo_edge + i * w).hex(), (lo_edge + (i + 1) * w).hex(), c)
            for i, c in enumerate(counts)]


# Values on the edges of 0.5-wide bins and of widened ones (multiples of 1.0
# to 3.5 spanning over 500), below zero too, plus values between edges.
z_values = (st.integers(-80, 80).map(lambda k: k * HISTOGRAM_BIN_WIDTH)
            | st.tuples(st.integers(-600, 600), st.integers(2, 7)).map(
                lambda kw: kw[0] * kw[1] * HISTOGRAM_BIN_WIDTH)
            | st.floats(-40.0, 40.0) | st.floats(-2000.0, 2000.0))


@settings(max_examples=300, deadline=None)
@given(zs=st.lists(z_values, min_size=1, max_size=80))
def test_histogram_equals_counting_each_value(zs):
    histogram = z_panel(zs).histogram
    assert [(lo.hex(), hi.hex(), c) for lo, hi, c in histogram] == histogram_by_value(zs)


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
