import itertools
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaplot.fisher import (
    AggregationMode,
    aggregate_study,
    r_to_pvalue,
    summarize_group,
    summarize_studies,
    summarize_z,
)
from metaplot.ingest import CorrelationClass, StudyGroup, StudyRecord, group_complete_studies
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


def test_aggregate_mean_of_two():
    group = make_group([(0.2, 10), (0.4, 30)])
    mean_r, n = aggregate_study(group, CorrelationClass.ICC)
    assert mean_r == pytest.approx(0.3)
    assert n == 40  # per-class sum by default


def test_aggregate_single_record_identity():
    group = make_group([(-0.15, 60)])
    mean_r, n = aggregate_study(group, CorrelationClass.ICC)
    assert mean_r == -0.15
    assert n == 60


def test_aggregate_symmetric_cancellation():
    group = make_group([(0.9, 10), (-0.9, 10)])
    mean_r, _ = aggregate_study(group, CorrelationClass.ICC)
    assert mean_r == pytest.approx(0.0, abs=1e-15)


def test_aggregate_shared_n_uses_study_level_n():
    group = make_group([(0.2, 25), (0.4, 25)])
    _, n = aggregate_study(group, CorrelationClass.ICC, shared_n=True)
    assert n == 25


def test_aggregate_missing_class_raises():
    group = make_group([(0.2, 10)])
    bare = group.by_class.copy()
    del bare[CorrelationClass.ECC]
    from metaplot.ingest import StudyGroup

    with pytest.raises(ValueError, match="no ECC records"):
        aggregate_study(StudyGroup("s1", bare), CorrelationClass.ECC)


def test_r_to_pvalue_null_case():
    stats = r_to_pvalue(0.0, 10)
    assert stats.z_score == 0.0
    assert stats.p_value == 1.0


def test_r_to_pvalue_spot_value():
    # Frozen from a 40-digit arbitrary-precision evaluation of
    # 2*Phi(-arctanh(0.5)*sqrt(27)).
    stats = r_to_pvalue(0.5, 30)
    assert stats.fisher_z == pytest.approx(0.549306, abs=1e-6)
    assert stats.se == pytest.approx(0.192450, abs=1e-6)
    assert stats.z_score == pytest.approx(2.85428, abs=1e-4)
    assert stats.p_value == pytest.approx(0.0043134706, abs=1e-9)


def test_r_to_pvalue_minimum_sample_size():
    stats = r_to_pvalue(0.99, 4)
    assert stats.se == 1.0
    assert stats.fisher_z == pytest.approx(2.64665, abs=1e-5)
    assert stats.p_value == pytest.approx(0.0081292863, abs=1e-9)


def test_r_to_pvalue_one_sided_upper_tail():
    two = r_to_pvalue(0.3, 20, two_sided=True)
    one = r_to_pvalue(0.3, 20, two_sided=False)
    assert one.p_value == pytest.approx(two.p_value / 2.0, abs=1e-15)
    neg = r_to_pvalue(-0.3, 20, two_sided=False)
    assert neg.p_value > 0.5


def test_r_to_pvalue_rejects_bad_inputs():
    with pytest.raises(ValueError):
        r_to_pvalue(1.0, 30)
    with pytest.raises(ValueError):
        r_to_pvalue(0.5, 3)


def test_p_decreases_in_abs_r_for_fixed_n():
    ps = [r_to_pvalue(r / 100.0, 25).p_value for r in range(0, 99, 7)]
    assert all(b < a for a, b in zip(ps, ps[1:]))


def test_p_decreases_in_n_for_fixed_r():
    ps = [r_to_pvalue(0.3, n).p_value for n in range(5, 200, 13)]
    assert all(b < a for a, b in zip(ps, ps[1:]))


def test_two_sided_sign_invariance():
    rng = random.Random(7)
    for _ in range(100):
        r = rng.uniform(0.0, 0.99)
        n = rng.randint(4, 500)
        assert r_to_pvalue(r, n).p_value == r_to_pvalue(-r, n).p_value


def test_p_consistent_with_stored_z():
    from metaplot.numerics import std_normal_sf

    rng = random.Random(11)
    for _ in range(100):
        stats = r_to_pvalue(rng.uniform(-0.99, 0.99), rng.randint(4, 300))
        recomputed = min(1.0, 2.0 * std_normal_sf(abs(stats.z_score)))
        assert abs(recomputed - stats.p_value) <= 1e-12


def test_summarize_group_mean_z_mode_keeps_invariant():
    group = make_group([(0.2, 20), (0.6, 20)])
    summary = summarize_group(group, CorrelationClass.ICC, mode=AggregationMode.MEAN_Z)
    mean_z = (math.atanh(0.2) + math.atanh(0.6)) / 2.0
    assert summary.mean_r == pytest.approx(math.tanh(mean_z), abs=1e-15)
    assert summary.fisher_z == pytest.approx(mean_z, abs=1e-12)
    assert summary.n == 40


def test_summarize_group_fields_tie_together():
    group = make_group([(0.35, 48)])
    s = summarize_group(group, CorrelationClass.ICC)
    assert s.fisher_z == pytest.approx(math.atanh(s.mean_r), abs=1e-14)
    assert s.se == pytest.approx(1.0 / math.sqrt(s.n - 3), abs=1e-15)
    assert s.z_score == pytest.approx(s.fisher_z / s.se, abs=1e-12)


def reference_summary(group, cls, mode, shared_n, two_sided):
    """The per-study pipeline written out from its definition, math module only."""
    rs = [rec.r for rec in group.by_class[cls]]
    if mode is AggregationMode.MEAN_Z:
        mean_r = math.tanh(sum(math.atanh(r) for r in rs) / len(rs))
    else:
        mean_r = sum(rs) / len(rs)
    if shared_n:
        n = max(rec.n for recs in group.by_class.values() for rec in recs)
    else:
        n = sum(rec.n for rec in group.by_class[cls])
    fisher_z = math.atanh(mean_r)
    se = 1.0 / math.sqrt(n - 3)
    z_score = fisher_z / se
    sf = 0.5 * math.erfc((abs(z_score) if two_sided else z_score) / math.sqrt(2.0))
    p = min(1.0, 2.0 * sf) if two_sided else sf
    return (group.study_id, cls, mean_r, n, fisher_z, se, z_score, p)


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
    records = [
        StudyRecord(f"s{i}", "A", 2000, None, None, cls, r, n)
        for i, by_class in enumerate(sheet)
        for cls, values in by_class.items()
        for r, n in values
    ]
    groups = group_complete_studies(records).groups
    for cls in CorrelationClass:
        got = summarize_studies(groups, cls, mode=mode, shared_n=shared_n, two_sided=two_sided)
        assert len(got) == len(groups)
        for group, s in zip(groups, got):
            want = reference_summary(group, cls, mode, shared_n, two_sided)
            assert (s.study_id, s.cls, s.mean_r, s.n, s.fisher_z, s.se, s.z_score,
                    s.p_value) == want
            assert type(s.p_value) is Probability
            assert s == summarize_group(group, cls, mode=mode, shared_n=shared_n,
                                        two_sided=two_sided)


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
        stats = r_to_pvalue(r, n)
        out.append(
            summarize_group(
                make_group([(r, n)], cls=cls, sid=f"s{i}"), cls
            )
        )
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
