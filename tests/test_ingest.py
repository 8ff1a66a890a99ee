import pytest

from metaplot.ingest import (
    MAX_SAMPLE_SIZE,
    CorrelationClass,
    ParseFailure,
    StudyRecord,
    group_complete_studies,
    parse_records,
)

HEADER = "study_id,author,year,title,journal,class,r,n"


def rows(*lines):
    return "\n".join((HEADER,) + lines) + "\n"


def test_parse_basic_row():
    result = parse_records(rows("kurdi01,Smith,2012,,,ICC,0.12,45"))
    assert not result.errors
    (rec,) = result.records
    assert rec.study_id == "kurdi01"
    assert rec.author == "Smith"
    assert rec.year == 2012
    assert rec.title is None and rec.journal is None
    assert rec.cls is CorrelationClass.ICC
    assert rec.r == 0.12
    assert rec.n == 45


def test_parse_accepts_bytes_and_optional_fields():
    data = rows('s1,Lee,1999,"A title, with comma",J. Res.,ECC,-0.3,12').encode()
    result = parse_records(data)
    assert not result.errors
    assert result.records[0].title == "A title, with comma"
    assert result.records[0].journal == "J. Res."


def test_r_out_of_interval_reported_with_row():
    result = parse_records(rows("s1,A,2000,,,ICC,1.0,45"))
    assert len(result.errors) == 1
    err = result.errors[0]
    assert err.line == 2
    assert "correlation out of open interval (-1,1)" in err.message
    assert not result.records


def test_small_sample_size_rejected():
    result = parse_records(rows("s1,A,2000,,,ICC,0.2,3"))
    assert "sample size must exceed 3" in result.errors[0].message


def test_unknown_class_tag_rejected():
    result = parse_records(rows("s1,A,2000,,,icc,0.2,10"))
    assert "unknown class tag" in result.errors[0].message


def test_lower_case_class_tag_message_is_exact():
    result = parse_records(rows("s1,A,2000,,,icc,0.2,10"))
    assert [(e.line, e.message) for e in result.errors] == [
        (2, "unknown class tag 'icc' (expected ICC, ECC, or IEC)")
    ]


def test_whitespace_only_rows_skipped_but_one_field_is_positioned():
    result = parse_records(
        rows(
            "   ",
            "\t, ,,",
            ",,,,,,,",
            " \t ,\t,  , , ,\t,,",
            " x ",
            ",,,,,ICC,,",
            "s1,A,2000,,,ICC,0.2,10",
        )
    )
    assert [r.study_id for r in result.records] == ["s1"]
    assert [(e.line, e.message) for e in result.errors] == [
        (6, "expected 8 fields, got 1"),
        (7, "unparseable year ''; unparseable correlation ''; unparseable sample size ''"),
    ]


@pytest.mark.parametrize("pad", [" ", "\t", "\x1c", "\x1f", "\u2003"])
def test_fields_padded_with_whitespace_parse_as_stripped(pad):
    # str.strip() also removes \x1c-\x1f, which int() and float() reject alone
    fields = ["s1", "A", "2000", "", "", "ICC", "0.5", "12"]
    result = parse_records(rows(",".join(f"{pad}{f}{pad}" for f in fields)))
    assert not result.errors
    assert list(result.records) == [
        StudyRecord("s1", "A", 2000, None, None, CorrelationClass.ICC, 0.5, 12)
    ]


def test_sample_size_upper_bound():
    result = parse_records(rows(f"s1,A,2000,,,ICC,0.2,{MAX_SAMPLE_SIZE}",
                                f"s2,A,2000,,,ICC,0.2,{MAX_SAMPLE_SIZE + 1}",
                                f"s3,A,2000,,,ICC,0.2,{10**400}"))
    assert [r.n for r in result.records] == [MAX_SAMPLE_SIZE]
    message = f"sample size must not exceed {MAX_SAMPLE_SIZE}"
    assert [(e.line, e.message) for e in result.errors] == [(3, message), (4, message)]
    with pytest.raises(ValueError, match=message):
        StudyRecord("s", "A", 2000, None, None, CorrelationClass.ICC, 0.1, 10**400)


def test_errors_collected_across_rows_with_positions():
    result = parse_records(
        rows(
            "s1,A,2000,,,ICC,0.2,10",
            "s2,B,2001,,,ICC,2.5,10",
            "s3,C,2002,,,ECC,0.1,2",
            "s4,D,2003,,,IEC,0.0,8",
        )
    )
    assert len(result.records) == 2
    assert [e.line for e in result.errors] == [3, 4]


def test_row_order_preserved():
    result = parse_records(
        rows("s2,B,2001,,,ICC,0.2,10", "s1,A,2000,,,ECC,0.1,10")
    )
    assert [r.study_id for r in result.records] == ["s2", "s1"]


def test_missing_column_rejected():
    with pytest.raises(ParseFailure, match="missing column"):
        parse_records("study_id,author,year,class,r,n\ns1,A,2000,ICC,0.2,10\n")


def test_header_order_enforced():
    shuffled = "author,study_id,year,title,journal,class,r,n\n"
    with pytest.raises(ParseFailure, match="header must be exactly"):
        parse_records(shuffled)


def test_non_utf8_rejected():
    with pytest.raises(ParseFailure, match="UTF-8"):
        parse_records(b"\xff\xfe\x00bad")


def test_oversized_field_is_positioned_parse_failure():
    # csv.reader refuses a field over csv.field_size_limit() (131,072 by default)
    text = rows("s1,A,2000,,,ICC,0.2,10", f"s2,B,2001,{'t' * 200_000},,ICC,0.2,10")
    with pytest.raises(ParseFailure, match="row 3: field larger than field limit"):
        parse_records(text)


def test_record_validation_direct():
    with pytest.raises(ValueError):
        StudyRecord("", "A", 2000, None, None, CorrelationClass.ICC, 0.1, 10)
    with pytest.raises(ValueError):
        StudyRecord("s", "A", 2000, None, None, CorrelationClass.ICC, -1.0, 10)


def complete_study(sid, n=10, r=0.1):
    return [
        StudyRecord(sid, "A", 2000, None, None, cls, r, n)
        for cls in CorrelationClass
    ]


def test_grouping_keeps_only_complete_studies():
    records = complete_study("s1") + complete_study("s2")[:2]  # s2 lacks IEC
    report = group_complete_studies(records)
    assert [g.study_id for g in report.groups] == ["s1"]
    assert report.retained_count == 1
    assert report.dropped == [("s2", "missing class(es): IEC")]


def test_grouping_sorted_and_totals():
    records = complete_study("b", n=20) + complete_study("a", n=15)
    report = group_complete_studies(records)
    assert [g.study_id for g in report.groups] == ["a", "b"]
    assert report.total_n == 35


def test_grouping_empty_input_flagged():
    report = group_complete_studies([])
    assert report.groups == []
    assert report.dropped == []
    assert report.total_n == 0


def test_grouping_idempotent_on_duplication():
    records = complete_study("s1") + complete_study("s2", n=22)
    once = group_complete_studies(records)
    twice = group_complete_studies(records + records)
    assert [g.study_id for g in once.groups] == [g.study_id for g in twice.groups]


def test_duplicate_rows_are_retained_not_deduplicated():
    records = complete_study("s1") + complete_study("s1")
    report = group_complete_studies(records)
    (group,) = report.groups
    assert len(group.by_class[CorrelationClass.ICC]) == 2


def test_every_study_accounted_for_exactly_once():
    records = (
        complete_study("s1")
        + complete_study("s2")[:1]
        + complete_study("s3")
        + complete_study("s4")[1:]
    )
    report = group_complete_studies(records)
    retained = {g.study_id for g in report.groups}
    dropped = {sid for sid, _ in report.dropped}
    assert retained | dropped == {"s1", "s2", "s3", "s4"}
    assert not retained & dropped


def test_paper_structure_fixture_counts(null_csv):
    # Synthetic sheet with the same shape as the real extraction:
    # 27 complete studies whose per-study n values sum to 535.
    result = parse_records(null_csv.read_bytes())
    assert not result.errors
    report = group_complete_studies(result.records)
    assert report.retained_count == 27
    assert report.total_n == 535
