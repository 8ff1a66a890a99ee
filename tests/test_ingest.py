import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaplot.ingest import (
    MAX_SAMPLE_SIZE,
    CorrelationClass,
    ParseFailure,
    ParseResult,
    Records,
    _parse_row,
    group_complete_studies,
    parse_records,
)

HEADER = "study_id,author,year,title,journal,class,r,n"


def rows(*lines):
    return "\n".join((HEADER,) + lines) + "\n"


def test_parse_basic_row():
    result = parse_records(rows("kurdi01,Smith,2012,,,ICC,0.12,45"))
    assert not result.errors
    assert result.records == Records(("kurdi01",), (CorrelationClass.ICC,), (0.12,), (45,))
    assert result.records.cls[0] is CorrelationClass.ICC


def test_parse_accepts_bytes_and_optional_fields():
    data = rows('s1,Lee,1999,"A title, with comma",J. Res.,ECC,-0.3,12').encode()
    result = parse_records(data)
    assert not result.errors
    # the quoted comma stays inside the title, so the fields after it line up
    assert result.records == Records(("s1",), (CorrelationClass.ECC,), (-0.3,), (12,))


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
    assert result.records.study_id == ("s1",)
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
    assert result.records == Records.from_rows(
        [("s1", CorrelationClass.ICC, 0.5, 12)]
    )


def test_sample_size_upper_bound():
    result = parse_records(rows(f"s1,A,2000,,,ICC,0.2,{MAX_SAMPLE_SIZE}",
                                f"s2,A,2000,,,ICC,0.2,{MAX_SAMPLE_SIZE + 1}",
                                f"s3,A,2000,,,ICC,0.2,{10**400}"))
    assert result.records.n == (MAX_SAMPLE_SIZE,)
    message = f"sample size must not exceed {MAX_SAMPLE_SIZE}"
    assert [(e.line, e.message) for e in result.errors] == [(3, message), (4, message)]


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
    assert result.records.study_id == ("s2", "s1")


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


# Pieces of text that CSV quoting, whitespace stripping and the number
# parsers treat specially, so that random sheets reach every check.
_SHEET_PIECES = st.sampled_from([
    ",", '"', "\r", "\n", "\r\n", " ", "\t", "\x00", "\x1c", "\x1f", "\u2003",
    "\ufeff", "s1", "ICC", "ECC", "IEC", "icc", "2000", "0.5", "-0.0", "1.0",
    "45", "3", "1e400", "nan", "inf", "9" * 30, "é",
])
sheet_bodies = (
    st.lists(_SHEET_PIECES | st.text(max_size=3)).map(lambda t: "".join(t).encode())
    | st.binary()
)


@settings(max_examples=300, deadline=None)
@given(body=sheet_bodies)
def test_any_bytes_after_the_header_give_records_and_positioned_errors(body):
    data = (HEADER + "\n").encode() + body
    try:
        result = parse_records(data)
    except ParseFailure:
        return
    assert isinstance(result, ParseResult)
    lines = [e.line for e in result.errors]
    assert lines == sorted(set(lines))
    assert all(line >= 2 and e.message for line, e in zip(lines, result.errors))
    # each physical line ends at most one row
    assert len(result.records) + len(lines) <= data.count(b"\n") + data.count(b"\r")
    assert all(sid and sid == sid.strip() for sid in result.records.study_id)
    assert all(isinstance(c, CorrelationClass) for c in result.records.cls)
    assert all(abs(r) < 1.0 for r in result.records.r)
    assert all(4 <= n <= MAX_SAMPLE_SIZE for n in result.records.n)


def test_record_validation_direct():
    # _parse_row is the one place a record is checked
    with pytest.raises(ValueError, match="^study_id must be non-empty$"):
        _parse_row([" ", "A", "2000", "", "", "ICC", "0.1", "10"])
    with pytest.raises(ValueError, match=r"^correlation out of open interval \(-1,1\)$"):
        _parse_row(["s", "A", "2000", "", "", "ICC", "-1.0", "10"])


def complete_study(sid, n=10, r=0.1):
    """One record row of each class for study sid."""
    return [(sid, cls, r, n) for cls in CorrelationClass]


def group(rows):
    return group_complete_studies(Records.from_rows(rows))


def test_grouping_keeps_only_complete_studies():
    report = group(complete_study("s1") + complete_study("s2")[:2])  # s2 lacks IEC
    assert report.groups.study_id == ["s1"]
    assert report.retained_count == 1
    assert report.dropped == [("s2", "missing class(es): IEC")]


def test_grouping_sorted_and_totals():
    report = group(complete_study("b", n=20) + complete_study("a", n=15))
    assert report.groups.study_id == ["a", "b"]
    assert report.groups.study_n == [15, 20]
    assert report.total_n == 35


def test_grouping_empty_input_flagged():
    report = group([])
    assert len(report.groups) == 0
    assert report.dropped == []
    assert report.total_n == 0


def test_grouping_idempotent_on_duplication():
    rows = complete_study("s1") + complete_study("s2", n=22)
    assert group(rows).groups.study_id == group(rows + rows).groups.study_id


def test_duplicate_rows_are_retained_not_deduplicated():
    report = group(complete_study("s1") + complete_study("s1"))
    # both copies of each class's record, in input order
    index = {cls: [[k, k + 3]] for k, cls in enumerate(CorrelationClass)}
    assert report.groups.record_index == index


def test_every_study_accounted_for_exactly_once():
    report = group(
        complete_study("s1")
        + complete_study("s2")[:1]
        + complete_study("s3")
        + complete_study("s4")[1:]
    )
    retained = set(report.groups.study_id)
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
