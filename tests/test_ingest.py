import codecs
import csv
import hashlib
import io
import os
import random
from array import array
from itertools import accumulate
import re
import subprocess
import tempfile
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import column_types, counted_forks, parse_text, typed_records, wide_sheet

from metaplot import ingest
from metaplot.cli import EXIT_IO, main
from metaplot.ingest import (
    MAX_SAMPLE_SIZE,
    CorrelationClass,
    ParseFailure,
    ParseResult,
    RowError,
    _check_header,
    _parse_row,
    group_complete_studies,
    parse_records,
    read_sheet,
)

HEADER = "study_id,author,year,title,journal,class,r,n"


def rows(*lines):
    return "\n".join((HEADER,) + lines) + "\n"


def test_parse_basic_row():
    result = parse_text(rows("kurdi01,Smith,2012,,,ICC,0.12,45"))
    assert not result.errors
    assert result.records == typed_records(["kurdi01"], [CorrelationClass.ICC], [0.12], [45])
    assert column_types(result.records) == column_types(typed_records())
    assert result.records.cls[0] is CorrelationClass.ICC


def test_parse_accepts_bytes_and_optional_fields():
    data = rows('s1,Lee,1999,"A title, with comma",J. Res.,ECC,-0.3,12').encode()
    result = parse_records(io.BytesIO(data))
    assert not result.errors
    # the quoted comma stays inside the title, so the fields after it line up
    assert result.records == typed_records(["s1"], [CorrelationClass.ECC], [-0.3], [12])


def test_r_out_of_interval_reported_with_row():
    result = parse_text(rows("s1,A,2000,,,ICC,1.0,45"))
    assert len(result.errors) == 1
    err = result.errors[0]
    assert err.line == 2
    assert "correlation out of open interval (-1,1)" in err.message
    assert not result.records


def test_small_sample_size_rejected():
    result = parse_text(rows("s1,A,2000,,,ICC,0.2,3"))
    assert "sample size must exceed 3" in result.errors[0].message


def test_unknown_class_tag_rejected():
    result = parse_text(rows("s1,A,2000,,,icc,0.2,10"))
    assert "unknown class tag" in result.errors[0].message


def test_lower_case_class_tag_message_is_exact():
    result = parse_text(rows("s1,A,2000,,,icc,0.2,10"))
    assert [(e.line, e.message) for e in result.errors] == [
        (2, "unknown class tag 'icc' (expected ICC, ECC, or IEC)")
    ]


def test_whitespace_only_rows_skipped_but_one_field_is_positioned():
    result = parse_text(
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
    result = parse_text(rows(",".join(f"{pad}{f}{pad}" for f in fields)))
    assert not result.errors
    assert result.records == typed_records(["s1"], [CorrelationClass.ICC], [0.5], [12])


def test_sample_size_upper_bound():
    result = parse_text(rows(f"s1,A,2000,,,ICC,0.2,{MAX_SAMPLE_SIZE}",
                             f"s2,A,2000,,,ICC,0.2,{MAX_SAMPLE_SIZE + 1}",
                             f"s3,A,2000,,,ICC,0.2,{10**400}"))
    assert result.records.n == array("q", [MAX_SAMPLE_SIZE])
    message = f"sample size must not exceed {MAX_SAMPLE_SIZE}"
    assert [(e.line, e.message) for e in result.errors] == [(3, message), (4, message)]


def test_errors_collected_across_rows_with_positions():
    result = parse_text(
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
    result = parse_text(
        rows("s2,B,2001,,,ICC,0.2,10", "s1,A,2000,,,ECC,0.1,10")
    )
    assert result.records.study_id == ("s2", "s1")


def test_missing_column_rejected():
    with pytest.raises(ParseFailure, match="missing column"):
        parse_text("study_id,author,year,class,r,n\ns1,A,2000,ICC,0.2,10\n")
    for data in (b"", codecs.BOM_UTF8):
        with pytest.raises(ParseFailure, match="^empty input: missing header row$"):
            parse_records(io.BytesIO(data))


def test_header_order_enforced():
    shuffled = "author,study_id,year,title,journal,class,r,n\n"
    with pytest.raises(ParseFailure, match="header must be exactly"):
        parse_text(shuffled)


def test_non_utf8_rejected():
    with pytest.raises(ParseFailure, match="UTF-8"):
        parse_records(io.BytesIO(b"\xff\xfe\x00bad"))


def test_oversized_field_is_positioned_parse_failure():
    # csv.reader refuses a field over csv.field_size_limit() (131,072 by default)
    text = rows("s1,A,2000,,,ICC,0.2,10", f"s2,B,2001,{'t' * 200_000},,ICC,0.2,10")
    with pytest.raises(ParseFailure, match="row 3: field larger than field limit"):
        parse_text(text)


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


def parsed_or_failure(source):
    """What parse_records makes of source: its result, or its ParseFailure's
    message."""
    try:
        return parse_records(source)
    except ParseFailure as exc:
        return str(exc)


def parsed_from_file(data):
    """parsed_or_failure of data written to a binary file, which parsing
    must leave open."""
    with tempfile.TemporaryFile() as binary:
        binary.write(data)
        binary.seek(0)
        parsed = parsed_or_failure(binary)
        assert not binary.closed
    return parsed


def parsed_from_pipe(data):
    """parsed_or_failure of data read from a pipe, which cannot seek back."""
    read_end, write_end = os.pipe()

    def write():
        with os.fdopen(write_end, "wb") as sink:
            sink.write(data)

    writer = threading.Thread(target=write)
    writer.start()
    with os.fdopen(read_end, "rb") as pipe:
        parsed = parsed_or_failure(pipe)
        pipe.read()  # so that the writer ends, however early parsing stopped
    writer.join(timeout=10)
    assert not writer.is_alive()
    return parsed


@settings(max_examples=300, deadline=None)
@given(body=sheet_bodies)
def test_any_bytes_after_the_header_give_records_and_positioned_errors(body):
    data = (HEADER + "\n").encode() + body
    result = parsed_or_failure(io.BytesIO(data))
    assert parsed_from_file(data) == result
    if isinstance(result, str):
        assert result.startswith("row "), result
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


@pytest.mark.parametrize("char", ["é", "€", "\U0001f600"])
def test_character_across_a_decoder_chunk_boundary(char):
    # the decoder reads 8 KiB at a time; put each byte boundary of char there
    for split in range(1, len(char.encode())):
        head = rows(*(f"s{i},A,2000,,,ICC,0.5,12" for i in range(200)))
        pad = 8192 - split - len(head.encode()) - len("x,")
        text = head + f"x,{'A' * pad}{char},2000,,,ICC,0.5,12\n"
        assert text.encode().index(char.encode()) == 8192 - split
        result = parsed_from_file(text.encode())
        assert result == parse_text(text)
        assert not result.errors and len(result.records) == 201


def test_invalid_utf8_far_into_the_sheet_names_its_row():
    good = [f"s{i},Author,2000,Some title,,ICC,0.5,12" for i in range(2000)]
    data = rows(*good).encode() + b"s9,Au\xffthor,2000,,,ICC,0.5,12\n"
    assert len(data) > 65536
    message = "row 2002: input is not valid UTF-8 (invalid start byte: ff)"
    with pytest.raises(ParseFailure, match=f"^{re.escape(message)}$"):
        parse_records(io.BytesIO(data))
    assert parsed_from_file(data) == message


def test_invalid_utf8_read_from_a_pipe_names_its_row():
    read_end, write_end = os.pipe()
    with os.fdopen(write_end, "wb") as sink:
        sink.write(rows("s1,A,2000,,,ICC,0.5,12").encode() + b"s2,\xff,2000,,,ICC,0.5,12\n")
    with os.fdopen(read_end, "rb") as pipe:
        assert not pipe.seekable()
        message = parsed_or_failure(pipe)
    assert message == "row 3: input is not valid UTF-8 (invalid start byte: ff)"


@pytest.mark.parametrize("after", [b"", b"s9,A", b"\r\r"], ids=["at-once", "later", "blank-lines"])
def test_invalid_utf8_after_a_lone_cr_ending_a_chunk_names_its_row(after):
    # The decoder holds back a '\r' that ends its 8 KiB chunk, to see whether
    # '\n' follows, so the line it ends has not been read when the next
    # chunk fails to decode.
    head = "\r".join([HEADER] + [f"s{i},A,2000,,,ICC,0.5,12" for i in range(300)]).encode()
    pad = 8192 - len(head) - len(b"\rx,") - len(b",2000,,,ICC,0.5,12\r")
    head += b"\rx," + b"A" * pad + b",2000,,,ICC,0.5,12\r"
    assert len(head) == 8192 and head.count(b"\r") == 302
    data = head + after + b"\xff,A,2000,,,ICC,0.5,12\r"
    line = 303 + after.count(b"\r")
    message = f"row {line}: input is not valid UTF-8 (invalid start byte: ff)"
    assert parsed_or_failure(io.BytesIO(data)) == message
    assert parsed_from_file(data) == message
    assert parsed_from_pipe(data) == message


@pytest.mark.parametrize("pad", [0, 10_000, 70_000], ids=["at-once", "beyond-8-KiB", "beyond-64-KiB"])
def test_a_bad_header_is_reported_before_invalid_utf8_after_it(pad):
    # Failures follow input order: the header is line 1, so its failure
    # comes first, whether the bad byte after it lies in the first 8 KiB,
    # after them or after the first 64 KiB block.
    data = b"s0,A,2000,,,ICC,0.5,12\n" + b"s1,A,2000,,,ICC,0.5,12\n" * (pad // 23) + b"\x80"
    assert len(data) > pad
    message = parsed_or_failure(io.BytesIO(data))
    assert message.startswith("missing column(s): study_id, author, year, title, journal"), message
    assert parsed_from_file(data) == parsed_from_pipe(data) == message


def reference_parsed(text):
    """What parse_records made of a text stream when csv.reader read it
    line by line and _parse_row checked each row: its result, or its
    ParseFailure's message."""
    reader = csv.reader(text)
    records, errors = [], []
    try:
        _check_header(next(reader, None))
        for row in reader:
            try:
                records.append(_parse_row(row))
            except ValueError as exc:
                if "".join(row).strip():
                    errors.append(RowError(reader.line_num, str(exc)))
    except csv.Error as exc:
        return f"row {reader.line_num}: {exc}"
    except ParseFailure as exc:
        return str(exc)
    return ParseResult(typed_records(*zip(*records)), errors)


def reference_parsed_bytes(data):
    """reference_parsed of data decoded as UTF-8 after an optional BOM. Bytes
    that are not UTF-8 fail on their line, unless a line before it fails:
    the complete lines before the bad bytes are parsed first."""
    body = data.removeprefix(codecs.BOM_UTF8)
    try:
        body.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = body[:exc.start]
        if cut := max(head.rfind(b"\n"), head.rfind(b"\r")) + 1:
            before = reference_parsed(io.StringIO(head[:cut].decode(), newline=""))
            if isinstance(before, str):
                return before
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        bad = exc.object[exc.start:exc.end].hex(" ")
        return f"row {line}: input is not valid UTF-8 ({exc.reason}: {bad})"
    return reference_parsed(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline=""))


@settings(max_examples=300, deadline=None)
@given(good=st.integers(0, 40), body=sheet_bodies, bom=st.booleans(),
       block_size=st.sampled_from([1, 2, 3, 7, 64, 1 << 16]),
       field_limit=st.sampled_from([8, 30, 131_072]))
def test_parse_records_equals_csv_reader_over_the_decoded_stream(
        good, body, bom, block_size, field_limit):
    # The valid rows come first, so that blocks of every size end anywhere
    # in them and in the pieces after them, quoted or not; field limits of 8
    # and 30 characters send some blocks of valid lines to csv.reader.
    valid = (f"s{i},A,2000,,,{('ICC', 'ECC', 'IEC')[i % 3]},0.{i % 9},{12 + i}" for i in range(good))
    data = b"\xef\xbb\xbf" * bom + rows(*valid).encode() + body
    limit = csv.field_size_limit(field_limit)
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "_BLOCK_SIZE", block_size)
            expected = reference_parsed_bytes(data)
            assert parsed_or_failure(io.BytesIO(data)) == expected
            assert parsed_from_file(data) == expected
            assert parsed_from_pipe(data) == expected
    finally:
        csv.field_size_limit(limit)


def test_a_quoted_crlf_sheet_parses_as_the_plain_one(null_csv):
    plain = null_csv.read_bytes()
    twin = io.StringIO(newline="")
    csv.writer(twin, quoting=csv.QUOTE_ALL, lineterminator="\r\n").writerows(
        csv.reader(io.StringIO(plain.decode(), newline="")))
    quoted = twin.getvalue()
    assert quoted.startswith('"study_id","author",') and quoted.count("\r\n") == 82
    expected = parse_records(io.BytesIO(plain))
    assert not expected.errors and len(expected.records) == 81
    assert parse_text(quoted) == expected


def test_a_leading_bom_is_skipped_in_text_as_in_bytes():
    text = rows("s1,A,2000,,,ICC,0.5,12", "s2,A,2000,,,IEC,-0.25,40")
    expected = parse_text(text)
    assert not expected.errors and len(expected.records) == 2
    result = parse_text("\ufeff" + text)
    assert not result.errors and result.records == expected.records


def test_a_parse_from_a_line_numbers_rows_from_it_and_keeps_a_bom():
    # the rest of a sheet: no header, and a U+FEFF that opens it is data
    part = "\ufeffs1,A,2000,,,ICC,0.5,12\ns2,A,2000,,,IEC,2.0,40\n"
    result = parse_text(part, 41)
    assert result.records.study_id == ("\ufeffs1",)
    assert [str(e) for e in result.errors] == [
        "row 43: correlation out of open interval (-1,1)"]
    with pytest.raises(ParseFailure, match="row 43: input is not valid UTF-8"):
        parse_records(io.BytesIO(b"s1,A,2000,,,ICC,0.5,12\ns2,\xff\n"), 41)
    assert parse_records(io.BytesIO(b""), 41) == ParseResult(typed_records(), [])


# read_sheet parses a regular file of _FORK_MIN_BYTES or more in two
# processes when this one may use two CPUs; below, the gate is lowered so
# that small sheets split, and the sched_getaffinity of two CPUs is faked.


def parsed_and_hashed(data):
    """What read_sheet must return for a sheet of data, however it reads it."""
    return parse_records(io.BytesIO(data)), hashlib.sha256(data).hexdigest()


@pytest.fixture
def forks(monkeypatch):
    yield from counted_forks(monkeypatch, ingest, "_FORK_MIN_BYTES")


def sheet_rows():
    return wide_sheet(80, seed=25).encode().splitlines(keepends=True)


def test_read_sheet_of_a_small_file(tmp_path, monkeypatch):
    def refuse():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", refuse)  # below the gate, on any CPUs
    data = b"".join(sheet_rows())
    sheet = tmp_path / "sheet.csv"
    sheet.write_bytes(data)
    assert read_sheet(sheet) == read_sheet(str(sheet)) == parsed_and_hashed(data)


@pytest.mark.parametrize("ending", [b"\n", b"\r\n"], ids=["lf", "crlf"])
def test_read_sheet_of_a_file_split_in_two(ending, forks, tmp_path):
    rows = [row.replace(b"\n", ending) for row in sheet_rows()]
    for k in (10, len(rows) - 10):  # one bad row in each half
        rows[k] = rows[k][:rows[k].rindex(b",")] + b",many" + ending
    data = b"".join(rows)
    sheet = tmp_path / "sheet.csv"
    sheet.write_bytes(data)
    result, digest = read_sheet(sheet)
    assert len(forks) == 1
    assert (result, digest) == parsed_and_hashed(data)
    assert [e.line for e in result.errors] == [11, len(rows) - 9]


def test_read_sheet_does_not_split_a_quoted_sheet(forks, tmp_path):
    rows = sheet_rows()
    rows[10] = rows[10].replace(b",,", b',"Study, 10",', 1)
    data = b"".join(rows)
    sheet = tmp_path / "sheet.csv"
    sheet.write_bytes(data)
    assert read_sheet(sheet) == parsed_and_hashed(data)
    assert forks == []


def test_read_sheet_of_a_fifo(forks, tmp_path):
    data = b"".join(sheet_rows())
    (tmp_path / "sheet.csv").write_bytes(data)
    os.mkfifo(tmp_path / "fifo.csv")
    writer = subprocess.Popen(["sh", "-c", 'cat "$0" > "$1"', str(tmp_path / "sheet.csv"),
                               str(tmp_path / "fifo.csv")])
    try:
        assert read_sheet(tmp_path / "fifo.csv") == parsed_and_hashed(data)
    finally:
        assert writer.wait(timeout=30) == 0
    assert forks == []  # a pipe is read whole here, not split


@pytest.fixture
def forks_at_the_gate(monkeypatch):
    yield from counted_forks(monkeypatch, ingest, "_FORK_MIN_BYTES", ingest._FORK_MIN_BYTES)


def test_a_split_across_one_study_gives_the_typed_columns_of_one_parse(forks_at_the_gate,
                                                                       tmp_path):
    # above the gate, and cut between two rows of one study
    data = wide_sheet(12_000, seed=14).encode()
    assert len(data) >= ingest._FORK_MIN_BYTES
    cut = ingest._hash_sheet(io.BytesIO(data), hashlib.sha256(), len(data) // 2)[0]
    before, after = data[:cut].splitlines()[-1], data[cut:].split(b"\n", 1)[0]
    study = before.split(b",")[0].decode()
    assert after.split(b",")[0].decode() == study
    sheet = tmp_path / "sheet.csv"
    sheet.write_bytes(data)
    result, _ = read_sheet(sheet)
    assert len(forks_at_the_gate) == 1 and not result.errors
    one = parse_records(io.BytesIO(data))
    assert result.records == one.records
    assert column_types(result.records) == column_types(one.records) == column_types(
        typed_records())
    kept = group_complete_studies(result.records).groups.study_id
    assert kept.count(study) == 1
    assert kept == group_complete_studies(one.records).groups.study_id


def test_a_parse_holds_one_study_id_object_per_study():
    # rows of one study need not be adjacent
    head, *lines = wide_sheet(300, seed=3).splitlines()
    random.Random(5).shuffle(lines)
    ids = parse_text("\n".join([head, *lines]) + "\n").records.study_id
    assert len(ids) == len(lines) > 880
    assert len({id(s) for s in ids}) == len(set(ids)) == 300


def test_read_sheet_of_a_missing_path_raises_oserror(tmp_path, capsys):
    with pytest.raises(OSError):
        read_sheet(tmp_path / "nope.csv")
    assert main(["audit", "--input", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "out")]) == EXIT_IO
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out").exists()


def test_parsing_holds_about_the_columns_it_returns(tmp_path):
    # The sheet is parsed as it is read. Decoding it whole, wrapping the text
    # in a StringIO and keeping a list of row tuples peaked at 3.5 times the
    # columns.
    sheet = tmp_path / "sheet.csv"
    sheet.write_text(wide_sheet(10_000, seed=12), encoding="utf-8")
    with open(sheet, "rb") as binary:
        tracemalloc.start()
        try:
            result = parse_records(binary)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert len(result.records) > 29_000 and not result.errors
    assert peak < 2 * held, peak / held


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
    return group_complete_studies(typed_records(*zip(*rows)))


def test_grouping_keeps_only_complete_studies():
    report = group(complete_study("s1") + complete_study("s2")[:2])  # s2 lacks IEC
    assert report.groups.study_id == ["s1"]
    assert len(report.groups) == 1
    assert report.dropped == [("s2", "missing class(es): IEC")]


def test_grouping_sorted_and_totals():
    report = group(complete_study("b", n=20) + complete_study("a", n=15))
    assert report.groups.study_id == ["a", "b"]
    assert report.groups.study_n == [15, 20]
    assert sum(report.groups.study_n) == 35


def test_grouping_empty_input_flagged():
    report = group([])
    assert len(report.groups) == 0
    assert report.dropped == []
    assert sum(report.groups.study_n) == 0


def test_grouping_idempotent_on_duplication():
    rows = complete_study("s1") + complete_study("s2", n=22)
    assert group(rows).groups.study_id == group(rows + rows).groups.study_id


def test_duplicate_rows_are_retained_not_deduplicated():
    report = group(complete_study("s1") + complete_study("s1"))
    # both copies of each class's record, in input order
    assert report.groups.positions == {
        cls: array("q", [k, k + 3]) for k, cls in enumerate(CorrelationClass)}
    assert report.groups.offsets == {cls: array("q", [0, 2]) for cls in CorrelationClass}


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


# Records of a few study ids in any order: duplicate rows, studies missing a
# class and studies interleaved with one another are all common.
record_rows = st.lists(st.tuples(st.sampled_from(["s3", "s1", "s10", "s2", "t"]),
                                 st.sampled_from(list(CorrelationClass)),
                                 st.floats(-0.99, 0.99), st.integers(4, 60)),
                       max_size=40)


@settings(max_examples=300, deadline=None)
@given(rows=record_rows)
def test_grouping_equals_a_dict_of_lists_reference(rows):
    by_study = {}
    for i, (sid, cls, _, _) in enumerate(rows):
        by_study.setdefault(sid, {c: [] for c in CorrelationClass})[cls].append(i)
    kept = sorted(sid for sid, by_class in by_study.items() if all(by_class.values()))
    report = group(rows)
    groups = report.groups
    assert groups.study_id == kept
    assert groups.study_n == [max(n for s, _, _, n in rows if s == sid) for sid in kept]
    for cls in CorrelationClass:
        members = [by_study[sid][cls] for sid in kept]
        assert groups.positions[cls] == array("q", [i for idx in members for i in idx])
        assert groups.offsets[cls] == array("q", [0, *accumulate(map(len, members))])
        assert [[r.hex() for r in v] for v in groups.values(cls, "r")] == [
            [rows[i][2].hex() for i in idx] for idx in members]
    assert report.dropped == [
        (sid, "missing class(es): "
         + ", ".join(c.value for c in CorrelationClass if not by_study[sid][c]))
        for sid in sorted(by_study) if sid not in kept]


def test_paper_structure_fixture_counts(null_csv):
    # Synthetic sheet with the same shape as the real extraction:
    # 27 complete studies whose per-study n values sum to 535.
    result = parse_records(io.BytesIO(null_csv.read_bytes()))
    assert not result.errors
    report = group_complete_studies(result.records)
    assert len(report.groups) == 27
    assert sum(report.groups.study_n) == 535
