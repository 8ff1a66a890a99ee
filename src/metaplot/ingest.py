"""CSV ingestion and validation of study-level correlation records.

Input schema (UTF-8, comma-separated, header required):

    study_id,author,year,title,journal,class,r,n

`class` is one of ICC, ECC, IEC (case-sensitive); `title` and `journal`
may be empty; `r` must lie strictly inside (-1, 1); `n` must exceed 3 so
the Fisher standard error 1/sqrt(n-3) exists, and may not exceed
MAX_SAMPLE_SIZE.

A sheet is parsed as it is read: `csv.reader` runs over the decoded stream
of a binary file (or of bytes), and each row's fields go straight into
parallel columns (`Records`) of the fields the audit reads, `study_id`,
`class`, `r` and `n`; `author`, `year`, `title` and `journal` are checked
(`year` must parse as an integer), not kept. Neither the whole text nor a
list of rows is ever held (any other reader is read whole first). The
complete studies are held as one flat list of record positions per class,
with each study's offsets into it (`Groups`); no per-row or per-study
object is kept. `_parse_row` is the one place a record is checked.
"""

from __future__ import annotations

import csv
import io
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from itertools import pairwise
from typing import Any, BinaryIO, Sequence, TextIO, Union

__all__ = [
    "CorrelationClass",
    "Records",
    "Groups",
    "RowError",
    "ParseFailure",
    "ParseResult",
    "GroupingReport",
    "REQUIRED_COLUMNS",
    "MAX_SAMPLE_SIZE",
    "parse_records",
    "group_complete_studies",
]

REQUIRED_COLUMNS = ("study_id", "author", "year", "title", "journal", "class", "r", "n")
# Far above any real sample, and small enough that a class's summed n stays a
# finite float (for sqrt(n - 3)) however many records a sheet holds.
MAX_SAMPLE_SIZE = 2**63 - 1


class CorrelationClass(str, Enum):
    """The three correlation families a complete study must report."""

    ICC = "ICC"  # instrument score vs. real-world criterion
    ECC = "ECC"  # explicit measure vs. real-world criterion
    IEC = "IEC"  # instrument score vs. explicit measure


_CLASSES = tuple(CorrelationClass)
_CLASS_BY_TAG = {c.value: c for c in _CLASSES}
_CLASS_POS = {c: k for k, c in enumerate(_CLASSES)}


class ParseFailure(ValueError):
    """Raised for unusable input: bad header, encoding or CSV structure."""


@dataclass(frozen=True)
class RowError:
    """One rejected CSV row, positioned by file line number."""

    line: int
    message: str

    def __str__(self) -> str:
        return f"row {self.line}: {self.message}"


@dataclass(frozen=True)
class Records:
    """Study records as parallel columns (one tuple per field), in input order."""

    study_id: Sequence[str]
    cls: Sequence[CorrelationClass]
    r: Sequence[float]
    n: Sequence[int]

    def __len__(self) -> int:
        return len(self.r)


@dataclass
class ParseResult:
    records: Records
    errors: list[RowError]


@dataclass(frozen=True)
class Groups:
    """Complete studies in ascending study_id order, as columns.

    `positions[cls]` lists the positions in `records` of the studies' records
    of class cls, study after study, each study's in input order; study i's
    are `positions[cls][offsets[cls][i]:offsets[cls][i + 1]]`. `study_n[i]` is
    study i's study-level n, its largest record n: extraction sheets
    typically repeat one study-level n across rows, in which case this is
    exactly that n.
    """

    records: Records
    study_id: list[str]
    positions: dict[CorrelationClass, list[int]]
    offsets: dict[CorrelationClass, list[int]]
    study_n: list[int]

    def __len__(self) -> int:
        return len(self.study_id)

    def values(self, cls: CorrelationClass, column: str) -> list[list[Any]]:
        """Per study, `column`'s values of its records of class cls."""
        col = getattr(self.records, column)
        flat = [col[j] for j in self.positions[cls]]  # faster than map(col.__getitem__)
        return [flat[lo:hi] for lo, hi in pairwise(self.offsets[cls])]


@dataclass
class GroupingReport:
    """Complete study groups plus an audit trail of what was dropped."""

    groups: Groups
    dropped: list[tuple[str, str]]  # (study_id, reason)


Source = Union[bytes, str, TextIO, BinaryIO]


def _check_header(header: list[str] | None) -> None:
    if header is None:
        raise ParseFailure("empty input: missing header row")
    got = [h.strip() for h in header]
    if got != list(REQUIRED_COLUMNS):
        missing = [c for c in REQUIRED_COLUMNS if c not in got]
        if missing:
            raise ParseFailure(f"missing column(s): {', '.join(missing)}")
        raise ParseFailure(
            f"header must be exactly {','.join(REQUIRED_COLUMNS)}, got {','.join(got)}"
        )


def _parses(convert: type, text: str) -> bool:
    try:
        convert(text)
    except ValueError:
        return False
    return True


def _problems(year_s: str, cls_s: str, r_s: str, n_s: str) -> list[str]:
    """What is unparseable in a row, in field order."""
    problems = []
    if not _parses(int, year_s):
        problems.append(f"unparseable year {year_s!r}")
    if cls_s not in _CLASS_BY_TAG:
        problems.append(f"unknown class tag {cls_s!r} (expected ICC, ECC, or IEC)")
    if not _parses(float, r_s):
        problems.append(f"unparseable correlation {r_s!r}")
    if not _parses(int, n_s):
        problems.append(f"unparseable sample size {n_s!r}")
    return problems


def _convert(year_s: str, cls_s: str, r_s: str, n_s: str) -> tuple:
    """class, r and n from their stripped text, once the year parses too, or
    a ValueError naming every field that does not parse."""
    year_s, cls_s, r_s, n_s = map(str.strip, (year_s, cls_s, r_s, n_s))
    try:
        int(year_s)
        return _CLASS_BY_TAG[cls_s], float(r_s), int(n_s)
    except (KeyError, ValueError):
        raise ValueError("; ".join(_problems(year_s, cls_s, r_s, n_s))) from None


def _parse_row(row: list[str]) -> tuple:
    """One data row as (study_id, cls, r, n), or a ValueError naming every
    unparseable field or the first failed check."""
    if len(row) != len(REQUIRED_COLUMNS):
        raise ValueError(f"expected {len(REQUIRED_COLUMNS)} fields, got {len(row)}")
    study_id, _, year_s, _, _, cls_s, r_s, n_s = row
    try:
        # int() and float() skip surrounding whitespace themselves, except
        # the separators \x1c-\x1f, which str.strip() removes: _convert
        # strips the fields and tries again.
        int(year_s)
        cls, r, n = _CLASS_BY_TAG[cls_s.strip()], float(r_s), int(n_s)
    except (KeyError, ValueError):
        cls, r, n = _convert(year_s, cls_s, r_s, n_s)
    study_id = study_id.strip()
    if not study_id:
        raise ValueError("study_id must be non-empty")
    if not abs(r) < 1.0:
        raise ValueError("correlation out of open interval (-1,1)")
    if n < 4:
        raise ValueError("sample size must exceed 3")
    if n > MAX_SAMPLE_SIZE:
        raise ValueError(f"sample size must not exceed {MAX_SAMPLE_SIZE}")
    return study_id, cls, r, n


def _undecodable_line(binary: BinaryIO, lines_read: int, exc: UnicodeDecodeError) -> int:
    r"""The line of the bytes a decoder of `binary` failed on, after the
    reader had read `lines_read` lines. exc.object is the chunk being
    decoded, which ends where binary was left and begins on the line after
    the last one read, unless the text before it ends in a lone '\r': the
    decoder holds that back to see whether '\n' follows, so its line was
    not read. A binary that cannot seek back to look (a pipe) leaves that
    line uncounted."""
    head = exc.object[:exc.start]
    line = lines_read + 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
    if binary.seekable() and exc.object[:1] != b"\n":
        start = binary.tell() - len(exc.object)
        if start > 0:
            binary.seek(start - 1)
            line += binary.read(1) == b"\r"
    return line


def parse_records(source: Source) -> ParseResult:
    """Parse CSV input into validated study records.

    Every data row yields exactly one record or one positioned error, and
    all errors are collected so a whole extraction sheet can be fixed in
    one pass. Input that cannot be read as a sheet at all raises
    ParseFailure. A binary file (an io.RawIOBase or io.BufferedIOBase) is
    read as it is parsed, and left open; any other object with .read() is
    read whole first. A leading byte order mark is skipped, in text as in
    bytes.
    """
    if not isinstance(source, (io.RawIOBase, io.BufferedIOBase)):
        if hasattr(source, "read"):
            source = source.read()  # type: ignore[union-attr]
        source = (io.StringIO(source.removeprefix("\ufeff"), newline="")  # as utf-8-sig does
                  if isinstance(source, str) else io.BytesIO(source))
    text = source if isinstance(source, io.StringIO) else io.TextIOWrapper(
        source, encoding="utf-8-sig", newline="")
    reader = csv.reader(text)
    columns: tuple[list, ...] = ([], [], [], [])
    add_study_id, add_cls, add_r, add_n = (column.append for column in columns)
    errors: list[RowError] = []
    try:
        _check_header(next(reader, None))
        for row in reader:
            try:
                study_id, cls, r, n = _parse_row(row)
            except ValueError as exc:
                # a blank line, or only whitespace fields, never parses and is skipped
                if "".join(row).strip():
                    errors.append(RowError(line=reader.line_num, message=str(exc)))
            else:
                add_study_id(study_id)
                add_cls(cls)
                add_r(r)
                add_n(n)
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise ParseFailure(f"row {reader.line_num}: {exc}") from exc
    except UnicodeDecodeError as exc:
        line = _undecodable_line(source, reader.line_num, exc)
        bad = exc.object[exc.start:exc.end].hex(" ")
        raise ParseFailure(f"row {line}: input is not valid UTF-8 ({exc.reason}: {bad})") from exc
    finally:
        if text is not source:
            text.detach()  # so that collecting the wrapper does not close source
    return ParseResult(records=Records(*map(tuple, columns)), errors=errors)


def group_complete_studies(records: Records) -> GroupingReport:
    """Group records by study and keep only studies with all three classes.

    Groups come back in ascending study_id order. Every input study is
    accounted for: either retained or listed in `dropped` with the missing
    classes named.
    """
    by_study: dict[str, list[int]] = defaultdict(list)
    for i, study_id in enumerate(records.study_id):
        by_study[study_id].append(i)

    class_pos = list(map(_CLASS_POS.__getitem__, records.cls))
    n_of = records.n.__getitem__
    kept: list[str] = []
    study_n: list[int] = []
    dropped: list[tuple[str, str]] = []
    # unrolled over the three classes: no generator or zip per study
    positions = p0, p1, p2 = [], [], []
    offsets = o0, o1, o2 = [0], [0], [0]
    for study_id in sorted(by_study):
        members = by_study[study_id]
        index = i0, i1, i2 = [], [], []
        for i in members:
            index[class_pos[i]].append(i)
        if i0 and i1 and i2:
            kept.append(study_id)
            study_n.append(max(map(n_of, members)))
            p0 += i0
            p1 += i1
            p2 += i2
            o0.append(len(p0))
            o1.append(len(p1))
            o2.append(len(p2))
        else:
            missing = [c.value for c, idx in zip(_CLASSES, index) if not idx]
            dropped.append((study_id, f"missing class(es): {', '.join(missing)}"))

    groups = Groups(records, kept, dict(zip(_CLASSES, positions)),
                    dict(zip(_CLASSES, offsets)), study_n)
    return GroupingReport(groups=groups, dropped=dropped)
