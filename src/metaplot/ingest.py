"""CSV ingestion and validation of study-level correlation records.

Input schema (UTF-8, comma-separated, header required):

    study_id,author,year,title,journal,class,r,n

`class` is one of ICC, ECC, IEC (case-sensitive); `title` and `journal`
may be empty; `r` must lie strictly inside (-1, 1); `n` must exceed 3 so
the Fisher standard error 1/sqrt(n-3) exists.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from enum import Enum
from typing import BinaryIO, Iterable, TextIO, Union

__all__ = [
    "CorrelationClass",
    "StudyRecord",
    "StudyGroup",
    "RowError",
    "ParseFailure",
    "ParseResult",
    "GroupingReport",
    "REQUIRED_COLUMNS",
    "parse_records",
    "group_complete_studies",
]

REQUIRED_COLUMNS = ("study_id", "author", "year", "title", "journal", "class", "r", "n")


class CorrelationClass(str, Enum):
    """The three correlation families a complete study must report."""

    ICC = "ICC"  # instrument score vs. real-world criterion
    ECC = "ECC"  # explicit measure vs. real-world criterion
    IEC = "IEC"  # instrument score vs. explicit measure


_CLASS_BY_TAG = {c.value: c for c in CorrelationClass}
_CLASS_COUNT = len(_CLASS_BY_TAG)


class ParseFailure(ValueError):
    """Raised for unusable input (bad header/encoding, or strict-mode rows)."""


@dataclass(frozen=True)
class RowError:
    """One rejected CSV row, positioned by file line number."""

    line: int
    message: str

    def __str__(self) -> str:
        return f"row {self.line}: {self.message}"


@dataclass(frozen=True)
class StudyRecord:
    study_id: str
    author: str
    year: int
    title: str | None
    journal: str | None
    cls: CorrelationClass
    r: float
    n: int

    def __post_init__(self) -> None:
        if not self.study_id:
            raise ValueError("study_id must be non-empty")
        if not abs(self.r) < 1.0:
            raise ValueError("correlation out of open interval (-1,1)")
        if self.n < 4:
            raise ValueError("sample size must exceed 3")


@dataclass
class ParseResult:
    records: list[StudyRecord]
    errors: list[RowError]

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_if_errors(self) -> list[StudyRecord]:
        if self.errors:
            raise ParseFailure("; ".join(str(e) for e in self.errors))
        return self.records


@dataclass(frozen=True)
class StudyGroup:
    """All records of one study, partitioned by correlation class."""

    study_id: str
    by_class: dict[CorrelationClass, tuple[StudyRecord, ...]]

    def records_for(self, cls: CorrelationClass) -> tuple[StudyRecord, ...]:
        return self.by_class.get(cls, ())

    @property
    def study_n(self) -> int:
        """Per-study sample size: the largest record n in the group.

        Extraction sheets typically repeat one study-level n across rows,
        in which case this is exactly that n.
        """
        return max(rec.n for recs in self.by_class.values() for rec in recs)


@dataclass
class GroupingReport:
    """Complete study groups plus an audit trail of what was dropped."""

    groups: list[StudyGroup]
    dropped: list[tuple[str, str]]  # (study_id, reason)
    total_n: int  # summed per-study n over retained groups
    empty_input: bool = False

    @property
    def retained_count(self) -> int:
        return len(self.groups)

    @property
    def dropped_count(self) -> int:
        return len(self.dropped)


Source = Union[bytes, str, TextIO, BinaryIO]


def _as_text(source: Source) -> str:
    if hasattr(source, "read"):
        source = source.read()  # type: ignore[union-attr]
    if isinstance(source, bytes):
        try:
            return source.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise ParseFailure(f"input is not valid UTF-8: {exc}") from exc
    return str(source)


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


def _parse_row(row: list[str]) -> StudyRecord:
    if len(row) != len(REQUIRED_COLUMNS):
        raise ValueError(f"expected {len(REQUIRED_COLUMNS)} fields, got {len(row)}")
    study_id, author, year_s, title, journal, cls_s, r_s, n_s = map(str.strip, row)
    problems: list[str] = []
    year = 0
    r = 0.0
    n = 4
    try:
        year = int(year_s)
    except ValueError:
        problems.append(f"unparseable year {year_s!r}")
    cls = _CLASS_BY_TAG.get(cls_s)
    if cls is None:
        problems.append(f"unknown class tag {cls_s!r} (expected ICC, ECC, or IEC)")
    try:
        r = float(r_s)
    except ValueError:
        problems.append(f"unparseable correlation {r_s!r}")
    try:
        n = int(n_s)
    except ValueError:
        problems.append(f"unparseable sample size {n_s!r}")
    if problems:
        raise ValueError("; ".join(problems))
    return StudyRecord(study_id, author, year, title or None, journal or None, cls, r, n)


def parse_records(source: Source, strict: bool = False) -> ParseResult:
    """Parse CSV input into validated study records.

    Every data row yields exactly one record or one positioned error; by
    default all errors are collected so a whole extraction sheet can be
    fixed in one pass. With strict=True the first bad row raises.
    """
    reader = csv.reader(io.StringIO(_as_text(source), newline=""))
    records: list[StudyRecord] = []
    errors: list[RowError] = []
    try:
        _check_header(next(reader, None))
        for row in reader:
            if not "".join(row).strip():
                continue  # blank line, or only whitespace fields
            line = reader.line_num
            try:
                records.append(_parse_row(row))
            except ValueError as exc:
                if strict:
                    raise ParseFailure(f"row {line}: {exc}") from exc
                errors.append(RowError(line=line, message=str(exc)))
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise ParseFailure(f"row {reader.line_num}: {exc}") from exc
    return ParseResult(records=records, errors=errors)


def group_complete_studies(records: Iterable[StudyRecord]) -> GroupingReport:
    """Group records by study and keep only studies with all three classes.

    Groups come back in ascending study_id order. Every input study is
    accounted for: either retained or listed in `dropped` with the missing
    classes named. `total_n` sums the per-study n over retained groups.
    """
    buckets: dict[str, dict[CorrelationClass, list[StudyRecord]]] = {}
    for rec in records:
        buckets.setdefault(rec.study_id, {}).setdefault(rec.cls, []).append(rec)

    groups: list[StudyGroup] = []
    dropped: list[tuple[str, str]] = []
    for study_id in sorted(buckets):
        bucket = buckets[study_id]  # holds only classes with at least one record
        if len(bucket) == _CLASS_COUNT:
            by_class = {cls: tuple(recs) for cls, recs in bucket.items()}
            groups.append(StudyGroup(study_id, by_class))
        else:
            missing = [c.value for c in CorrelationClass if c not in bucket]
            dropped.append((study_id, f"missing class(es): {', '.join(missing)}"))

    return GroupingReport(
        groups=groups,
        dropped=dropped,
        total_n=sum(g.study_n for g in groups),
        empty_input=not buckets,
    )
