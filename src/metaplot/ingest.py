"""CSV ingestion and validation of study-level correlation records.

Input schema (UTF-8, comma-separated, header required):

    study_id,author,year,title,journal,class,r,n

`class` is one of ICC, ECC, IEC (case-sensitive); `title` and `journal`
may be empty; `r` must lie strictly inside (-1, 1); `n` must exceed 3 so
the Fisher standard error 1/sqrt(n-3) exists, and may not exceed
MAX_SAMPLE_SIZE.

A parsed sheet is held as parallel columns (`Records`) of the fields the
audit reads, `study_id`, `class`, `r` and `n`; `author`, `year`, `title` and
`journal` are checked (`year` must parse as an integer), not kept. The
complete studies are held as record indices per class (`Groups`); no per-row
object is ever built. `_parse_row` is the one place a record is checked.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from enum import Enum
from typing import Any, BinaryIO, Iterable, Sequence, TextIO, Union

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

    @classmethod
    def from_rows(cls, rows: Iterable[tuple]) -> "Records":
        """Transpose (study_id, cls, r, n) rows."""
        return cls(*(list(zip(*rows)) or [(), (), (), ()]))

    def __len__(self) -> int:
        return len(self.r)


@dataclass
class ParseResult:
    records: Records
    errors: list[RowError]


@dataclass(frozen=True)
class Groups:
    """Complete studies in ascending study_id order, as columns.

    `record_index[cls][i]` lists the positions in `records` of study i's
    records of class cls, in input order. `study_n[i]` is study i's
    study-level n, its largest record n: extraction sheets typically repeat
    one study-level n across rows, in which case this is exactly that n.
    """

    records: Records
    study_id: list[str]
    record_index: dict[CorrelationClass, list[list[int]]]
    study_n: list[int]

    def __len__(self) -> int:
        return len(self.study_id)

    def values(self, cls: CorrelationClass, column: str) -> list[list[Any]]:
        """Per study, `column`'s values of its records of class cls."""
        col = getattr(self.records, column)
        return [[col[j] for j in idx] for idx in self.record_index[cls]]


@dataclass
class GroupingReport:
    """Complete study groups plus an audit trail of what was dropped."""

    groups: Groups
    dropped: list[tuple[str, str]]  # (study_id, reason)
    total_n: int  # summed per-study n over retained groups

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


def parse_records(source: Source) -> ParseResult:
    """Parse CSV input into validated study records.

    Every data row yields exactly one record or one positioned error, and
    all errors are collected so a whole extraction sheet can be fixed in
    one pass. Input that cannot be read as a sheet at all raises
    ParseFailure.
    """
    reader = csv.reader(io.StringIO(_as_text(source), newline=""))
    rows: list[tuple] = []
    errors: list[RowError] = []
    try:
        _check_header(next(reader, None))
        for row in reader:
            try:
                rows.append(_parse_row(row))
            except ValueError as exc:
                # a blank line, or only whitespace fields, never parses and is skipped
                if "".join(row).strip():
                    errors.append(RowError(line=reader.line_num, message=str(exc)))
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise ParseFailure(f"row {reader.line_num}: {exc}") from exc
    return ParseResult(records=Records.from_rows(rows), errors=errors)


def group_complete_studies(records: Records) -> GroupingReport:
    """Group records by study and keep only studies with all three classes.

    Groups come back in ascending study_id order. Every input study is
    accounted for: either retained or listed in `dropped` with the missing
    classes named. `total_n` sums the per-study n over retained groups.
    """
    by_study: dict[str, list[int]] = {}
    for i, study_id in enumerate(records.study_id):
        members = by_study.get(study_id)
        if members is None:
            by_study[study_id] = [i]
        else:
            members.append(i)

    class_pos = list(map(_CLASS_POS.__getitem__, records.cls))
    n_of = records.n.__getitem__
    kept: list[str] = []
    kept_index: list[tuple[list[int], ...]] = []
    study_n: list[int] = []
    dropped: list[tuple[str, str]] = []
    for study_id in sorted(by_study):
        members = by_study[study_id]
        index: tuple[list[int], ...] = tuple([] for _ in _CLASSES)
        for i in members:
            index[class_pos[i]].append(i)
        if all(index):
            kept.append(study_id)
            kept_index.append(index)
            study_n.append(max(map(n_of, members)))
        else:
            missing = [c.value for c, idx in zip(_CLASSES, index) if not idx]
            dropped.append((study_id, f"missing class(es): {', '.join(missing)}"))

    record_index = dict(zip(_CLASSES, map(list, zip(*kept_index)))) or {c: [] for c in _CLASSES}
    groups = Groups(records, kept, record_index, study_n)
    return GroupingReport(groups=groups, dropped=dropped, total_n=sum(study_n))
