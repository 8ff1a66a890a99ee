r"""CSV ingestion and validation of study-level correlation records.

Input schema (UTF-8, comma-separated, header required):

    study_id,author,year,title,journal,class,r,n

`class` is one of ICC, ECC, IEC (case-sensitive); `title` and `journal`
may be empty; `r` must lie strictly inside (-1, 1); `n` must exceed 3 so
the Fisher standard error 1/sqrt(n-3) exists, and may not exceed
MAX_SAMPLE_SIZE.

A sheet is parsed as it is read from a binary stream: in blocks of 64
KiB, decoded as UTF-8 after an optional BOM by one incremental decoder,
and cut at the last line end of each. A block with no `"`, no NUL,
no `\r` but in `\r\n` and no line longer than `csv.field_size_limit()`
holds exactly the rows `csv.reader` would give, one per line and split at
its commas, so `str.split` splits it. From the first block that fails that
test, `csv.reader` parses the rest of the sheet, as a quoted field may span
blocks. Each row's fields go straight into parallel columns (`Records`) of
the fields the audit reads, `study_id`, `class`, `r` and `n`; `author`,
`year`, `title` and `journal` are checked (`year` must parse as an
integer), not kept. Each row is checked inline, on its fields as they are;
a row that check does not accept goes to `_parse_row`, which strips every
field first and names what is wrong.
Neither the whole text nor a list of rows is ever held. Failures follow
input order: the first line that fails, with a bad header, a field over
the limit or bytes that are not UTF-8, is the one reported, whichever
block it lies in. The complete
studies are held as one flat array of record positions per class, with
each study's offsets into it (`Groups`); no per-row or per-study object is
kept but each study's id, one str that all its records share. `read_sheet`
opens, hashes and parses a sheet by path, a large one in two halves.
"""

from __future__ import annotations

import codecs
import csv
import hashlib
import io
import os
import stat
from array import array
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import chain, pairwise, repeat
from operator import add, length_hint
from typing import Any, BinaryIO, Callable, Iterator, Sequence

from ._fork import forked

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
    "read_sheet",
    "group_complete_studies",
]

REQUIRED_COLUMNS = ("study_id", "author", "year", "title", "journal", "class", "r", "n")
# Far above any real sample, and small enough that a class's summed n stays a
# finite float (for sqrt(n - 3)) however many records a sheet holds.
MAX_SAMPLE_SIZE = 2**63 - 1
# Bytes read at a time: a block of whole lines is split without csv.reader
# when nothing in it needs csv's quoting rules.
_BLOCK_SIZE = 1 << 16
# The fewest bytes at which read_sheet parses a sheet in two halves: below it
# the fork and the records sent back cost what the halving saves (README).
_FORK_MIN_BYTES = 1 << 20


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
    """Study records as parallel columns, in input order: tuples of study ids
    (one str per study, shared by its records) and classes, r in an
    array('d') and n in an array('q')."""

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

    `positions[cls]`, an array('q'), holds the positions in `records` of the
    studies' records of class cls, study after study, each study's in input
    order; study i's are `positions[cls][offsets[cls][i]:offsets[cls][i + 1]]`,
    with `offsets[cls]` an array('q') too. `study_n[i]` is study i's
    study-level n, its largest record n: extraction sheets typically repeat
    one study-level n across rows, in which case this is exactly that n.
    """

    records: Records
    study_id: list[str]
    positions: dict[CorrelationClass, Sequence[int]]
    offsets: dict[CorrelationClass, Sequence[int]]
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


def _parse_row(row: list[str]) -> tuple:
    """One data row as (study_id, cls, r, n), its fields stripped, or a
    ValueError naming every unparseable field or the first failed check."""
    if len(row) != len(REQUIRED_COLUMNS):
        raise ValueError(f"expected {len(REQUIRED_COLUMNS)} fields, got {len(row)}")
    study_id, _, year_s, _, _, cls_s, r_s, n_s = map(str.strip, row)
    try:
        int(year_s)
        cls, r, n = _CLASS_BY_TAG[cls_s], float(r_s), int(n_s)
    except (KeyError, ValueError):
        raise ValueError("; ".join(_problems(year_s, cls_s, r_s, n_s))) from None
    if not study_id:
        raise ValueError("study_id must be non-empty")
    if not abs(r) < 1.0:
        raise ValueError("correlation out of open interval (-1,1)")
    if n < 4:
        raise ValueError("sample size must exceed 3")
    if n > MAX_SAMPLE_SIZE:
        raise ValueError(f"sample size must not exceed {MAX_SAMPLE_SIZE}")
    return study_id, cls, r, n


def _blocks(binary: BinaryIO, encoding: str) -> Iterator[str]:
    r"""The text of binary, decoded as encoding ('utf-8' or 'utf-8-sig'), in
    blocks of whole lines: each block but the last ends at a line end
    ('\n', '\r\n' or a lone '\r'); a '\r' that ends what was read waits
    for the next read to show whether '\n' follows. Where the bytes stop
    being UTF-8, the lines before that point come as a last block, and then
    the UnicodeDecodeError is raised."""
    decode = codecs.getincrementaldecoder(encoding)().decode
    pieces: list[str] = []  # the text since the last line end
    while True:
        data = binary.read(_BLOCK_SIZE)
        try:
            text = decode(data, final=not data)
        except UnicodeDecodeError as exc:
            text = "".join(pieces) + exc.object[:exc.start].decode("utf-8")
            if cut := max(text.rfind("\n"), text.rfind("\r")) + 1:
                yield text[:cut]
            raise
        if not data:
            if text := "".join(pieces) + text:
                yield text
            return
        end = len(text) - text.endswith("\r")
        if cut := max(text.rfind("\n", 0, end), text.rfind("\r", 0, end)) + 1:
            pieces.append(text[:cut])
            yield "".join(pieces)
            pieces = [text[cut:]]
        else:
            pieces.append(text)


def _splits_like_csv(text: str, limit: int) -> list[str] | None:
    r"""The lines of text, if csv.reader would give each as one row split at
    its commas: text has no quote, no NUL (Python 3.10's csv rejects it),
    no '\r' but in '\r\n', and no line over the field size limit."""
    if '"' in text or "\0" in text:
        return None
    if "\r" in text:
        if text.count("\r") != text.count("\r\n"):
            return None
        text = text.replace("\r\n", "\n")
    lines = text.split("\n")
    if not lines[-1]:  # the end of the last line, or empty text
        lines.pop()
    if len(text) > limit and max(map(len, lines)) > limit:
        return None
    return lines


def _take_rows(rows: Iterator[list[str]], line_of: Callable[[], int], columns: tuple,
               ids: dict[str, str], errors: list[RowError]) -> None:
    """Each row's record onto columns, or its RowError, at line_of(), onto
    errors; a blank row (no fields, or only whitespace) is skipped. Each
    study id is held once: ids maps it to its first str."""
    add_study_id, add_cls, add_r, add_n = (column.append for column in columns)
    same_id = ids.setdefault
    class_by_tag, max_n = _CLASS_BY_TAG, MAX_SAMPLE_SIZE
    for row in rows:
        try:
            # _parse_row's checks, on fields as they are: int() and float()
            # skip surrounding whitespace themselves, except the separators
            # \x1c-\x1f that str.strip() removes, so a row they do not accept
            # goes to _parse_row, which strips every field first
            study_id, _, year_s, _, _, cls_s, r_s, n_s = row
            int(year_s)
            cls, r, n = class_by_tag[cls_s], float(r_s), int(n_s)
            study_id = study_id.strip()
            if not (study_id and -1.0 < r < 1.0 and 3 < n <= max_n):
                raise ValueError
        except (KeyError, ValueError):
            try:
                study_id, cls, r, n = _parse_row(row)
            except ValueError as exc:
                if "".join(row).strip():
                    errors.append(RowError(line=line_of(), message=str(exc)))
                continue
        add_study_id(same_id(study_id, study_id))
        add_cls(cls)
        add_r(r)
        add_n(n)


def parse_records(source: BinaryIO, line: int = 0) -> ParseResult:
    """Parse CSV input into validated study records.

    Every data row yields exactly one record or one positioned error, and
    all errors are collected so a whole extraction sheet can be fixed in
    one pass. Input that cannot be read as a sheet at all raises
    ParseFailure, for its first line that fails. source is a binary stream,
    such as a file opened "rb" or an io.BytesIO, read as it is parsed and
    left open. A leading byte order mark is skipped unless line is past 0:
    source is then the part of a sheet after its first line lines, with no
    header, and its rows are numbered from line + 1.
    """
    blocks = _blocks(source, "utf-8" if line else "utf-8-sig")
    limit = csv.field_size_limit()
    columns = ([], [], array("d"), array("q"))  # every accepted n fits int64
    ids: dict[str, str] = {}
    errors: list[RowError] = []
    # from here on, line counts the lines parsed before the block being parsed
    reader = None
    try:
        for text in blocks:
            if (lines := _splits_like_csv(text, limit)) is None:
                # csv.reader parses the rest, as a quoted field may span blocks
                reader = csv.reader(chain.from_iterable(
                    map(io.StringIO, chain((text,), blocks), repeat(""))))
                if not line:
                    _check_header(next(reader, None))
                _take_rows(reader, lambda: line + reader.line_num, columns, ids, errors)
                break
            unread = iter(lines)
            if not line:
                _check_header(next(unread).split(","))
            # map splits one line at a time, so that only one row list is
            # alive for the cyclic collector to scan, and the line it split
            # last is line + len(lines) - length_hint(unread)
            _take_rows(map(str.split, unread, repeat(",")),
                       lambda: line + len(lines) - length_hint(unread), columns, ids, errors)
            line += len(lines)
        if not line and reader is None:
            _check_header(None)
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise ParseFailure(f"row {line + reader.line_num}: {exc}") from exc
    except UnicodeDecodeError as exc:
        line += reader.line_num if reader else 0
        bad = exc.object[exc.start:exc.end].hex(" ")
        raise ParseFailure(f"row {line + 1}: input is not valid UTF-8 ({exc.reason}: {bad})") from exc
    study_id, cls, r, n = columns
    return ParseResult(records=Records(tuple(study_id), tuple(cls), r, n), errors=errors)


class _Range(io.RawIOBase):
    """Bytes [pos, end) of the file open at fd, read with os.pread: it
    leaves the file offset alone, which a forked child shares."""

    def __init__(self, fd: int, pos: int, end: int) -> None:
        self.fd, self.pos, self.end = fd, pos, end

    def read(self, size: int) -> bytes:
        data = os.pread(self.fd, min(size, self.end - self.pos), self.pos)
        self.pos += len(data)
        return data


def _hash_sheet(sheet: BinaryIO, digest: Any,
                mid: int | None) -> tuple[int, int, int] | None:
    r"""Feed sheet's bytes to digest, and, if mid is given, return where a
    forked child can take over the parse: (cut, lines, end), with cut just
    past the first '\n' at or after offset mid, lines the number of '\n's
    before it, and end the sheet's size. None if there is no such '\n', or
    if a '"' or a '\r' outside '\r\n' comes before it, so that a line before
    the cut need not be one row."""
    pos = lines = 0
    cut = None
    held = b""  # a '\r' that ended the block before, which a '\n' may follow
    for block in iter(partial(sheet.read, 1 << 20), b""):
        digest.update(block)
        if mid is not None:
            at = block.find(b"\n", max(mid - pos, 0)) if pos + len(block) > mid else -1
            end = at + 1 or len(block)
            lines += block.count(b"\n", 0, end)
            head = held + block[:end]  # a copy only if a '\r' is held or the cut is inside
            held = b"\r" if head.endswith(b"\r") else b""
            if b'"' in head or (b"\r" in head and
                                b"\r" in head.removesuffix(held).replace(b"\r\n", b"")):
                mid = None
            elif at >= 0:
                cut, mid = pos + end, None
        pos += len(block)
    return None if cut is None else (cut, lines, pos)


def read_sheet(path: str | os.PathLike) -> tuple[ParseResult, str]:
    """(parse_records of the sheet at path, the sha256 hex digest of its
    bytes), or OSError if it cannot be opened or read. An unseekable file is
    read whole, and parsed whole. A regular file of _FORK_MIN_BYTES or more
    is cut at the first line end past its middle if each line before that
    is one row (see _hash_sheet). The lines before it are parsed here, and
    the rest by `forked`; its records and errors follow this process's, as
    in one parse, and a failure before the cut is raised first."""
    with open(path, "rb") as opened:
        # a pipe is read whole, so that it can be read twice
        sheet = opened if opened.seekable() else io.BytesIO(opened.read())
        digest = hashlib.sha256()
        fd = opened.fileno()
        info = os.fstat(fd)
        halves = stat.S_ISREG(info.st_mode) and info.st_size >= _FORK_MIN_BYTES
        split = _hash_sheet(sheet, digest, info.st_size // 2 if halves else None)
        if split is None:
            sheet.seek(0)
            return parse_records(sheet), digest.hexdigest()
        cut, lines, end = split
        with forked(lambda receive: parse_records(_Range(fd, cut, end), lines)) as child:
            result = parse_records(_Range(fd, 0, cut))
    return ParseResult(Records(*map(add, vars(result.records).values(),
                                    vars(child.value.records).values())),
                       result.errors + child.value.errors), digest.hexdigest()


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
    positions = p0, p1, p2 = array("q"), array("q"), array("q")
    offsets = o0, o1, o2 = array("q", [0]), array("q", [0]), array("q", [0])
    for study_id in sorted(by_study):
        members = by_study[study_id]
        index = i0, i1, i2 = [], [], []
        for i in members:
            index[class_pos[i]].append(i)
        if i0 and i1 and i2:
            kept.append(study_id)
            study_n.append(max(map(n_of, members)))
            p0.fromlist(i0)
            p1.fromlist(i1)
            p2.fromlist(i2)
            o0.append(len(p0))
            o1.append(len(p1))
            o2.append(len(p2))
        else:
            missing = [c.value for c, idx in zip(_CLASSES, index) if not idx]
            dropped.append((study_id, f"missing class(es): {', '.join(missing)}"))

    groups = Groups(records, kept, dict(zip(_CLASSES, positions)),
                    dict(zip(_CLASSES, offsets)), study_n)
    return GroupingReport(groups=groups, dropped=dropped)
