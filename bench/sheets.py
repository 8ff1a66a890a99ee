"""Seeded synthetic extraction sheets and the facts the audit must reproduce.

This module deliberately does not import metaplot: the sheets come from the
stdlib Mersenne Twister (`random.Random`) and write `r` at six decimals, so a
change to the program's own generator or special functions cannot change
the benchmark's inputs. The expected per-study p-values are recomputed here
with `math.atanh` / `math.erfc`, independently of the program.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

CLASSES = ("ICC", "ECC", "IEC")
HEADER = "study_id,author,year,title,journal,class,r,n\n"

# True correlation per class: a small effect, a null and a moderate effect,
# so the p-values spread over the whole unit interval.
_RHO = {"ICC": 0.10, "ECC": 0.0, "IEC": 0.25}
_R_MAX = 0.999999


@dataclass(frozen=True)
class SheetSpec:
    studies: int
    records_per_class: tuple[int, int]  # inclusive range
    incomplete_frac: float  # share of studies that lack one class entirely
    n_range: tuple[int, int]  # inclusive range of the study-level n
    subsample_frac: float = 0.0  # share of records reporting a smaller n


def _rows(spec: SheetSpec, seed: int) -> Iterator[tuple[str, str, str, int]]:
    """Yield (study_id, class, r as written, n) per record."""
    rng = random.Random(seed)
    for i in range(spec.studies):
        sid = f"s{i:06d}"
        study_n = rng.randint(*spec.n_range)
        classes = list(CLASSES)
        rng.shuffle(classes)
        if rng.random() < spec.incomplete_frac:
            classes.pop()
        for cls in classes:
            rho = max(-0.9, min(0.9, _RHO[cls] + rng.gauss(0.0, 0.05)))
            for _ in range(rng.randint(*spec.records_per_class)):
                n = study_n
                if rng.random() < spec.subsample_frac:
                    n = rng.randint(spec.n_range[0], study_n)
                z = math.atanh(rho) + rng.gauss(0.0, 1.0) / math.sqrt(n - 3)
                r = max(-_R_MAX, min(_R_MAX, math.tanh(z)))
                yield sid, cls, f"{r:.6f}", n


def write_sheet(path: Path, spec: SheetSpec, seed: int) -> None:
    """Write the sheet as the CSV the `audit` subcommand reads."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(HEADER)
        lines = []
        for sid, cls, r, n in _rows(spec, seed):
            num = int(sid[1:])
            title = f"Study {num}" if num % 2 else ""
            lines.append(f"{sid},Author{num % 997},{1980 + num % 44},{title},,{cls},{r},{n}\n")
            if len(lines) >= 10_000:
                fh.writelines(lines)
                lines.clear()
        fh.writelines(lines)


def _pvalue(mean_z: float, n: int) -> float:
    """Two-sided Fisher-z p-value, 2 * P(Z > |z * sqrt(n - 3)|)."""
    return min(1.0, math.erfc(abs(mean_z) * math.sqrt(n - 3) / math.sqrt(2.0)))


@dataclass
class Expected:
    retained: int
    dropped: int
    pvalues: dict[str, dict[str, float]]  # class -> study_id -> p


def _expected_from_records(
    records: Iterable[tuple[str, str, float, int]], agg: str, shared_n: bool
) -> Expected:
    by_study: dict[str, dict[str, list[tuple[float, int]]]] = {}
    for sid, cls, r, n in records:
        by_study.setdefault(sid, {}).setdefault(cls, []).append((r, n))
    pvalues: dict[str, dict[str, float]] = {cls: {} for cls in CLASSES}
    dropped = 0
    for sid, by_class in by_study.items():
        if len(by_class) < len(CLASSES):
            dropped += 1
            continue
        study_n = max(n for recs in by_class.values() for _, n in recs)
        for cls, recs in by_class.items():
            if agg == "mean-r":
                mean_z = math.atanh(sum(r for r, _ in recs) / len(recs))
            else:
                mean_z = sum(math.atanh(r) for r, _ in recs) / len(recs)
            n = study_n if shared_n else sum(n for _, n in recs)
            pvalues[cls][sid] = _pvalue(mean_z, n)
    return Expected(len(by_study) - dropped, dropped, pvalues)


def expected_for_sheet(spec: SheetSpec, seed: int, agg: str, shared_n: bool) -> Expected:
    """Regenerate the sheet from its seed and derive what `audit` must report."""
    rows = ((sid, cls, float(r), n) for sid, cls, r, n in _rows(spec, seed))
    return _expected_from_records(rows, agg, shared_n)


def expected_for_csv(path: Path, agg: str = "mean-r", shared_n: bool = False) -> Expected:
    """The same facts for an existing sheet, read with the stdlib csv module."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = [(row["study_id"], row["class"], float(row["r"]), int(row["n"])) for row in reader]
    return _expected_from_records(rows, agg, shared_n)
