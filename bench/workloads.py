"""The four benchmark workloads: what each operation runs and how its
outputs are checked against facts known without the program.

Every workload is a closed loop with one client that repeats a fixed cycle
of CLI invocations (one or more operations). The program only ever receives
the files the cycle names.
"""

from __future__ import annotations

import json
import math
import random
import statistics
from dataclasses import dataclass
from pathlib import Path

import sheets

VERDICT_NAMES = {"NullConsistent", "EffectConsistent", "Ambiguous"}
AUDIT_FILES = {"report.json", "report.md", "zpanel.svg"} | {
    f"pplot_{cls}.svg" for cls in sheets.CLASSES
}
P_REL_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    kind: str  # operations of one kind must write byte-identical outputs
    argv: tuple[str, ...]  # CLI arguments without --out


def _verdicts(stdout: str) -> dict[str, str]:
    pairs = (line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
    return {tag: verdict for tag, verdict in pairs}


def check_audit(out: Path, stdout: str, expected: sheets.Expected,
                verdicts: dict[str, str] | None = None) -> list[str]:
    """Problems with one audit's artifacts; an empty list means correct."""
    missing = AUDIT_FILES - {p.name for p in out.iterdir()}
    if missing:
        return [f"missing artifacts: {sorted(missing)}"]
    problems = []
    report = json.loads((out / "report.json").read_bytes())
    config = report["metadata"]["config"]
    counts = (config["studies_retained"], config["studies_dropped"])
    if counts != (expected.retained, expected.dropped):
        problems.append(f"retained/dropped {counts} != {(expected.retained, expected.dropped)}")
    for cls in sheets.CLASSES:
        got = {s["study_id"]: s["p_value"] for s in report["summaries"][cls]}
        want = expected.pvalues[cls]
        if got.keys() != want.keys():
            problems.append(f"{cls}: {len(got)} summaries, expected {len(want)}")
            continue
        bad = [sid for sid, p in want.items() if not math.isclose(got[sid], p, rel_tol=P_REL_TOL)]
        if bad:
            problems.append(f"{cls}: {len(bad)} p-values differ from math.erfc, first {bad[0]}")
    found = _verdicts(stdout)
    if set(found) != set(sheets.CLASSES) or not set(found.values()) <= VERDICT_NAMES:
        problems.append(f"verdict lines {found}")
    elif verdicts is not None and found != verdicts:
        problems.append(f"verdicts {found} != {verdicts}")
    return problems


class CliFixtures:
    """The paper's scale: `audit` on both bundled 27-study sheets and `tails`
    on both presets. The seed only permutes the cycle order."""

    name = "cli_fixtures"
    VERDICTS = {
        "null_27": {"ICC": "NullConsistent", "ECC": "NullConsistent", "IEC": "NullConsistent"},
        "effect_icc": {"ICC": "EffectConsistent", "ECC": "NullConsistent", "IEC": "NullConsistent"},
    }
    # Published tail-ratio columns for thresholds 0..3.
    RATIOS = {"g": ["1.3", "1.9", "3.4", "7.3"], "things": ["2.8", "5.9", "13", "32"]}

    def __init__(self, data: Path) -> None:
        self.data = data

    def prepare(self, work: Path, seed: int) -> list[Op]:
        ops = [Op(f"audit_{sheet}", ("audit", "--input", str(self.data / f"{sheet}.csv")))
               for sheet in self.VERDICTS]
        ops += [Op(f"tails_{preset}", ("tails", "--preset", preset, "--thresholds", "0,1,2,3"))
                for preset in self.RATIOS]
        random.Random(seed).shuffle(ops)
        return ops

    def check(self, op: Op, out: Path, stdout: str) -> list[str]:
        if op.kind.startswith("audit_"):
            sheet = op.kind.removeprefix("audit_")
            expected = sheets.expected_for_csv(self.data / f"{sheet}.csv")
            return check_audit(out, stdout, expected, self.VERDICTS[sheet])
        preset = op.kind.removeprefix("tails_")
        ratios = [line.split()[-1] for line in stdout.splitlines()[1:]]
        problems = [] if ratios == self.RATIOS[preset] else [f"{preset} ratios {ratios}"]
        missing = {"tails.json", "tails.svg"} - {p.name for p in out.iterdir()}
        return problems + ([f"missing artifacts: {sorted(missing)}"] if missing else [])


class AuditSheet:
    """One default-or-flagged `audit` of a synthetic sheet made from the seed."""

    def __init__(self, name: str, spec: sheets.SheetSpec, agg: str, shared_n: bool) -> None:
        self.name = name
        self.spec = spec
        self.agg = agg
        self.shared_n = shared_n
        self.seed = 0

    def prepare(self, work: Path, seed: int) -> list[Op]:
        self.seed = seed
        sheet = work / "sheet.csv"
        sheets.write_sheet(sheet, self.spec, seed)
        flags = ("--agg", self.agg) if self.agg != "mean-r" else ()
        flags += ("--shared-n",) if self.shared_n else ()
        return [Op("audit", ("audit", "--input", str(sheet), *flags))]

    def check(self, op: Op, out: Path, stdout: str) -> list[str]:
        expected = sheets.expected_for_sheet(self.spec, self.seed, self.agg, self.shared_n)
        return check_audit(out, stdout, expected)


class SimulateSeeds:
    """`simulate --demo --seeds 20`: the omitted-confounder demo, whose mean
    gaps must sit within 3 standard errors of the analytic values."""

    name = "simulate_seeds"
    SEEDS = 20

    def __init__(self, demo_config: Path) -> None:
        self.demo_config = demo_config

    def prepare(self, work: Path, seed: int) -> list[Op]:
        return [Op("simulate", ("simulate", "--demo", "--seeds", str(self.SEEDS)))]

    def check(self, op: Op, out: Path, stdout: str) -> list[str]:
        config = json.loads(self.demo_config.read_text(encoding="utf-8"))
        bias = sum(c["beta"] * (c["mean_f"] - c["mean_m"]) for c in config["confounders"])
        analytic = {"gap_unadjusted": config["beta1"] + bias, "gap_adjusted": config["beta1"]}
        results = json.loads((out / "gap.json").read_bytes())["results"]
        if len(results) != self.SEEDS:
            return [f"{len(results)} seed results, expected {self.SEEDS}"]
        problems = []
        for key, target in analytic.items():
            gaps = [r[key] for r in results]
            se = statistics.stdev(gaps) / math.sqrt(len(gaps))
            if abs(statistics.fmean(gaps) - target) > 3.0 * se:
                problems.append(f"{key}: mean {statistics.fmean(gaps):.4f} not within 3 SE of {target}")
        return problems


def build(data: Path) -> dict:
    """Workloads by name. `data` is the program's bundled data directory."""
    workloads = [
        CliFixtures(data),
        # ~300k rows, one record per class, ~2% of studies lack a class.
        AuditSheet("audit_wide", sheets.SheetSpec(100_000, (1, 1), 0.02, (20, 400)),
                   "mean-r", False),
        # ~180k rows in few studies, ~30 records per class, ~10% incomplete.
        AuditSheet("audit_deep", sheets.SheetSpec(2_000, (20, 40), 0.10, (30, 300), 0.2),
                   "mean-z", True),
        SimulateSeeds(data / "demo_cohort.json"),
    ]
    return {w.name: w for w in workloads}
