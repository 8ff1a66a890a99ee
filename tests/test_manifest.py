"""Byte-identity guard for `audit` and `tails`: the sha256 of every
artifact, of stdout, of stderr and the exit code must match
tests/golden/manifest.json, for each bundled fixture and one seeded sheet
under four `audit` flag sets, and for three `tails` runs (both presets and
a pair whose comparison tail underflows, so every ratio overflows).

Regenerate with `PYTHONPATH=src python tests/golden/regenerate.py`, and
only after a change to the artifacts that is meant and said so.
"""

import hashlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from conftest import GOLDEN_DIR, bundled

from metaplot.cli import main

MANIFEST = GOLDEN_DIR / "manifest.json"
FLAG_SETS = {
    "default": (),
    "mean-z-one-sided": ("--agg", "mean-z", "--one-sided"),
    "shared-n": ("--shared-n",),
    "mean-z-shared-n": ("--agg", "mean-z", "--shared-n"),
}
TAILS_FLAG_SETS = {
    "g": ("--preset", "g"),
    "things": ("--preset", "things"),
    "overflow": ("--other-mu", "-40", "--thresholds", "0,1,40"),
}
SEEDED_NAME = "seeded_300.csv"
_CLASSES = ("ICC", "ECC", "IEC")
_ODD_IDS = ("a|b", 'q"uote', "café", "über|\"x\"", "学研", "p||")


def seeded_sheet(seed: int = 8, studies: int = 300) -> str:
    """An extraction sheet of `studies` studies with 1-5 records per class,
    about 10% of studies missing one class, record n at or below a study n,
    some r written as -0.0 or at full precision, and some study ids holding
    `|`, `"` or non-ASCII characters."""
    rng = random.Random(seed)
    out = io.StringIO()
    out.write("study_id,author,year,title,journal,class,r,n\n")
    for i in range(studies):
        sid = f"s{i:04d}"
        if rng.random() < 0.08:
            sid = f"{rng.choice(_ODD_IDS)}{i}"
        study_n = rng.randint(4, 400)
        classes = list(_CLASSES)
        rng.shuffle(classes)
        if rng.random() < 0.10:
            classes.pop()
        for cls in classes:
            for _ in range(rng.randint(1, 5)):
                n = study_n if rng.random() < 0.7 else rng.randint(4, study_n)
                r = math.tanh(rng.gauss(0.1, 0.3))
                roll = rng.random()
                r_text = "-0.0" if roll < 0.03 else repr(r) if roll < 0.3 else f"{r:.6f}"
                quoted = sid.replace('"', '""')
                out.write(f'"{quoted}",A{i},{2000 + i % 20},,,{cls},{r_text},{n}\n')
    return out.getvalue()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_digests(argv: list[str], out: Path) -> dict:
    """The digests of one `main(argv)` run that writes its artifacts to out."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main([*argv, "--out", str(out)])
    digests = {p.name: _sha(p.read_bytes()) for p in sorted(out.iterdir())}
    digests["exit"] = code
    digests["stdout"] = _sha(stdout.getvalue().encode("utf-8"))
    digests["stderr"] = _sha(stderr.getvalue().encode("utf-8"))
    return digests


def build_manifest(work: Path) -> dict:
    """The manifest of every case, written under the scratch directory `work`."""
    seeded = work / SEEDED_NAME
    seeded.write_text(seeded_sheet(), encoding="utf-8", newline="")
    sheets = {"null_27": bundled("null_27.csv"), "effect_icc": bundled("effect_icc.csv"),
              "seeded_300": seeded}
    manifest = {
        f"{sheet}/{flag_name}": cli_digests(["audit", "--input", str(path), *flags],
                                            work / sheet / flag_name)
        for sheet, path in sheets.items()
        for flag_name, flags in FLAG_SETS.items()
    }
    for flag_name, flags in TAILS_FLAG_SETS.items():
        manifest[f"tails/{flag_name}"] = cli_digests(["tails", *flags], work / "tails" / flag_name)
    return manifest


def test_audit_artifacts_match_manifest(tmp_path, monkeypatch):
    monkeypatch.setenv("METAPLOT_NO_COLOR", "1")
    want = json.loads(MANIFEST.read_text(encoding="utf-8"))
    got = build_manifest(tmp_path)
    assert got.keys() == want.keys()
    for case in want:
        assert got[case] == want[case], case


def test_seeded_sheet_has_the_traps_it_promises():
    text = seeded_sheet()
    lines = text.splitlines()[1:]
    ids = {line.rsplit(",", 7)[0] for line in lines}
    assert len(ids) == 300
    assert any("|" in i for i in ids) and any('""' in i for i in ids)
    assert any(not i.isascii() for i in ids)
    assert any(line.split(",")[-2] == "-0.0" for line in lines)
