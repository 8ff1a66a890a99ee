import csv
import gc
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from io import BytesIO, StringIO
from pathlib import Path

import pytest
from conftest import counted_forks, reaped, wide_sheet
from hypothesis import given, settings
from hypothesis import strategies as st

import metaplot.cli
import metaplot.ingest
import metaplot.report
from metaplot.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from metaplot.fisher import HISTOGRAM_MAX_BINS
from metaplot.ingest import REQUIRED_COLUMNS
from test_manifest import MANIFEST, build_manifest, cli_digests

pytestmark = pytest.mark.usefixtures("no_color")


@pytest.fixture
def no_color(monkeypatch):
    monkeypatch.setenv("METAPLOT_NO_COLOR", "1")


def read_dir(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()}


def test_audit_null_fixture_verdicts(null_csv, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["audit", "--input", str(null_csv), "--out", str(out)])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == [
        "ICC: NullConsistent",
        "ECC: NullConsistent",
        "IEC: NullConsistent",
    ]
    names = set(read_dir(out))
    assert names == {
        "report.json",
        "report.md",
        "pplot_ICC.svg",
        "pplot_ECC.svg",
        "pplot_IEC.svg",
        "zpanel.svg",
    }


def test_audit_effect_fixture_flags_icc(effect_csv, tmp_path, capsys):
    code = main(["audit", "--input", str(effect_csv), "--out", str(tmp_path / "o")])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "ICC: EffectConsistent" in out


def test_audit_missing_file_exits_1_without_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["audit", "--input", str(tmp_path / "nope.csv"), "--out", str(out)])
    assert code == EXIT_IO
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def test_audit_bad_rows_exit_2_with_row_numbers(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "study_id,author,year,title,journal,class,r,n\n"
        "s1,A,2000,,,ICC,0.2,10\n"
        "s2,B,2001,,,ICC,1.5,10\n"
        "s3,C,2002,,,XXX,0.1,10\n"
    )
    out = tmp_path / "out"
    code = main(["audit", "--input", str(bad), "--out", str(out)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "row 3" in err and "row 4" in err
    assert not out.exists()


def test_audit_oversized_field_exit_2_without_outputs(tmp_path, capsys):
    bad = tmp_path / "big.csv"
    bad.write_text(
        "study_id,author,year,title,journal,class,r,n\n"
        f"s1,A,2000,{'t' * 200_000},,ICC,0.2,10\n"
    )
    out = tmp_path / "out"
    code = main(["audit", "--input", str(bad), "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert "error: row 2: field larger than field limit" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sheet", [b"", b"\xef\xbb\xbf"], ids=["empty", "bom-only"])
def test_audit_of_a_sheet_without_a_header_row_exit_2_without_outputs(sheet, tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_bytes(sheet)
    out = tmp_path / "out"
    assert main(["audit", "--input", str(empty), "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: empty input: missing header row\n"
    assert not out.exists()


def test_audit_incomplete_studies_reported(tmp_path, capsys):
    csv = tmp_path / "partial.csv"
    csv.write_text(
        "study_id,author,year,title,journal,class,r,n\n"
        "s1,A,2000,,,ICC,0.2,10\n"
        "s1,A,2000,,,ECC,0.1,10\n"
    )
    code = main(["audit", "--input", str(csv), "--out", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION
    assert "no complete studies" in capsys.readouterr().err


@pytest.mark.parametrize("warnings_flags", [[], ["-W", "error"]])
def test_audit_of_few_studies_notes_it_once_without_a_warning(warnings_flags, tmp_path):
    # build_plot warns below 10 p-values; the CLI says so in one note line,
    # and a run whose warnings are errors still writes every artifact
    sheet = tmp_path / "five.csv"
    rows = [f"s{i},A,2000,,,{cls},0.{i + 1},{20 + i}"
            for i in range(5) for cls in ("ICC", "ECC", "IEC")]
    sheet.write_text("study_id,author,year,title,journal,class,r,n\n" + "\n".join(rows) + "\n")
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, *warnings_flags, "-m", "metaplot.cli", "audit", "--input", str(sheet),
         "--out", str(out)],
        capture_output=True, text=True, env=dict(os.environ, METAPLOT_NO_COLOR="1"),
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stderr == ("note: only 5 complete studies; "
                           "p-value plot diagnostics are weak below 10\n")
    assert len(list(out.iterdir())) == 6


@pytest.mark.parametrize("studies", [1, 2])
def test_audit_too_few_complete_studies_exit_2_without_outputs(studies, tmp_path, capsys):
    # build_plot needs 3 p-values per class; fewer used to end in its traceback
    sheet = tmp_path / "few.csv"
    rows = [f"s{i},A,2000,,,{cls},0.2,10" for i in range(studies) for cls in ("ICC", "ECC", "IEC")]
    rows.append("x,A,2000,,,ICC,0.2,10")
    sheet.write_text("study_id,author,year,title,journal,class,r,n\n" + "\n".join(rows) + "\n")
    out = tmp_path / "out"
    code = main(["audit", "--input", str(sheet), "--out", str(out)])
    assert code == EXIT_VALIDATION
    found = "1 complete study" if studies == 1 else "2 complete studies"
    assert capsys.readouterr() == ("", (
        "note: dropped study x: missing class(es): ECC, IEC\n"
        f"{sheet}: {found} (all three classes required), a p-value plot needs at least 3\n"
    ))
    assert not out.exists()


def test_audit_oversized_n_exit_2_without_outputs(tmp_path, capsys):
    # A 401-digit n used to parse, then overflow math.sqrt(n - 3) in a traceback.
    bad = tmp_path / "big_n.csv"
    rows = [f"s{i},A,2000,,,{cls},0.2,10" for i in range(3) for cls in ("ICC", "ECC", "IEC")]
    rows[-1] = f"s2,A,2000,,,IEC,0.2,{10**400}"
    bad.write_text("study_id,author,year,title,journal,class,r,n\n" + "\n".join(rows) + "\n")
    out = tmp_path / "out"
    code = main(["audit", "--input", str(bad), "--out", str(out)])
    assert code == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == f"{bad}: row 10: sample size must not exceed 9223372036854775807\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.fixture
def huge_n_csv(null_csv, tmp_path):
    """The null fixture and one study of n = 10**18 at r = 0.999999."""
    sheet = tmp_path / "huge_n.csv"
    extra = "".join(f"huge,A,2000,,,{cls},0.999999,{10**18}\n" for cls in ("ICC", "ECC", "IEC"))
    sheet.write_text(null_csv.read_text() + extra)
    return sheet


def test_audit_huge_n_caps_histogram_bins(huge_n_csv, tmp_path):
    # n = 10**18 at r = 0.999999 gives z ~ 7e9: 1.5e10 bins of 0.5, and with
    # the null fixture's z-scores, the smallest multiple of 0.5 that fits in
    # HISTOGRAM_MAX_BINS bins.
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main(["audit", "--input", str(huge_n_csv), "--out", str(out)]) == EXIT_OK
    assert time.perf_counter() - start < 5.0  # well under a second when the cap works
    for panel in json.loads((out / "report.json").read_bytes())["z_panels"].values():
        histogram = panel["histogram"]
        assert len(histogram) <= HISTOGRAM_MAX_BINS
        assert sum(c for _, _, c in histogram) == panel["count"] == 28
        width = histogram[0][1] - histogram[0][0]
        assert width % 0.5 == 0 and width > 0.5
        # one bin width less would need more bins than the cap
        narrower = width - 0.5
        lo_edge = math.floor(panel["min"] / narrower) * narrower
        assert math.ceil((panel["max"] - lo_edge) / narrower) > HISTOGRAM_MAX_BINS


_ids = st.integers(0, 99).map("s{}".format) | st.sampled_from([' s"4 ', "a|b"])
_rs = st.sampled_from(["0.5", "-0.3", "0", "-0.0", "0.999999"])
# n = 2**63 - 1 is the largest accepted and makes p-values underflow to 0.
_ns = st.sampled_from(["10", "45", "4", str(2**63 - 1)])
well_formed_rows = st.tuples(
    _ids, st.sampled_from(["A", ""]), st.sampled_from(["2000", " 1999 "]),
    st.sampled_from(["", "T, t"]), st.just(""), st.sampled_from(["ICC", "ECC", "IEC"]), _rs, _ns,
)
# One record of each class of a study.
complete_studies = st.tuples(_ids, _rs, _rs, _rs, _ns).map(
    lambda t: [(t[0], "A", "2000", "", "", cls, r, t[4]) for cls, r in zip(("ICC", "ECC", "IEC"), t[1:4])]
)
# Rows of any length and text, with values just outside each check.
any_rows = st.lists(
    st.text(max_size=4) | st.sampled_from(["ICC", "icc", "1", "nan", "3", str(2**63), "2000"]),
    max_size=9,
)
# Complete studies, so that many sheets reach every layer, shuffled with
# rows that are well formed or not.
sheet_rows = st.tuples(
    st.lists(complete_studies, min_size=2, max_size=6, unique_by=lambda rows: rows[0][0]),
    st.lists(well_formed_rows | any_rows, max_size=3),
).flatmap(lambda t: st.permutations([row for study in t[0] for row in study] + t[1]))


@settings(max_examples=60, deadline=None)
@given(rows=sheet_rows)
def test_generated_sheets_exit_0_or_2(rows):
    with tempfile.TemporaryDirectory() as tmp:
        sheet, out = Path(tmp) / "sheet.csv", Path(tmp) / "out"
        text = StringIO()
        csv.writer(text).writerows([REQUIRED_COLUMNS, *rows])
        sheet.write_text(text.getvalue(), encoding="utf-8")
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            code = main(["audit", "--input", str(sheet), "--out", str(out)])
        assert code in (EXIT_OK, EXIT_VALIDATION)
        assert out.exists() == (code == EXIT_OK)


def test_audit_format_selection(null_csv, tmp_path):
    out = tmp_path / "jsononly"
    code = main(
        ["audit", "--input", str(null_csv), "--out", str(out), "--format", "json"]
    )
    assert code == EXIT_OK
    assert set(read_dir(out)) == {"report.json"}


def test_audit_md_alone_of_a_large_sheet_points_to_report_json(tmp_path, capsys):
    # above 1,000 studies a class's table is left out for one line, which
    # names the --format that writes every study
    sheet = tmp_path / "sheet.csv"
    rows = [f"s{i:04d},A,2000,,,{cls},0.{i % 7},{20 + i % 50}"
            for i in range(1001) for cls in ("ICC", "ECC", "IEC")]
    sheet.write_text("study_id,author,year,title,journal,class,r,n\n" + "\n".join(rows) + "\n")
    out = tmp_path / "out"
    assert main(["audit", "--input", str(sheet), "--out", str(out), "--format", "md"]) == EXIT_OK
    assert set(read_dir(out)) == {"report.md"}
    md = (out / "report.md").read_text()
    for tag in ("ICC", "ECC", "IEC"):
        assert (f"### {tag} study summaries\n\n1001 studies: more than 1,000, so the table "
                "is left out; report.json (--format json) lists every study.\n") in md
    assert "| s0" not in md
    assert len(capsys.readouterr().out.splitlines()) == 3  # the verdicts


@pytest.mark.parametrize(
    "argv",
    [
        ["tails", "--preset", "g", "--format", "md"],
        ["tails", "--preset", "g", "--format", "json,md"],
        ["audit", "--format", "pdf"],
        ["audit", "--format", ","],
        ["simulate", "--demo", "--format", "json"],
    ],
    ids=["tails-md", "tails-json,md", "audit-pdf", "audit-empty", "simulate-format"],
)
def test_format_the_subcommand_cannot_write_exits_2_without_outputs(
    argv, null_csv, tmp_path, capsys
):
    out = tmp_path / "out"
    if argv[0] == "audit":
        argv = argv + ["--input", str(null_csv)]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == EXIT_VALIDATION
    assert "--format" in capsys.readouterr().err
    assert not out.exists()


def test_failed_render_writes_no_artifacts(null_csv, tmp_path, capsys, monkeypatch):
    def boom(panels):
        raise RuntimeError("render failed")

    # zpanel.svg renders last, after report.json, report.md and the p-plots.
    monkeypatch.setattr(metaplot.cli, "render_svg_zpanel", boom)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="render failed"):
        main(["audit", "--input", str(null_csv), "--out", str(out)])
    assert capsys.readouterr().out == ""
    # and no staging directory is left beside it
    assert list(tmp_path.iterdir()) == []
    # nor any of the parents a nested --out lacked
    with pytest.raises(RuntimeError, match="render failed"):
        main(["audit", "--input", str(null_csv), "--out", str(tmp_path / "a" / "b" / "out")])
    assert list(tmp_path.iterdir()) == []

    monkeypatch.undo()
    assert main(["audit", "--input", str(null_csv), "--out", str(out)]) == EXIT_OK
    assert list(tmp_path.iterdir()) == [out]
    assert len(list(out.iterdir())) == 6


def test_failed_tails_render_writes_no_artifacts(tmp_path, capsys, monkeypatch):
    def boom(specs, lo, hi):
        raise RuntimeError("render failed")

    # tails.svg renders after tails.json
    monkeypatch.setattr(metaplot.cli, "render_svg_gaussians", boom)
    with pytest.raises(RuntimeError, match="render failed"):
        main(["tails", "--preset", "g", "--out", str(tmp_path / "out")])
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


def test_out_whose_parents_are_missing_is_made(null_csv, tmp_path):
    out = tmp_path / "a" / "b" / "out"
    assert main(["audit", "--input", str(null_csv), "--out", str(out)]) == EXIT_OK
    assert list(out.parent.iterdir()) == [out]
    assert sorted(p.name for p in out.iterdir()) == [
        "pplot_ECC.svg", "pplot_ICC.svg", "pplot_IEC.svg", "report.json", "report.md",
        "zpanel.svg"]
    # the mode of a directory made by mkdir, not the staging directory's 0o700
    (tmp_path / "plain").mkdir()
    assert out.stat().st_mode == (tmp_path / "plain").stat().st_mode


def test_existing_out_keeps_its_other_files(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("kept")
    (out / "tails.json").write_text("replaced")
    assert main(["tails", "--preset", "g", "--out", str(out)]) == EXIT_OK
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    assert sorted(p.name for p in out.iterdir()) == ["notes.txt", "tails.json", "tails.svg"]
    assert (out / "notes.txt").read_text() == "kept"
    assert json.loads((out / "tails.json").read_bytes())["config"]["preset"] == "g"


def test_existing_out_needs_no_rights_on_its_parent(tmp_path, monkeypatch):
    # --out may be a home directory or a mount point: its parent may be
    # read-only, or on another filesystem
    parent = tmp_path / "locked"
    out = parent / "out"
    out.mkdir(parents=True)
    (out / "notes.txt").write_text("kept")
    render = metaplot.cli.render_svg_gaussians
    seen = []

    def spy(*args):  # tails.svg renders after tails.json is written
        seen.append(sorted(os.listdir(parent)))
        return render(*args)

    def boom(*args):
        raise RuntimeError("render failed")

    parent.chmod(0o555)
    try:
        monkeypatch.setattr(metaplot.cli, "render_svg_gaussians", boom)
        with pytest.raises(RuntimeError, match="render failed"):
            main(["tails", "--preset", "g", "--out", str(out)])
        assert sorted(p.name for p in out.iterdir()) == ["notes.txt"]
        monkeypatch.setattr(metaplot.cli, "render_svg_gaussians", spy)
        assert main(["tails", "--preset", "g", "--out", str(out)]) == EXIT_OK
    finally:
        parent.chmod(0o755)
    assert seen == [["out"]]
    assert sorted(p.name for p in out.iterdir()) == ["notes.txt", "tails.json", "tails.svg"]


def test_existing_out_holding_a_directory_by_an_artifact_name_is_left_as_it_was(
    null_csv, effect_csv, tmp_path, capsys
):
    # a move onto the directory fails; refused before the first move, so no
    # artifact of the second run replaces one of the first
    out = tmp_path / "out"
    assert main(["audit", "--input", str(effect_csv), "--out", str(out)]) == EXIT_OK
    (out / "report.md").unlink()
    (out / "report.md").mkdir()
    (out / "report.md" / "notes.txt").write_bytes(b"keep")

    def snapshot():
        return {str(p.relative_to(out)): p.read_bytes() if p.is_file() else None
                for p in out.rglob("*")}

    before = snapshot()
    capsys.readouterr()
    assert main(["audit", "--input", str(null_csv), "--out", str(out)]) == EXIT_IO
    assert "Is a directory" in capsys.readouterr().err
    assert snapshot() == before
    assert sorted(os.listdir(tmp_path)) == ["out"]


def test_audit_reads_a_sheet_from_a_pipe(null_csv, tmp_path):
    # /dev/stdin is a pipe here, which cannot seek back after hashing
    argv = [sys.executable, "-m", "metaplot.cli", "audit", "--input", "/dev/stdin",
            "--out", str(tmp_path / "piped")]
    proc = subprocess.run(argv, input=null_csv.read_bytes(), capture_output=True)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert main(["audit", "--input", str(null_csv), "--out", str(tmp_path / "file")]) == EXIT_OK
    for name in ("report.json", "report.md", "zpanel.svg"):
        piped = (tmp_path / "piped" / name).read_bytes()
        assert piped.replace(b"stdin", b"null_27.csv") == (tmp_path / "file" / name).read_bytes()


@pytest.fixture
def forking(monkeypatch):
    """Fork on every audit that writes report.json, as on a sheet above the
    gate on two CPUs."""
    yield from counted_forks(monkeypatch, metaplot.cli, "_FORK_MIN_STUDIES")


@pytest.fixture
def splitting(monkeypatch):
    """Parse every audit's sheet in two processes where it can be cut, as a
    file above the gate on two CPUs."""
    yield from counted_forks(monkeypatch, metaplot.ingest, "_FORK_MIN_BYTES")


def test_forked_audit_matches_manifest(forking, tmp_path):
    want = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert build_manifest(tmp_path) == want
    assert len(forking) == sum(case.split("/")[0] != "tails" for case in want) == 12


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("not this one")


class Unloadable(Exception):  # pickles, but loading calls Unloadable(message)
    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


@pytest.mark.parametrize("renderer, exc", [
    ("_write_json_summaries", RuntimeError("render failed")),  # the child's only render
    ("_write_json_summaries", ValueError("x" * 200_000)),  # beyond a pipe's buffer
    ("_write_json_summaries", Unpicklable("no pickle")),
    ("_write_json_summaries", Unloadable("no", "load")),
    ("summarize_z", RuntimeError("failed")),  # here, with the child running
    ("build_plot", RuntimeError("failed")),
    ("render_markdown", RuntimeError("render failed")),
    ("render_svg_zpanel", RuntimeError("render failed")),  # here, the last render
], ids=["child", "large", "unpicklable", "unloadable", "z-panel", "plot", "markdown", "svg"])
def test_forked_render_failure_leaves_nothing(
    renderer, exc, forking, null_csv, tmp_path, capsys, monkeypatch
):
    def boom(*args, **kwargs):
        raise exc

    # the child looks its render up in report, this process in cli
    owner = metaplot.report if renderer == "_write_json_summaries" else metaplot.cli
    monkeypatch.setattr(owner, renderer, boom)
    kept = tmp_path / "kept"  # an --out that exists: its own file stays
    kept.mkdir()
    (kept / "notes.txt").write_bytes(b"keep")
    for out in (tmp_path / "out", tmp_path / "a" / "b" / "out", kept):
        with pytest.raises(Exception) as raised:
            main(["audit", "--input", str(null_csv), "--out", str(out)])
        # a failed child's render runs again here, and raises the same
        assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
        assert capsys.readouterr().out == ""
        assert sorted(tmp_path.rglob("*")) == [kept, kept / "notes.txt"]
    assert len(forking) == 3


def test_forked_audit_renders_report_md_and_the_svgs_here(
    forking, null_csv, tmp_path, monkeypatch
):
    # calls is this process's list: a call in the child appends to its copy
    calls = []

    def spy(module, name):
        render = getattr(module, name)

        def spied(*args):
            calls.append((name, os.getpid()))
            return render(*args)

        monkeypatch.setattr(module, name, spied)

    spy(metaplot.report, "_write_json_summaries")
    for name in ("json_head_tail", "render_json", "render_markdown",
                 "render_svg_pplot", "render_svg_zpanel"):
        spy(metaplot.cli, name)
    out = tmp_path / "out"
    assert main(["audit", "--input", str(null_csv), "--out", str(out)]) == EXIT_OK
    assert len(forking) == 1
    here = os.getpid()
    assert calls == [("render_markdown", here), *[("render_svg_pplot", here)] * 3,
                     ("render_svg_zpanel", here), ("json_head_tail", here)]
    # the child rendered the summaries and wrote report.json
    whole = json.loads((out / "report.json").read_bytes())
    assert set(whole["summaries"]) == {"ICC", "ECC", "IEC"} and "z_panels" in whole


def test_forked_audit_into_an_existing_out_keeps_its_files(
    forking, null_csv, tmp_path, monkeypatch
):
    out, serial = tmp_path / "out", tmp_path / "serial"
    out.mkdir()
    (out / "notes.txt").write_bytes(b"keep")
    assert main(["audit", "--input", str(null_csv), "--out", str(out)]) == EXIT_OK
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert main(["audit", "--input", str(null_csv), "--out", str(serial)]) == EXIT_OK
    assert len(forking) == 1  # the second run, on one CPU, rendered here
    want = {"notes.txt": b"keep", **read_dir(serial)}
    assert len(want) == 7
    assert sorted(os.listdir(out)) == sorted(want)  # no staging directory
    assert read_dir(out) == want
    assert sorted(os.listdir(tmp_path)) == ["out", "serial"]


def killed_in_the_child(render, renders=0):
    """render, but SIGKILLing the process that calls it unless that is this
    one: at once, or once it has rendered that many times. each_half takes
    one as its there=, with a render that does nothing."""
    here = os.getpid()
    calls = []

    def die(*args):
        calls.append(args)
        if os.getpid() == here or len(calls) <= renders:
            return render(*args)
        os.kill(os.getpid(), signal.SIGKILL)

    return die


def one_process_outcome(argv, capsys, monkeypatch):
    """main(argv)'s exit code, stdout and stderr on one CPU, where no
    process is forked; affinity goes back to two CPUs afterwards."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    code = main(argv)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return code, *capsys.readouterr()


def test_forked_child_killed_by_a_signal_leaves_nothing(
    forking, null_csv, tmp_path, capsys, monkeypatch
):
    one = tmp_path / "one"
    want = one_process_outcome(["audit", "--input", str(null_csv), "--out", str(one)],
                               capsys, monkeypatch)
    codes = reaped(monkeypatch)
    monkeypatch.setattr(metaplot.report, "_write_json_summaries",
                        killed_in_the_child(metaplot.report._write_json_summaries))
    out = tmp_path / "a" / "out"
    # the killed child's render runs again here, as on one CPU
    assert (main(["audit", "--input", str(null_csv), "--out", str(out)]),
            *capsys.readouterr()) == want
    assert want[0] == EXIT_OK and codes == [-signal.SIGKILL]
    assert read_dir(out) == read_dir(one) and len(read_dir(one)) == 6
    assert sorted(os.listdir(tmp_path)) == ["a", "one"] and os.listdir(out.parent) == ["out"]
    assert len(forking) == 1


def test_forked_child_killed_while_rendering_the_part_leaves_nothing(
    forking, null_csv, tmp_path, capsys, monkeypatch
):
    one = tmp_path / "one"
    want = one_process_outcome(["audit", "--input", str(null_csv), "--out", str(one)],
                               capsys, monkeypatch)
    codes = reaped(monkeypatch)
    # killed with one class's array in its buffer, the next one begun
    monkeypatch.setattr(metaplot.report, "_write_summaries",
                        killed_in_the_child(metaplot.report._write_summaries, renders=1))
    out = tmp_path / "kept"
    out.mkdir()
    (out / "notes.txt").write_bytes(b"keep")
    assert (main(["audit", "--input", str(null_csv), "--out", str(out)]),
            *capsys.readouterr()) == want
    assert want[0] == EXIT_OK and codes == [-signal.SIGKILL]
    assert read_dir(out) == {"notes.txt": b"keep", **read_dir(one)}
    assert sorted(os.listdir(tmp_path)) == ["kept", "one"]  # no staging directory
    assert len(forking) == 1


def test_forked_child_is_killed_when_this_side_is_interrupted(
    forking, null_csv, tmp_path, monkeypatch
):
    def render_summaries(buf, summaries):  # the child
        time.sleep(60)

    def render_markdown(report):  # here
        raise KeyboardInterrupt

    monkeypatch.setattr(metaplot.report, "_write_json_summaries", render_summaries)
    monkeypatch.setattr(metaplot.cli, "render_markdown", render_markdown)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        main(["audit", "--input", str(null_csv), "--out", str(tmp_path / "out")])
    assert time.monotonic() - start < 30  # not waited out
    assert list(tmp_path.iterdir()) == []
    assert len(forking) == 1


def test_audit_renders_here_when_no_process_can_be_forked(null_csv, tmp_path, monkeypatch):
    tried = []

    def no_process():
        tried.append(True)
        raise BlockingIOError(11, "Resource temporarily unavailable")

    serial, fallback = tmp_path / "serial", tmp_path / "fallback"
    assert main(["audit", "--input", str(null_csv), "--out", str(serial)]) == EXIT_OK
    monkeypatch.setattr(metaplot.cli, "_FORK_MIN_STUDIES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", no_process)
    render_json, write_json = metaplot.cli.render_json, metaplot.cli.write_json
    rendered, written = [], []
    monkeypatch.setattr(metaplot.cli, "render_json",
                        lambda report: rendered.append(True) or render_json(report))
    monkeypatch.setattr(metaplot.cli, "write_json",
                        lambda *args: written.append(os.getpid()) or write_json(*args))
    assert main(["audit", "--input", str(null_csv), "--out", str(fallback)]) == EXIT_OK
    # the refused fork's task, write_json, ran here once all else was written
    assert tried and written == [os.getpid()] and not rendered
    assert read_dir(fallback) == read_dir(serial)


# On the huge_n_csv sheet each z-panel has hundreds of bins, so report.json's
# head and tail, which this process sends to the child, fill more than a
# pipe's 64 KiB buffer.


def test_forked_audit_sends_more_than_a_pipe_holds(forking, huge_n_csv, tmp_path, monkeypatch):
    forked, serial = tmp_path / "forked", tmp_path / "serial"
    assert main(["audit", "--input", str(huge_n_csv), "--out", str(forked)]) == EXIT_OK
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert main(["audit", "--input", str(huge_n_csv), "--out", str(serial)]) == EXIT_OK
    assert len(forking) == 1 and read_dir(forked) == read_dir(serial)
    document = (forked / "report.json").read_bytes()
    assert len(document) - document.index(b'\n  "z_panels": ') > 1 << 16


@pytest.mark.parametrize("while_sending, exc", [
    (False, RuntimeError("render failed")),  # gone before this process sends
    (True, ValueError("x" * 200_000)),  # while this process is blocked sending
], ids=["at-once", "while-sending"])
def test_forked_child_failure_beats_a_broken_pipe(
    while_sending, exc, forking, huge_n_csv, tmp_path, tmp_path_factory, capsys, monkeypatch
):
    sending = tmp_path_factory.mktemp("marker") / "sending"
    head_tail = metaplot.cli.json_head_tail

    def about_to_send(report):  # here, just before send
        frame = head_tail(report)
        if while_sending:
            sending.touch()
        else:  # the child has exited; WNOWAIT leaves it for forked to reap
            os.waitid(os.P_PID, forking[0], os.WEXITED | os.WNOWAIT)
        return frame

    def boom(buf, summaries):  # the child, which never reads what is sent
        while while_sending and not sending.exists():
            time.sleep(0.01)
        time.sleep(0.2 if while_sending else 0)  # for this process to fill the pipe
        raise exc

    def hung(signum, frame):
        raise AssertionError("hung")

    monkeypatch.setattr(metaplot.cli, "json_head_tail", about_to_send)
    monkeypatch.setattr(metaplot.report, "_write_json_summaries", boom)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        with pytest.raises(type(exc)) as raised:
            main(["audit", "--input", str(huge_n_csv), "--out", str(tmp_path / "out")])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert str(raised.value) == str(exc)
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == [huge_n_csv]
    assert len(forking) == 1 and sending.exists() == while_sending


@pytest.mark.parametrize("case", ["below-gate", "second-thread", "one-cpu", "json", "md,svg"])
def test_audit_forks_only_above_the_gate(case, null_csv, tmp_path, monkeypatch):
    forks = []
    fork = os.fork

    def refuse():
        if case != "json":
            raise AssertionError("forked")
        forks.append(True)
        return fork()

    if case != "below-gate":
        monkeypatch.setattr(metaplot.cli, "_FORK_MIN_STUDIES", 0)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0} if case == "one-cpu" else {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", refuse)
    formats = case if case in ("json", "md,svg") else "json,md,svg"
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    if case == "second-thread":
        thread.start()
    try:
        out = tmp_path / "out"
        argv = ["audit", "--input", str(null_csv), "--out", str(out), "--format", formats]
        assert main(argv) == EXIT_OK
    finally:
        release.set()
        if thread.is_alive():
            thread.join()
    assert len(list(out.iterdir())) == {"json": 1, "md,svg": 5}.get(formats, 6)
    if case == "json":  # report.json alone forks too, and writes what one CPU does
        assert len(forks) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        argv = ["audit", "--input", str(null_csv), "--out", str(tmp_path / "one"), "--format", "json"]
        assert main(argv) == EXIT_OK
        assert len(forks) == 1 and read_dir(tmp_path / "one") == read_dir(out)


# A large sheet is parsed in two processes: this process parses the lines
# before the cut, the first line end at or after the file's midpoint, and a
# forked child the rest. Here the gate is lowered, so small sheets split.


def cut_of(data):
    """Where audit cuts data, as (cut, lines before it, end), or None."""
    return metaplot.ingest._hash_sheet(BytesIO(data), hashlib.sha256(), len(data) // 2)


def audit_outcome(sheet, out):
    """An audit's exit code, stderr and artifacts."""
    stderr = StringIO()
    with redirect_stdout(StringIO()), redirect_stderr(stderr):
        code = main(["audit", "--input", str(sheet), "--out", str(out)])
    return code, stderr.getvalue(), read_dir(out) if out.exists() else None


def with_field(row, index, value):
    fields = row.rstrip(b"\r\n").split(b",")
    fields[index] = value
    return b",".join(fields) + row[len(row.rstrip(b"\r\n")):]


def split_sheet(case):
    """The bytes of a sheet of 80 studies for case, and the texts the
    stderr of its audit holds."""
    rows = wide_sheet(80, seed=25).encode().splitlines(keepends=True)
    first, last = 10, len(rows) - 5  # row k is line k + 1
    says = []
    if case in ("bad-rows", "crlf-bad-row", "lone-cr-bad-row"):
        if case == "bad-rows":
            rows[first] = with_field(rows[first], 6, b"1.5")
            says.append(f"row {first + 1}: correlation out of open interval")
        if case == "crlf-bad-row":
            rows = [row.replace(b"\n", b"\r\n") for row in rows]
        if case == "lone-cr-bad-row":  # csv.reader takes a lone '\r' for a line end
            rows[last - 20] = rows[last - 20].replace(b"\n", b"\r")
            rows[last - 10] = rows[last - 10].replace(b"\n", b"\r")
        rows[last] = with_field(rows[last], 7, b"many")
        says.append(f"row {last + 1}: unparseable sample size 'many'")
    elif case.startswith("bad-utf8"):
        rows[last] = with_field(rows[last], 3, b"\xff")
        says = [f"row {last + 1}: input is not valid UTF-8"]
        if case == "bad-utf8-both":  # the first failure is the one reported
            rows[first] = with_field(rows[first], 3, b"\xfe")
            says = [f"row {first + 1}: input is not valid UTF-8"]
    elif case == "crlf":
        rows = [row.replace(b"\n", b"\r\n") for row in rows]
    elif case == "quote":  # after the cut, where csv.reader parses it
        rows[last] = with_field(rows[last], 3, b'"Study, quoted"')
    elif case == "last-byte":  # the first line end past the middle ends the file
        rows[-1] = with_field(rows[-1], 3, b"x" * 20_000)
    data = b"".join(rows)
    if case == "bom":  # a U+FEFF opens the child's half, and its first study_id
        bom = "\ufeff".encode()
        at = data.index(b"\n", (len(data) + len(bom)) // 2) + 1
        data = data[:at] + bom + data[at:]
        assert data[cut_of(data)[0]:].startswith(bom)
        says = ["note: dropped study \ufeffs"]
    cut = cut_of(data)
    assert cut is not None and (cut[0] == len(data)) == (case == "last-byte")
    return data, says


@pytest.mark.parametrize("case", [
    "bad-rows", "bad-utf8", "bad-utf8-both", "bom", "crlf", "crlf-bad-row", "lone-cr-bad-row",
    "quote", "last-byte",
])
def test_split_parse_matches_one_cpu(case, splitting, tmp_path, monkeypatch):
    data, says = split_sheet(case)
    sheet = tmp_path / "sheet.csv"
    sheet.write_bytes(data)
    split = audit_outcome(sheet, tmp_path / "split")
    assert len(splitting) == 1
    # on one CPU both halves are parsed here
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert audit_outcome(sheet, tmp_path / "one") == split
    # and below the gate the sheet is parsed whole, in one call
    monkeypatch.setattr(metaplot.ingest, "_FORK_MIN_BYTES", len(data) + 1)
    assert audit_outcome(sheet, tmp_path / "whole") == split
    assert len(splitting) == 1 and all(text in split[1] for text in says)
    assert split[0] == (EXIT_VALIDATION if case.startswith("bad") or "-bad-" in case else EXIT_OK)


def test_split_audit_matches_manifest(splitting, tmp_path, monkeypatch):
    # report.json renders in a forked child too; the seeded sheet quotes its
    # study ids, so only the eight audits of the two fixtures split
    monkeypatch.setattr(metaplot.cli, "_FORK_MIN_STUDIES", 0)
    want = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert build_manifest(tmp_path) == want
    assert len(splitting) == 12 + 8


@pytest.mark.parametrize("case", ["quote", "lone-cr"])
def test_no_split_after_a_quote_or_a_lone_cr(case, splitting, tmp_path):
    rows = wide_sheet(80, seed=25).encode().splitlines(keepends=True)
    rows[10] = (with_field(rows[10], 3, b'"Study, 10"') if case == "quote"
                else rows[10].replace(b"\n", b"\r"))
    sheet = tmp_path / "sheet.csv"
    sheet.write_bytes(b"".join(rows))
    assert audit_outcome(sheet, tmp_path / "out")[0] == EXIT_OK
    assert splitting == []


def test_cut_sees_a_crlf_across_two_hash_blocks():
    # the sheet is hashed 1 MiB at a time; a '\r' ends the first block
    rows = b"s1,A,2000,,,ICC,0.1,10\r\n" * 100_000
    for between, cut in ((b"\r\n", True), (b"\rx\n", False)):
        data = b"h" * ((1 << 20) - 1) + between + rows
        want = data.index(b"\n", len(data) // 2) + 1
        assert cut_of(data) == ((want, data[:want].count(b"\n"), len(data)) if cut else None)


def test_no_split_of_a_pipe(splitting, null_csv, tmp_path):
    (tmp_path / "file").mkdir()
    (tmp_path / "pipe").mkdir()
    (tmp_path / "file" / "sheet.csv").write_bytes(null_csv.read_bytes())
    os.mkfifo(tmp_path / "pipe" / "sheet.csv")
    writer = subprocess.Popen(["sh", "-c", 'cat "$0" > "$1"', str(null_csv),
                               str(tmp_path / "pipe" / "sheet.csv")])
    try:
        piped = audit_outcome(tmp_path / "pipe" / "sheet.csv", tmp_path / "piped")
    finally:
        assert writer.wait(timeout=30) == 0
    assert splitting == []
    assert audit_outcome(tmp_path / "file" / "sheet.csv", tmp_path / "split") == piped
    assert len(splitting) == 1 and piped[0] == EXIT_OK


def each_half(monkeypatch, here, there):
    """Have parse_records call here() before it parses this process's half,
    and there() before it parses the child's, which starts past line 0."""
    parse = metaplot.ingest.parse_records

    def parse_half(source, line=0):
        (there if line else here)()
        return parse(source, line)

    monkeypatch.setattr(metaplot.ingest, "parse_records", parse_half)


def split_csv(tmp_path):
    sheet = tmp_path / "sheet.csv"
    sheet.write_text(wide_sheet(80, seed=25), encoding="utf-8")
    return sheet


@pytest.mark.parametrize("exc", [RuntimeError("parse failed"), Unpicklable("no pickle")],
                         ids=["raises", "unpicklable"])
def test_split_child_failure_leaves_nothing(exc, splitting, tmp_path, capsys, monkeypatch):
    def boom():
        raise exc

    each_half(monkeypatch, here=lambda: None, there=boom)
    sheet = split_csv(tmp_path)
    with pytest.raises(Exception) as raised:
        main(["audit", "--input", str(sheet), "--out", str(tmp_path / "a" / "out")])
    # a failed child's half is parsed again here, and raises the same
    assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == [sheet]
    assert len(splitting) == 1


def test_split_child_killed_by_a_signal_leaves_nothing(splitting, tmp_path, capsys, monkeypatch):
    sheet = split_csv(tmp_path)
    one = tmp_path / "one"
    want = one_process_outcome(["audit", "--input", str(sheet), "--out", str(one)],
                               capsys, monkeypatch)
    codes = reaped(monkeypatch)
    # the child's half is parsed again here, where nothing is killed
    each_half(monkeypatch, here=lambda: None, there=killed_in_the_child(lambda: None))
    out = tmp_path / "out"
    assert (main(["audit", "--input", str(sheet), "--out", str(out)]),
            *capsys.readouterr()) == want
    assert want[0] == EXIT_OK and codes == [-signal.SIGKILL]
    assert read_dir(out) == read_dir(one) and len(read_dir(one)) == 6
    assert sorted(tmp_path.iterdir()) == [one, out, sheet]
    assert len(splitting) == 1


def test_audit_whose_children_are_both_killed_ends_as_one_process(
    splitting, tmp_path, capsys, monkeypatch
):
    # report.json renders in a forked child too
    monkeypatch.setattr(metaplot.cli, "_FORK_MIN_STUDIES", 0)
    sheet = split_csv(tmp_path)
    one = tmp_path / "one"
    want = one_process_outcome(["audit", "--input", str(sheet), "--out", str(one)],
                               capsys, monkeypatch)
    codes = reaped(monkeypatch)
    each_half(monkeypatch, here=lambda: None, there=killed_in_the_child(lambda: None))
    monkeypatch.setattr(metaplot.report, "_write_json_summaries",
                        killed_in_the_child(metaplot.report._write_json_summaries))
    out = tmp_path / "out"
    got = main(["audit", "--input", str(sheet), "--out", str(out)]), *capsys.readouterr()
    assert got == want and got[0] == EXIT_OK and "Traceback" not in got[2]
    assert codes == [-signal.SIGKILL] * 2 and len(splitting) == 2
    assert read_dir(out) == read_dir(one) and len(read_dir(one)) == 6
    assert sorted(tmp_path.iterdir()) == [one, out, sheet]


def test_split_child_is_killed_when_this_side_is_interrupted(splitting, tmp_path, monkeypatch):
    def interrupt():
        raise KeyboardInterrupt

    each_half(monkeypatch, here=interrupt, there=lambda: time.sleep(60))
    sheet = split_csv(tmp_path)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        main(["audit", "--input", str(sheet), "--out", str(tmp_path / "out")])
    assert time.monotonic() - start < 30  # not waited out
    assert list(tmp_path.iterdir()) == [sheet]
    assert len(splitting) == 1


def test_audit_parses_here_when_no_process_can_be_forked(tmp_path, monkeypatch):
    tried, lines = [], []

    def no_process():
        tried.append(True)
        raise BlockingIOError(11, "Resource temporarily unavailable")

    sheet = split_csv(tmp_path)
    serial = audit_outcome(sheet, tmp_path / "serial")
    monkeypatch.setattr(metaplot.ingest, "_FORK_MIN_BYTES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", no_process)
    each_half(monkeypatch, here=lambda: lines.append(0), there=lambda: lines.append(1))
    # the refused fork's half was parsed here, after this process's
    assert audit_outcome(sheet, tmp_path / "fallback") == serial
    assert tried == [True] and lines == [0, 1]


@pytest.fixture(params=[True, False], ids=["gc-enabled", "gc-disabled"])
def caller_gc(request):
    """Set the collector as the caller of main() had it; put it back afterwards."""
    was_enabled = gc.isenabled()
    gc.enable() if request.param else gc.disable()
    yield request.param
    gc.enable() if was_enabled else gc.disable()


@pytest.mark.parametrize(
    "case, expected",
    [("ok", EXIT_OK), ("bad-alpha", EXIT_VALIDATION), ("malformed-csv", EXIT_VALIDATION),
     ("missing-input", EXIT_IO)],
)
def test_main_restores_caller_gc_state(caller_gc, case, expected, null_csv, tmp_path, capsys):
    malformed = tmp_path / "malformed.csv"
    malformed.write_text("not,a,metaplot,header\n1,2,3,4\n")
    inputs = {"ok": null_csv, "bad-alpha": null_csv, "malformed-csv": malformed,
              "missing-input": tmp_path / "nope.csv"}
    argv = ["audit", "--input", str(inputs[case]), "--out", str(tmp_path / "out")]
    if case == "bad-alpha":
        argv += ["--alpha", "1.5"]
    assert main(argv) == expected
    assert gc.isenabled() is caller_gc


def test_main_restores_caller_gc_state_when_an_exception_escapes(
    caller_gc, null_csv, tmp_path, monkeypatch
):
    seen = []

    def boom(source):
        seen.append(gc.isenabled())
        raise RuntimeError("boom")

    monkeypatch.setattr(metaplot.ingest, "parse_records", boom)
    with pytest.raises(RuntimeError, match="boom"):
        main(["audit", "--input", str(null_csv), "--out", str(tmp_path / "out")])
    assert seen == [False]  # the collector is paused while the subcommand runs
    assert gc.isenabled() is caller_gc


def test_audit_bad_alpha_exit_2(null_csv, tmp_path, capsys):
    code = main(
        ["audit", "--input", str(null_csv), "--out", str(tmp_path), "--alpha", "1.5"]
    )
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("value", ["nan", "-1", "7"])
@pytest.mark.parametrize("flag", ["--null-frac-max", "--null-ks-min", "--effect-frac-min"])
def test_audit_bad_classify_threshold_exit_2(null_csv, tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    code = main(["audit", "--input", str(null_csv), "--out", str(out), flag, value])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_audit_report_echoes_config(null_csv, tmp_path):
    out = tmp_path / "out"
    main(
        [
            "audit",
            "--input",
            str(null_csv),
            "--out",
            str(out),
            "--one-sided",
            "--agg",
            "mean-z",
            "--shared-n",
        ]
    )
    payload = json.loads((out / "report.json").read_bytes())
    cfg = payload["metadata"]["config"]
    assert cfg["sided"] == "one"
    assert cfg["agg"] == "mean-z"
    assert cfg["shared_n"] is True
    assert cfg["input"] == "null_27.csv"
    assert cfg["total_n"] == 535
    assert cfg["studies_retained"] == 27


def test_audit_byte_identical_runs(null_csv, effect_csv, tmp_path):
    for fixture in (null_csv, effect_csv):
        a, b = tmp_path / f"a_{fixture.stem}", tmp_path / f"b_{fixture.stem}"
        assert main(["audit", "--input", str(fixture), "--out", str(a)]) == EXIT_OK
        assert main(["audit", "--input", str(fixture), "--out", str(b)]) == EXIT_OK
        assert read_dir(a) == read_dir(b)


def test_tails_preset_g_table(tmp_path, capsys):
    code = main(["tails", "--preset", "g", "--out", str(tmp_path / "t")])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    for token in ("0.50000", "0.15866", "0.02275", "0.00135", "1.3", "1.9", "3.4", "7.3"):
        assert token in out
    files = read_dir(tmp_path / "t")
    assert set(files) == {"tails.json", "tails.svg"}


def test_tails_custom_identical_specs_unit_ratios(tmp_path, capsys):
    code = main(
        [
            "tails",
            "--ref-mu", "0.3", "--ref-sigma", "1.2",
            "--other-mu", "0.3", "--other-sigma", "1.2",
            "--out", str(tmp_path / "t"),
            "--format", "json",
        ]
    )
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "t" / "tails.json").read_bytes())
    for row in payload["table"]["rows"]:
        assert row["ratio"] == pytest.approx(1.0, abs=1e-14)


def test_tails_invalid_spec_exit_2(tmp_path, capsys):
    code = main(["tails", "--other-sigma", "0", "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    assert "sigma" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--ref-mu", "--ref-sigma", "--other-mu", "--other-sigma"])
def test_tails_preset_excludes_spec_flags(tmp_path, capsys, flag):
    out = tmp_path / "t"
    code = main(["tails", "--preset", "g", flag, "3", "--out", str(out)])
    assert code == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --preset excludes")
    assert captured.out == ""
    assert not out.exists()


def test_tails_far_means_draw_at_most_twelve_ticks(tmp_path):
    # one tick per SD unit would be 10**7 ticks
    start = time.perf_counter()
    assert main(["tails", "--other-mu", "1e7", "--out", str(tmp_path / "t")]) == EXIT_OK
    assert time.perf_counter() - start < 5.0
    svg = (tmp_path / "t" / "tails.svg").read_text()
    # two axes, two legend keys and the ticks
    assert svg.count("<line") - 4 == 11


@pytest.mark.parametrize("spec", [["--ref-mu", "1e308", "--other-mu=-1e308"],
                                  ["--other-sigma", "1e308"]])
def test_tails_span_that_overflows_exit_2_without_outputs(spec, tmp_path, capsys):
    out = tmp_path / "t"
    assert main(["tails", *spec, "--out", str(out)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: tails.svg cannot span (")
    assert not out.exists()
    # the table alone has no span to plot
    assert main(["tails", *spec, "--format", "json", "--out", str(out)]) == EXIT_OK
    assert [p.name for p in out.iterdir()] == ["tails.json"]


@pytest.mark.parametrize("spec, fault", [
    (["--ref-sigma", "1e-308"],
     "threshold 2.0 is not a finite number of sigmas from the reference mean"),
    (["--ref-sigma", "1e-310"], "reference sigma 1e-310 is too small"),
    (["--other-sigma", "5e-324"], "comparison sigma 5e-324 is too small"),
    (["--ref-mu", "-1.7e308", "--thresholds", "0,1.7e308", "--format", "json"],
     "threshold 1.7e+308 is not a finite number of sigmas from the reference mean"),
], ids=["ref-sigma-1e-308", "ref-sigma-1e-310", "other-sigma-5e-324", "threshold-1.7e308"])
def test_tails_overflowing_z_exit_2_naming_the_sigma_or_threshold(spec, fault, tmp_path, capsys):
    # (threshold - mu) / sigma, or the density's 1 / sigma, overflows a float
    out = tmp_path / "t"
    assert main(["tails", *spec, "--out", str(out)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {fault}")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("spec, ref_mu, other_mu", [
    (["--other-mu", "-1e308"], 0.0, -1e308),
    (["--other-mu=-1e308"], 0.0, -1e308),
    (["--other-m", "-1E+308"], 0.0, -1e308),  # an abbreviated option
    (["--ref-mu", "-5e-1", "--other-mu", "-.5e1"], -0.5, -5.0),
    (["--ref-mu", "-40", "--other-mu", "-0.5"], -40.0, -0.5),
])
def test_tails_takes_negative_means_in_exponent_notation(spec, ref_mu, other_mu, tmp_path):
    out = tmp_path / "t"
    assert main(["tails", *spec, "--format", "json", "--out", str(out)]) == EXIT_OK
    table = json.loads((out / "tails.json").read_bytes())["table"]
    assert (table["ref"]["mu"], table["other"]["mu"]) == (ref_mu, other_mu)


@pytest.mark.parametrize("spec, thresholds", [
    (["--thresholds", "-1,0,1"], [-1.0, 0.0, 1.0]),
    (["--thresholds", "-1e0,2"], [-1.0, 2.0]),
])
def test_tails_takes_a_threshold_list_that_starts_negative(spec, thresholds, tmp_path):
    # argparse takes neither list for a value of its own: it admits only
    # "-" and a number, such as "-2", as one
    out = tmp_path / "t"
    assert main(["tails", *spec, "--format", "json", "--out", str(out)]) == EXIT_OK
    written = json.loads((out / "tails.json").read_bytes())
    assert written["config"]["thresholds"] == thresholds
    assert [row["threshold"] for row in written["table"]["rows"]] == thresholds


@pytest.mark.parametrize("spec", [["--alpha", "-5e-1"], ["--alpha=-5e-1"]])
def test_audit_negative_alpha_in_exponent_notation_reaches_its_check(
    spec, null_csv, tmp_path, capsys
):
    out = tmp_path / "out"
    assert main(["audit", "--input", str(null_csv), "--out", str(out), *spec]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: --alpha must lie in (0, 1), got -0.5\n"
    assert not out.exists()


def test_tails_labels_close_large_means_apart(tmp_path):
    out = tmp_path / "t"
    spec = ["--ref-mu", "123456789", "--other-mu", "123456790"]
    assert main(["tails", *spec, "--out", str(out)]) == EXIT_OK
    svg = (out / "tails.svg").read_text()
    assert "reference (mu=123456789, sigma=1)" in svg
    assert "comparison (mu=123456790, sigma=1)" in svg
    assert "1.23457e+08" not in svg


def test_tails_bad_threshold_list_exit_2(tmp_path, capsys):
    assert (
        main(["tails", "--preset", "g", "--thresholds", "2,1", "--out", str(tmp_path)])
        == EXIT_VALIDATION
    )
    out = tmp_path / "t"
    assert main(["tails", "--thresholds", "1,x", "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err.endswith(
        "error: bad threshold list '1,x': could not convert string to float: 'x'\n")
    assert not out.exists()


def test_tails_byte_identical_runs(tmp_path):
    for preset in ("g", "things"):
        a, b = tmp_path / f"a_{preset}", tmp_path / f"b_{preset}"
        assert main(["tails", "--preset", preset, "--out", str(a)]) == EXIT_OK
        assert main(["tails", "--preset", preset, "--out", str(b)]) == EXIT_OK
        assert read_dir(a) == read_dir(b)


def test_tails_ratio_that_overflows_over_a_nonzero_tail_writes_inf(tmp_path):
    # at mu -37.6 the comparison tail is a nonzero subnormal and 0.5 / it overflows
    out = tmp_path / "t"
    assert main(["tails", "--other-mu=-37.6", "--thresholds", "0", "--out", str(out)]) == EXIT_OK
    (row,) = json.loads((out / "tails.json").read_bytes())["table"]["rows"]
    assert row["auc_other"] > 0.0
    assert row["overflow"] is True and row["ratio"] == "inf"


def test_simulate_demo_prints_gaps_and_writes_json(tmp_path, capsys):
    out = tmp_path / "sim"
    code = main(["simulate", "--demo", "--out", str(out)])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "unadjusted gap:" in stdout and "adjusted gap:" in stdout
    payload = json.loads((out / "gap.json").read_bytes())
    result = payload["result"]
    assert abs(result["gap_unadjusted"]) > abs(result["gap_adjusted"])


def test_simulate_custom_config_zero_noise(tmp_path, capsys):
    cfg = tmp_path / "cohort.json"
    cfg.write_text(
        json.dumps(
            {
                "n_per_group": 10,
                "beta0": 1.0,
                "beta1": -2.5,
                "confounders": [],
                "noise_sigma": 0.0,
                "seed": 1,
            }
        )
    )
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "o" / "gap.json").read_bytes())
    assert payload["result"]["gap_unadjusted"] == pytest.approx(-2.5, abs=1e-10)
    assert payload["result"]["gap_adjusted"] == pytest.approx(-2.5, abs=1e-10)


def test_simulate_malformed_json_exit_2_with_position(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text('{"n_per_group": 10,, "beta0": 1}')
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_simulate_config_that_is_not_an_object_exit_2_without_outputs(tmp_path, capsys):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]")
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == (f"error: {cfg}: bad cohort config: "
                            "cohort config must be a JSON object, got array\n")
    assert captured.out == ""
    assert not out.exists()


def test_simulate_config_that_is_not_utf8_exit_2_naming_the_byte(tmp_path, capsys):
    cfg = tmp_path / "latin1.json"
    cfg.write_bytes(b'{"label": "\xff"}')
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {cfg}: ")
    assert "byte 0xff in position 11" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value",
    [("seed", 7.9), ("n_per_group", 2000.7), ("seed", True), ("seed", "7")],
)
def test_simulate_non_integer_config_exit_2_without_outputs(
    demo_config, tmp_path, capsys, field, value
):
    # int() would load these as seed 7 / n 2000 / seed 1 / seed 7.
    cfg = tmp_path / "cohort.json"
    cfg.write_text(json.dumps({**json.loads(demo_config.read_text()), field: value}))
    out = tmp_path / "sim"
    code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert "bad cohort config" in captured.err
    assert f"{field} must be a JSON integer" in captured.err
    assert captured.out == ""
    assert not out.exists()


def _first_confounder(**fields):
    def edit(config):
        config["confounders"][0].update(fields)

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda c: c.update(noise_sigma=float("nan")), "noise_sigma must be a finite JSON number"),
        (_first_confounder(mean_f=float("inf")), "confounder mean_f must be a finite JSON number"),
        (lambda c: c.update(beta0=True), "beta0 must be a finite JSON number, got true"),
        (lambda c: c.update(beta0="2.5"), "beta0 must be a finite JSON number"),
        (_first_confounder(beta="2"), "confounder beta must be a finite JSON number"),
        (_first_confounder(sigma=None), "confounder sigma must be a finite JSON number, got null"),
        (lambda c: c.update(beta0=10**400), "beta0 must be a finite JSON number"),
        # finite inputs whose outcomes overflow float64
        (lambda c: c.update(beta0=1e308, beta1=1e308), "the gaps overflow float64"),
        # a confounder that is constant to float64 precision: a multiple of the intercept
        (_first_confounder(mean_f=1e10, mean_m=1e10, sigma=1e-300), "linearly dependent"),
        # the config's shape, named by field rather than by a Python call
        (_first_confounder(rho=0.5), "unknown confounder field(s): rho"),
        (lambda c: c.update(confounders=5), "confounders must be a JSON array, got number"),
        (lambda c: c.update(confounders=None), "confounders must be a JSON array, got null"),
        (lambda c: c.update(confounders=[1]), "confounder must be a JSON object, got number"),
        (lambda c: (c.clear(), c.update(beta0=0)),
         "missing cohort config field(s): n_per_group, beta1"),
    ],
    ids=["nan-noise", "inf-mean_f", "bool-beta0", "str-beta0", "str-confounder-beta",
         "null-confounder-sigma", "400-digit-beta0", "overflowing-gaps", "constant-confounder",
         "unknown-confounder-field", "number-confounders", "null-confounders",
         "number-confounder", "missing-fields"],
)
@pytest.mark.parametrize("seeds", ["1", "3"])
def test_simulate_bad_number_config_exit_2_without_outputs(
    demo_config, tmp_path, capsys, edit, message, seeds
):
    config = json.loads(demo_config.read_text())
    edit(config)
    cfg = tmp_path / "cohort.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "sim"
    code = main(["simulate", "--config", str(cfg), "--seeds", seeds, "--out", str(out)])
    assert code == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert "bad cohort config" in captured.err and message in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "edit",
    [
        lambda c: c.update(n_per_group=10**15),  # the uniforms: ~57 PiB
        lambda c: c.update(n_per_group=10**15, confounders=[], noise_sigma=0.0),  # x: ~28 PiB
    ],
    ids=["uniforms", "width-0-design"],
)
def test_simulate_cohort_too_large_to_allocate_exit_2_without_outputs(
    demo_config, tmp_path, capsys, edit
):
    # Both sizes are far above the 128 TiB user address space, so the
    # allocation fails at once and touches no memory.
    config = json.loads(demo_config.read_text())
    edit(config)
    cfg = tmp_path / "cohort.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "sim"
    code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {cfg}: bad cohort config: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_simulate_seed_count_too_large_to_allocate_exit_2_without_outputs(tmp_path, capsys):
    # The list of 10**15 seeds would take 8 PB, far above the 128 TiB user
    # address space, so the allocation fails at once and touches no memory.
    out = tmp_path / "sim"
    code = main(["simulate", "--demo", "--seeds", str(10**15), "--out", str(out)])
    assert code == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == f"error: bad --seed/--seeds: {10**15} seeds do not fit in memory\n"
    assert captured.out == ""
    assert not out.exists()


def test_simulate_seed_count_below_one_exit_2_without_outputs(tmp_path, capsys):
    out = tmp_path / "sim"
    assert main(["simulate", "--demo", "--seeds", "0", "--out", str(out)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == "error: --seeds must be at least 1\n"
    assert captured.out == ""
    assert not out.exists()


def test_simulate_missing_config_exit_1(tmp_path):
    assert (
        main(["simulate", "--config", str(tmp_path / "no.json"), "--out", str(tmp_path)])
        == EXIT_IO
    )


def test_simulate_multi_seed_reports_mean_sd(demo_config, tmp_path, capsys):
    out = tmp_path / "multi"
    code = main(
        ["simulate", "--config", str(demo_config), "--seeds", "5", "--out", str(out)]
    )
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "+-" in stdout and "5 seeds" in stdout
    payload = json.loads((out / "gap.json").read_bytes())
    assert len(payload["results"]) == 5
    assert payload["seeds"] == list(range(7, 12))
    assert abs(payload["mean"]["gap_unadjusted"]) > abs(payload["mean"]["gap_adjusted"])


@pytest.mark.parametrize(
    "seed_args",
    [["--seed", "-1"], ["--seed", str(2**64)], ["--seed", str(2**64 - 3), "--seeds", "5"]],
)
def test_simulate_seed_out_of_range_exit_2_without_outputs(tmp_path, capsys, seed_args):
    out = tmp_path / "sim"
    code = main(["simulate", "--demo", "--out", str(out)] + seed_args)
    assert code == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "2**64 - 1" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_simulate_demo_20_seeds_gap_json_bytes(tmp_path):
    # Pins the batch-drawn cohorts to the bytes of the one-draw-at-a-time loop.
    out = tmp_path / "sim"
    assert main(["simulate", "--demo", "--seeds", "20", "--out", str(out)]) == EXIT_OK
    digest = hashlib.sha256((out / "gap.json").read_bytes()).hexdigest()
    assert digest == "59780b5dced8b44595b43acfe9cf1021e430a6f69165c8a82584a157ececb186"


def test_simulate_byte_identical_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--demo", "--out", str(a)]) == EXIT_OK
    assert main(["simulate", "--demo", "--out", str(b)]) == EXIT_OK
    assert read_dir(a) == read_dir(b)


# main() parses every call with the one parser built at import: no flag,
# default or exit of one call may reach the next.


def test_reused_parser_forgets_one_sided(null_csv, tmp_path):
    one, two = tmp_path / "one", tmp_path / "two"
    assert main(["audit", "--input", str(null_csv), "--one-sided", "--out", str(one)]) == EXIT_OK
    assert main(["audit", "--input", str(null_csv), "--out", str(two)]) == EXIT_OK
    configs = [json.loads((out / "report.json").read_bytes())["metadata"]["config"]
               for out in (one, two)]
    assert [config["sided"] for config in configs] == ["one", "two"]


def test_reused_parser_forgets_the_preset(tmp_path):
    assert main(["tails", "--preset", "g", "--out", str(tmp_path / "g")]) == EXIT_OK
    spec = ["--ref-mu", "1", "--ref-sigma", "2", "--other-mu", "0", "--other-sigma", "1"]
    assert main(["tails", *spec, "--out", str(tmp_path / "own")]) == EXIT_OK
    payload = json.loads((tmp_path / "own" / "tails.json").read_bytes())
    assert payload["config"]["preset"] is None
    assert payload["table"]["ref"] == {"label": "reference", "mu": 1.0, "sigma": 2.0}


def test_reused_parser_forgets_the_seed(demo_config, tmp_path):
    assert main(["simulate", "--demo", "--seed", "5", "--out", str(tmp_path / "five")]) == EXIT_OK
    assert main(["simulate", "--demo", "--out", str(tmp_path / "own")]) == EXIT_OK
    seeds = [json.loads((tmp_path / out / "gap.json").read_bytes())["config"]["seed"]
             for out in ("five", "own")]
    assert seeds == [5, json.loads(demo_config.read_bytes())["seed"]] and seeds[1] != 5


@pytest.mark.parametrize("argv, code", [
    (["audit", "--alpha", "x", "--input", "a.csv"], EXIT_VALIDATION),
    (["--version"], EXIT_OK),
    (["audit", "--help"], EXIT_OK),
], ids=["usage-error", "version", "help"])
def test_run_after_a_parser_exit_matches_manifest(argv, code, null_csv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    capsys.readouterr()
    want = json.loads(MANIFEST.read_text(encoding="utf-8"))["null_27/default"]
    assert cli_digests(["audit", "--input", str(null_csv)], tmp_path / "out") == want


def test_help_wraps_to_the_columns_of_each_call(monkeypatch, capsys):
    def widest_line(columns):
        monkeypatch.setenv("COLUMNS", str(columns))
        with pytest.raises(SystemExit):
            main(["audit", "--help"])
        return max(map(len, capsys.readouterr().out.splitlines()))

    assert widest_line(60) <= 60
    assert widest_line(200) > 60
    assert widest_line(60) <= 60


class _Terminal(StringIO):
    def isatty(self):
        return True


def test_no_color_env_suppresses_ansi(null_csv, tmp_path, capsys, monkeypatch):
    main(["audit", "--input", str(null_csv), "--out", str(tmp_path / "o")])
    assert "\x1b[" not in capsys.readouterr().out

    def on_a_terminal():
        with redirect_stdout(_Terminal()) as stdout:
            assert main(["audit", "--input", str(null_csv),
                         "--out", str(tmp_path / "o")]) == EXIT_OK
        return stdout.getvalue().splitlines()

    monkeypatch.delenv("METAPLOT_NO_COLOR")
    assert on_a_terminal()[0] == "ICC: \x1b[32mNullConsistent\x1b[0m"
    monkeypatch.setenv("METAPLOT_NO_COLOR", "1")
    plain = on_a_terminal()
    assert plain[0] == "ICC: NullConsistent" and "\x1b[" not in "".join(plain)


def test_import_cli_leaves_numpy_unloaded():
    # only simulate needs numpy, and only an audit that forks needs pickle;
    # audit and tails start without either
    code = ("import sys, metaplot.cli, metaplot.ingest;"
            " sys.exit('numpy' in sys.modules or 'pickle' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_import_metaplot_loads_no_submodule_but_version():
    code = ("import sys, metaplot; sys.exit(sorted(m for m in sys.modules"
            " if m.startswith('metaplot.')) != ['metaplot._version'])")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_console_entry_point(null_csv, tmp_path):
    import os

    env = dict(os.environ, METAPLOT_NO_COLOR="1")
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "metaplot.cli",
            "audit",
            "--input",
            str(null_csv),
            "--out",
            str(tmp_path / "o"),
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "NullConsistent" in proc.stdout
