import gc
import json
import subprocess
import sys

import pytest

import metaplot.cli
from metaplot.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, main

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


def test_audit_format_selection(null_csv, tmp_path):
    out = tmp_path / "jsononly"
    code = main(
        ["audit", "--input", str(null_csv), "--out", str(out), "--format", "json"]
    )
    assert code == EXIT_OK
    assert set(read_dir(out)) == {"report.json"}


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

    def boom(source, strict=False):
        seen.append(gc.isenabled())
        raise RuntimeError("boom")

    monkeypatch.setattr(metaplot.cli, "parse_records", boom)
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


def test_tails_bad_threshold_list_exit_2(tmp_path):
    assert (
        main(["tails", "--preset", "g", "--thresholds", "2,1", "--out", str(tmp_path)])
        == EXIT_VALIDATION
    )


def test_tails_byte_identical_runs(tmp_path):
    for preset in ("g", "things"):
        a, b = tmp_path / f"a_{preset}", tmp_path / f"b_{preset}"
        assert main(["tails", "--preset", preset, "--out", str(a)]) == EXIT_OK
        assert main(["tails", "--preset", preset, "--out", str(b)]) == EXIT_OK
        assert read_dir(a) == read_dir(b)


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


def test_simulate_byte_identical_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--demo", "--out", str(a)]) == EXIT_OK
    assert main(["simulate", "--demo", "--out", str(b)]) == EXIT_OK
    assert read_dir(a) == read_dir(b)


def test_no_color_env_suppresses_ansi(null_csv, tmp_path, capsys):
    main(["audit", "--input", str(null_csv), "--out", str(tmp_path / "o")])
    assert "\x1b[" not in capsys.readouterr().out


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
