import dataclasses
import json
import math
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import wide_sheet

import metaplot.report
from metaplot.fisher import Summaries, summarize_studies, summarize_z
from metaplot.gaussian import GaussianSpec, PRESETS, ratio_table
from metaplot.ingest import CorrelationClass, group_complete_studies, parse_records
from metaplot.numerics import Probability
from metaplot.pplot import PlotClass, PlotDiagnostics, PValuePlot, build_plot
from metaplot.report import (
    AuditMetadata,
    AuditReport,
    json_block,
    render_json,
    render_markdown,
    render_svg_gaussians,
    render_svg_pplot,
    render_svg_zpanel,
    tail_table_to_dict,
)


def build_report(csv_path, two_sided=True):
    return build_report_from_text(csv_path.read_bytes(), two_sided)


def build_report_from_text(sheet, two_sided=True):
    result = parse_records(sheet)
    assert not result.errors
    groups = group_complete_studies(result.records).groups
    summaries, z_panels, plots = {}, {}, {}
    for cls in CorrelationClass:
        ss = summarize_studies(groups, cls, two_sided=two_sided)
        summaries[cls.value] = ss
        z_panels[cls.value] = summarize_z(ss, cls)
        plots[cls.value] = build_plot(ss.p_value, alpha=0.05, cls=cls)
    return AuditReport(
        metadata=AuditMetadata(
            input_sha256="e" * 64, tool_version="0.1.0", config={"alpha": 0.05}
        ),
        summaries=summaries,
        z_panels=z_panels,
        plots=plots,
    )


def study_rows(summaries):
    """Each study's fields of a Summaries, as a dict keyed by field name."""
    names = [f.name for f in dataclasses.fields(summaries)]
    return [dict(zip(names, row)) for row in zip(*(getattr(summaries, n) for n in names))]


def expected_json(report):
    """What report.json must hold, built field by field from the dataclasses."""
    meta = report.metadata
    return {
        "gap_report": None,
        "metadata": {
            "config": meta.config,
            "input_sha256": meta.input_sha256,
            "tool_version": meta.tool_version,
        },
        "plots": {
            tag: {
                "alpha": p.alpha,
                "class": p.cls.value if p.cls is not None else None,
                "diagnostics": {
                    "classification": p.diagnostics.classification.value,
                    "frac_below_alpha": p.diagnostics.frac_below_alpha,
                    "ks_p": p.diagnostics.ks_p,
                    "ks_statistic": p.diagnostics.ks_statistic,
                    "min_p": p.diagnostics.min_p,
                    "slope_fit": p.diagnostics.slope_fit,
                },
                "points": [[rank, pv] for rank, pv in enumerate(p.ps, start=1)],
            }
            for tag, p in report.plots.items()
        },
        "summaries": {
            tag: [
                {
                    "class": tag,
                    "fisher_z": s["fisher_z"],
                    "mean_r": s["mean_r"],
                    "n": s["n"],
                    "p_value": s["p_value"],
                    "se": s["se"],
                    "study_id": s["study_id"],
                    "z_score": s["z_score"],
                }
                for s in study_rows(ss)
            ]
            for tag, ss in report.summaries.items()
        },
        "tail_tables": [],
        "z_panels": {
            tag: {
                "class": z.cls.value,
                "count": z.count,
                "histogram": [[lo, hi, c] for lo, hi, c in z.histogram],
                "max": z.max,
                "median": z.median,
                "min": z.min,
                "q1": z.q1,
                "q3": z.q3,
            }
            for tag, z in report.z_panels.items()
        },
    }


def exact(value):
    """A JSON value in a form whose == compares floats bit for bit (so -0.0
    differs from 0.0) and never lets a float equal an int."""
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, dict):
        return {k: exact(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [exact(v) for v in value]
    return value


def assert_json_values(report):
    """report.json decodes to exactly the report's field values."""
    assert exact(json.loads(render_json(report))) == exact(expected_json(report))


def test_json_round_trip_minimal(null_csv):
    assert_json_values(build_report(null_csv))


PIECES = ("head", "rest")


def assert_stdlib_bytes(report):
    """render_json writes what the stdlib indent=2 encoder writes, and so do
    its pieces, joined, the first ending at the value of "summaries"."""
    data = render_json(report)
    text = data.decode("utf-8")
    oracle = json.dumps(json.loads(text), sort_keys=True, indent=2, allow_nan=False)
    assert text == oracle + "\n"
    assert render_json(report, "head").endswith(b'\n  "summaries": ')
    assert b"".join(render_json(report, piece) for piece in PIECES) == data


@pytest.mark.parametrize("fixture", ["null_csv", "effect_csv"])
@pytest.mark.parametrize("two_sided", [False, True])
def test_json_matches_stdlib_encoder(fixture, two_sided, request):
    report = build_report(request.getfixturevalue(fixture), two_sided=two_sided)
    assert_stdlib_bytes(report)
    assert_json_values(report)


def test_json_empty_report_matches_stdlib_encoder():
    report = AuditReport(
        metadata=AuditMetadata(input_sha256="", tool_version="0.1.0"),
        summaries={},
        z_panels={},
        plots={},
    )
    assert_stdlib_bytes(report)
    assert_json_values(report)


finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308]
)
unit = st.floats(0.0, 1.0) | st.sampled_from([-0.0, 5e-324, 1.0])
texts = st.text() | st.sampled_from(['"', "\\", '\\"', "\x00\x1f\x7f", "\U0001f600", "\ud800"])
tags = st.sampled_from([c.value for c in CorrelationClass])


def columns(k, values):
    return st.lists(values, min_size=k, max_size=k)


summaries_columns = st.integers(0, 4).flatmap(
    lambda k: st.builds(
        Summaries,
        study_id=columns(k, texts),
        mean_r=columns(k, finite),
        n=columns(k, st.integers()),
        fisher_z=columns(k, finite),
        se=columns(k, finite),
        z_score=columns(k, finite),
        p_value=columns(k, unit),
    )
)


pvalue_plots = st.builds(
    PValuePlot,
    cls=st.none() | st.sampled_from(CorrelationClass),
    alpha=finite,
    ps=st.lists(unit).map(tuple),
    diagnostics=st.builds(
        PlotDiagnostics,
        ks_statistic=finite,
        ks_p=unit.map(Probability),
        slope_fit=finite,
        frac_below_alpha=unit.map(Probability),
        min_p=unit.map(Probability),
        classification=st.sampled_from(PlotClass),
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    input_name=texts,
    summaries=st.dictionaries(tags, summaries_columns),
    plots=st.dictionaries(tags, pvalue_plots),
)
def test_json_matches_stdlib_encoder_for_any_report(input_name, summaries, plots):
    report = AuditReport(
        metadata=AuditMetadata(
            input_sha256="e" * 64, tool_version="0.1.0", config={"input": input_name}
        ),
        summaries=summaries,
        z_panels={},
        plots=plots,
    )
    assert_stdlib_bytes(report)
    assert_json_values(report)


def test_json_point_keeps_its_own_zero_sign():
    # A summary p of 0.0 and a plot point of -0.0 under the same tag: equal
    # floats that print differently, so sharing p strings by value would
    # write the point as 0.0.
    cls = CorrelationClass.ICC
    summaries = Summaries(["s1", "s2"], [0.5, 0.1], [10, 10], [0.5, 0.1],
                          [0.3, 0.3], [1.6, 0.3], [0.0, 0.75])
    diagnostics = PlotDiagnostics(0.5, Probability(0.5), 1.0, Probability(0.5),
                                  Probability(0.0), PlotClass.AMBIGUOUS)
    plot = PValuePlot(cls, 0.05, (-0.0, summaries.p_value[1]), diagnostics)
    report = AuditReport(
        metadata=AuditMetadata(input_sha256="e" * 64, tool_version="0.1.0"),
        summaries={"ICC": summaries},
        z_panels={},
        plots={"ICC": plot},
    )
    assert_stdlib_bytes(report)
    assert_json_values(report)
    text = render_json(report).decode()
    assert '"p_value": 0.0,' in text and "          -0.0\n" in text


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_json_rejects_non_finite_floats(null_csv, bad):
    report = build_report(null_csv)
    ss = report.summaries["ICC"]
    z_scores = [bad, *ss.z_score[1:]]
    summaries = {**report.summaries, "ICC": dataclasses.replace(ss, z_score=z_scores)}
    with pytest.raises(ValueError, match="not JSON compliant"):
        render_json(dataclasses.replace(report, summaries=summaries))
    plot = report.plots["ECC"]
    plots = {**report.plots, "ECC": dataclasses.replace(plot, ps=(bad,))}
    with pytest.raises(ValueError, match="not JSON compliant"):
        render_json(dataclasses.replace(report, plots=plots))


def test_json_byte_deterministic(null_csv):
    report = build_report(null_csv)
    assert render_json(report) == render_json(report)


@pytest.mark.parametrize("block_rows", [1, 2, 26, 27, 28])
def test_json_blocks_join_like_one_array(null_csv, block_rows, monkeypatch):
    # 27 studies per class: blocks that divide the rows, leave one over, hold
    # all of them, or one row more
    report = build_report(null_csv)
    whole = render_json(report)
    monkeypatch.setattr(metaplot.report, "_BLOCK_ROWS", block_rows)
    assert render_json(report) == whole
    assert_stdlib_bytes(report)  # which joins the pieces too
    # "rest" is the value of "summaries" and the fields after it
    rest = json.loads(b'{"summaries": ' + render_json(report, "rest"))
    assert rest == {key: v for key, v in json.loads(whole).items() if key >= "summaries"}


def test_render_json_holds_the_document_about_once():
    # The output and what it takes to write it: a document built as a list of
    # strings, joined and then encoded, peaks at over three times its length.
    report = build_report_from_text(wide_sheet(5000, seed=10))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        data = render_json(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(data) > 4_000_000
    assert peak < 2.5 * len(data), peak / len(data)


def test_overflow_ratio_serializes_as_inf_token():
    # tails.json writes its table through tail_table_to_dict and json_block
    far = GaussianSpec("far", -60.0, 0.5)
    tails = ratio_table(GaussianSpec("ref", 0, 1), far, [0.0])
    assert math.isinf(tails.rows[0].ratio)
    payload = json.loads(json_block(tail_table_to_dict(tails)))
    row = payload["rows"][0]
    assert row["ratio"] == "inf"
    assert row["overflow"] is True


def test_json_has_sorted_keys(null_csv):
    payload = render_json(build_report(null_csv)).decode()
    top_keys = list(json.loads(payload).keys())
    assert top_keys == sorted(top_keys)


def test_markdown_contains_tables_and_figure_links(null_csv):
    md = render_markdown(build_report(null_csv)).decode()
    assert "| class | n | KS stat |" in md
    assert "pplot_ICC.svg" in md and "pplot_IEC.svg" in md
    assert "| ICC |" in md
    assert md.count("NullConsistent") >= 1


def test_markdown_p_values_four_decimals(null_csv):
    report = build_report(null_csv)
    md = render_markdown(report).decode()
    assert f"{report.summaries['ICC'].p_value[0]:.4f}" in md


@pytest.mark.filterwarnings("ignore:only 4 p-values")
def test_markdown_study_cell_escapes_pipes_and_line_breaks():
    ids = ["s0|x\nnext", "s1\r\nb", "|s2|", "s3"]
    rows = [
        f'"{sid}",A,2000,,,{cls.value},0.{i + 1},{20 + i}'
        for i, sid in enumerate(ids)
        for cls in CorrelationClass
    ]
    csv_text = "study_id,author,year,title,journal,class,r,n\n" + "\n".join(rows) + "\n"
    result = parse_records(csv_text)
    assert not result.errors
    groups = group_complete_studies(result.records).groups
    summaries = {cls.value: summarize_studies(groups, cls) for cls in CorrelationClass}
    report = AuditReport(
        metadata=AuditMetadata(input_sha256="e" * 64, tool_version="0.1.0", config={}),
        summaries=summaries,
        z_panels={tag: summarize_z(ss, CorrelationClass(tag)) for tag, ss in summaries.items()},
        plots={
            tag: build_plot(ss.p_value, alpha=0.05, cls=CorrelationClass(tag))
            for tag, ss in summaries.items()
        },
    )
    md = render_markdown(report).decode()
    for tag in summaries:
        section = md.split(f"### {tag} study summaries\n\n")[1].split("\n\n")[0]
        body = section.splitlines()[2:]  # after the header and the rule
        assert len(body) == len(ids)
        for line, sid in zip(body, sorted(ids)):
            cells = re.split(r"(?<!\\)\|", line)[1:-1]
            assert len(cells) == 7, line
            expected = sid.replace("|", "\\|").replace("\r", " ").replace("\n", " ")
            assert cells[0] == f" {expected} "
    assert "| s3 |" in md


def test_svg_pplot_structure(null_csv):
    report = build_report(null_csv)
    plot = report.plots["ICC"]
    svg = render_svg_pplot(plot).decode()
    assert svg.startswith("<?xml")
    assert svg.count("<circle") == plot.n
    assert "stroke-dasharray" in svg  # reference + alpha rule lines
    assert "alpha=0.05" in svg
    assert "</svg>" in svg


def test_svg_deterministic(null_csv):
    report = build_report(null_csv)
    plot = report.plots["ECC"]
    assert render_svg_pplot(plot) == render_svg_pplot(plot)
    panels = [report.z_panels[c.value] for c in CorrelationClass]
    assert render_svg_zpanel(panels) == render_svg_zpanel(panels)


def test_svg_gaussians_two_curves_and_legend():
    male, female = PRESETS["g"]
    svg = render_svg_gaussians([male, female], -4.0, 4.0).decode()
    assert svg.count("<polyline") == 2
    assert "male" in svg and "female" in svg
    assert render_svg_gaussians([male, female], -4.0, 4.0) == render_svg_gaussians(
        [male, female], -4.0, 4.0
    )


def test_svg_gaussians_single_symmetric_curve():
    svg = render_svg_gaussians([GaussianSpec("std", 0, 1)], -4.0, 4.0).decode()
    assert svg.count("<polyline") == 1


def test_svg_gaussians_female_peak_left_of_male():
    male, female = PRESETS["things"]
    # compare the x position of each curve's maximum in pixel space
    from metaplot.gaussian import curve_points

    m = max(curve_points(male, -5, 4, 181), key=lambda p: p[1])[0]
    f = max(curve_points(female, -5, 4, 181), key=lambda p: p[1])[0]
    assert f < m


def test_svg_gaussians_validation():
    with pytest.raises(ValueError):
        render_svg_gaussians([], -4, 4)
    with pytest.raises(ValueError):
        render_svg_gaussians([GaussianSpec("a", 0, 1)], 2.0, 2.0)


def test_svg_escapes_labels():
    spec = GaussianSpec("a<b&c", 0, 1)
    svg = render_svg_gaussians([spec], -4, 4).decode()
    assert "a&lt;b&amp;c" in svg
    assert "a<b&c" not in svg


# Four curves: every legend row and every palette colour.
FOUR_SPECS = (
    *PRESETS["g"],
    PRESETS["things"][1],
    GaussianSpec("wide<&>", 1.5, 2.0),
)


def test_golden_files(null_csv, golden_dir):
    # Regenerate with: python tests/golden/regenerate.py
    report = build_report(null_csv)
    male, female = PRESETS["g"]
    got = {
        "pplot_ICC.svg": render_svg_pplot(report.plots["ICC"]),
        "zpanel.svg": render_svg_zpanel(
            [report.z_panels[c.value] for c in CorrelationClass]
        ),
        "gaussians_g.svg": render_svg_gaussians([male, female], -4.664, 4.0),
        "gaussians_4.svg": render_svg_gaussians(FOUR_SPECS, -6.0, 5.0),
    }
    for name, data in got.items():
        assert data == (golden_dir / name).read_bytes(), f"golden mismatch: {name}"
