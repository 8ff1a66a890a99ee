import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaplot.cohort import GapReport
from metaplot.fisher import StudySummary, summarize_studies, summarize_z
from metaplot.gaussian import GaussianSpec, PRESETS, ratio_table
from metaplot.ingest import CorrelationClass, group_complete_studies, parse_records
from metaplot.numerics import Probability
from metaplot.pplot import PlotClass, PlotDiagnostics, PValuePlot, build_plot
from metaplot.report import (
    AuditMetadata,
    AuditReport,
    parse_json,
    render_json,
    render_markdown,
    render_svg_gaussians,
    render_svg_pplot,
    render_svg_zpanel,
)


def build_report(csv_path, tail_tables=(), gap_report=None):
    records = parse_records(csv_path.read_bytes()).raise_if_errors()
    groups = group_complete_studies(records).groups
    summaries, z_panels, plots = {}, {}, {}
    for cls in CorrelationClass:
        ss = summarize_studies(groups, cls)
        summaries[cls.value] = tuple(ss)
        z_panels[cls.value] = summarize_z(ss, cls)
        plots[cls.value] = build_plot([s.p_value for s in ss], alpha=0.05, cls=cls)
    return AuditReport(
        metadata=AuditMetadata(
            input_sha256="e" * 64, tool_version="0.1.0", config={"alpha": 0.05}
        ),
        summaries=summaries,
        z_panels=z_panels,
        plots=plots,
        tail_tables=tuple(tail_tables),
        gap_report=gap_report,
    )


def test_json_round_trip_minimal(null_csv):
    report = build_report(null_csv)
    assert parse_json(render_json(report)) == report


def test_json_round_trip_with_optional_sections(null_csv):
    tails = ratio_table(*PRESETS["g"], [0.0, 1.0, 2.0, 3.0])
    gap = GapReport(
        gap_unadjusted=-16.6,
        gap_adjusted=-3.8,
        coefficients=(28.6, -3.8, 2.0),
        residual_sd=1.1,
    )
    report = build_report(null_csv, tail_tables=[tails], gap_report=gap)
    assert parse_json(render_json(report)) == report


def optional_sections():
    # the far spec makes the last ratio overflow into the "inf" token
    tails = ratio_table(*PRESETS["g"], [0.0, 1.0, 2.0, 3.0])
    far = ratio_table(GaussianSpec("ref", 0, 1), GaussianSpec("far", -60.0, 0.5), [0.0])
    gap = GapReport(
        gap_unadjusted=-16.6,
        gap_adjusted=-3.8,
        coefficients=(28.6, -3.8, 2.0),
        residual_sd=1.1,
    )
    return {"tail_tables": [tails, far], "gap_report": gap}


def assert_stdlib_bytes(report):
    """render_json writes what the stdlib indent=2 encoder writes."""
    text = render_json(report).decode("utf-8")
    oracle = json.dumps(json.loads(text), sort_keys=True, indent=2, allow_nan=False)
    assert text == oracle + "\n"


@pytest.mark.parametrize("fixture", ["null_csv", "effect_csv"])
@pytest.mark.parametrize("optional", [False, True])
def test_json_matches_stdlib_encoder(fixture, optional, request):
    sections = optional_sections() if optional else {}
    report = build_report(request.getfixturevalue(fixture), **sections)
    assert_stdlib_bytes(report)
    assert parse_json(render_json(report)) == report


def test_json_empty_report_matches_stdlib_encoder():
    report = AuditReport(
        metadata=AuditMetadata(input_sha256="", tool_version="0.1.0"),
        summaries={},
        z_panels={},
        plots={},
    )
    assert_stdlib_bytes(report)
    assert parse_json(render_json(report)) == report


finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308]
)
unit = st.floats(0.0, 1.0) | st.sampled_from([-0.0, 5e-324, 1.0])
texts = st.text() | st.sampled_from(['"', "\\", '\\"', "\x00\x1f\x7f", "\U0001f600", "\ud800"])
tags = st.sampled_from([c.value for c in CorrelationClass])
study_summaries = st.builds(
    StudySummary,
    study_id=texts,
    cls=st.sampled_from(CorrelationClass),
    mean_r=finite,
    n=st.integers(),
    fisher_z=finite,
    se=finite,
    z_score=finite,
    p_value=unit.map(Probability),
)
pvalue_plots = st.builds(
    PValuePlot,
    cls=st.none() | st.sampled_from(CorrelationClass),
    alpha=finite,
    points=st.lists(st.tuples(st.integers(), unit)).map(tuple),
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
    summaries=st.dictionaries(tags, st.lists(study_summaries, max_size=4).map(tuple)),
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
    assert parse_json(render_json(report)) == report


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_json_rejects_non_finite_floats(null_csv, bad):
    report = build_report(null_csv)
    ss = report.summaries["ICC"]
    summaries = {**report.summaries, "ICC": (dataclasses.replace(ss[0], z_score=bad), *ss[1:])}
    with pytest.raises(ValueError, match="not JSON compliant"):
        render_json(dataclasses.replace(report, summaries=summaries))
    plot = report.plots["ECC"]
    plots = {**report.plots, "ECC": dataclasses.replace(plot, points=((1, bad),))}
    with pytest.raises(ValueError, match="not JSON compliant"):
        render_json(dataclasses.replace(report, plots=plots))


def test_json_byte_deterministic(null_csv):
    report = build_report(null_csv)
    assert render_json(report) == render_json(report)


def test_overflow_ratio_serializes_as_inf_token(null_csv):
    far = GaussianSpec("far", -60.0, 0.5)
    tails = ratio_table(GaussianSpec("ref", 0, 1), far, [0.0])
    report = build_report(null_csv, tail_tables=[tails])
    payload = json.loads(render_json(report))
    row = payload["tail_tables"][0]["rows"][0]
    assert row["ratio"] == "inf"
    assert row["overflow"] is True
    again = parse_json(render_json(report))
    assert math.isinf(again.tail_tables[0].rows[0].ratio)


def test_json_has_sorted_keys(null_csv):
    payload = render_json(build_report(null_csv)).decode()
    top_keys = list(json.loads(payload).keys())
    assert top_keys == sorted(top_keys)


def test_markdown_contains_tables_and_figure_links(null_csv):
    report = build_report(
        null_csv, tail_tables=[ratio_table(*PRESETS["things"], [0.0, 1.0])]
    )
    md = render_markdown(report)
    assert "| class | n | KS stat |" in md
    assert "pplot_ICC.svg" in md and "pplot_IEC.svg" in md
    assert "| ICC |" in md
    assert "0.17619" in md  # five-decimal tail-area display
    assert md.count("NullConsistent") >= 1


def test_markdown_p_values_four_decimals(null_csv):
    report = build_report(null_csv)
    md = render_markdown(report)
    first = report.summaries["ICC"][0]
    assert f"{first.p_value:.4f}" in md


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
    }
    for name, data in got.items():
        assert data == (golden_dir / name).read_bytes(), f"golden mismatch: {name}"
