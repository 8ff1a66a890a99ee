import dataclasses
import json
import math
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import wide_sheet

import metaplot.report
from metaplot.fisher import AggregationMode, Summaries, summarize_studies, summarize_z
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
            }
            for tag, p in report.plots.items()
        },
        "schema_version": 2,
        "summaries": {
            tag: [
                {
                    "mean_r": s["mean_r"],
                    "n": s["n"],
                    "p_value": s["p_value"],
                    "study_id": s["study_id"],
                }
                for s in study_rows(ss)
            ]
            for tag, ss in report.summaries.items()
        },
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


def assert_stdlib_bytes(report):
    """render_json writes what the stdlib indent=2 encoder writes."""
    text = render_json(report).decode("utf-8")
    oracle = json.dumps(json.loads(text), sort_keys=True, indent=2, allow_nan=False)
    assert text == oracle + "\n"


@pytest.mark.parametrize("fixture", ["null_csv", "effect_csv"])
@pytest.mark.parametrize("two_sided", [False, True])
def test_json_matches_stdlib_encoder(fixture, two_sided, request):
    report = build_report(request.getfixturevalue(fixture), two_sided=two_sided)
    assert_stdlib_bytes(report)
    assert_json_values(report)


def fixture_report(csv_path, mode, two_sided):
    """A report holding only the summaries of a sheet, per class."""
    groups = group_complete_studies(parse_records(csv_path.read_bytes()).records).groups
    summaries = {cls.value: summarize_studies(groups, cls, mode=mode, two_sided=two_sided)
                 for cls in CorrelationClass}
    return AuditReport(
        metadata=AuditMetadata(input_sha256="e" * 64, tool_version="0.1.0"),
        summaries=summaries, z_panels={}, plots={},
    )


@pytest.mark.parametrize("fixture", ["null_csv", "effect_csv"])
@pytest.mark.parametrize("mode", list(AggregationMode))
@pytest.mark.parametrize("two_sided", [False, True])
def test_json_rows_recompute_the_dropped_fields(fixture, mode, two_sided, request):
    # schema 2 keeps study_id, mean_r, n and p_value; Fisher z, se, z_score and
    # p_value itself follow from mean_r and n, and Summaries' z_score and
    # p_value equal them bit for bit
    report = fixture_report(request.getfixturevalue(fixture), mode, two_sided)
    rows = json.loads(render_json(report))["summaries"]
    for tag, ss in report.summaries.items():
        got = []
        for row in rows[tag]:
            fisher_z = math.atanh(row["mean_r"])
            se = 1.0 / math.sqrt(row["n"] - 3)
            z = fisher_z / se
            if two_sided:
                p = min(1.0, 2.0 * (0.5 * math.erfc(abs(z) / math.sqrt(2.0))))
            else:
                p = 0.5 * math.erfc(z / math.sqrt(2.0))
            assert p.hex() == row["p_value"].hex()
            got.append((row["study_id"], row["mean_r"], row["n"], z, p))
        want = list(zip(ss.study_id, ss.mean_r, ss.n, ss.z_score, ss.p_value))
        assert exact(got) == exact(want)


@pytest.mark.parametrize("fixture", ["null_csv", "effect_csv"])
@pytest.mark.parametrize("mode", list(AggregationMode))
@pytest.mark.parametrize("two_sided", [False, True])
def test_markdown_study_rows_print_the_summaries(fixture, mode, two_sided, request):
    report = fixture_report(request.getfixturevalue(fixture), mode, two_sided)
    md = render_markdown(report).decode()
    for tag, ss in report.summaries.items():
        table = md.split(f"### {tag} study summaries\n\n")[1].split("\n\n")[0]
        head, rule, *body = table.split("\n")
        assert head == "| study | mean r | n | z-score | p |"
        assert rule == "|---|---|---|---|---|"
        assert body == [f"| {sid} | {m:.4f} | {n} | {z:.4f} | {p:.4f} |" for sid, m, n, z, p
                        in zip(ss.study_id, ss.mean_r, ss.n, ss.z_score, ss.p_value)]


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


def test_json_mean_r_keeps_its_own_zero_sign():
    # mean r of 0.0 and of -0.0 in one column: equal floats that print
    # differently, so sharing their strings by value would write one wrongly
    summaries = Summaries(["s1", "s2", "s3"], [0.0, -0.0, 0.1], [10, 10, 10], [0.0, -0.0, 0.3],
                          [1.0, 1.0, 0.75])
    report = AuditReport(
        metadata=AuditMetadata(input_sha256="e" * 64, tool_version="0.1.0"),
        summaries={"ICC": summaries},
        z_panels={},
        plots={},
    )
    assert_stdlib_bytes(report)
    assert_json_values(report)
    text = render_json(report).decode()
    assert '"mean_r": 0.0,' in text and '"mean_r": -0.0,' in text


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_json_rejects_non_finite_floats(null_csv, bad):
    report = build_report(null_csv)
    ss = report.summaries["ICC"]
    for field in ("mean_r", "p_value"):  # the float fields report.json writes
        column = [bad, *getattr(ss, field)[1:]]
        summaries = {**report.summaries, "ICC": dataclasses.replace(ss, **{field: column})}
        with pytest.raises(ValueError, match="not JSON compliant"):
            render_json(dataclasses.replace(report, summaries=summaries))


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
    assert_stdlib_bytes(report)


def test_render_json_holds_the_document_about_once():
    # The output and what it takes to write it: a document built as a list of
    # strings, joined and then encoded, peaks at over three times its length.
    report = build_report_from_text(wide_sheet(12_000, seed=10))
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
            assert len(cells) == 5, line
            expected = sid.replace("|", "\\|").replace("\r", " ").replace("\n", " ")
            assert cells[0] == f" {expected} "
    assert "| s3 |" in md


def complete_sheet(studies, seed):
    """A sheet of exactly `studies` complete studies, one record per class."""
    rng = random.Random(seed)
    lines = ["study_id,author,year,title,journal,class,r,n"]
    for i in range(studies):
        n = rng.randint(20, 400)
        lines += [f"s{i:05d},A,2000,,,{cls.value},{rng.uniform(-0.3, 0.3):.6f},{n}"
                  for cls in CorrelationClass]
    return "\n".join(lines) + "\n"


def split_markdown(md):
    """report.md's head, and its sections from each "### " heading on."""
    head, *sections = md.split("### ")
    return head, ["### " + section for section in sections]


@pytest.mark.parametrize("studies", [1000, 1001])
def test_markdown_lists_at_most_the_cap_of_studies(studies, monkeypatch):
    report = build_report_from_text(complete_sheet(studies, seed=21))
    md = render_markdown(report).decode()
    monkeypatch.setattr(metaplot.report, "MD_TABLE_MAX_STUDIES", 10**9)
    uncapped = render_markdown(report).decode()
    head, sections = split_markdown(md)
    assert head == split_markdown(uncapped)[0]
    assert f"| {studies} |" in head  # the verdicts still count every study
    if studies == 1000:
        assert md == uncapped
        assert md.count("\n| s0") == 3 * 1000
    else:
        assert sections == [
            f"### {tag} study summaries\n\n1001 studies: more than 1,000, so the table "
            "is left out; report.json (--format json) lists every study.\n\n"
            for tag in report.summaries
        ]
        assert "\n| s0" not in md


def test_svg_pplot_structure(null_csv):
    report = build_report(null_csv)
    plot = report.plots["ICC"]
    svg = render_svg_pplot(plot).decode()
    assert svg.startswith("<?xml")
    assert svg.count("<circle") == plot.n
    assert "stroke-dasharray" in svg  # reference + alpha rule lines
    assert "alpha=0.05" in svg
    assert "</svg>" in svg


def unthinned_circles(plot):
    """Every point of a p-value plot as render_svg_pplot places it, with its
    whole-pixel cell: (cell, circle element) in rank order."""
    left, top, pw, ph = 56.0, 30.0, 408.0, 284.0
    circles = []
    for rank, p in enumerate(plot.ps, start=1):
        x, y = left + pw * rank / (plot.n + 1), top + ph * (1.0 - p)
        circles.append(((int(x), int(y)),
                        f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="#1f6eb4"/>'))
    return circles


@pytest.mark.filterwarnings("ignore:only .* p-values")
@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 3000) | st.sampled_from([406, 407, 408]),
    seed=st.integers(0, 2**32 - 1),
    decimals=st.sampled_from([1, 2, 3, 17]),
)
def test_svg_pplot_draws_the_first_point_of_each_pixel_cell(n, seed, decimals):
    rng = random.Random(seed)
    ps = sorted([0.0, 1.0, *(round(rng.random(), decimals) for _ in range(n - 2))])
    plot = build_plot(ps, alpha=0.05, cls=CorrelationClass.ICC)
    lines = render_svg_pplot(plot).decode().split("\n")
    drawn = [line for line in lines if line.startswith("<circle")]
    first = lines.index(drawn[0])
    assert lines[first:first + len(drawn)] == drawn  # one run of circles
    circles = unthinned_circles(plot)
    firsts = [c for k, (cell, c) in enumerate(circles) if k == 0 or circles[k - 1][0] != cell]
    assert drawn == firsts
    assert len(drawn) == len({cell for cell, _ in circles})  # each cell once
    if n <= 407:  # the unthinned document, byte for byte
        unthinned = [*lines[:first], *(c for _, c in circles), *lines[first + len(drawn):]]
        assert render_svg_pplot(plot) == "\n".join(unthinned).encode()


@pytest.mark.parametrize("ties", [False, True])
def test_svg_pplot_thins_a_large_plot_to_the_first_point_of_each_cell(ties):
    # 60,000 points, 147 to a pixel column; with ties, a third of them share
    # one p-value, so that whole columns are one cell each
    rng = random.Random(50_001)
    ps = [rng.random() for _ in range(60_000)]
    if ties:
        ps[::3] = [0.5] * 20_000
    plot = build_plot(ps, alpha=0.05, cls=CorrelationClass.ICC)
    drawn = [line for line in render_svg_pplot(plot).decode().split("\n")
             if line.startswith("<circle")]
    circles = unthinned_circles(plot)
    firsts = [c for k, (cell, c) in enumerate(circles) if k == 0 or circles[k - 1][0] != cell]
    assert drawn == firsts
    assert len(drawn) == len({cell for cell, _ in circles})
    assert len(drawn) < 2000


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
    with pytest.raises(ValueError, match="too wide to plot"):
        render_svg_gaussians([GaussianSpec("a", 0, 1)], -1e308, 1e308)
    # every density on the range underflows to zero
    with pytest.raises(ValueError, match=r"^no curve has a density above zero on "
                                         r"\(1234559\.5, 1234564\.0\)$"):
        render_svg_gaussians([GaussianSpec("a", 0, 1)], 1234559.5, 1234564.0)


def gaussian_tick_labels(svg):
    """The x tick labels of a render_svg_gaussians figure, left to right: the
    text 16 px below the x axis."""
    return re.findall(r'<text x="[^"]*" y="276.00" [^>]*>([^<]*)</text>', svg.decode())


@pytest.mark.parametrize("lo, hi, labels", [
    (-6.0, 5.0, [f"{k}" for k in range(-6, 6)]),  # gaussians_4.svg: 12 unit ticks
    (-6.0, 6.0, [f"{k}" for k in range(-6, 7, 2)]),  # 13 units: steps of 2
    (-4.664, 4.0, [f"{k}" for k in range(-4, 5)]),
    (-44.0, 4.0, [f"{k}" for k in range(-40, 1, 5)]),  # 49 unit ticks: 8.6 px apart
    (-4.0, 1e7 + 4, ["0", *(f"{k}e+06" for k in range(1, 10)), "1e+07"]),
    (-4.0, 1e20, ["0", *(f"{k}e+19" for k in range(1, 10)), "1e+20"]),
    (-8e307, 8e307, [f"{k}e+307" for k in (-8, -6, -4, -2)] + ["0"] +
     [f"{k}e+307" for k in (2, 4, 6, 8)]),
    (0.2, 0.8, []),  # no whole SD unit inside
])
def test_svg_gaussians_ticks_at_most_twelve(lo, hi, labels):
    assert gaussian_tick_labels(render_svg_gaussians([GaussianSpec("a", 0, 1)], lo, hi)) == labels


@pytest.mark.parametrize("spec, lo, hi, labels", [
    (GaussianSpec("a", 1234562, 1), 1234559.5, 1234564.0,
     [f"{k}" for k in range(1234560, 1234565)]),
    (GaussianSpec("a", 123456790, 1), 123456784.5, 123456795.0,
     [f"{k}" for k in range(123456785, 123456796)]),
    (GaussianSpec("a", -1e12, 1), -1e12 - 5, -1e12 + 5,
     [f"{k}" for k in range(-10**12 - 5, -10**12 + 6)]),
])
def test_svg_gaussians_tick_labels_take_the_digits_that_keep_them_apart(spec, lo, hi, labels):
    # with "%g", each row would print one label over and over
    assert gaussian_tick_labels(render_svg_gaussians([spec], lo, hi)) == labels


def test_svg_gaussians_legend_tells_close_means_apart():
    def legend(*mus):
        specs = [GaussianSpec(f"g{i}", mu, 1) for i, mu in enumerate(mus)]
        svg = render_svg_gaussians(specs, min(mus) - 4, max(mus) + 4).decode()
        return re.findall(r"\(mu=([^,]*), sigma=1\)", svg)

    assert legend(123456789, 123456790) == ["123456789", "123456790"]
    assert legend(0.1234567, 0.1234568, 0.5) == ["0.1234567", "0.1234568", "0.5"]
    assert legend(1.234567, -2.5) == ["1.23457", "-2.5"]  # never fewer digits than "g"
    assert legend(1e8, 1e8) == ["1e+08", "1e+08"]  # equal means read alike
    assert legend(0.0, -0.0) == ["0", "-0"]


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
