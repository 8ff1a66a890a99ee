"""Serialization of audit results to JSON and Markdown, plus deterministic
SVG figures (p-value scatter with reference lines, Gaussian curve overlays,
z-statistic histogram/box panels).

All output is byte-deterministic: no timestamps, no randomness, fixed
float formatting, sorted JSON keys. JSON keeps full float precision;
display rounding (p-values at 4 decimals, tail areas at 5, ratios one
decimal below 10 and integers above) only happens in Markdown and SVG.

The JSON format is the stdlib's `json.dumps(d, sort_keys=True, indent=2,
allow_nan=False)` plus a newline, byte for byte, where `d` is the report's
dict form. CPython's C encoder only runs with `indent=None`, so the indented
one is pure Python and cost more than any other layer of a large audit.
`render_json` therefore writes the report itself: small sections go through
`json.dumps` (`json_block`), and the two bulk arrays, per-study summaries and
plot points, are written from one row template each, with strings escaped by
the encoder's own `encode_basestring_ascii` and numbers by `float.__repr__`
and `int.__repr__`, as `json.dumps` writes them. The tests re-encode its
output with the stdlib and require the same bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterable, Mapping, Sequence
from xml.sax.saxutils import escape

from ._version import __version__
from .cohort import GapReport
from .fisher import StudySummary, ZSummary
from .gaussian import GaussianSpec, TailRow, TailTable, curve_points, format_auc, format_ratio
from .ingest import CorrelationClass
from .numerics import Probability
from .pplot import PlotClass, PlotDiagnostics, PValuePlot

__all__ = [
    "AuditMetadata",
    "AuditReport",
    "json_block",
    "tail_table_to_dict",
    "render_json",
    "parse_json",
    "render_markdown",
    "render_svg_pplot",
    "render_svg_gaussians",
    "render_svg_zpanel",
    "pplot_filename",
]


@dataclass(frozen=True)
class AuditMetadata:
    input_sha256: str
    tool_version: str
    config: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class AuditReport:
    """Self-contained audit result; re-renderable without re-computation."""

    metadata: AuditMetadata
    summaries: dict[str, tuple[StudySummary, ...]]  # keyed by class tag
    z_panels: dict[str, ZSummary]
    plots: dict[str, PValuePlot]
    tail_tables: tuple[TailTable, ...] = ()
    gap_report: GapReport | None = None


# ---------------------------------------------------------------------------
# JSON

# How json.dumps writes a string (with ensure_ascii), a float and an int.
_str = encode_basestring_ascii
_float = float.__repr__
_int = int.__repr__


def _summary_from_dict(d: Mapping[str, Any]) -> StudySummary:
    return StudySummary(
        study_id=d["study_id"],
        cls=CorrelationClass(d["class"]),
        mean_r=float(d["mean_r"]),
        n=int(d["n"]),
        fisher_z=float(d["fisher_z"]),
        se=float(d["se"]),
        z_score=float(d["z_score"]),
        p_value=Probability(d["p_value"]),
    )


def _zsummary_to_dict(z: ZSummary) -> dict[str, Any]:
    return {
        "class": z.cls.value,
        "count": z.count,
        "min": z.min,
        "q1": z.q1,
        "median": z.median,
        "q3": z.q3,
        "max": z.max,
        "histogram": [[lo, hi, c] for lo, hi, c in z.histogram],
    }


def _zsummary_from_dict(d: Mapping[str, Any]) -> ZSummary:
    return ZSummary(
        cls=CorrelationClass(d["class"]),
        count=int(d["count"]),
        min=float(d["min"]),
        q1=float(d["q1"]),
        median=float(d["median"]),
        q3=float(d["q3"]),
        max=float(d["max"]),
        histogram=tuple((float(lo), float(hi), int(c)) for lo, hi, c in d["histogram"]),
    )


def _diagnostics_to_dict(d: PlotDiagnostics) -> dict[str, Any]:
    return {
        "ks_statistic": d.ks_statistic,
        "ks_p": float(d.ks_p),
        "slope_fit": d.slope_fit,
        "frac_below_alpha": float(d.frac_below_alpha),
        "min_p": float(d.min_p),
        "classification": d.classification.value,
    }


def _plot_from_dict(d: Mapping[str, Any]) -> PValuePlot:
    diag = d["diagnostics"]
    return PValuePlot(
        cls=CorrelationClass(d["class"]) if d["class"] is not None else None,
        alpha=float(d["alpha"]),
        points=tuple((int(rank), float(pv)) for rank, pv in d["points"]),
        diagnostics=PlotDiagnostics(
            ks_statistic=float(diag["ks_statistic"]),
            ks_p=Probability(diag["ks_p"]),
            slope_fit=float(diag["slope_fit"]),
            frac_below_alpha=Probability(diag["frac_below_alpha"]),
            min_p=Probability(diag["min_p"]),
            classification=PlotClass(diag["classification"]),
        ),
    )


def _spec_to_dict(s: GaussianSpec) -> dict[str, Any]:
    return {"label": s.label, "mu": s.mu, "sigma": s.sigma}


def tail_table_to_dict(t: TailTable) -> dict[str, Any]:
    """The JSON form of a tail table, shared by report.json and tails.json."""
    return {
        "ref": _spec_to_dict(t.ref),
        "other": _spec_to_dict(t.other),
        "rows": [
            {
                "threshold": r.threshold,
                "auc_ref": float(r.auc_ref),
                "auc_other": float(r.auc_other),
                # JSON has no Infinity; the overflow sentinel is the string "inf"
                "ratio": "inf" if r.overflow else r.ratio,
                "overflow": r.overflow,
            }
            for r in t.rows
        ],
    }


def _tail_table_from_dict(d: Mapping[str, Any]) -> TailTable:
    rows = tuple(
        TailRow(
            threshold=float(r["threshold"]),
            auc_ref=Probability(r["auc_ref"]),
            auc_other=Probability(r["auc_other"]),
            ratio=math.inf if r["ratio"] == "inf" else float(r["ratio"]),
            overflow=bool(r["overflow"]),
        )
        for r in d["rows"]
    )
    return TailTable(
        ref=GaussianSpec(**d["ref"]), other=GaussianSpec(**d["other"]), rows=rows
    )


def report_from_dict(d: Mapping[str, Any]) -> AuditReport:
    meta = d["metadata"]
    return AuditReport(
        metadata=AuditMetadata(
            input_sha256=meta["input_sha256"],
            tool_version=meta["tool_version"],
            config=dict(meta["config"]),
        ),
        summaries={
            tag: tuple(_summary_from_dict(s) for s in ss)
            for tag, ss in d["summaries"].items()
        },
        z_panels={tag: _zsummary_from_dict(z) for tag, z in d["z_panels"].items()},
        plots={tag: _plot_from_dict(p) for tag, p in d["plots"].items()},
        tail_tables=tuple(_tail_table_from_dict(t) for t in d["tail_tables"]),
        gap_report=GapReport.from_dict(d["gap_report"]) if d["gap_report"] else None,
    )


def json_block(value: Any, pad: str = "") -> str:
    """`json.dumps(value, sort_keys=True, indent=2, allow_nan=False)`, with
    every line after the first prefixed by `pad` so that it nests in a
    document indented the same way. Exact, because JSON text never holds a
    raw newline inside a string."""
    text = json.dumps(value, sort_keys=True, indent=2, allow_nan=False)
    return text.replace("\n", "\n" + pad)


def _require_finite(*values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            # the error json.dumps raises with allow_nan=False
            raise ValueError(f"Out of range float values are not JSON compliant: {v!r}")


def _write_array(out: list[str], rows: list[str], pad: str) -> None:
    out += ("[\n", ",\n".join(rows), f"\n{pad}]") if rows else ("[]",)


def _write_summaries(out: list[str], summaries: Iterable[StudySummary]) -> None:
    rows = []
    for s in summaries:
        _require_finite(s.mean_r, s.fisher_z, s.se, s.z_score, s.p_value)
        rows.append(
            f'      {{\n        "class": {_str(s.cls.value)},\n'
            f'        "fisher_z": {_float(s.fisher_z)},\n'
            f'        "mean_r": {_float(s.mean_r)},\n'
            f'        "n": {_int(s.n)},\n'
            f'        "p_value": {_float(s.p_value)},\n'
            f'        "se": {_float(s.se)},\n'
            f'        "study_id": {_str(s.study_id)},\n'
            f'        "z_score": {_float(s.z_score)}\n      }}'
        )
    _write_array(out, rows, "    ")


def _write_plot(out: list[str], plot: PValuePlot) -> None:
    cls = plot.cls.value if plot.cls is not None else None
    diagnostics = json_block(_diagnostics_to_dict(plot.diagnostics), "      ")
    out.append(
        f'{{\n      "alpha": {json_block(plot.alpha)},\n'
        f'      "class": {json_block(cls)},\n'
        f'      "diagnostics": {diagnostics},\n'
        '      "points": '
    )
    rows = []
    for rank, p in plot.points:
        _require_finite(p)
        rows.append(f"        [\n          {_int(rank)},\n          {_float(p)}\n        ]")
    _write_array(out, rows, "      ")
    out.append("\n    }")


def _write_by_tag(
    out: list[str], by_tag: Mapping[str, Any], write: Callable[[list[str], Any], None]
) -> None:
    """A top-level field's object: one entry per class tag, in sorted order."""
    sep = "{\n"
    for tag, value in sorted(by_tag.items()):
        out.append(f"{sep}    {_str(tag)}: ")
        write(out, value)
        sep = ",\n"
    out.append("\n  }" if by_tag else "{}")


def render_json(report: AuditReport) -> bytes:
    """Deterministic JSON encoding: sorted keys, full float precision.

    The top-level fields are written in sorted key order; see the module
    docstring for the format and how the bulk arrays are written.
    """
    meta = report.metadata
    metadata = {
        "input_sha256": meta.input_sha256,
        "tool_version": meta.tool_version,
        "config": meta.config,
    }
    gap = report.gap_report.to_dict() if report.gap_report is not None else None
    out = [
        f'{{\n  "gap_report": {json_block(gap, "  ")},\n'
        f'  "metadata": {json_block(metadata, "  ")},\n  "plots": '
    ]
    _write_by_tag(out, report.plots, _write_plot)
    out.append(',\n  "summaries": ')
    _write_by_tag(out, report.summaries, _write_summaries)
    tail_tables = [tail_table_to_dict(t) for t in report.tail_tables]
    z_panels = {tag: _zsummary_to_dict(z) for tag, z in report.z_panels.items()}
    out.append(
        f',\n  "tail_tables": {json_block(tail_tables, "  ")},\n'
        f'  "z_panels": {json_block(z_panels, "  ")}\n}}\n'
    )
    return "".join(out).encode("utf-8")


def parse_json(data: bytes | str) -> AuditReport:
    return report_from_dict(json.loads(data))


# ---------------------------------------------------------------------------
# Markdown


def pplot_filename(tag: str) -> str:
    return f"pplot_{tag}.svg"


def _md_summary_table(tag: str, summaries: Sequence[StudySummary]) -> list[str]:
    lines = [
        f"### {tag} study summaries",
        "",
        "| study | mean r | n | z | se | z-score | p |",
        "|---|---|---|---|---|---|---|",
    ]
    for s in summaries:
        lines.append(
            f"| {s.study_id} | {s.mean_r:.4f} | {s.n} | {s.fisher_z:.4f} "
            f"| {s.se:.4f} | {s.z_score:.4f} | {s.p_value:.4f} |"
        )
    lines.append("")
    return lines


def render_markdown(report: AuditReport) -> str:
    """Markdown report: verdicts, per-class tables, and figure links."""
    lines = [
        "# Meta-analysis reproducibility audit",
        "",
        f"- tool version: {report.metadata.tool_version}",
        f"- input sha256: `{report.metadata.input_sha256}`",
        "",
        "## Plot verdicts",
        "",
        "| class | n | KS stat | KS p | slope | frac p<alpha | min p | verdict |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for tag, plot in report.plots.items():
        d = plot.diagnostics
        lines.append(
            f"| {tag} | {plot.n} | {d.ks_statistic:.4f} | {d.ks_p:.4f} "
            f"| {d.slope_fit:.4f} | {d.frac_below_alpha:.4f} | {d.min_p:.4f} "
            f"| {d.classification.value} |"
        )
    lines.append("")
    for tag in report.plots:
        lines.append(f"![{tag} p-value plot]({pplot_filename(tag)})")
    lines.append("")
    lines.append("## Z-statistic quantiles")
    lines.append("")
    lines.append("| class | count | min | q1 | median | q3 | max |")
    lines.append("|---|---|---|---|---|---|---|")
    for tag, z in report.z_panels.items():
        lines.append(
            f"| {tag} | {z.count} | {z.min:.4f} | {z.q1:.4f} | {z.median:.4f} "
            f"| {z.q3:.4f} | {z.max:.4f} |"
        )
    lines.append("")
    for tag, ss in report.summaries.items():
        lines.extend(_md_summary_table(tag, ss))
    for table in report.tail_tables:
        lines.extend(_md_tail_table(table))
    if report.gap_report is not None:
        g = report.gap_report
        lines.extend(
            [
                "## Group gap decomposition",
                "",
                f"- unadjusted gap: {g.gap_unadjusted:.4f}",
                f"- adjusted gap: {g.gap_adjusted:.4f}",
                f"- residual sd: {g.residual_sd:.4f}",
                "",
            ]
        )
    return "\n".join(lines) + "\n"


def _md_tail_table(table: TailTable) -> list[str]:
    lines = [
        f"## Tail areas: {table.ref.label} (mu={table.ref.mu:g}, sigma={table.ref.sigma:g}) "
        f"vs {table.other.label} (mu={table.other.mu:g}, sigma={table.other.sigma:g})",
        "",
        "| threshold (ref SD) | ref tail | other tail | ratio | ratio (full) |",
        "|---|---|---|---|---|",
    ]
    for r in table.rows:
        full = "inf" if r.overflow else f"{r.ratio:.6f}"
        lines.append(
            f"| {r.threshold:g} | {format_auc(r.auc_ref)} | {format_auc(r.auc_other)} "
            f"| {format_ratio(r.ratio)} | {full} |"
        )
    lines.append("")
    return lines


# ---------------------------------------------------------------------------
# SVG

_PALETTE = ("#1f6eb4", "#c23b22", "#2e8b57", "#8a5fbd")


def _f(v: float) -> str:
    # Fixed two-decimal coordinate formatting keeps output byte-stable.
    s = f"{v:.2f}"
    return "0.00" if s == "-0.00" else s


def _svg_open(width: int, height: int) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]


def _text(x: float, y: float, s: str, size: int = 11, anchor: str = "middle") -> str:
    return (
        f'<text x="{_f(x)}" y="{_f(y)}" font-family="sans-serif" font-size="{size}" '
        f'text-anchor="{anchor}">{escape(s)}</text>'
    )


def render_svg_pplot(plot: PValuePlot, title: str | None = None) -> bytes:
    """Scatter of (rank, p) with a dashed uniform reference line and the
    alpha rule line."""
    n = plot.n
    if n == 0:
        raise ValueError("cannot render an empty plot")
    width, height = 480, 360
    left, right, top, bottom = 56.0, 16.0, 30.0, 46.0
    pw = width - left - right
    ph = height - top - bottom

    def sx(rank: float) -> float:
        return left + pw * rank / (n + 1)

    def sy(p: float) -> float:
        return top + ph * (1.0 - p)

    if title is None:
        tag = plot.cls.value if plot.cls is not None else "p-value"
        title = f"{tag} p-value plot: {plot.diagnostics.classification.value}"

    out = _svg_open(width, height)
    out.append(_text(left + pw / 2, 18, title, size=13))
    # axes
    out.append(
        f'<line x1="{_f(left)}" y1="{_f(top)}" x2="{_f(left)}" y2="{_f(top + ph)}" '
        'stroke="black" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{_f(left)}" y1="{_f(top + ph)}" x2="{_f(left + pw)}" '
        f'y2="{_f(top + ph)}" stroke="black" stroke-width="1"/>'
    )
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = sy(tick)
        out.append(
            f'<line x1="{_f(left - 4)}" y1="{_f(y)}" x2="{_f(left)}" y2="{_f(y)}" '
            'stroke="black" stroke-width="1"/>'
        )
        out.append(_text(left - 8, y + 4, f"{tick:.2f}", anchor="end"))
    step = max(1, (n + 9) // 10)
    for rank in range(1, n + 1):
        if rank % step and rank != n:
            continue
        x = sx(rank)
        out.append(
            f'<line x1="{_f(x)}" y1="{_f(top + ph)}" x2="{_f(x)}" y2="{_f(top + ph + 4)}" '
            'stroke="black" stroke-width="1"/>'
        )
        out.append(_text(x, top + ph + 16, str(rank)))
    out.append(_text(left + pw / 2, height - 8, "rank"))
    out.append(
        f'<text x="14" y="{_f(top + ph / 2)}" font-family="sans-serif" font-size="11" '
        f'text-anchor="middle" transform="rotate(-90 14 {_f(top + ph / 2)})">p-value</text>'
    )
    # dashed uniform reference from (1, 1/n) to (n, n/(n+1))
    out.append(
        f'<line x1="{_f(sx(1))}" y1="{_f(sy(1.0 / n))}" x2="{_f(sx(n))}" '
        f'y2="{_f(sy(n / (n + 1.0)))}" stroke="#888888" stroke-width="1" '
        'stroke-dasharray="6,4"/>'
    )
    # alpha rule line
    y_alpha = sy(plot.alpha)
    out.append(
        f'<line x1="{_f(left)}" y1="{_f(y_alpha)}" x2="{_f(left + pw)}" y2="{_f(y_alpha)}" '
        'stroke="#c23b22" stroke-width="1" stroke-dasharray="2,3"/>'
    )
    out.append(
        f'<text x="{_f(left + pw)}" y="{_f(y_alpha - 4)}" font-family="sans-serif" '
        f'font-size="10" text-anchor="end" fill="#c23b22">alpha={plot.alpha:g}</text>'
    )
    for rank, p in plot.points:
        out.append(
            f'<circle cx="{_f(sx(rank))}" cy="{_f(sy(p))}" r="3" fill="#1f6eb4"/>'
        )
    out.append("</svg>")
    return ("\n".join(out) + "\n").encode("utf-8")


def render_svg_gaussians(
    specs: Sequence[GaussianSpec],
    lo: float,
    hi: float,
    samples: int = 241,
) -> bytes:
    """Overlaid normal density curves with a legend."""
    if not 1 <= len(specs) <= 4:
        raise ValueError("render_svg_gaussians takes 1 to 4 specs")
    if not lo < hi:
        raise ValueError(f"degenerate range ({lo!r}, {hi!r})")
    curves = [curve_points(s, lo, hi, samples) for s in specs]
    y_max = max(d for curve in curves for _, d in curve) * 1.08
    width, height = 480, 300
    left, right, top, bottom = 50.0, 16.0, 24.0, 40.0
    pw = width - left - right
    ph = height - top - bottom

    def sx(x: float) -> float:
        return left + pw * (x - lo) / (hi - lo)

    def sy(d: float) -> float:
        return top + ph * (1.0 - d / y_max)

    out = _svg_open(width, height)
    out.append(
        f'<line x1="{_f(left)}" y1="{_f(top)}" x2="{_f(left)}" y2="{_f(top + ph)}" '
        'stroke="black" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{_f(left)}" y1="{_f(top + ph)}" x2="{_f(left + pw)}" '
        f'y2="{_f(top + ph)}" stroke="black" stroke-width="1"/>'
    )
    tick = math.ceil(lo)
    while tick <= hi:
        x = sx(tick)
        out.append(
            f'<line x1="{_f(x)}" y1="{_f(top + ph)}" x2="{_f(x)}" y2="{_f(top + ph + 4)}" '
            'stroke="black" stroke-width="1"/>'
        )
        out.append(_text(x, top + ph + 16, f"{tick:g}"))
        tick += 1
    out.append(_text(left + pw / 2, height - 8, "score (reference SD units)"))
    for idx, (spec, curve) in enumerate(zip(specs, curves)):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{_f(sx(x))},{_f(sy(d))}" for x, d in curve)
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = top + 14 + 16 * idx
        out.append(
            f'<line x1="{_f(left + pw - 150)}" y1="{_f(ly - 4)}" x2="{_f(left + pw - 130)}" '
            f'y2="{_f(ly - 4)}" stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            _text(
                left + pw - 124,
                ly,
                f"{spec.label} (mu={spec.mu:g}, sigma={spec.sigma:g})",
                size=10,
                anchor="start",
            )
        )
    out.append("</svg>")
    return ("\n".join(out) + "\n").encode("utf-8")


def render_svg_zpanel(panels: Sequence[ZSummary]) -> bytes:
    """Histogram plus box-and-whisker row per correlation class."""
    if not panels:
        raise ValueError("render_svg_zpanel requires at least one summary")
    width = 480
    row_h = 130
    top_pad = 10
    height = top_pad + row_h * len(panels) + 10
    out = _svg_open(width, height)
    for idx, z in enumerate(panels):
        oy = top_pad + row_h * idx
        out.append(_text(24, oy + 16, z.cls.value, size=12, anchor="start"))
        lo = z.histogram[0][0]
        hi = z.histogram[-1][1]
        span = hi - lo
        max_count = max(c for _, _, c in z.histogram)
        hx, hw = 60.0, 250.0
        base = oy + 100.0
        bar_h_max = 70.0

        def sx(v: float) -> float:
            return hx + hw * (v - lo) / span

        for b_lo, b_hi, c in z.histogram:
            if c == 0:
                continue
            bh = bar_h_max * c / max_count
            out.append(
                f'<rect x="{_f(sx(b_lo))}" y="{_f(base - bh)}" '
                f'width="{_f(hw * (b_hi - b_lo) / span)}" height="{_f(bh)}" '
                'fill="#9bbcdd" stroke="#1f6eb4" stroke-width="0.5"/>'
            )
        out.append(
            f'<line x1="{_f(hx)}" y1="{_f(base)}" x2="{_f(hx + hw)}" y2="{_f(base)}" '
            'stroke="black" stroke-width="1"/>'
        )
        out.append(_text(sx(lo), base + 14, f"{lo:g}", size=9))
        out.append(_text(sx(hi), base + 14, f"{hi:g}", size=9))
        # box-and-whisker on the same axis, drawn above the histogram baseline
        by = oy + 34.0
        bx = {v: sx(max(lo, min(hi, v))) for v in (z.min, z.q1, z.median, z.q3, z.max)}
        out.append(
            f'<line x1="{_f(bx[z.min])}" y1="{_f(by)}" x2="{_f(bx[z.q1])}" y2="{_f(by)}" '
            'stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<line x1="{_f(bx[z.q3])}" y1="{_f(by)}" x2="{_f(bx[z.max])}" y2="{_f(by)}" '
            'stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<rect x="{_f(bx[z.q1])}" y="{_f(by - 8)}" width="{_f(bx[z.q3] - bx[z.q1])}" '
            'height="16" fill="none" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<line x1="{_f(bx[z.median])}" y1="{_f(by - 8)}" x2="{_f(bx[z.median])}" '
            f'y2="{_f(by + 8)}" stroke="black" stroke-width="1.5"/>'
        )
        out.append(
            _text(
                400,
                oy + 60,
                f"median {z.median:.3f}",
                size=10,
                anchor="middle",
            )
        )
        out.append(
            _text(400, oy + 74, f"IQR [{z.q1:.3f}, {z.q3:.3f}]", size=10, anchor="middle")
        )
    out.append("</svg>")
    return ("\n".join(out) + "\n").encode("utf-8")
