"""Serialization of audit results to JSON and Markdown, plus deterministic
SVG figures (p-value scatter with reference lines, Gaussian curve overlays,
z-statistic histogram/box panels).

All output is byte-deterministic: no timestamps, no randomness, fixed
float formatting, sorted JSON keys. JSON keeps full float precision;
display rounding only happens in Markdown and SVG.

The JSON format is the stdlib's `json.dumps(d, sort_keys=True, indent=2,
allow_nan=False)` plus a newline, byte for byte, where `d` is the report's
dict form. CPython's C encoder only runs with `indent=None`, so the
indented one is pure Python and cost more than any other layer of a large
audit. `render_json` therefore writes the report itself, in document order,
into one `io.BytesIO`, whose `getvalue()` hands its buffer over without a
copy. Small sections go through `json.dumps` (`json_block`). The one bulk
array, each class's per-study summaries, is written from the columns of its
`fisher.Summaries`, `_BLOCK_ROWS` rows at a time: each field is formatted
over the block's slice of its column, strings by the encoder's own
`encode_basestring_ascii` and numbers by `float.__repr__` and
`int.__repr__`, as `json.dumps` writes them; the rows are joined with the
fixed text between the fields, encoded and written. So the document is held
once, beside one block's strings. The tests re-encode `render_json`'s
output with the stdlib and require the same bytes.

`render_json` joins two pieces, which a forked audit renders in two
processes (see `cli.run_audit`) into the same bytes: `_write_json_summaries`
writes the `summaries` value, and `_json_head_tail` renders the document
around it, `metadata`, `plots` and `schema_version` before it and
`z_panels` after it. `_write_json` puts them in that order for both.

report.json is schema 2 (`"schema_version": 2`). Its keys are `metadata`
(with the run's `config`), `plots` (each class's alpha, class and
diagnostics), `summaries` (per study: `study_id`, `mean_r`, `n` and
`p_value`) and `z_panels`. Schema 1 also held each study's class, Fisher
z, standard error and z-score, each plot's sorted p-values as `points`,
and the always-empty `gap_report` and `tail_tables`. The dropped study
fields are exact functions of what is kept, as `fisher.summarize_studies`
computes them: z = `math.atanh(mean_r)`, se = `1 / math.sqrt(n - 3)` and
z-score = z / se; a plot's points are its class's `p_value`s, sorted,
against their ranks 1 to n. Later fields only add keys to schema 2.

`render_markdown` also writes into one `io.BytesIO`: its head, then each
class's study table (study, mean r, n, z-score and p), formatted and
encoded a table at a time. A class of more than `MD_TABLE_MAX_STUDIES`
(1,000) studies gets one line in place of its table, which points to
report.json: no Markdown viewer renders the 98k rows of a large sheet, and
report.json keeps them all.

The three SVG figures share their elements: `_svg` (the document), `_line`,
`_text`, `_axes` and `_xtick`. A p-value plot draws one circle per occupied
whole-pixel cell, and finds each cell's first point by bisection (see
`render_svg_pplot`).
"""

from __future__ import annotations

import html
import io
import json
import math
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from itertools import chain, count, repeat
from json.encoder import encode_basestring_ascii
from typing import Any, BinaryIO, Callable, Sequence

from .fisher import Summaries, ZSummary
from .gaussian import GaussianSpec, TailTable, curve_points
from .pplot import PlotDiagnostics, PValuePlot

__all__ = [
    "AuditMetadata",
    "AuditReport",
    "json_block",
    "json_bytes",
    "tail_table_to_dict",
    "render_json",
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
    summaries: dict[str, Summaries]  # keyed by class tag
    z_panels: dict[str, ZSummary]
    plots: dict[str, PValuePlot]


# ---------------------------------------------------------------------------
# JSON

# How json.dumps writes a string (with ensure_ascii), a float and an int.
_str = encode_basestring_ascii
_float = float.__repr__
_int = int.__repr__


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


def _diagnostics_to_dict(d: PlotDiagnostics) -> dict[str, Any]:
    return {
        "ks_statistic": d.ks_statistic,
        "ks_p": float(d.ks_p),
        "slope_fit": d.slope_fit,
        "frac_below_alpha": float(d.frac_below_alpha),
        "min_p": float(d.min_p),
        "classification": d.classification.value,
    }


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


def json_block(value: Any, pad: str = "") -> str:
    """`json.dumps(value, sort_keys=True, indent=2, allow_nan=False)`, with
    every line after the first prefixed by `pad` so that it nests in a
    document indented the same way. Exact, because JSON text never holds a
    raw newline inside a string."""
    text = json.dumps(value, sort_keys=True, indent=2, allow_nan=False)
    return text.replace("\n", "\n" + pad)


def json_bytes(value: Any) -> bytes:
    """A standalone JSON artifact: `json_block(value)`, a newline, UTF-8."""
    return (json_block(value) + "\n").encode("utf-8")


def _json_floats(values: Sequence[float]) -> list[str]:
    if not all(map(math.isfinite, values)):
        bad = next(v for v in values if not math.isfinite(v))
        # the error json.dumps raises with allow_nan=False
        raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
    return list(map(_float, values))


def _join_rows(parts: Sequence[str], columns: Sequence[list[str]], sep: str) -> str:
    """`sep.join(rows)`, where row i is parts[0] + columns[0][i] + parts[1] +
    ... + columns[-1][i] + parts[-1]; the columns are not empty."""
    count = len(columns[0])
    fields: list = [repeat(parts[0]), columns[0]]
    for part, column in zip(parts[1:], columns[1:]):
        fields += (repeat(part), column)
    fields.append(chain(repeat(parts[-1] + sep, count - 1), (parts[-1],)))
    return "".join(chain.from_iterable(zip(*fields)))


# Rows of a summaries array formatted, joined and encoded at a time.
_BLOCK_ROWS = 4096

# The text around the fields of one summary, in the stdlib encoder's layout.
_SUMMARY_PARTS = (
    '      {\n        "mean_r": ', ',\n        "n": ', ',\n        "p_value": ',
    ',\n        "study_id": ', "\n      }",
)


def _write_summaries(buf: BinaryIO, s: Summaries) -> None:
    """One class's summaries array, written a block of rows at a time."""
    if not len(s):
        buf.write(b"[]")
        return
    sep = b"[\n"
    for lo in range(0, len(s), _BLOCK_ROWS):
        hi = lo + _BLOCK_ROWS
        columns = [_json_floats(s.mean_r[lo:hi]), list(map(_int, s.n[lo:hi])),
                   _json_floats(s.p_value[lo:hi]), list(map(_str, s.study_id[lo:hi]))]
        buf.write(sep)
        buf.write(_join_rows(_SUMMARY_PARTS, columns, ",\n").encode())
        sep = b",\n"
    buf.write(b"\n    ]")


def _write_json_summaries(buf: BinaryIO, summaries: dict[str, Summaries]) -> None:
    """report.json's "summaries" value: each class's array, by sorted tag."""
    sep = "{\n"
    for tag, s in sorted(summaries.items()):
        buf.write(f"{sep}    {_str(tag)}: ".encode())
        _write_summaries(buf, s)
        sep = ",\n"
    buf.write(b"\n  }" if summaries else b"{}")


def _json_head_tail(report: AuditReport) -> tuple[bytes, bytes]:
    """report.json before and after its "summaries" value."""
    plots = {
        tag: {"alpha": plot.alpha, "class": plot.cls.value if plot.cls is not None else None,
              "diagnostics": _diagnostics_to_dict(plot.diagnostics)}
        for tag, plot in report.plots.items()
    }
    z_panels = {tag: _zsummary_to_dict(z) for tag, z in report.z_panels.items()}
    head = (f'{{\n  "metadata": {json_block(asdict(report.metadata), "  ")},\n'
            f'  "plots": {json_block(plots, "  ")},\n'
            '  "schema_version": 2,\n  "summaries": ')
    return head.encode(), f',\n  "z_panels": {json_block(z_panels, "  ")}\n}}\n'.encode()


def _write_json(out: BinaryIO, head_tail: tuple[bytes, bytes],
                write_summaries: Callable[[BinaryIO], object]) -> None:
    """report.json into out: its head, the "summaries" value that
    write_summaries(out) writes, and its tail."""
    head, tail = head_tail
    out.write(head)
    write_summaries(out)
    out.write(tail)


def render_json(report: AuditReport) -> bytes:
    """Deterministic JSON encoding: sorted keys, full float precision. See the
    module docstring for the format and how it is written."""
    buf = io.BytesIO()
    _write_json(buf, _json_head_tail(report),
                lambda out: _write_json_summaries(out, report.summaries))
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Markdown


def pplot_filename(tag: str) -> str:
    return f"pplot_{tag}.svg"


def _md_cells(texts: Sequence[str]) -> list[str]:
    # A raw "|" would end the cell and a line break would end the row.
    joined = "".join(texts)
    if "|" not in joined and "\r" not in joined and "\n" not in joined:
        return list(texts)
    return [t.replace("|", "\\|").replace("\r", " ").replace("\n", " ") for t in texts]


# The most studies a class's table in report.md lists; above it, one line
# points to report.json, which lists every study.
MD_TABLE_MAX_STUDIES = 1000

_MD_TABLE_HEAD = (
    "### %s study summaries\n\n"
    "| study | mean r | n | z-score | p |\n"
    "|---|---|---|---|---|\n"
)
_MD_ROW = "| %s | %.4f | %s | %.4f | %.4f |\n"
_MD_TABLE_LEFT_OUT = (
    "### {} study summaries\n\n"
    "{} studies: more than {:,}, so the table is left out; "
    "report.json (--format json) lists every study.\n\n"
)


def render_markdown(report: AuditReport) -> bytes:
    """Markdown report: verdicts, per-class tables, and figure links, UTF-8.
    The head is encoded once, then each class's study table is formatted,
    encoded and written into one buffer, a table at a time. A class of more
    than MD_TABLE_MAX_STUDIES studies gets one line in place of its table."""
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
    lines += (f"![{tag} p-value plot]({pplot_filename(tag)})" for tag in report.plots)
    lines += ["", "## Z-statistic quantiles", "",
              "| class | count | min | q1 | median | q3 | max |", "|---|---|---|---|---|---|---|"]
    for tag, z in report.z_panels.items():
        lines.append(
            f"| {tag} | {z.count} | {z.min:.4f} | {z.q1:.4f} | {z.median:.4f} "
            f"| {z.q3:.4f} | {z.max:.4f} |"
        )
    lines.append("")
    buf = io.BytesIO()
    buf.write(("\n".join(lines) + "\n").encode("utf-8"))
    for tag, s in report.summaries.items():
        if len(s) > MD_TABLE_MAX_STUDIES:
            table = _MD_TABLE_LEFT_OUT.format(tag, len(s), MD_TABLE_MAX_STUDIES)
        else:
            rows = zip(_md_cells(s.study_id), s.mean_r, s.n, s.z_score, s.p_value)
            table = _MD_TABLE_HEAD % tag + "".join(map(_MD_ROW.__mod__, rows)) + "\n"
        buf.write(table.encode("utf-8"))
    return buf.getvalue()


# ---------------------------------------------------------------------------
# SVG

_PALETTE = ("#1f6eb4", "#c23b22", "#2e8b57", "#8a5fbd")
_BLACK = 'stroke="black" stroke-width="1"'


def _f(v: float) -> str:
    # Fixed two-decimal coordinate formatting keeps output byte-stable.
    s = f"{v:.2f}"
    return "0.00" if s == "-0.00" else s


def _svg(width: int, height: int, body: list[str]) -> bytes:
    """A whole SVG document: the frame and white background around body's
    elements, one per line."""
    return "\n".join([
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        *body,
        "</svg>\n",
    ]).encode("utf-8")


def _line(x1: float, y1: float, x2: float, y2: float, style: str = _BLACK) -> str:
    return f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" {style}/>'


def _text(x: float, y: float, s: str, size: int = 11, anchor: str = "middle") -> str:
    return (
        f'<text x="{_f(x)}" y="{_f(y)}" font-family="sans-serif" font-size="{size}" '
        f'text-anchor="{anchor}">{html.escape(s, quote=False)}</text>'
    )


def _axes(left: float, top: float, pw: float, ph: float) -> list[str]:
    """The y axis and the x axis of a plot area pw wide and ph high."""
    return [_line(left, top, left, top + ph), _line(left, top + ph, left + pw, top + ph)]


def _xtick(x: float, y: float, label: str) -> list[str]:
    """A tick below the x axis at height y, and its label."""
    return [_line(x, y, x, y + 4), _text(x, y + 16, label)]


def render_svg_pplot(plot: PValuePlot) -> bytes:
    """Scatter of (rank, p) with a dashed uniform reference line and the
    alpha rule line, titled with the plot's class and verdict.

    One circle is drawn per occupied whole-pixel cell `(int(x), int(y))`: the
    first point of the cell in rank order, at its own coordinates. Up to 407
    points the ranks lie at least a pixel apart, so every point is drawn; a
    large plot draws a few hundred circles (690 of 98,031 on one benchmark
    sheet), and each point left out lies in the cell of a circle drawn."""
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

    tag = plot.cls.value if plot.cls is not None else "p-value"
    title = f"{tag} p-value plot: {plot.diagnostics.classification.value}"
    out = [_text(left + pw / 2, 18, title, size=13), *_axes(left, top, pw, ph)]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = sy(tick)
        out += (_line(left - 4, y, left, y), _text(left - 8, y + 4, f"{tick:.2f}", anchor="end"))
    step = max(1, (n + 9) // 10)
    for rank in (*range(step, n, step), n):
        out += _xtick(sx(rank), top + ph, str(rank))
    out.append(_text(left + pw / 2, height - 8, "rank"))
    out.append(
        f'<text x="14" y="{_f(top + ph / 2)}" font-family="sans-serif" font-size="11" '
        f'text-anchor="middle" transform="rotate(-90 14 {_f(top + ph / 2)})">p-value</text>'
    )
    # dashed uniform reference from (1, 1/n) to (n, n/(n+1))
    out.append(_line(sx(1), sy(1.0 / n), sx(n), sy(n / (n + 1.0)),
                     'stroke="#888888" stroke-width="1" stroke-dasharray="6,4"'))
    # alpha rule line
    y_alpha = sy(plot.alpha)
    out.append(_line(left, y_alpha, left + pw, y_alpha,
                     'stroke="#c23b22" stroke-width="1" stroke-dasharray="2,3"'))
    out.append(
        f'<text x="{_f(left + pw)}" y="{_f(y_alpha - 4)}" font-family="sans-serif" '
        f'font-size="10" text-anchor="end" fill="#c23b22">alpha={plot.alpha:g}</text>'
    )
    # x rises with rank and y falls as p rises, both monotone under rounding,
    # so the cell key (int(x), -int(y)) never decreases with rank: a cell's
    # points are consecutive, and the first point of the next cell is the
    # next point (on a small plot, always) or found by bisection. A cell lies
    # in one pixel column, which holds at most (n + 1) / pw + 1 ranks, so the
    # bisection looks no further than that, and one rank more for rounding.
    ps = plot.ps
    span = int((n + 1) / pw) + 2

    def cell(k: int) -> tuple[int, int]:  # of rank k + 1: sx and sy, inlined
        return int(left + pw * (k + 1) / (n + 1)), -int(top + ph * (1.0 - ps[k]))

    k = 0
    while k < n:
        x, y = sx(k + 1), sy(ps[k])
        # x >= left and y >= top, so .2f never gives the "-0.00" that _f mends
        out.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="#1f6eb4"/>')
        k += 1
        if k < n and int(sx(k + 1)) == int(x) and int(sy(ps[k])) == int(y):
            k = bisect_right(range(n), (int(x), -int(y)), k + 1, min(n, k + span), key=cell)
    return _svg(width, height, out)


# Points per density curve, from lo to hi inclusive.
_CURVE_SAMPLES = 241


def _distinct_g(values: Sequence[float]) -> str:
    """The format ".{p}g" with the fewest significant digits p, from 6 (as
    "g"), that labels unequal values apart."""
    unequal = set(map(float, values))
    return next(f for f in map(".{}g".format, range(6, 18))
                if len({format(v, f) for v in unequal}) == len(unequal))


def render_svg_gaussians(specs: Sequence[GaussianSpec], lo: float, hi: float) -> bytes:
    """Overlaid normal density curves with a legend. The x ticks fall on the
    multiples of the smallest step of 1, 2, 5, 10, 20, 50, ... that leaves
    at most 12 of them between lo and hi. The tick labels, and the legend's
    means, take as many significant digits as tell them apart (_distinct_g)."""
    if not 1 <= len(specs) <= 4:
        raise ValueError("render_svg_gaussians takes 1 to 4 specs")
    if not lo < hi:
        raise ValueError(f"degenerate range ({lo!r}, {hi!r})")
    if not math.isfinite(hi - lo):
        raise ValueError(f"range ({lo!r}, {hi!r}) is too wide to plot")
    curves = [curve_points(s, lo, hi, _CURVE_SAMPLES) for s in specs]
    y_max = max(d for curve in curves for _, d in curve) * 1.08
    if not y_max > 0.0:
        raise ValueError(f"no curve has a density above zero on ({lo!r}, {hi!r})")
    width, height = 480, 300
    left, right, top, bottom = 50.0, 16.0, 24.0, 40.0
    pw = width - left - right
    ph = height - top - bottom

    def sx(x: float) -> float:
        return left + pw * (x - lo) / (hi - lo)

    def sy(d: float) -> float:
        return top + ph * (1.0 - d / y_max)

    out = _axes(left, top, pw, ph)
    steps = (m * 10**e for e in count() for m in (1, 2, 5))
    step = next(s for s in steps if math.floor(hi / s) - math.ceil(lo / s) < 12)
    ticks = [k * step for k in range(math.ceil(lo / step), math.floor(hi / step) + 1)]
    tick_format, mu_format = _distinct_g(ticks), _distinct_g([s.mu for s in specs])
    for x in ticks:
        out += _xtick(sx(x), top + ph, format(x, tick_format))
    out.append(_text(left + pw / 2, height - 8, "score (reference SD units)"))
    for idx, (spec, curve) in enumerate(zip(specs, curves)):
        color = _PALETTE[idx]
        pts = " ".join(f"{_f(sx(x))},{_f(sy(d))}" for x, d in curve)
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = top + 14 + 16 * idx
        out.append(_line(left + pw - 150, ly - 4, left + pw - 130, ly - 4,
                         f'stroke="{color}" stroke-width="1.5"'))
        label = f"{spec.label} (mu={spec.mu:{mu_format}}, sigma={spec.sigma:g})"
        out.append(_text(left + pw - 124, ly, label, size=10, anchor="start"))
    return _svg(width, height, out)


def render_svg_zpanel(panels: Sequence[ZSummary]) -> bytes:
    """Histogram plus box-and-whisker row per correlation class."""
    if not panels:
        raise ValueError("render_svg_zpanel requires at least one summary")
    width = 480
    row_h = 130
    top_pad = 10
    height = top_pad + row_h * len(panels) + 10
    out = []
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
        out.append(_line(hx, base, hx + hw, base))
        out.append(_text(sx(lo), base + 14, f"{lo:g}", size=9))
        out.append(_text(sx(hi), base + 14, f"{hi:g}", size=9))
        # box-and-whisker on the same axis, drawn above the histogram baseline
        by = oy + 34.0
        bx = {v: sx(max(lo, min(hi, v))) for v in (z.min, z.q1, z.median, z.q3, z.max)}
        out.append(_line(bx[z.min], by, bx[z.q1], by))
        out.append(_line(bx[z.q3], by, bx[z.max], by))
        out.append(
            f'<rect x="{_f(bx[z.q1])}" y="{_f(by - 8)}" width="{_f(bx[z.q3] - bx[z.q1])}" '
            'height="16" fill="none" stroke="black" stroke-width="1"/>'
        )
        out.append(_line(bx[z.median], by - 8, bx[z.median], by + 8,
                         'stroke="black" stroke-width="1.5"'))
        out.append(_text(400, oy + 60, f"median {z.median:.3f}", size=10))
        out.append(_text(400, oy + 74, f"IQR [{z.q1:.3f}, {z.q3:.3f}]", size=10))
    return _svg(width, height, out)
