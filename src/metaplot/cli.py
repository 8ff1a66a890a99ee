"""Command-line entry point.

Subcommands:
  audit     CSV of study correlations -> report.json / report.md / SVG plots
  tails     Gaussian tail-area ratio table for a pair of group distributions
  simulate  synthetic-cohort gap decomposition from a JSON config

Exit codes: 0 success, 1 I/O failure, 2 validation failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
from dataclasses import asdict
from pathlib import Path

from ._version import __version__
from .cohort import CohortConfig, gap_decomposition, gap_over_seeds
from .fisher import AggregationMode, summarize_studies, summarize_z
from .gaussian import (
    DEFAULT_THRESHOLDS,
    GaussianSpec,
    PRESETS,
    format_auc,
    format_ratio,
    ratio_table,
)
from .ingest import CorrelationClass, ParseFailure, group_complete_studies, parse_records
from .pplot import DEFAULT_CLASSIFY_THRESHOLDS, ClassifyThresholds, PlotClass, build_plot
from .report import (
    AuditMetadata,
    AuditReport,
    json_block,
    pplot_filename,
    render_json,
    render_markdown,
    render_svg_gaussians,
    render_svg_pplot,
    render_svg_zpanel,
    tail_table_to_dict,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2

_COLORS = {
    PlotClass.NULL_CONSISTENT: "\x1b[32m",
    PlotClass.EFFECT_CONSISTENT: "\x1b[31m",
    PlotClass.AMBIGUOUS: "\x1b[33m",
}
_RESET = "\x1b[0m"


class CliValidationError(ValueError):
    """Bad user input that should exit with code 2."""


def _use_color() -> bool:
    if os.environ.get("METAPLOT_NO_COLOR"):
        return False
    return sys.stdout.isatty()


def _verdict_line(tag: str, classification: PlotClass) -> str:
    name = classification.value
    if _use_color():
        name = f"{_COLORS[classification]}{name}{_RESET}"
    return f"{tag}: {name}"


def _parse_formats(spec: str) -> set[str]:
    formats = {f.strip() for f in spec.split(",") if f.strip()}
    unknown = formats - {"json", "md", "svg"}
    if unknown:
        raise CliValidationError(f"unknown format(s): {', '.join(sorted(unknown))}")
    if not formats:
        raise CliValidationError("at least one output format required")
    return formats


def _parse_thresholds(spec: str) -> list[float]:
    try:
        values = [float(t) for t in spec.split(",") if t.strip()]
    except ValueError as exc:
        raise CliValidationError(f"bad threshold list {spec!r}: {exc}") from exc
    if not values:
        raise CliValidationError("threshold list is empty")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metaplot",
        description="Statistical reproducibility auditing for correlation meta-analyses.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    audit = sub.add_parser("audit", help="audit a CSV of study correlations")
    audit.add_argument("--input", required=True, help="CSV file of study records")
    audit.add_argument("--out", default="metaplot-out", help="output directory")
    audit.add_argument("--alpha", type=float, default=0.05)
    audit.add_argument(
        "--one-sided",
        action="store_true",
        help="use upper-tail p-values instead of two-sided",
    )
    audit.add_argument(
        "--agg",
        choices=[m.value for m in AggregationMode],
        default=AggregationMode.MEAN_R.value,
        help="combine multiple records per class by averaging r (mean-r) "
        "or averaging Fisher z (mean-z)",
    )
    audit.add_argument(
        "--shared-n",
        action="store_true",
        help="use the study-level n instead of summing per-record n within a class",
    )
    audit.add_argument("--null-frac-max", type=float,
                       default=DEFAULT_CLASSIFY_THRESHOLDS.null_max_frac_below,
                       help="max fraction of p-values below alpha for a null verdict")
    audit.add_argument("--null-ks-min", type=float,
                       default=DEFAULT_CLASSIFY_THRESHOLDS.null_min_ks_p,
                       help="min KS p-value for a null verdict")
    audit.add_argument("--effect-frac-min", type=float,
                       default=DEFAULT_CLASSIFY_THRESHOLDS.effect_min_frac_below,
                       help="min fraction of p-values below alpha for an effect verdict")
    audit.add_argument("--format", default="json,md,svg")
    audit.set_defaults(func=run_audit)

    tails = sub.add_parser("tails", help="Gaussian tail-area ratio table")
    tails.add_argument("--preset", choices=sorted(PRESETS), default=None)
    tails.add_argument("--ref-mu", type=float, default=0.0)
    tails.add_argument("--ref-sigma", type=float, default=1.0)
    tails.add_argument("--other-mu", type=float, default=0.0)
    tails.add_argument("--other-sigma", type=float, default=1.0)
    tails.add_argument(
        "--thresholds",
        default=",".join(f"{t:g}" for t in DEFAULT_THRESHOLDS),
        help="comma-separated ascending thresholds in reference SD units",
    )
    tails.add_argument("--out", default="metaplot-out")
    tails.add_argument("--format", default="json,svg")
    tails.set_defaults(func=run_tails)

    sim = sub.add_parser("simulate", help="cohort gap-decomposition simulation")
    src = sim.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="cohort config JSON file")
    src.add_argument(
        "--demo",
        action="store_true",
        help="use the bundled promotion-gap demo config",
    )
    sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    sim.add_argument(
        "--seeds",
        type=int,
        default=1,
        help="number of consecutive seeds to run (mean +- sd reported when > 1)",
    )
    sim.add_argument("--out", default="metaplot-out")
    sim.add_argument("--format", default="json")
    sim.set_defaults(func=run_simulate)

    return parser


def run_audit(args: argparse.Namespace) -> int:
    if not 0.0 < args.alpha < 1.0:
        raise CliValidationError(f"--alpha must lie in (0, 1), got {args.alpha}")
    formats = _parse_formats(args.format)
    try:
        thresholds = ClassifyThresholds(
            args.null_frac_max, args.null_ks_min, args.effect_frac_min
        )
    except ValueError as exc:
        raise CliValidationError(f"bad classify threshold: {exc}") from exc
    mode = AggregationMode(args.agg)

    csv_bytes = Path(args.input).read_bytes()  # OSError -> exit 1 before any output
    result = parse_records(csv_bytes)
    if result.errors:
        for err in result.errors:
            print(f"{args.input}: {err}", file=sys.stderr)
        return EXIT_VALIDATION

    grouping = group_complete_studies(result.records)
    if not grouping.groups:
        print(f"{args.input}: no complete studies (all three classes required)",
              file=sys.stderr)
        return EXIT_VALIDATION
    for study_id, reason in grouping.dropped:
        print(f"note: dropped study {study_id}: {reason}", file=sys.stderr)

    two_sided = not args.one_sided
    summaries = {}
    z_panels = {}
    plots = {}
    for cls in CorrelationClass:
        ss = summarize_studies(
            grouping.groups, cls, mode=mode, shared_n=args.shared_n, two_sided=two_sided
        )
        summaries[cls.value] = tuple(ss)
        z_panels[cls.value] = summarize_z(ss, cls)
        plots[cls.value] = build_plot(
            [s.p_value for s in ss], alpha=args.alpha, cls=cls, thresholds=thresholds
        )

    config_echo = {
        "subcommand": "audit",
        # basename only: artifacts stay byte-identical regardless of the
        # directory the tool is invoked from (content is pinned by sha256)
        "input": Path(args.input).name,
        "alpha": args.alpha,
        "sided": "one" if args.one_sided else "two",
        "agg": mode.value,
        "shared_n": bool(args.shared_n),
        "classify_thresholds": asdict(thresholds),
        "format": sorted(formats),
        "studies_retained": grouping.retained_count,
        "studies_dropped": grouping.dropped_count,
        "total_n": grouping.total_n,
    }
    report = AuditReport(
        metadata=AuditMetadata(
            input_sha256=hashlib.sha256(csv_bytes).hexdigest(),
            tool_version=__version__,
            config=config_echo,
        ),
        summaries=summaries,
        z_panels=z_panels,
        plots=plots,
    )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if "json" in formats:
        (out_dir / "report.json").write_bytes(render_json(report))
    if "md" in formats:
        (out_dir / "report.md").write_text(render_markdown(report), encoding="utf-8")
    if "svg" in formats:
        for tag, plot in plots.items():
            (out_dir / pplot_filename(tag)).write_bytes(render_svg_pplot(plot))
        (out_dir / "zpanel.svg").write_bytes(
            render_svg_zpanel([z_panels[c.value] for c in CorrelationClass])
        )

    for cls in CorrelationClass:
        print(_verdict_line(cls.value, plots[cls.value].diagnostics.classification))
    return EXIT_OK


def run_tails(args: argparse.Namespace) -> int:
    formats = _parse_formats(args.format)
    thresholds = _parse_thresholds(args.thresholds)
    if args.preset is not None:
        ref, other = PRESETS[args.preset]
    else:
        try:
            ref = GaussianSpec("reference", args.ref_mu, args.ref_sigma)
            other = GaussianSpec("comparison", args.other_mu, args.other_sigma)
        except ValueError as exc:
            raise CliValidationError(str(exc)) from exc
    try:
        table = ratio_table(ref, other, thresholds)
    except ValueError as exc:
        raise CliValidationError(str(exc)) from exc

    header = f"{'SD':>6} {'tail(' + table.ref.label + ')':>14} " \
             f"{'tail(' + table.other.label + ')':>14} {'ratio':>8}"
    print(header)
    for row in table.rows:
        print(
            f"{row.threshold:>6g} {format_auc(row.auc_ref):>14} "
            f"{format_auc(row.auc_other):>14} {format_ratio(row.ratio):>8}"
        )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if "json" in formats:
        payload = {
            "config": {
                "subcommand": "tails",
                "preset": args.preset,
                "thresholds": thresholds,
            },
            "tool_version": __version__,
            "table": tail_table_to_dict(table),
        }
        (out_dir / "tails.json").write_bytes((json_block(payload) + "\n").encode("utf-8"))
    if "svg" in formats:
        sigma_max = max(ref.sigma, other.sigma)
        lo = min(ref.mu, other.mu) - 4.0 * sigma_max
        hi = max(ref.mu, other.mu) + 4.0 * sigma_max
        (out_dir / "tails.svg").write_bytes(render_svg_gaussians([ref, other], lo, hi))
    return EXIT_OK


def _demo_config_path() -> Path:
    return Path(__file__).parent / "data" / "demo_cohort.json"


def run_simulate(args: argparse.Namespace) -> int:
    formats = _parse_formats(args.format)
    path = _demo_config_path() if args.demo else Path(args.config)
    text = path.read_text(encoding="utf-8")  # OSError -> exit 1
    try:
        config = CohortConfig.from_json(text)
    except json.JSONDecodeError as exc:
        raise CliValidationError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise CliValidationError(f"{path}: bad cohort config: {exc}") from exc
    if args.seed is not None:
        config = config.with_seed(args.seed)
    if args.seeds < 1:
        raise CliValidationError("--seeds must be at least 1")

    payload: dict = {
        "config": config.to_dict(),
        "tool_version": __version__,
    }
    if args.seeds == 1:
        result = gap_decomposition(config)
        print(f"unadjusted gap: {result.gap_unadjusted:.6f}")
        print(f"adjusted gap:   {result.gap_adjusted:.6f}")
        payload["result"] = result.to_dict()
    else:
        seeds = list(range(config.seed, config.seed + args.seeds))
        reports = gap_over_seeds(config, seeds)
        unadj = [r.gap_unadjusted for r in reports]
        adj = [r.gap_adjusted for r in reports]
        mean_u, sd_u = statistics.fmean(unadj), statistics.stdev(unadj)
        mean_a, sd_a = statistics.fmean(adj), statistics.stdev(adj)
        print(f"unadjusted gap: {mean_u:.6f} +- {sd_u:.6f} over {args.seeds} seeds")
        print(f"adjusted gap:   {mean_a:.6f} +- {sd_a:.6f} over {args.seeds} seeds")
        payload["results"] = [r.to_dict() for r in reports]
        payload["seeds"] = seeds
        payload["mean"] = {"gap_unadjusted": mean_u, "gap_adjusted": mean_a}
        payload["sd"] = {"gap_unadjusted": sd_u, "gap_adjusted": sd_a}

    if "json" in formats:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "gap.json").write_bytes((json_block(payload) + "\n").encode("utf-8"))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
