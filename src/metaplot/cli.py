"""Command-line entry point.

Subcommands:
  audit     CSV of study correlations -> report.json / report.md / SVG plots
  tails     Gaussian tail-area ratio table for a pair of group distributions
  simulate  synthetic-cohort gap decomposition from a JSON config

Exit codes: 0 success, 1 I/O failure, 2 validation failure.

main() turns CPython's cyclic garbage collector off while the subcommand
runs, as the pipeline's objects form no reference cycles, and restores the
caller's setting on return, also when an exception escapes; library
functions called directly leave it as they find it (README says why).

The parser is built once a process, when this module is imported, and
every main() call parses with it: a command run from the shell takes as
long as before, and each main() call in a process that makes many saves
the 0.6-0.8 ms of building it (README has the figures).
"""

from __future__ import annotations

import argparse
import errno
import gc
import json
import math
import os
import re
import shutil
import sys
import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, replace
from functools import partial
from pathlib import Path
from typing import Iterator

from ._fork import forked
from ._version import __version__
from .fisher import AggregationMode, summarize_studies, summarize_z
from .gaussian import (
    DEFAULT_THRESHOLDS,
    GaussianSpec,
    PRESETS,
    format_auc,
    format_ratio,
    ratio_table,
)
from .ingest import CorrelationClass, ParseFailure, group_complete_studies, read_sheet
from .pplot import (
    DEFAULT_CLASSIFY_THRESHOLDS,
    MIN_POINTS,
    SOFT_MIN_POINTS,
    ClassifyThresholds,
    PlotClass,
    build_plot,
)
from .report import (
    AuditMetadata,
    AuditReport,
    json_bytes,
    json_head_tail,
    pplot_filename,
    render_json,
    render_markdown,
    render_svg_gaussians,
    render_svg_pplot,
    render_svg_zpanel,
    tail_table_to_dict,
    write_json,
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


# The fewest retained studies at which audit writes report.json by `forked`: a
# fork costs time that grows with the process's memory (see README).
_FORK_MIN_STUDIES = 10_000


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


def _formats(allowed: str, spec: str) -> set[str]:
    """argparse type (with `allowed` bound): a non-empty subset of `allowed`."""
    formats = {f.strip() for f in spec.split(",") if f.strip()}
    if not formats or not formats <= set(allowed.split(",")):
        raise argparse.ArgumentTypeError(f"expected one or more of {allowed}, got {spec!r}")
    return formats


def _parse_thresholds(spec: str) -> list[float]:
    try:
        return [float(t) for t in spec.split(",") if t.strip()]
    except ValueError as exc:
        raise CliValidationError(f"bad threshold list {spec!r}: {exc}") from exc


@contextmanager
def _artifact_writer(out: str) -> Iterator[Path]:
    """Yield a staging directory, into which the block writes each artifact
    as soon as it has rendered. If `out` is a directory, staging is
    made inside it, and its files move up into `out` when the block ends;
    that needs no rights on `out`'s parent, and never crosses a filesystem.
    Otherwise staging is made beside `out`, with any missing parents, and
    is renamed to `out`. If the block raises, or an artifact's name is a
    directory in `out`, staging goes, and so do the parents it made, before
    any file of `out` is replaced."""
    out_dir = Path(out)
    into = out_dir.is_dir()
    made = None if into else next(
        (p for p in reversed(out_dir.parents) if not os.path.lexists(p)), None)
    # made by mkdir, so that renamed to `out` it has the mode mkdir gives
    staging = ((out_dir if into else out_dir.parent)
               / f".{out_dir.name}-{os.getpid()}-{os.urandom(4).hex()}")
    try:
        staging.mkdir(parents=True)
        yield staging
        if into:  # the other files of `out` stay
            names = os.listdir(staging)
            # a directory in the way would fail its move after earlier ones
            # had replaced files of `out`, leaving two runs' artifacts mixed
            for name in names:
                if os.path.isdir(out_dir / name) and not os.path.islink(out_dir / name):
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                            str(out_dir / name))
            for name in names:
                os.replace(staging / name, out_dir / name)
            staging.rmdir()
        else:
            staging.rename(out_dir)
    except BaseException:
        shutil.rmtree(made or staging, ignore_errors=True)
        raise


def _attach_negative_numbers(argv: list[str]) -> list[str]:
    """argv with each argument that starts as a negative number does, with
    "-" and then a digit or "." and a digit, joined to the long option
    before it: "--alpha", "-5e-2" as "--alpha=-5e-2" and "--thresholds",
    "-1,0,1" as "--thresholds=-1,0,1". argparse takes "-40" and "-.5" for
    values, but "-5e-2" and "-1,0,1" for options of their own; no metaplot
    option starts that way."""
    out: list[str] = []
    for arg in argv:
        if out and re.fullmatch(r"--[^=]+", out[-1]) and re.match(r"-\.?\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


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
    audit.add_argument("--format", type=partial(_formats, "json,md,svg"), default="json,md,svg")
    audit.set_defaults(func=run_audit)

    tails = sub.add_parser("tails", help="Gaussian tail-area ratio table")
    tails.add_argument("--preset", choices=sorted(PRESETS), default=None,
                       help="a built-in pair; excludes the four flags below")
    tails.add_argument("--ref-mu", type=float, help="default 0")
    tails.add_argument("--ref-sigma", type=float, help="default 1")
    tails.add_argument("--other-mu", type=float, help="default 0")
    tails.add_argument("--other-sigma", type=float, help="default 1")
    tails.add_argument(
        "--thresholds",
        default=",".join(f"{t:g}" for t in DEFAULT_THRESHOLDS),
        help="comma-separated ascending thresholds in reference SD units",
    )
    tails.add_argument("--out", default="metaplot-out")
    tails.add_argument("--format", type=partial(_formats, "json,svg"), default="json,svg")
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
    sim.add_argument("--out", default="metaplot-out", help="gap.json is written here")
    sim.set_defaults(func=run_simulate)

    return parser


def run_audit(args: argparse.Namespace) -> int:
    if not 0.0 < args.alpha < 1.0:
        raise CliValidationError(f"--alpha must lie in (0, 1), got {args.alpha}")
    try:
        thresholds = ClassifyThresholds(
            args.null_frac_max, args.null_ks_min, args.effect_frac_min
        )
    except ValueError as exc:
        raise CliValidationError(f"bad classify threshold: {exc}") from exc
    mode = AggregationMode(args.agg)

    result, sha256 = read_sheet(args.input)  # OSError -> exit 1 before any output
    if result.errors:
        for err in result.errors:
            print(f"{args.input}: {err}", file=sys.stderr)
        return EXIT_VALIDATION

    grouping = group_complete_studies(result.records)
    for study_id, reason in grouping.dropped:
        print(f"note: dropped study {study_id}: {reason}", file=sys.stderr)
    retained = len(grouping.groups)
    if retained < MIN_POINTS:  # what build_plot needs
        found = f"{retained or 'no'} complete stud{'y' if retained == 1 else 'ies'}"
        print(f"{args.input}: {found} (all three classes required), "
              f"a p-value plot needs at least {MIN_POINTS}", file=sys.stderr)
        return EXIT_VALIDATION
    if retained < SOFT_MIN_POINTS:  # said once here, not warned by build_plot
        print(f"note: only {retained} complete studies; p-value plot diagnostics "
              f"are weak below {SOFT_MIN_POINTS}", file=sys.stderr)

    two_sided = not args.one_sided
    summaries = {
        cls.value: summarize_studies(grouping.groups, cls, mode=mode, shared_n=args.shared_n,
                                     two_sided=two_sided)
        for cls in CorrelationClass
    }
    dropped, total_n = len(grouping.dropped), sum(grouping.groups.study_n)
    del result, grouping  # nothing after this reads the records

    config_echo = {
        "subcommand": "audit",
        # basename only: artifacts stay byte-identical regardless of the
        # directory the tool is invoked from (content is pinned by sha256)
        "input": Path(args.input).name,
        "alpha": args.alpha,
        "sided": "one" if args.one_sided else "two",
        "agg": mode.value,
        "shared_n": bool(args.shared_n),
        "classify_thresholds": vars(thresholds),
        "format": sorted(args.format),
        "studies_retained": retained,
        "studies_dropped": dropped,
        "total_n": total_n,
    }
    metadata = AuditMetadata(
        input_sha256=sha256, tool_version=__version__, config=config_echo)

    with _artifact_writer(args.out) as staging:
        json_path = staging / "report.json"
        # the summaries need nothing but summarize_studies, so a child
        # renders them while this process computes all else
        forks = "json" in args.format and retained >= _FORK_MIN_STUDIES
        with forked(partial(write_json, json_path, summaries)) if forks else nullcontext() as child:
            z_panels = {}
            plots = {}
            for cls in CorrelationClass:
                ss = summaries[cls.value]
                z_panels[cls.value] = summarize_z(ss, cls)
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", r"only \d+ p-values", UserWarning)
                    plots[cls.value] = build_plot(
                        ss.p_value, alpha=args.alpha, cls=cls, thresholds=thresholds
                    )
            report = AuditReport(metadata, summaries, z_panels, plots)
            if "md" in args.format:
                (staging / "report.md").write_bytes(render_markdown(report))
            if "svg" in args.format:
                for tag, plot in plots.items():
                    (staging / pplot_filename(tag)).write_bytes(render_svg_pplot(plot))
                (staging / "zpanel.svg").write_bytes(
                    render_svg_zpanel([z_panels[c.value] for c in CorrelationClass]))
            if forks:
                child.send(json_head_tail(report))
            elif "json" in args.format:
                json_path.write_bytes(render_json(report))

    for cls in CorrelationClass:
        print(_verdict_line(cls.value, plots[cls.value].diagnostics.classification))
    return EXIT_OK


def run_tails(args: argparse.Namespace) -> int:
    spec = [args.ref_mu, args.ref_sigma, args.other_mu, args.other_sigma]
    if args.preset is not None and spec != [None] * 4:
        raise CliValidationError("--preset excludes --ref-mu, --ref-sigma, --other-mu, --other-sigma")
    ref_mu, ref_sigma, other_mu, other_sigma = (
        default if value is None else value for value, default in zip(spec, (0.0, 1.0, 0.0, 1.0))
    )
    thresholds = _parse_thresholds(args.thresholds)
    try:
        ref, other = PRESETS[args.preset] if args.preset is not None else (
            GaussianSpec("reference", ref_mu, ref_sigma),
            GaussianSpec("comparison", other_mu, other_sigma),
        )
        table = ratio_table(ref, other, thresholds)
    except ValueError as exc:
        raise CliValidationError(str(exc)) from exc
    sigma_max = max(ref.sigma, other.sigma)
    lo = min(ref.mu, other.mu) - 4.0 * sigma_max
    hi = max(ref.mu, other.mu) + 4.0 * sigma_max
    if "svg" in args.format and not math.isfinite(hi - lo):
        raise CliValidationError(f"tails.svg cannot span ({lo!r}, {hi!r}); "
                                 "--format json writes the table alone")

    with _artifact_writer(args.out) as staging:
        if "json" in args.format:
            (staging / "tails.json").write_bytes(json_bytes({
                "config": {
                    "subcommand": "tails",
                    "preset": args.preset,
                    "thresholds": thresholds,
                },
                "tool_version": __version__,
                "table": tail_table_to_dict(table),
            }))
        if "svg" in args.format:
            (staging / "tails.svg").write_bytes(render_svg_gaussians([ref, other], lo, hi))

    header = f"{'SD':>6} {'tail(' + table.ref.label + ')':>14} " \
             f"{'tail(' + table.other.label + ')':>14} {'ratio':>8}"
    print(header)
    for row in table.rows:
        print(
            f"{row.threshold:>6g} {format_auc(row.auc_ref):>14} "
            f"{format_auc(row.auc_other):>14} {format_ratio(row.ratio):>8}"
        )
    return EXIT_OK


def _demo_config_path() -> Path:
    return Path(__file__).parent / "data" / "demo_cohort.json"


def run_simulate(args: argparse.Namespace) -> int:
    # numpy loads with cohort, and decimal and fractions with statistics, so
    # only this subcommand pays for their import
    import statistics

    from .cohort import CohortConfig, gap_over_seeds

    path = _demo_config_path() if args.demo else Path(args.config)
    try:  # an OSError exits 1; bad UTF-8 is a ValueError naming its byte
        config = CohortConfig.from_json(path.read_bytes())
    except json.JSONDecodeError as exc:
        raise CliValidationError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:
        raise CliValidationError(f"{path}: bad cohort config: {exc}") from exc
    if args.seeds < 1:
        raise CliValidationError("--seeds must be at least 1")
    try:
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        replace(config, seed=config.seed + args.seeds - 1)  # the last seed of the range
        seeds = list(range(config.seed, config.seed + args.seeds))
    except (ValueError, MemoryError) as exc:
        why = str(exc) or f"{args.seeds} seeds do not fit in memory"  # MemoryError() says none
        raise CliValidationError(f"bad --seed/--seeds: {why}") from exc
    try:
        reports = gap_over_seeds(config, seeds)
    except (ValueError, MemoryError) as exc:  # a rank-deficient design, an
        # overflowing model, or a cohort too large to allocate
        raise CliValidationError(f"{path}: bad cohort config: {exc}") from exc
    payload: dict = {"config": asdict(config), "tool_version": __version__}
    if args.seeds == 1:
        [result] = reports
        lines = [f"unadjusted gap: {result.gap_unadjusted:.6f}",
                 f"adjusted gap:   {result.gap_adjusted:.6f}"]
        payload["result"] = vars(result)
    else:
        unadj = [r.gap_unadjusted for r in reports]
        adj = [r.gap_adjusted for r in reports]
        mean_u, sd_u = statistics.fmean(unadj), statistics.stdev(unadj)
        mean_a, sd_a = statistics.fmean(adj), statistics.stdev(adj)
        lines = [f"unadjusted gap: {mean_u:.6f} +- {sd_u:.6f} over {args.seeds} seeds",
                 f"adjusted gap:   {mean_a:.6f} +- {sd_a:.6f} over {args.seeds} seeds"]
        payload["results"] = [vars(r) for r in reports]
        payload["seeds"] = seeds
        payload["mean"] = {"gap_unadjusted": mean_u, "gap_adjusted": mean_a}
        payload["sd"] = {"gap_unadjusted": sd_u, "gap_adjusted": sd_a}

    with _artifact_writer(args.out) as staging:
        (staging / "gap.json").write_bytes(json_bytes(payload))
    print("\n".join(lines))
    return EXIT_OK


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(_attach_negative_numbers(sys.argv[1:] if argv is None else argv))
    collecting = gc.isenabled()
    gc.disable()  # see the module docstring
    try:
        return args.func(args)
    except (CliValidationError, ParseFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
