"""metaplot: statistical reproducibility auditing for correlation
meta-analyses.

The library ingests study-level correlation records, runs them through the
Fisher z pipeline to per-study p-values, builds rank-ordered p-value plots
with uniformity diagnostics, computes Gaussian group tail-ratio tables,
and simulates omitted-confounder regression bias. The simulation's names
stay in `metaplot.cohort`, the one module that imports numpy, so importing
the package does not load numpy.
"""

from ._version import __version__
from .fisher import (
    AggregationMode,
    ZSummary,
    summarize_studies,
    summarize_z,
)
from .gaussian import (
    GaussianSpec,
    PRESETS,
    TailRow,
    TailTable,
    curve_points,
    ratio_table,
    tail_area,
)
from .ingest import (
    CorrelationClass,
    GroupingReport,
    ParseFailure,
    ParseResult,
    group_complete_studies,
    parse_records,
)
from .numerics import (
    Probability,
    arctanh,
    std_normal_quantile,
    std_normal_sf,
)
from .pplot import (
    ClassifyThresholds,
    PlotClass,
    PlotDiagnostics,
    PValuePlot,
    build_plot,
    classify,
    ks_uniform,
)
from .report import (
    AuditMetadata,
    AuditReport,
    render_json,
    render_markdown,
    render_svg_gaussians,
    render_svg_pplot,
    render_svg_zpanel,
)

__all__ = [
    "__version__",
    "AggregationMode",
    "AuditMetadata",
    "AuditReport",
    "ClassifyThresholds",
    "CorrelationClass",
    "GaussianSpec",
    "GroupingReport",
    "ParseFailure",
    "ParseResult",
    "PlotClass",
    "PlotDiagnostics",
    "PRESETS",
    "Probability",
    "PValuePlot",
    "TailRow",
    "TailTable",
    "ZSummary",
    "arctanh",
    "build_plot",
    "classify",
    "curve_points",
    "group_complete_studies",
    "ks_uniform",
    "parse_records",
    "ratio_table",
    "render_json",
    "render_markdown",
    "render_svg_gaussians",
    "render_svg_pplot",
    "render_svg_zpanel",
    "std_normal_quantile",
    "std_normal_sf",
    "summarize_studies",
    "summarize_z",
    "tail_area",
]
