"""metaplot: statistical reproducibility auditing for correlation
meta-analyses.

The library ingests study-level correlation records, runs them through the
Fisher z pipeline to per-study p-values, builds rank-ordered p-value plots
with uniformity diagnostics, computes Gaussian group tail-ratio tables,
and simulates omitted-confounder regression bias. Each public name is
imported from its own submodule (`metaplot.ingest`, `metaplot.fisher`,
`metaplot.pplot`, ...), so `import metaplot` alone loads none of them.
"""

from ._version import __version__

__all__ = ["__version__"]
