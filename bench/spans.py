"""In-memory spans around metaplot's public layer functions, recorded from
outside the program.

`Tracer.install()` replaces each traced function with a timing wrapper in
every loaded `metaplot` module that holds a reference to it, so the spans
follow the program's real call order (for example `run_audit` calling
`parse_records`, then `group_complete_studies`, ...). `uninstall()` puts
the originals back, so untraced operations run the unmodified code.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

CountFn = Callable[[dict, tuple, dict, Any], None]


def _text_bytes(result: Any) -> int:
    return len(result.encode("utf-8")) if isinstance(result, str) else len(result)


def _count_parse(counts, args, kwargs, result):
    counts["ingest.rows_read"] += len(result.records) + len(result.errors)
    counts["ingest.rows_rejected"] += len(result.errors)


def _count_grouping(counts, args, kwargs, result):
    counts["ingest.studies_retained"] += len(result.groups)
    counts["ingest.studies_dropped"] += len(result.dropped)


def _count_normals(counts, args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    per_subject = len(config.confounders) + (1 if config.noise_sigma > 0.0 else 0)
    counts["cohort.normals_drawn"] += 2 * config.n_per_group * per_subject


def _add(key: str, size: Callable[[Any], int]) -> CountFn:
    def count(counts, args, kwargs, result):
        counts[key] += size(result)

    return count


# (module under metaplot, public function, counter of the work it did)
TARGETS: tuple[tuple[str, str, CountFn | None], ...] = (
    ("ingest", "parse_records", _count_parse),
    ("ingest", "group_complete_studies", _count_grouping),
    ("fisher", "summarize_studies", _add("fisher.summaries", len)),
    ("fisher", "summarize_z", None),
    ("pplot", "build_plot", _add("pplot.points", lambda plot: plot.n)),
    ("report", "render_json", _add("report.render_json.bytes", _text_bytes)),
    ("report", "render_markdown", _add("report.render_markdown.bytes", _text_bytes)),
    ("report", "render_svg_pplot", _add("report.render_svg_pplot.bytes", _text_bytes)),
    ("report", "render_svg_zpanel", None),
    ("report", "render_svg_gaussians", None),
    ("gaussian", "ratio_table", None),
    ("cohort", "generate_cohort", _count_normals),
    ("cohort", "ols_fit", None),
)

ROOT = "cli.main"
# Every count the counters above (and the per-function call counts) report.
COUNT_NAMES = (
    "ingest.rows_read", "ingest.rows_rejected", "ingest.studies_retained",
    "ingest.studies_dropped", "fisher.summaries", "pplot.points",
    "report.render_json.bytes", "report.render_markdown.bytes",
    "report.render_svg_pplot.bytes", "cohort.normals_drawn", "cohort.ols_fit.calls",
)


@dataclass(frozen=True)
class Span:
    op: int
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, op: int | None = None) -> Iterator[None]:
        if op is not None:
            self._op = op
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)  # type: ignore[arg-type]  # filled on exit
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(self._op, name, start, end, parent)

    def _wrap(self, name: str, fn: Callable, counter: CountFn | None) -> Callable:
        calls = f"{name}.calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            counts = self.counts[self._op]
            counts[calls] += 1
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "metaplot" or n.startswith("metaplot.")]
        for module_name, func_name, counter in TARGETS:
            original = getattr(importlib.import_module(f"metaplot.{module_name}"), func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per operation, each span name's duration minus its children's."""
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            duration = span.end - span.start
            out[span.op][span.name] += duration
            if span.parent is not None:
                out[span.op][self.spans[span.parent].name] -= duration
        return out

    def write(self, path: Path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for index, s in enumerate(self.spans):
                record = {"id": index, "op": s.op, "name": s.name, "start": s.start,
                          "end": s.end, "parent": s.parent}
                fh.write(json.dumps(record) + "\n")
