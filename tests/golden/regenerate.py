"""Regenerate the golden SVG fixtures and the `audit` artifact manifest
(manifest.json, see tests/test_manifest.py) after an intentional change.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

Review the diffs by eye before committing.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent))

from conftest import bundled  # noqa: E402
from test_manifest import MANIFEST, build_manifest  # noqa: E402
from test_report import FOUR_SPECS, build_report  # noqa: E402

from metaplot.gaussian import PRESETS  # noqa: E402
from metaplot.ingest import CorrelationClass  # noqa: E402
from metaplot.report import (  # noqa: E402
    render_svg_gaussians,
    render_svg_pplot,
    render_svg_zpanel,
)


def main() -> None:
    out = Path(__file__).parent
    report = build_report(bundled("null_27.csv"))
    male, female = PRESETS["g"]
    (out / "pplot_ICC.svg").write_bytes(render_svg_pplot(report.plots["ICC"]))
    (out / "zpanel.svg").write_bytes(
        render_svg_zpanel([report.z_panels[c.value] for c in CorrelationClass])
    )
    (out / "gaussians_g.svg").write_bytes(
        render_svg_gaussians([male, female], -4.664, 4.0)
    )
    (out / "gaussians_4.svg").write_bytes(render_svg_gaussians(FOUR_SPECS, -6.0, 5.0))
    os.environ["METAPLOT_NO_COLOR"] = "1"
    with tempfile.TemporaryDirectory() as work:
        manifest = build_manifest(Path(work))
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print("golden files regenerated under", out)


if __name__ == "__main__":
    main()
