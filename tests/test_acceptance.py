"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).

Expected values for the two tail tables and the standard normal column are
the published five-decimal figures; the +-5e-4 tolerance absorbs their
display rounding. Pipeline properties that have no desk-scale ground truth
are checked as seeded statistical properties of the full pipeline.
"""

import importlib
import json
import math
import pkgutil
import time
from statistics import NormalDist

import pytest

import metaplot
from metaplot.cli import EXIT_OK, main
from metaplot.cohort import CohortConfig, Confounder, Pcg32, gap_decomposition
from metaplot.fisher import summarize_studies
from metaplot.ingest import CorrelationClass, Groups, Records
from metaplot.numerics import std_normal_quantile, std_normal_sf
from metaplot.pplot import PlotClass, build_plot

TABLE_G = {
    0.0: (0.50000, 0.38730, "1.3"),
    1.0: (0.15866, 0.08412, "1.9"),
    2.0: (0.02275, 0.00677, "3.4"),
    3.0: (0.00135, 0.00018, "7.3"),
}
TABLE_THINGS = {
    0.0: (0.50000, 0.17619, "2.8"),
    1.0: (0.15866, 0.02680, "5.9"),
    2.0: (0.02275, 0.00169, "13"),
    3.0: (0.00135, 0.00004, "32"),
}


def report_line(name, ok=True):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")


def run_tails_preset(preset, out_dir):
    start = time.perf_counter()
    code = main(
        ["tails", "--preset", preset, "--thresholds", "0,1,2,3", "--out", str(out_dir)]
    )
    elapsed = time.perf_counter() - start
    assert code == EXIT_OK
    payload = json.loads((out_dir / "tails.json").read_bytes())
    return payload["table"]["rows"], elapsed


def check_table(rows, expected):
    from metaplot.gaussian import format_ratio

    assert len(rows) == len(expected)
    for row in rows:
        auc_ref, auc_other, ratio_str = expected[row["threshold"]]
        assert row["auc_ref"] == pytest.approx(auc_ref, abs=5e-4)
        assert row["auc_other"] == pytest.approx(auc_other, abs=5e-4)
        assert format_ratio(row["ratio"]) == ratio_str


def test_table1_reproduction(tmp_path, monkeypatch):
    monkeypatch.setenv("METAPLOT_NO_COLOR", "1")
    rows, elapsed = run_tails_preset("g", tmp_path)
    check_table(rows, TABLE_G)
    assert elapsed < 1.0
    report_line("table-1 reproduction (g preset, 8 AUCs +-5e-4, ratios at paper rounding)")


def test_table2_reproduction(tmp_path, monkeypatch):
    monkeypatch.setenv("METAPLOT_NO_COLOR", "1")
    rows, elapsed = run_tails_preset("things", tmp_path)
    check_table(rows, TABLE_THINGS)
    assert elapsed < 1.0
    report_line("table-2 reproduction (things preset, 8 AUCs +-5e-4, ratios at paper rounding)")


def test_standard_normal_oracle():
    expected = {0.0: 0.50000, 1.0: 0.15866, 2.0: 0.02275, 3.0: 0.00135}
    for x, value in expected.items():
        assert std_normal_sf(x) == pytest.approx(value, abs=5e-6)
    report_line("standard normal survival at {0,1,2,3} within 5e-6")


def _summaries(rs_ns):
    # One study per (r, n), each with a single ICC record, built as columns
    # and run through the library's per-study pipeline.
    cls = CorrelationClass.ICC
    ids = [f"s{i}" for i in range(len(rs_ns))]
    ns = [n for _, n in rs_ns]
    records = Records(ids, [cls] * len(ids), [r for r, _ in rs_ns], ns)
    groups = Groups(records, ids, {cls: list(range(len(ids)))},
                    {cls: list(range(len(ids) + 1))}, ns)
    return summarize_studies(groups, cls)


def _null_pvalues(seed):
    # One synthetic 27-study class: true correlation zero, n in [20, 60].
    rng = Pcg32(seed)
    rs_ns = []
    for _ in range(27):
        n = 20 + rng.next_uint32() % 41
        z = std_normal_quantile(rng.random())
        rs_ns.append((math.tanh(z / math.sqrt(n - 3)), n))
    return _summaries(rs_ns).p_value


def _effect_pvalues(seed):
    # One synthetic 27-study class: true correlation 0.5, n = 100.
    rng = Pcg32(seed)
    shift = math.atanh(0.5) * math.sqrt(97)
    rs_ns = []
    for _ in range(27):
        z = shift + std_normal_quantile(rng.random())
        rs_ns.append((math.tanh(z / math.sqrt(97)), 100))
    return _summaries(rs_ns).p_value


def test_pipeline_properties_replace_figures_2_to_4():
    start = time.perf_counter()

    null_hits = 0
    ks_total = 0.0
    for seed in range(500):
        plot = build_plot(_null_pvalues(seed), alpha=0.05)
        ks_total += plot.diagnostics.ks_p
        if plot.diagnostics.classification is PlotClass.NULL_CONSISTENT:
            null_hits += 1
    assert null_hits / 500 >= 0.85
    assert 0.35 <= ks_total / 500 <= 0.65

    effect_hits = 0
    for seed in range(500, 1000):
        plot = build_plot(_effect_pvalues(seed), alpha=0.05)
        all_below = all(p < 0.05 for p in plot.ps)
        if plot.diagnostics.classification is PlotClass.EFFECT_CONSISTENT and all_below:
            effect_hits += 1
    assert effect_hits / 500 >= 0.99

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report_line(
        "pipeline properties: "
        f"null-consistent {null_hits / 500:.1%} (>=85%), "
        f"mean KS p {ks_total / 500:.3f} (in [0.35, 0.65]), "
        f"effect-consistent {effect_hits / 500:.1%} (>=99%)"
    )


def test_fisher_pipeline_spot_values():
    stats = _summaries([(0.5, 30)])
    assert stats.z_score == pytest.approx([2.85428], abs=1e-4)
    assert stats.p_value == pytest.approx([0.00432], abs=5e-5)
    # frozen 40-digit oracle value for the same quantity
    assert stats.p_value == pytest.approx([0.0043134706], abs=1e-9)
    report_line("fisher spot values r=0.5 n=30 (z 2.85428 +-1e-4, p 0.00432 +-5e-5)")


def test_omitted_confounder_invariants():
    start = time.perf_counter()

    # analytic omitted-variable bias, mean over 200 seeds within 3 SE
    beta2, mean_diff = 1.5, -0.8
    base = CohortConfig(
        n_per_group=150,
        beta0=1.0,
        beta1=-0.5,
        confounders=(Confounder(beta=beta2, mean_f=mean_diff, mean_m=0.0, sigma=1.0),),
        noise_sigma=1.0,
    )
    biases = []
    for seed in range(200):
        rep = gap_decomposition(base.with_seed(seed))
        biases.append(rep.gap_unadjusted - rep.gap_adjusted)
    mean_bias = sum(biases) / len(biases)
    sd = math.sqrt(sum((b - mean_bias) ** 2 for b in biases) / (len(biases) - 1))
    se = sd / math.sqrt(len(biases))
    assert abs(mean_bias - beta2 * mean_diff) <= 3.0 * se

    # zero-noise fully specified model recovers the configured coefficients
    exact = CohortConfig(
        n_per_group=100,
        beta0=3.0,
        beta1=-1.75,
        confounders=(
            Confounder(beta=0.6, mean_f=-1.0, mean_m=0.5, sigma=1.0),
            Confounder(beta=-1.1, mean_f=0.2, mean_m=0.0, sigma=2.0),
        ),
        noise_sigma=0.0,
        seed=77,
    )
    rep = gap_decomposition(exact)
    assert rep.gap_adjusted == pytest.approx(-1.75, abs=1e-8)
    assert rep.coefficients == pytest.approx([3.0, -1.75, 0.6, -1.1], abs=1e-8)

    # bundled demo reproduces the directional story: adjustment shrinks the gap
    from conftest import bundled

    demo = CohortConfig.from_json(bundled("demo_cohort.json").read_text())
    rep = gap_decomposition(demo)
    assert abs(rep.gap_adjusted) < abs(rep.gap_unadjusted)
    assert rep.gap_unadjusted < 0 and rep.gap_adjusted < 0

    elapsed = time.perf_counter() - start
    assert elapsed < 20.0
    report_line(
        f"omitted-confounder invariants: mean bias {mean_bias:.4f} vs analytic "
        f"{beta2 * mean_diff:.4f} (3 SE = {3 * se:.4f}); zero-noise exact; "
        f"demo gap {rep.gap_unadjusted:.2f} -> {rep.gap_adjusted:.2f}"
    )


def test_artifact_determinism(null_csv, effect_csv, tmp_path, monkeypatch):
    monkeypatch.setenv("METAPLOT_NO_COLOR", "1")

    def run_twice(argv_builder):
        out = {}
        for tag in ("a", "b"):
            d = tmp_path / f"{argv_builder.__name__}_{tag}"
            assert main(argv_builder(d)) == EXIT_OK
            out[tag] = {p.name: p.read_bytes() for p in sorted(d.iterdir())}
        assert out["a"] == out["b"]

    def audit_null(d):
        return ["audit", "--input", str(null_csv), "--out", str(d)]

    def audit_effect(d):
        return ["audit", "--input", str(effect_csv), "--out", str(d)]

    def tails_g(d):
        return ["tails", "--preset", "g", "--out", str(d)]

    def tails_things(d):
        return ["tails", "--preset", "things", "--out", str(d)]

    def simulate_demo(d):
        return ["simulate", "--demo", "--out", str(d)]

    for builder in (audit_null, audit_effect, tails_g, tails_things, simulate_demo):
        run_twice(builder)
    report_line("determinism: byte-identical artifacts for every subcommand/fixture")


def test_roundtrip_and_invariant_suites(null_csv):
    import random

    import numpy as np

    from metaplot.cohort import ols_fit
    from test_report import assert_json_values, build_report

    # numeric round trips
    rng = random.Random(314159)
    cdf = NormalDist().cdf
    for _ in range(1000):
        x = rng.uniform(-5.0, 5.0)
        assert std_normal_quantile(cdf(x)) == pytest.approx(x, abs=1e-8)

    # plot permutation invariance
    ps = [rng.random() for _ in range(27)]
    base = build_plot(ps)
    for _ in range(10):
        rng.shuffle(ps)
        assert build_plot(ps) == base

    # OLS orthogonality
    gen = Pcg32(31337)
    x = np.array([[1.0, gen.normal(), gen.normal()] for _ in range(80)])
    y = np.array([gen.normal() for _ in range(80)])
    fit = ols_fit(x, y)
    scale = np.linalg.norm(y) * np.linalg.norm(x, axis=0)
    assert np.all(np.abs(x.T @ fit.residuals) <= 1e-8 * np.maximum(scale, 1.0))

    # report.json decodes to the report's own values on the bundled fixture
    assert_json_values(build_report(null_csv))

    report_line("round-trip and invariant suites (numerics, plot, OLS, JSON)")


def test_every_export_resolves():
    modules = [metaplot] + [
        importlib.import_module(f"metaplot.{info.name}")
        for info in pkgutil.iter_modules(metaplot.__path__)
        if not info.name.startswith("_")
    ]
    for module in modules:
        names = getattr(module, "__all__", [])  # cli, the entry point, declares none
        assert len(set(names)) == len(names), module.__name__
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing objects: {missing}"
        namespace = {}
        exec(f"from {module.__name__} import *", namespace)
        assert set(names) <= set(namespace)
    report_line(f"public API: every __all__ name of {len(modules)} modules resolves")
