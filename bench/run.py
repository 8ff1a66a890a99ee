"""metaplot benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload cli_fixtures --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from ./src. With
--trace 0 every operation runs untraced and the end-to-end metrics are
reported, their timings normalized to a fixed machine speed by the speed
probe (see probe.py) and also printed as measured. With --trace 1 each operation runs twice in a row, untraced and
with spans around metaplot's public layer functions (see spans.py), and the
per-layer metrics are reported. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

The run uses one process and no extra threads; set-up time is sampled in a
few fresh interpreters, one after another.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import probe
import workloads
from spans import COUNT_NAMES, ROOT, TARGETS, Tracer

BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 7
SETUP_PROBES = 40  # snippet runs before and after each set-up sample
SETUP_CODE = "import time, metaplot.cli; print(repr(time.perf_counter()))"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Outcome:
    op: int
    kind: str
    start: float  # time.perf_counter() when main() was called
    seconds: float
    rc: int
    digest: str  # sha256 over the artifacts and the console output
    nbytes: int  # total artifact bytes written


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "cgroup_cpu_limit": cgroup_cpu_limit(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def cgroup_cpu_limit() -> str:
    """The CPU quota of this cgroup in CPUs, or "none"; read only."""
    try:
        quota, period = Path("/sys/fs/cgroup/cpu.max").read_text().split()
    except OSError:
        try:
            quota = Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us").read_text().strip()
            period = Path("/sys/fs/cgroup/cpu/cpu.cfs_period_us").read_text().strip()
        except OSError:
            return "unknown"
    if quota in ("max", "-1"):
        return "none"
    return f"{int(quota) / int(period):g}"


def measure_setup(src: Path) -> tuple[float, float]:
    """Median time for a fresh interpreter to start and import metaplot.cli,
    as measured and at the probe snippet's nominal speed.

    The child reports time.perf_counter() (CLOCK_MONOTONIC, shared by all
    processes) once the import is done, so interpreter exit is not counted.
    The snippet is timed just before and just after each child.
    """
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    raw, normalized = [], []
    for _ in range(SETUP_SAMPLES):
        before = probe.block_mean(SETUP_PROBES)
        start = time.perf_counter()
        child = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, capture_output=True,
                               text=True, timeout=120, check=True)
        seconds = float(child.stdout) - start
        speed = (before + probe.block_mean(SETUP_PROBES)) / 2.0
        raw.append(seconds)
        normalized.append(seconds / speed * probe.NOMINAL_S)
    return statistics.median(raw), statistics.median(normalized)


def digest_dir(out: Path, console: str) -> tuple[str, int]:
    h = hashlib.sha256(console.encode("utf-8"))
    total = 0
    for path in sorted(out.iterdir()) if out.is_dir() else ():
        h.update(path.name.encode("utf-8") + b"\0")
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 20):
                h.update(chunk)
                total += len(chunk)
    return h.hexdigest(), total


def run_op(op, index: int, out: Path, tracer=None) -> tuple[Outcome, str]:
    """Run one CLI invocation; returns its outcome and its standard output."""
    from metaplot.cli import main

    shutil.rmtree(out, ignore_errors=True)
    argv = [*op.argv, "--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.install()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            span = nullcontext() if tracer is None else tracer.span(ROOT, op=index)
            start = time.perf_counter()
            try:
                with span:
                    rc = main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed operation; keep measuring the rest
                traceback.print_exc()
                rc = -1
            seconds = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    digest, nbytes = digest_dir(out, stdout.getvalue() + "\0" + stderr.getvalue())
    if rc != 0:
        print(f"op {index} ({op.kind}) exited {rc}:\n{stderr.getvalue()[-2000:]}", file=sys.stderr)
    return Outcome(index, op.kind, start, seconds, rc, digest, nbytes), stdout.getvalue()


def check_outcomes(workload, cycle, outcomes, last_stdout, outputs: Path) -> int:
    """Check the last outputs of each kind; count the operations that failed.

    An operation fails if it exited non-zero, if the operations of its kind
    did not all write the same bytes, or if the last outputs of its kind fail
    the workload's check.
    """
    healthy = {}
    for op in cycle:
        problems = workload.check(op, outputs / op.kind, last_stdout[op.kind])
        if len({o.digest for o in outcomes if o.kind == op.kind}) > 1:
            problems.append("outputs differ between operations")
        for problem in problems:
            print(f"check failed ({op.kind}): {problem}", file=sys.stderr)
        healthy[op.kind] = not problems
    return sum(1 for o in outcomes if o.rc != 0 or not healthy[o.kind])


def percentile_ms(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] * 1000.0
    # inclusive: with a few operations the 99th percentile stays within them
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1] * 1000.0


def timings(latencies: list[float], kinds: list[str], cycle_len: int,
            setup_s: float) -> dict[str, tuple[float, str]]:
    rounds = [sum(latencies[i:i + cycle_len]) for i in range(0, len(latencies), cycle_len)]
    by_kind: dict[str, list[float]] = {}
    for kind, seconds in zip(kinds, latencies):
        by_kind.setdefault(kind, []).append(seconds)
    # The mean of each command's median: on cli_fixtures two of the four
    # commands are short and two long, so the median of all operations falls
    # in the gap between them and jumps from run to run.
    p50 = statistics.fmean(statistics.median(values) for values in by_kind.values())
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(rounds), "s"),
        "throughput_ops_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (p50 * 1000.0, "ms"),
        "latency_p99_ms": (percentile_ms(latencies, 99), "ms"),
    }


def end_to_end(outcomes: list[Outcome], speed: probe.SpeedProbe, cycle_len: int,
               setup: tuple[float, float]) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics, their timings at the probe snippet's nominal speed."""
    kinds = [o.kind for o in outcomes]
    raw = timings([o.seconds for o in outcomes], kinds, cycle_len, setup[0])
    print("as measured, before normalizing: "
          + ", ".join(f"{name} = {value:.6g} {unit}" for name, (value, unit) in raw.items()))
    snippet_ms = [s[1] * 1000.0 for s in speed.samples]
    print(f"probe: {len(snippet_ms)} samples, snippet time quartiles (ms) "
          + ", ".join(f"{q:.4f}" for q in statistics.quantiles(snippet_ms, n=4)))
    normalized = [speed.normalize(o.start, o.seconds) for o in outcomes]
    return {
        **timings(normalized, kinds, cycle_len, setup[1]),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "artifact_bytes": (sum(o.nbytes for o in outcomes) / len(outcomes), "bytes"),
    }


def per_layer(tracer, pairs: list[tuple[Outcome, Outcome]], cycle_len: int) -> dict[str, tuple[float, str]]:
    """Per-operation layer figures: each cycle's total over its operations,
    averaged over the run's cycles. Means keep the identity
    layer self times + cli.residual_s - trace.overhead_s == untraced time exact."""
    self_times = tracer.self_times()
    layer_names = [f"{module}.{func}" for module, func, _ in TARGETS]
    series: dict[str, list[float]] = {}
    for start in range(0, len(pairs), cycle_len):
        chunk = pairs[start:start + cycle_len]
        ops = [traced.op for _, traced in chunk]
        untraced_s = sum(u.seconds for u, _ in chunk)
        traced_s = sum(t.seconds for _, t in chunk)
        layer_s = {name: sum(self_times[op].get(name, 0.0) for op in ops) for name in layer_names}
        row = {f"{name}.self_s": value for name, value in layer_s.items()}
        row.update({name: sum(tracer.counts[op][name] for op in ops) for name in COUNT_NAMES})
        # main()'s own time outside the layer spans, from the same traced call
        row["cli.residual_s"] = sum(self_times[op][ROOT] for op in ops)
        row["trace.overhead_s"] = traced_s - untraced_s
        row["untraced_s"] = untraced_s
        for name, value in row.items():
            series.setdefault(name, []).append(value / len(chunk))
    mean = {name: statistics.fmean(values) for name, values in series.items()}
    studies = mean["ingest.studies_retained"] + mean["ingest.studies_dropped"]
    mean["ingest.retained_frac"] = mean["ingest.studies_retained"] / studies if studies else 0.0
    accounted = sum(mean[f"{n}.self_s"] for n in layer_names) + mean["cli.residual_s"]
    print(f"accounting per op: layer self times + cli.residual_s = {accounted:.6f} s, "
          f"untraced = {mean['untraced_s']:.6f} s, trace.overhead_s = {mean['trace.overhead_s']:.6f} s")
    del mean["untraced_s"]
    return {name: (value, _unit(name)) for name, value in sorted(mean.items())}


def _unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), (".bytes", "bytes"), ("_frac", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "metaplot" / "__init__.py").is_file():
        print(f"error: no metaplot sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    os.environ["METAPLOT_NO_COLOR"] = "1"
    for var in THREAD_VARS:  # before numpy loads: one process, no extra threads
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    catalogue = workloads.build(src / "metaplot" / "data")
    if args.workload not in catalogue:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(catalogue)}",
              file=sys.stderr)
        return 2
    workload = catalogue[args.workload]

    setup = (0.0, 0.0) if args.trace else measure_setup(src)
    import metaplot.cli

    if Path(metaplot.cli.__file__).resolve().parent != (src / "metaplot").resolve():
        print(f"error: imported {metaplot.cli.__file__}, not the sources under {src}",
              file=sys.stderr)
        return 2

    work = BENCH / ".work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "input").mkdir(parents=True)
    outputs = work / "out"
    cycle = workload.prepare(work / "input", args.seed)
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))

    tracer = Tracer() if args.trace else None
    speed = probe.SpeedProbe()
    if tracer is None:
        speed.start()
    outcomes: list[Outcome] = []
    pairs: list[tuple[Outcome, Outcome]] = []
    last_stdout: dict[str, str] = {}
    start = time.perf_counter()
    rounds = 0
    while True:
        for op in cycle:
            if tracer is None:
                outcome, last_stdout[op.kind] = run_op(op, len(outcomes), outputs / op.kind)
                outcomes.append(outcome)
                continue
            # Alternate which of the pair runs first, so neither gains from
            # always following the other.
            pair = {}
            for traced in (False, True) if rounds % 2 == 0 else (True, False):
                pair[traced], last_stdout[op.kind] = run_op(
                    op, len(outcomes), outputs / op.kind, tracer if traced else None)
                outcomes.append(pair[traced])
            pairs.append((pair[False], pair[True]))
        rounds += 1
        # Stop before a cycle that would, at the mean pace, end after --seconds.
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > args.seconds:
            break
    speed.stop()

    if tracer is None:
        metrics = end_to_end(outcomes, speed, len(cycle), setup)
    else:
        metrics = per_layer(tracer, pairs, len(cycle))
        tracer.write(work / "trace.jsonl", {"workload": args.workload, "seed": args.seed, "env": env})
    failed = check_outcomes(workload, cycle, outcomes, last_stdout, outputs)

    print(f"workload {args.workload} seed {args.seed}: {len(outcomes)} ops, "
          f"{failed} failed, fail_frac = {failed / len(outcomes):.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>16.6f} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
