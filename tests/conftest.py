import math
import os
import random
from importlib.resources import files
from pathlib import Path

import pytest

from metaplot.ingest import CorrelationClass

GOLDEN_DIR = Path(__file__).parent / "golden"


def bundled(name: str) -> Path:
    return Path(str(files("metaplot") / "data" / name))


def counted_forks(monkeypatch, module, gate):
    """Lower module's gate to 0 on two CPUs, and yield the pids os.fork
    returned to this process; afterwards no child may be left, running or
    unreaped."""
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(module, gate, 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", counted)
    yield forks
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def null_csv() -> Path:
    return bundled("null_27.csv")


@pytest.fixture
def effect_csv() -> Path:
    return bundled("effect_icc.csv")


@pytest.fixture
def demo_config() -> Path:
    return bundled("demo_cohort.json")


@pytest.fixture
def golden_dir() -> Path:
    return GOLDEN_DIR


def wide_sheet(studies, seed):
    """A sheet laid out like the benchmark's wide one: one record per class,
    r at six decimals, about 2% of studies missing a class."""
    rng = random.Random(seed)
    lines = ["study_id,author,year,title,journal,class,r,n"]
    for i in range(studies):
        n = rng.randint(20, 400)
        classes = [c.value for c in CorrelationClass]
        rng.shuffle(classes)
        if rng.random() < 0.02:
            classes.pop()
        title = f"Study {i}" if i % 2 else ""
        for cls in classes:
            r = math.tanh(rng.gauss(0.1, 1.0) / math.sqrt(n - 3))
            lines.append(f"s{i:06d},Author{i % 997},{1980 + i % 44},{title},,{cls},{r:.6f},{n}")
    return "\n".join(lines) + "\n"
