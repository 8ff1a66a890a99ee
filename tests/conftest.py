import io
import math
import os
import random
from array import array
from importlib.resources import files
from pathlib import Path
from statistics import NormalDist

import pytest

from metaplot.ingest import CorrelationClass, ParseResult, Records, parse_records

GOLDEN_DIR = Path(__file__).parent / "golden"


def bundled(name: str) -> Path:
    return Path(str(files("metaplot") / "data" / name))


def parse_text(text: str, line: int = 0) -> ParseResult:
    """parse_records of text's UTF-8 bytes, read from a binary stream."""
    return parse_records(io.BytesIO(text.encode()), line)


def typed_records(study_id=(), cls=(), r=(), n=()) -> Records:
    """Records with the column types parse_records gives: study ids and
    classes in tuples, r in an array('d') and n in an array('q')."""
    return Records(tuple(study_id), tuple(cls), array("d", r), array("q", n))


def column_types(columns) -> list:
    """The type of each field of a Records or Summaries, with its typecode
    if it is an array: arrays of one value compare equal across typecodes."""
    return [(type(c), getattr(c, "typecode", None)) for c in vars(columns).values()]


class Pcg32:
    """PCG-XSH-RR 32-bit generator (O'Neill 2014, HMC-CS-2014-0905), the
    tests' seeded data: uniforms (u32 + 0.5) / 2^32 in the open (0, 1), and
    normals by NormalDist().inv_cdf."""

    _MULT = 6364136223846793005
    _MASK = (1 << 64) - 1

    def __init__(self, seed: int, stream: int = 1442695040888963407) -> None:
        self._inc = ((stream << 1) | 1) & self._MASK
        self._state = 0
        self.next_uint32()
        self._state = (self._state + (seed & self._MASK)) & self._MASK
        self.next_uint32()

    def next_uint32(self) -> int:
        old = self._state
        self._state = (old * self._MULT + self._inc) & self._MASK
        xorshifted = (((old >> 18) ^ old) >> 27) & 0xFFFFFFFF
        rot = old >> 59
        return ((xorshifted >> rot) | (xorshifted << ((-rot) & 31))) & 0xFFFFFFFF

    def random(self) -> float:
        return (self.next_uint32() + 0.5) / 4294967296.0

    def normal(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        return mu + sigma * NormalDist().inv_cdf(self.random())


def counted_forks(monkeypatch, module=None, gate=None, value=0):
    """Set module's gate, if one is given, to value (0 by default) on two
    CPUs, and yield the pids os.fork returned to this process; afterwards no
    child may be left, running or unreaped."""
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    if module is not None:
        monkeypatch.setattr(module, gate, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", counted)
    yield forks
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def reaped(monkeypatch):
    """The exit code of each child os.waitpid reaps from here on."""
    codes = []
    waitpid = os.waitpid

    def counted(pid, options):
        got = waitpid(pid, options)
        if got[0]:
            codes.append(os.waitstatus_to_exitcode(got[1]))
        return got

    monkeypatch.setattr(os, "waitpid", counted)
    return codes


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
