"""A speed probe: the machine's momentary speed, sampled while the program runs.

On a small shared host the CPU this process runs on flips between a fast and
a slow state (other tenants' load on the same core) every few seconds, and
the program's speed follows: the same cycle of CLI calls takes 30% longer in
one 25-second window than in the next. A median over one run then reports
how long the machine spent in each state, not how fast the program is.

The probe times a fixed pure-Python snippet (JSON encoding and float
formatting into SVG-like strings, the kind of work the program itself does;
of the snippets tried it tracked the program's speed best) from a SIGALRM
handler every `INTERVAL_S` seconds of wall time, in the benchmark's own
process and thread, so each sample sees the state the program ran in at that
moment. `normalize()` turns an operation's time into the time it would take
at the snippet's nominal speed: its wall time, less the time the handler ran
inside it, divided by the mean snippet time of the samples taken around it,
times `NOMINAL_S`. A program that gets twice as fast reads half the time;
the machine's state cancels.
"""

from __future__ import annotations

import bisect
import gc
import json
import signal
import statistics
import time

INTERVAL_S = 0.04  # one sample every 40 ms of wall time
WINDOW_S = 0.25  # samples this close to an operation describe its speed
ROWS = 300  # the snippet's size: about 1.5 ms on a 2.1 GHz Xeon core
# About the snippet's time in the uncontended state of the machine that set
# the reference figures (bench/README.md): a fixed unit, never re-measured.
NOMINAL_S = 0.0013


def snippet() -> None:
    rows = [{"id": f"S{i:05d}", "r": i * 0.001, "p": 1.0 / (i + 1)} for i in range(ROWS)]
    json.dumps(rows)
    "".join(f"<circle cx='{row['r']:.4f}' cy='{row['p']:.4f}'/>" for row in rows)


def timed_snippet() -> float:
    """The snippet's time. A collection started by its allocations would scan
    the program's objects and charge that to the snippet, so it is held off."""
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    snippet()
    seconds = time.perf_counter() - start
    if collecting:
        gc.enable()
    return seconds


class SpeedProbe:
    def __init__(self) -> None:
        # (handler entry, snippet time, handler exit) per sample, in time order;
        # one tuple per append, so a handler run inside another cannot split it
        self.samples: list[tuple[float, float, float]] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        seconds = timed_snippet()
        self.samples.append((start, seconds, time.perf_counter()))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self.samples.sort()

    def normalize(self, start: float, seconds: float) -> float:
        """An operation's time at the snippet's nominal speed.

        `start` and `seconds` are its perf_counter start and wall time, both
        including any handler runs inside it.
        """
        samples = self.samples
        end = start + seconds

        def index(t: float) -> int:
            return bisect.bisect_left(samples, t, key=lambda s: s[0])

        handled = sum(s[2] - s[0] for s in samples[index(start):index(end)])
        near = samples[index(start - WINDOW_S):index(end + WINDOW_S)]
        if not near:  # no sample near it: take the nearest one
            near = [min(samples, key=lambda s: abs(s[0] - start))]
        return (seconds - handled) / statistics.fmean(s[1] for s in near) * NOMINAL_S


def block_mean(samples: int) -> float:
    """The snippet's mean time over `samples` runs made directly, one after another."""
    return sum(timed_snippet() for _ in range(samples)) / samples
