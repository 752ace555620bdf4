"""Times scaled to a nominal machine speed.

The benchmark runs on a shared VM whose other tenants slow everything in
it, CPU time included, by up to 3x in bursts of seconds to minutes, so
raw times of the same code spread past any useful bound.  A short
pure-Python kernel that does not touch sgchrom is timed when a pass of
answers starts and ends and, from a SIGALRM handler, every PERIOD_S in
between.
The kernel slows with the host as the interpreter running sgchrom does,
so an interval's time at nominal speed is

    (raw time - probe time inside it) * NOMINAL_PROBE_S / mean probe time

over the probes in and next to it.  Starting a process (exec, dynamic
loading, imports) slows differently from the interpreter loop, so a
set-up is scaled by a reference start timed just before it: a fresh
interpreter that imports numpy, sgchrom's one heavy dependency.  The
nominal times are the kernel's and the reference start's on a quiet
2-core Xeon VM; scaled times are seconds at that fixed speed, comparable
between runs and commits, not clock seconds.  A change to sgchrom moves
the scaled time and not the probe; a slower host moves both.
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import time

NOMINAL_PROBE_S = 0.0018
PERIOD_S = 0.1
KERNEL_STEPS = 6000
NEIGHBOUR_S = 0.25  # probes this close to an interval's ends also count for it
NOMINAL_START_S = 0.11
REFERENCE_START = [sys.executable, "-c", "import numpy; print('ready')"]


def time_start(cmd: list[str]) -> float:
    """Seconds from starting ``cmd`` to its first line, which must be "ready"."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
        child.wait(timeout=120)
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"{cmd[-1]!r} did not start (exit {child.returncode})")
    return elapsed


def scaled_start(cmd: list[str]) -> float:
    """Seconds at nominal speed from starting ``cmd`` to its "ready" line."""
    reference = time_start(REFERENCE_START)
    return time_start(cmd) * NOMINAL_START_S / reference


def _step(a: int, b: int) -> int:
    return (a * 31 + b) & 0xFFFF


def kernel(steps: int = KERNEL_STEPS) -> int:
    """Dict, list, tuple and call traffic like the solver's inner loops."""
    table: dict[int, int] = {}
    row = list(range(64))
    acc = 0
    for i in range(steps):
        k = (i * 2654435761) & 1023
        table[k] = table.get(k, 0) + row[i & 63]
        pair = (k, acc)
        acc = _step(pair[0], pair[1])
    return acc + len(table)


class Probe:
    """Samples the kernel on demand and every PERIOD_S while started.

    ``deadline`` (a perf_counter time) makes the periodic handler raise
    ``timeout`` once it has passed, so one timer serves probes and answer
    deadlines; with ``sampling`` off the handler only checks the deadline.
    """

    def __init__(self, timeout: type[Exception], sampling: bool = True):
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self.deadline: float | None = None
        self._timeout = timeout
        self.sampling = sampling

    def sample(self) -> float:
        t0 = time.perf_counter()
        kernel()
        took = time.perf_counter() - t0
        self.samples.append((t0, took))
        return took

    def _tick(self, signum, frame) -> None:
        if self.sampling:
            self.sample()
        if self.deadline is not None and time.perf_counter() > self.deadline:
            self.deadline = None
            raise self._timeout()

    def start(self) -> None:
        """Sample now and every PERIOD_S until stop(), which samples once
        more, so that every interval in between has probes near it."""
        if self.sampling:
            self.sample()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self.sampling:
            self.sample()

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds at nominal speed of the interval [t0, t1], probe time excluded."""
        inside = [d for s, d in self.samples if t0 <= s < t1]
        near = [d for s, d in self.samples if t0 - NEIGHBOUR_S <= s < t1 + NEIGHBOUR_S]
        return (t1 - t0 - sum(inside)) * NOMINAL_PROBE_S / statistics.fmean(near)
