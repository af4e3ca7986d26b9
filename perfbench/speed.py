"""CPU speed sampling, to express run time in host-independent units.

On a shared host the speed of a virtual CPU changes from second to second
(neighbours on the same physical core), by as much as a third.  Wall times
taken minutes apart then differ by more than any change worth measuring.
``SpeedSampler`` runs a fixed reference loop every ``INTERVAL`` seconds
from a SIGALRM handler.  The handler interrupts the
operation between two bytecodes and runs on the same CPU at that moment.
Summing each interval divided by the loop's duration then gives the
operation's length in reference loops.  Counting each loop as
``REF_SECONDS`` turns that into reference seconds: the time the operation
would take on a CPU that runs the loop in exactly ``REF_SECONDS``.

Forked pool workers sample too, while they run a simulation.  They append
their samples to files that the parent adds in.
"""

from __future__ import annotations

import os
import signal
from pathlib import Path
from time import perf_counter

import numpy as np

INTERVAL = 0.1          # seconds between samples
REF_SECONDS = 1e-3      # what one reference loop counts as
EDGE_SAMPLES = 5        # samples taken before and after the timed region

_rng = np.random.default_rng(0)
_VALUES = _rng.random(50_000)
_INDEX = _rng.integers(0, 50_000, 20_000)


def reference_loop() -> int:
    """The unit of work: under a millisecond, half interpreted arithmetic and
    half numpy gathers and compares, the two kinds of work a simulation
    does.  The mix follows host slowdowns more closely than either half."""
    s = 0
    for i in range(5_000):
        s += i * i % 7
    for _ in range(12):
        s += int((_VALUES[_INDEX] > 0.5).sum())
    return s


class SpeedSampler:
    def __init__(self, spool: Path, sample_here: bool = True):
        self.spool = spool            # directory for the workers' samples
        self.sample_here = sample_here
        self.inverse_sum = 0.0        # sum of 1 / loop duration
        self.samples = 0
        self.overhead = 0.0           # seconds spent sampling in this process
        self.total_samples = 0        # with the workers', after ref_seconds
        self._worker_pid = None
        self._previous = None

    def _sample(self) -> float:
        t0 = perf_counter()
        reference_loop()
        dt = perf_counter() - t0
        self.inverse_sum += 1.0 / dt
        self.samples += 1
        return dt

    def _on_alarm(self, signum, frame) -> None:
        if self.sample_here:
            self.overhead += self._sample()

    def _start_timer(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def __enter__(self):
        for _ in range(EDGE_SAMPLES):
            self._sample()
        self._start_timer()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(EDGE_SAMPLES):
            self._sample()

    def in_worker(self, fn, *args):
        """Call ``fn`` in a forked worker, sampling while it runs."""
        pid = os.getpid()
        if self._worker_pid != pid:      # first call in this worker
            self._worker_pid = pid
            self.inverse_sum, self.samples, self.sample_here = 0.0, 0, True
            self._start_timer()
        try:
            return fn(*args)
        finally:
            with open(self.spool / f"speed-{pid}.txt", "a",
                      encoding="utf-8") as fh:
                fh.write(f"{self.inverse_sum!r} {self.samples}\n")
            self.inverse_sum, self.samples = 0.0, 0

    def ref_seconds(self, seconds: float) -> float:
        """``seconds`` of this process's operation in reference seconds."""
        inverse_sum, samples = self.inverse_sum, self.samples
        for path in self.spool.glob("speed-*.txt"):
            for line in path.read_text(encoding="utf-8").splitlines():
                s, n = line.split()
                inverse_sum += float(s)
                samples += int(n)
            path.unlink()
        self.total_samples = samples
        return seconds * inverse_sum / samples * REF_SECONDS
