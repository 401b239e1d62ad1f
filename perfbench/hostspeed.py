"""The host's speed, read from a fixed reference loop.

The benchmark's host runs the same work at speeds up to ~1.5x apart,
changing within seconds and drifting over minutes (CPU time moves with
wall time, and steal time stays at zero, so the slowdown is contention
the process cannot see).  A pure-Python reference loop slows with it.

A ``UnitClock`` times each unit of work and runs the loop at every
boundary between units; a ``SpeedSampler`` thread, when the clock is
given one, also runs the loop every ``SAMPLE_INTERVAL_S`` and reads its
CPU time, so a long unit gets readings from its middle too.  Each
unit's wall time is multiplied by ``REFERENCE_S`` times the mean of the
reciprocal loop times read at its two ends and during it: the unit's
time at the speed where the loop takes ``REFERENCE_S``.
"""

from __future__ import annotations

import threading
from time import perf_counter, thread_time

REFERENCE_ITERATIONS = 30_000
REFERENCE_S = 0.0025  # the loop's time at this host's full speed, rounded
SAMPLE_INTERVAL_S = 0.25


def _loop() -> int:
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc += i * i % 7
    return acc


def reference_s() -> float:
    """Wall time of one run of the reference loop."""
    start = perf_counter()
    _loop()
    return perf_counter() - start


def scale(raw_s: float, refs: list[float]) -> float:
    """raw_s at the speed where the reference loop takes REFERENCE_S,
    given loop times read while raw_s elapsed (speed is 1 / loop time)."""
    return raw_s * REFERENCE_S * sum(1 / r for r in refs) / len(refs)


class SpeedSampler:
    """A daemon thread that times the reference loop, in its own CPU
    time (so waits for the GIL do not count), every SAMPLE_INTERVAL_S.

    Each loop costs the measured thread ~2.5 ms of the GIL, ~1% of the
    interval, for every unit alike.
    """

    def __init__(self):
        self.readings: list[tuple[float, float]] = []  # (perf_counter at end, loop CPU s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            start = thread_time()
            _loop()
            self.readings.append((perf_counter(), thread_time() - start))

    def between(self, start: float, end: float) -> list[float]:
        """Loop times of the readings that ended within [start, end].

        Safe while the thread appends: a reversed list iterator walks
        indices fixed when it starts, and append is atomic.
        """
        out = []
        for t, ref in reversed(self.readings):
            if t < start:
                break
            if t <= end:
                out.append(ref)
        return out

    def close(self) -> None:
        self._stop.set()
        self._thread.join()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class UnitClock:
    """Raw and speed-scaled wall time of each unit of one pass.

    The reference loop runs once before the first unit and once after
    every unit; the loop's own time is in neither figure.  Readings of
    the sampler, if given, between a unit's start and end join the two
    loop times at its ends.
    """

    def __init__(self, sampler: SpeedSampler | None = None):
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.reference_total_s = 0.0  # time spent in the loop after each unit
        self._sampler = sampler
        self._ref = reference_s()

    def run(self, fn, *args):
        start = perf_counter()
        out = fn(*args)
        end = perf_counter()
        during = self._sampler.between(start, end) if self._sampler is not None else []
        self.add(end - start, during)
        return out

    def add(self, raw_s: float, during=()) -> None:
        """Record a unit that ended just now and took raw_s."""
        after = reference_s()
        self.reference_total_s += after
        self.raw.append(raw_s)
        self.scaled.append(scale(raw_s, [self._ref, after, *during]))
        self._ref = after
