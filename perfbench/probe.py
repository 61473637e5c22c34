"""CPU speed probe: a fixed stdlib-only kernel sampled on a SIGALRM timer.

The benchmark runs on virtual machines whose CPU speed drifts from second
to second and differs between vCPUs, so raw wall seconds of the same work
can spread by tens of percent.  While a workload runs, :class:`ProbeSampler`
interrupts it every 25 ms and times one call of :func:`kernel`, a fixed
amount of json/dict/str work.

Work is reported in *reference seconds*: the wall time of an interval,
minus the probe time inside it, times ``REF / yardstick``.  ``REF`` is the
yardstick on the reference machine (``perfbench/calibration.json``).  The
yardstick is the trimmed mean of the kernel times taken near the work
(:class:`SpeedMap`, 1-second windows): single kernel times spread widely
(0.8-3 ms on the reference machine), the 10%-trimmed mean of many tracked
the program's speed about twice as closely as their median did, and
per-window yardsticks follow the drift that one yardstick per run
averages away.  The collector is paused while the kernel runs, so the
program's heap size cannot change the kernel's time.

This module must import nothing from ``repro``: optimising the program
must never move the yardstick.  ``perfbench/tests/test_probe.py`` checks
that.
"""

from __future__ import annotations

import bisect
import gc
import json
import signal
import statistics
import time

#: Seconds between probe samples.
INTERVAL = 0.025
#: Share of samples dropped at each end before averaging.
TRIM = 0.1
#: Seconds of work that share one yardstick.
WINDOW = 1.0
#: A window with fewer samples uses the whole interval's yardstick.
MIN_WINDOW_SAMPLES = 20

_RECORDS = [
    {"id": index, "name": f"bot-{index:04d}", "tags": ["music", "moderation", str(index % 7)], "votes": index * 31}
    for index in range(60)
]


def kernel() -> int:
    """One probe unit: serialise, parse, index and rewrite a fixed record set.

    The work is the interpreter-bound mix the program itself does (JSON
    codecs, dict building, string methods), so a slower CPU slows both by
    about the same factor.
    """
    text = json.dumps(_RECORDS, sort_keys=True)
    checksum = 0
    for _ in range(3):
        records = json.loads(text)
        index = {record["name"]: record for record in records}
        for name in sorted(index):
            record = index[name]
            label = "/".join(record["tags"]).upper().replace("O", "0")
            checksum += len(label) + record["votes"] % 97 + name.count("0")
        text = json.dumps([index[name] for name in sorted(index, reverse=True)], sort_keys=True)
    return checksum


def yardstick(durations: list[float]) -> float:
    """The mean kernel time with the slowest and fastest :data:`TRIM` dropped."""
    ordered = sorted(durations)
    cut = int(len(ordered) * TRIM)
    return statistics.fmean(ordered[cut : len(ordered) - cut])


class ProbeSampler:
    """Times :func:`kernel` on every ``SIGALRM`` of an interval timer.

    ``samples`` holds ``(start, duration)`` pairs on the
    :func:`time.perf_counter` clock, which all processes of a host share.
    ``total`` is the cumulative probe time of this process: reading it at
    both ends of an interval gives exactly the probe time that landed
    inside, because the handler runs between bytecodes of the main thread
    and is never split by a reading.
    """

    def __init__(self, interval: float = INTERVAL) -> None:
        self.interval = interval
        self.samples: list[tuple[float, float]] = []
        self.total = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            kernel()
            elapsed = time.perf_counter() - started
        finally:
            if collecting:
                gc.enable()
        self.samples.append((started, elapsed))
        self.total += elapsed

    def reset(self) -> None:
        """Forget every sample, e.g. in a forked child that re-arms."""
        self.samples = []
        self.total = 0.0

    def arm(self) -> "ProbeSampler":
        """Take one sample now and start the timer."""
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def now(self) -> tuple[float, float]:
        """A reading: (wall clock, cumulative probe time)."""
        return time.perf_counter(), self.total

    @staticmethod
    def work_seconds(start: tuple[float, float], end: tuple[float, float]) -> float:
        """Wall seconds between two readings minus the probe time inside them."""
        return (end[0] - start[0]) - (end[1] - start[1])


class SpeedMap:
    """Reference-seconds factors (``REF / yardstick``) over consecutive windows.

    ``samples`` may pool several processes' ``(start, duration)`` pairs;
    ``own`` are the samples of the process whose wall time is converted,
    the only probe time subtracted from it.
    """

    def __init__(self, samples, own, start: float, end: float, ref: float, width: float = WINDOW) -> None:
        self.own = sorted(own)
        count = max(1, round((end - start) / width))
        self.edges = [start + (end - start) * step / count for step in range(count + 1)]
        inside = [duration for at, duration in samples if start <= at < end] or [d for _, d in samples]
        whole = yardstick(inside)
        self.factors = []
        for low, high in zip(self.edges, self.edges[1:]):
            window = [duration for at, duration in samples if low <= at < high]
            self.factors.append(ref / (yardstick(window) if len(window) >= MIN_WINDOW_SAMPLES else whole))

    def factor_at(self, moment: float) -> float:
        index = bisect.bisect_right(self.edges, moment) - 1
        return self.factors[min(max(index, 0), len(self.factors) - 1)]

    def reference_seconds(self) -> float:
        """The whole span's work, window by window, in reference seconds."""
        starts = [at for at, _ in self.own]
        total = 0.0
        for low, high, factor in zip(self.edges, self.edges[1:], self.factors):
            first, last = bisect.bisect_left(starts, low), bisect.bisect_left(starts, high)
            probe = sum(duration for _, duration in self.own[first:last])
            total += (high - low - probe) * factor
        return total
