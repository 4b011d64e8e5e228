"""Machine-speed calibration: times are reported at a reference speed.

The sandbox this benchmark was sized on is a shared 2-vCPU VM whose
speed wanders: the same operation takes 1.4x longer for minutes at a
time, CPU seconds inflating along with wall seconds (so it is slower
execution, not stolen time).  Ten-second medians of one fixed operation
then spread by 16% of their median (max/min 1.45), which no bound of
25% or less survives, and longer runs do not fit the run budget.

So the measured subprocess times a fixed kernel — plain Python over a
heap of its own, nothing of the program — every ``INTERVAL_S`` between
operations, and divides each operation's seconds by how slow the kernel
ran around it, relative to ``REFERENCE_S``.  On the data above that
cuts the spread to 6.5% (max/min 1.2); over ten runs of
``serve_stream_pipelined`` in a bad quarter of an hour, from 23-36% to
6-8%.  In a quiet one it adds a few percent of its own noise, which is
the price.  The kernel walks a shuffled
heap of tuples and updates a dict and a set, so it feels cache and
memory contention as the interpreter running the program does; a
cache-resident loop alone tracked the slowdowns worse (spread 9.8%).

The kernel runs in a helper process of its own, while the measured
process waits for it.  Inside the measured process it read 25% slower
after an operation that forks a worker pool (write-protected pages)
than after one that does not: the yardstick must not depend on what the
program just did, or a change to the program would move it.  A helper
also keeps the kernel's heap out of ``peak_rss_mb`` and its garbage out
of the program's collector.

``speed_factor`` (the median scale applied; 1.0 = reference speed) is
stored beside every result, so wall times as the clock read them are
``reported x factor``.
"""

from __future__ import annotations

import bisect
import random
import statistics
import subprocess
import sys
import time
from typing import List

#: kernel seconds at reference speed (the sizing machine's usual pace)
REFERENCE_S = 0.01
#: seconds between kernel samples during set-up and the measured phase
INTERVAL_S = 0.125
#: an operation is scaled by the median sample this close to it: one
#: sample is too noisy a yardstick (15% spread), the machine's pace
#: changes over tens of seconds
WINDOW_S = 2.0
HEAP_ITEMS = 100_000
STEPS = 12_500


def serve_kernel() -> None:
    """Helper process: one kernel timing per line read from stdin."""
    heap = [(i, str(i), float(i)) for i in range(HEAP_ITEMS)]
    order = list(range(HEAP_ITEMS))
    random.Random(0).shuffle(order)
    cursor = 0
    print("ready", flush=True)
    for _ in sys.stdin:
        steps = order[cursor:cursor + STEPS]
        cursor = (cursor + STEPS) % HEAP_ITEMS
        # two passes over the same steps, the second one timed: the
        # first refills the caches the program's last operation emptied
        for _ in range(2):
            counts: dict = {}
            seen = set()
            started = time.perf_counter()
            for j in steps:
                item = heap[j]
                key = item[0] & 0x3FF
                counts[key] = counts.get(key, 0) + 1
                seen.add(item[1])
            seconds = time.perf_counter() - started
        print(repr(seconds), flush=True)


class Calibrator:
    """Samples the kernel; answers how slow the machine ran over a span."""

    def __init__(self) -> None:
        self._helper = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, bufsize=1,
        )
        self._times: List[float] = []  # when each sample was taken
        self._seconds: List[float] = []  # how long the kernel took
        #: seconds the measured process waited here, not in the program:
        #: subtracted from set-up
        self.spent = 0.0

    def sample(self, count: int = 1) -> None:
        started = time.perf_counter()
        if not self._times:
            self._helper.stdout.readline()  # "ready": the heap is built
        for _ in range(count):
            self._times.append(time.perf_counter())
            self._helper.stdin.write("\n")
            self._seconds.append(float(self._helper.stdout.readline()))
        self.spent += time.perf_counter() - started

    def tick(self) -> None:
        """Sample if the last sample is older than ``INTERVAL_S``."""
        if time.perf_counter() - self._times[-1] >= INTERVAL_S:
            self.sample()

    def factor(self, started: float, ended: float) -> float:
        """Kernel slowness around [started, ended], over the reference:
        the median sample within ``WINDOW_S`` of it."""
        low = max(bisect.bisect_left(self._times, started - WINDOW_S) - 1, 0)
        high = bisect.bisect_right(self._times, ended + WINDOW_S) + 1
        return statistics.median(self._seconds[low:high]) / REFERENCE_S

    def close(self) -> None:
        """Stop the helper and wait until it has ended."""
        self._helper.stdin.close()
        self._helper.wait()
        self._helper.stdout.close()


if __name__ == "__main__":
    serve_kernel()
