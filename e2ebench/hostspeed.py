"""Host-speed calibration of the end-to-end times.

The benchmark runs on shared hosts whose CPU speed drifts over seconds
to minutes: on a 2-vCPU host the same simulator run took 7.2 s in one
30 s run and 12.8 s three minutes later, and a fixed pure-Python loop
slowed by the same factor.  Raw wall times then measure the host's
phase, not the program.

So every end-to-end time is reported at a reference speed.  Right
before and right after each timed repeat (and each set-up) the
benchmark times :func:`reference_kernel`, a fixed pure-Python loop of
the interpreter work the program does (small objects, string-keyed
dict updates, a binary heap), and multiplies the repeat's wall times by
``REFERENCE_S`` over the mean of the two kernel times.  A value is the
time the repeat would take on a host where the kernel takes
``REFERENCE_S``: a change to the program moves it, a change of host
speed mostly does not.  The host's speed changes within seconds, so
the kernel is timed next to each repeat rather than once per run: over
eight 30 s runs of ``sim-fig4``, scaling each scheduler run by its
neighbouring kernel times cut the spread of the makespan (IQR over
median) from 0.12 to 0.05, while one factor per run, from the median
of all of the run's kernel times, left it at 0.14.

Each speed sample is the mean of two kernel times: one in the
benchmark's own process and one run on every core at once, in helper
processes (:class:`KernelTimer`), so a sample covers every core the
program may run on over about 0.1 s.  Against each kind of sample
alone (IQR over median across seven 30 s runs, worst end-to-end time):
``wordcount-staggered``, whose process pool uses both cores, 0.081 with
the own kernel, 0.035 with the all-core kernel, 0.054 with their mean;
``service-paced`` 0.096, 0.069, 0.071; ``sim-fig4`` 0.144, 0.226,
0.128.  The mean is never the worst and the only choice that helps
every workload.  The kernel is the benchmark's own
code and touches nothing of the program.
"""

from __future__ import annotations

import gc
import heapq
import multiprocessing
import time
from multiprocessing.connection import Connection

#: Seconds the reference kernel takes at the reference speed (about
#: its time on an idle 2-vCPU Xeon host with Python 3.11).
REFERENCE_S = 0.05
#: Loop rounds of one reference kernel.
ROUNDS = 48_000
_KEYS = tuple(f"key{i}" for i in range(512))
_HEAP_SIZE = 128


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: str, value: int) -> None:
        self.key = key
        self.value = value

    def weight(self) -> int:
        return self.value & 7


def reference_kernel() -> int:
    """A fixed amount of interpreter work; returns a checksum."""
    heap: list[tuple[int, int, _Item]] = []
    counts: dict[str, int] = {}
    total = 0
    for i in range(ROUNDS):
        item = _Item(_KEYS[i * 31 % len(_KEYS)], i * 7919 % 1009)
        counts[item.key] = counts.get(item.key, 0) + item.weight()
        heapq.heappush(heap, (item.value, i, item))
        if len(heap) > _HEAP_SIZE:
            total += heapq.heappop(heap)[2].value
    return total + len(sorted(counts.items()))


def kernel_seconds() -> float:
    """Wall time of one reference kernel, with the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def _kernel_helper(conn: Connection) -> None:
    """Helper process of a :class:`KernelTimer`: one kernel per request."""
    while conn.recv():
        conn.send(kernel_seconds())


class KernelTimer:
    """Samples the host's speed as the reference kernel sees it.

    :meth:`seconds` times the kernel in this process, then in ``width``
    idle helper processes at once, and returns the mean of the own time
    and the helpers' mean time (width 1 starts no helpers and times the
    own kernel only).  :meth:`close` stops and joins the helpers.
    """

    def __init__(self, width: int = 1) -> None:
        self._conns: list[Connection] = []
        self._procs: list[multiprocessing.Process] = []
        if width > 1:
            for _ in range(width):
                ours, theirs = multiprocessing.Pipe()
                proc = multiprocessing.Process(
                    target=_kernel_helper, args=(theirs,), daemon=True)
                proc.start()
                theirs.close()
                self._conns.append(ours)
                self._procs.append(proc)

    def seconds(self) -> float:
        own = kernel_seconds()
        if not self._conns:
            return own
        for conn in self._conns:
            conn.send(True)
        times = [conn.recv() for conn in self._conns]
        return (own + sum(times) / len(times)) / 2.0

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(False)
            except OSError:
                pass
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join()
        for conn in self._conns:
            conn.close()
        self._conns, self._procs = [], []


def scale(before: float, after: float) -> float:
    """Factor that takes wall times measured between two kernel runs,
    ``before`` and ``after`` seconds long, to the reference speed."""
    return REFERENCE_S / ((before + after) / 2.0)
