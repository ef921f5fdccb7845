"""CPU-speed calibration.

The machine's speed drifts by tens of percent within a minute, and every
timing in the benchmark drifts with it.  A fixed pure-Python loop, run
next to each measured operation, moves with the same drift; dividing by
it turns seconds into seconds at a fixed reference speed.

The loop does the kind of work the program does: it builds small objects
into a tree, walks it recursively, and builds and sorts a dict of tuples.
Over 10-second windows of a run of the ``coalgebras`` operations whose
raw times ranged over 37%, times divided by this loop ranged over 6%;
divided by a loop of dict updates alone, 13%, and by random lookups in a
large dict, 22%.  The loop touches none of the program's objects and
runs with the garbage collector off, so it costs the same work in every
run.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

# Repetitions of the calibration loop: about 2 ms on a 2020s x86 core.
LOOP_REPEATS = 8

# The loop's time at the reference speed.  Corrected times are the raw
# times scaled to a machine on which one loop takes exactly this long.
REFERENCE_LOOP_S = 0.002


class _Node:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


def _tree(depth: int) -> _Node:
    if depth == 0:
        return _Node(None, None)
    return _Node(_tree(depth - 1), _tree(depth - 1))


def _size(node: _Node) -> int:
    if node.left is None:
        return 1
    return _size(node.left) + _size(node.right)


def _loop(repeats: int) -> int:
    total = 0
    for _ in range(repeats):
        total += _size(_tree(8))
        total += len(sorted({(j % 17, j % 5): j for j in range(200)}.items()))
    return total


def loop_seconds() -> float:
    """Time one calibration loop, with the collector off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _loop(LOOP_REPEATS)
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class Calibrated:
    """Times a sequence of operations, each between two calibration loops.

    ``measure(fn)`` runs ``fn`` and returns ``(result, index)``; after
    the last operation, ``raw(index)`` and ``corrected(index)`` give its
    seconds.  The loop after one operation is the loop before the next.
    An operation is corrected by the median of the loops run within
    ``WINDOW_S`` of it: the drift moves over seconds, while a single 2 ms
    loop also carries the noise of one interrupt.
    """

    WINDOW_S = 0.5

    def __init__(self) -> None:
        self._loop_at = [time.perf_counter()]
        self._loop_s = [loop_seconds()]
        self._raw: list[float] = []

    def measure(self, fn):
        t0 = time.perf_counter()
        result = fn()
        self._raw.append(time.perf_counter() - t0)
        self._loop_at.append(time.perf_counter())
        self._loop_s.append(loop_seconds())
        return result, len(self._raw) - 1

    def raw(self, index: int) -> float:
        return self._raw[index]

    def corrected(self, index: int) -> float:
        first = bisect.bisect_left(self._loop_at, self._loop_at[index] - self.WINDOW_S)
        last = bisect.bisect_right(self._loop_at, self._loop_at[index + 1] + self.WINDOW_S)
        loop = statistics.median(self._loop_s[first:last])
        return self._raw[index] * REFERENCE_LOOP_S / loop
