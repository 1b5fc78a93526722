"""A fixed reference task that measures how fast the host runs right now.

A shared host goes through slow and fast phases that last minutes, so a
compile time read on its own says as much about the neighbours as about
the program.  The reference task does the same kind of work as the
router -- interpreter-bound graph walks over small lists and dicts, and
small numpy gathers and reductions -- but uses no code of the program,
so a change to the program cannot move it.  Timing it next to each
compile and dividing one by the other cancels the host's phase.
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from typing import Callable

import numpy

_SIDE = 16
_NODES = _SIDE * _SIDE


def _grid():
    adj = [[] for _ in range(_NODES)]
    for r in range(_SIDE):
        for c in range(_SIDE):
            v = r * _SIDE + c
            if c + 1 < _SIDE:
                adj[v].append(v + 1)
                adj[v + 1].append(v)
            if r + 1 < _SIDE:
                adj[v].append(v + _SIDE)
                adj[v + _SIDE].append(v)
    return adj


_ADJ = _grid()
_IDX = numpy.arange(_NODES * 4, dtype=numpy.int64) * 7 % _NODES
_CUTS = numpy.arange(0, _IDX.size, 4)


def _work() -> int:
    total = 0
    for source in range(_NODES):
        dist = {source: 0}
        queue = deque([source])
        while queue:
            v = queue.popleft()
            d = dist[v] + 1
            for w in _ADJ[v]:
                if w not in dist:
                    dist[w] = d
                    queue.append(w)
        row = numpy.fromiter(dist.values(), dtype=numpy.int64, count=_NODES)
        total += int(numpy.add.reduceat(row.take(_IDX), _CUTS).max())
    return total


#: The reference task's time on a quiet 2-vCPU x86-64 host (Python
#: 3.11, numpy 2): calibrated times read as seconds on such a host.
REFERENCE_S = 0.018


def reference_seconds(reps: int = 3) -> float:
    """The best of ``reps`` timings of the reference task."""
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - start)
    return best


def calibrated(seconds: float, reference: float) -> float:
    """``seconds`` measured next to a ``reference`` timing, rescaled to
    the host :data:`REFERENCE_S` describes."""
    return seconds / reference * REFERENCE_S


def calibrated_median(fn: Callable[[], object], reps: int) -> float:
    """Median time of ``reps`` calls of ``fn``, calibrated by the median
    of reference timings taken between the calls."""
    times, references = [], []
    for _ in range(reps):
        references.append(reference_seconds())
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return calibrated(statistics.median(times),
                      statistics.median(references))
