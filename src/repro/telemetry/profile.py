"""Opt-in router profiling: per-step aggregates for SABRE routing.

The router's inner loop runs tens of thousands of steps per circuit;
per-step spans would drown a trace and the overhead gate.  Instead a
:class:`RouterProfiler` accumulates cheap aggregates across a routing
run:

- **candidate counts** — how many SWAP candidates each search step
  scored (the paper's extended-set/front-layer pressure, per step);
- **winner-tie sizes** — how many candidates tied for best score
  before the random tie-break (large ties mean the cost function is
  flat and seed-sensitivity is high, cf. Steinberg et al. §IV);
- **scorer time** — seconds inside the candidate scorer
  (``score_scalar``, or ``score_full`` on an asymmetric matrix:
  ``scalar_seconds``/``scalar_calls``), separating "thinking" from
  bookkeeping;
- **bounded candidates** — how many scored candidates the delta
  scorer's look-ahead lower bound rejected without walking their
  look-ahead partners (``bounded_total``, at most ``candidates_total``).

Activation mirrors the tracer: thread-local, via
:func:`profiled_routing`.  The router checks
:func:`active_router_profiler` **once per run** and keeps the result
in a local, so the disabled path costs one thread-local read per
routing call — not per step.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

_local = threading.local()


class RouterProfiler:
    """Aggregate router-step statistics for one profiling scope.

    Not thread-safe by design: each activation is thread-local, and
    parallel trial executors profile (if at all) inside the worker
    that owns the run.  Merge across workers with :meth:`merge`.
    """

    __slots__ = (
        "steps", "candidates_total", "candidates_max", "tie_total",
        "tie_max", "scalar_seconds", "scalar_calls", "bounded_total",
    )

    def __init__(self) -> None:
        self.steps = 0
        self.candidates_total = 0
        self.candidates_max = 0
        self.tie_total = 0
        self.tie_max = 0
        self.scalar_seconds = 0.0
        self.scalar_calls = 0
        self.bounded_total = 0

    # -- hot hooks (router inner loop) --------------------------------

    def record_step(
        self, candidates: int, tie_size: int, bounded: int = 0
    ) -> None:
        """One routing search step.  ``candidates`` < 0 means the call
        site could not count them cheaply (recorded as a step, skipped
        in candidate stats); ``tie_size`` < 1 likewise.  ``bounded`` is
        how many of the candidates the look-ahead bound skipped."""
        self.steps += 1
        self.bounded_total += bounded
        if candidates >= 0:
            self.candidates_total += candidates
            if candidates > self.candidates_max:
                self.candidates_max = candidates
        if tie_size >= 1:
            self.tie_total += tie_size
            if tie_size > self.tie_max:
                self.tie_max = tie_size

    def add_scalar(self, seconds: float) -> None:
        """Time spent inside one scoring call."""
        self.scalar_seconds += seconds
        self.scalar_calls += 1

    @property
    def scoring_seconds(self) -> float:
        """Scoring time (a ``router.profile`` span's wall time)."""
        return self.scalar_seconds

    # -- aggregation ---------------------------------------------------

    def merge(self, other: "RouterProfiler") -> None:
        self.steps += other.steps
        self.candidates_total += other.candidates_total
        self.candidates_max = max(self.candidates_max, other.candidates_max)
        self.tie_total += other.tie_total
        self.tie_max = max(self.tie_max, other.tie_max)
        self.scalar_seconds += other.scalar_seconds
        self.scalar_calls += other.scalar_calls
        self.bounded_total += other.bounded_total

    def merge_dict(self, payload: Dict[str, object]) -> None:
        """Merge a :meth:`to_dict` payload (cross-process batches)."""
        other = RouterProfiler()
        other.steps = int(payload.get("steps", 0))
        other.candidates_total = int(payload.get("candidates_total", 0))
        other.candidates_max = int(payload.get("candidates_max", 0))
        other.tie_total = int(payload.get("tie_total", 0))
        other.tie_max = int(payload.get("tie_max", 0))
        other.scalar_seconds = float(payload.get("scalar_seconds", 0.0))
        other.scalar_calls = int(payload.get("scalar_calls", 0))
        other.bounded_total = int(payload.get("bounded_total", 0))
        self.merge(other)

    def to_dict(self) -> Dict[str, object]:
        """JSON-native aggregate (span attrs / cross-process wire)."""
        payload: Dict[str, object] = {
            "steps": self.steps,
            "candidates_total": self.candidates_total,
            "candidates_max": self.candidates_max,
            "tie_total": self.tie_total,
            "tie_max": self.tie_max,
            "scalar_seconds": round(self.scalar_seconds, 6),
            "scalar_calls": self.scalar_calls,
            "bounded_total": self.bounded_total,
        }
        if self.steps:
            payload["candidates_mean"] = round(
                self.candidates_total / self.steps, 3
            )
            payload["tie_mean"] = round(self.tie_total / self.steps, 3)
        return payload

    @property
    def empty(self) -> bool:
        return self.steps == 0 and self.scalar_calls == 0


def active_router_profiler() -> Optional[RouterProfiler]:
    """The profiler active on this thread, or ``None``.  Routers call
    this once per ``run()`` and branch on the cached result."""
    return getattr(_local, "profiler", None)


class profiled_routing:
    """Activate a :class:`RouterProfiler` on this thread.

    ``with profiled_routing() as prof:`` — every router run inside the
    body accumulates into ``prof``.  Nested scopes shadow (and restore)
    the outer profiler.
    """

    __slots__ = ("_profiler", "_prev")

    def __init__(self, profiler: Optional[RouterProfiler] = None) -> None:
        self._profiler = profiler if profiler is not None else RouterProfiler()
        self._prev = None

    def __enter__(self) -> RouterProfiler:
        self._prev = getattr(_local, "profiler", None)
        _local.profiler = self._profiler
        return self._profiler

    def __exit__(self, exc_type, exc, tb) -> bool:
        _local.profiler = self._prev
        return False
