"""Trace spans: per-request timelines across threads and processes.

A **span** is one timed operation — an HTTP request, a queue wait, a
worker-lane execution, a pipeline pass, a router-profile aggregate —
with an id, a parent id, wall and CPU durations, and JSON-native
attributes.  A **tracer** collects the spans of one trace (one job).

Design constraints, in order:

1. **Disabled mode is free.**  ``span(name)`` at every instrumentation
   site costs one thread-local read and returns a shared no-op handle
   when no tracer is active — no allocation, no lock, no timestamps.
   The overhead gate in ``benchmarks/bench_telemetry.py`` holds this
   to within noise of an uninstrumented build.
2. **Cross-process propagation.**  Spans serialize as plain dicts.  A
   worker process receives ``(trace_id, parent_span_id)``, builds its
   own :class:`Tracer`, and returns ``tracer.export()`` alongside its
   result; the parent adopts the batch with :meth:`Tracer.add_spans`.
   Span ids embed the PID, so batches from different processes never
   collide.
3. **Thread safety without shared stacks.**  The *current-span stack*
   is thread-local (``tracing`` installs it); the tracer itself only
   ever appends finished spans under a lock.  The server handler
   thread and the scheduler dispatcher thread can therefore feed one
   tracer concurrently, each under its own activation.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: Spans retained per trace; a runaway instrumentation site truncates
#: (and flags) rather than holding unbounded memory per job.
MAX_SPANS_PER_TRACE = 4096

_local = threading.local()
_trace_ids = itertools.count(1)
#: Per-process tracer instance counter, folded into span ids so two
#: tracers in one process (e.g. two sweep shards executed by the same
#: pool worker) can never mint colliding ids.
_tracer_seq = itertools.count(1)


def _new_trace_id() -> str:
    return f"t{os.getpid():x}-{next(_trace_ids):04d}"


class Span:
    """One finished-or-running span.  ``to_dict`` is the wire format."""

    __slots__ = (
        "span_id", "parent_id", "name", "start", "wall_seconds",
        "cpu_seconds", "attrs", "_perf0", "_cpu0",
    )

    def __init__(
        self, span_id: str, parent_id: Optional[str], name: str
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = 0.0
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0
        self.attrs: Optional[Dict[str, object]] = None

    def set(self, key: str, value: object) -> "Span":
        """Attach one JSON-safe attribute (lazy dict: most spans carry
        none)."""
        if self.attrs is None:
            self.attrs = {}
        self.attrs[key] = value
        return self

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
        }
        if self.attrs:
            payload["attrs"] = self.attrs
        return payload


class _SpanHandle:
    """Context manager around one live span (allocated only when a
    tracer is active)."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def set(self, key: str, value: object) -> "_SpanHandle":
        self._span.set(key, value)
        return self

    @property
    def span_id(self) -> str:
        return self._span.span_id

    def __enter__(self) -> "_SpanHandle":
        stack = getattr(_local, "span_stack", None)
        if stack is not None:
            stack.append(self._span.span_id)
        self._span.start = time.time()
        self._span._perf0 = time.perf_counter()
        self._span._cpu0 = time.thread_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        span_obj = self._span
        span_obj.wall_seconds = time.perf_counter() - span_obj._perf0
        span_obj.cpu_seconds = time.thread_time() - span_obj._cpu0
        if exc_type is not None:
            span_obj.set("error", f"{exc_type.__name__}: {exc}")
        stack = getattr(_local, "span_stack", None)
        if stack and stack[-1] == span_obj.span_id:
            stack.pop()
        self._tracer._record(span_obj)
        return False


class _NoopSpan:
    """The shared disabled-mode handle: every method is a no-op, and
    one instance serves every call site (zero allocation)."""

    __slots__ = ()

    span_id = None

    def set(self, key: str, value: object) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Collects the spans of one trace (keyed by ``trace_id``)."""

    def __init__(self, trace_id: Optional[str] = None) -> None:
        self.trace_id = trace_id if trace_id else _new_trace_id()
        self._spans: List[Dict[str, object]] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._nonce = next(_tracer_seq)
        self._truncated = 0

    # -- span creation -------------------------------------------------

    def new_span_id(self) -> str:
        # PID + per-process tracer nonce + per-tracer counter: unique
        # across every process and tracer contributing to one trace.
        return f"s{os.getpid():x}.{self._nonce:x}.{next(self._ids):03d}"

    def start_span(
        self, name: str, parent_id: Optional[str] = None
    ) -> _SpanHandle:
        """A live span; parent defaults to the thread's current span."""
        if parent_id is None:
            parent_id = current_span_id()
        return _SpanHandle(self, Span(self.new_span_id(), parent_id, name))

    def add_raw(
        self,
        name: str,
        parent_id: Optional[str],
        start: float,
        wall_seconds: float,
        cpu_seconds: float = 0.0,
        attrs: Optional[Dict[str, object]] = None,
    ) -> str:
        """Record an already-measured span (synthesized timings, e.g.
        the scheduler's queue wait from the job's timestamps)."""
        span_obj = Span(self.new_span_id(), parent_id, name)
        span_obj.start = start
        span_obj.wall_seconds = wall_seconds
        span_obj.cpu_seconds = cpu_seconds
        if attrs:
            span_obj.attrs = dict(attrs)
        self._record(span_obj)
        return span_obj.span_id

    def _record(self, span_obj: Span) -> None:
        with self._lock:
            if len(self._spans) >= MAX_SPANS_PER_TRACE:
                self._truncated += 1
                return
            self._spans.append(span_obj.to_dict())

    # -- cross-process batches ----------------------------------------

    def add_spans(self, spans: Sequence[Dict[str, object]]) -> None:
        """Adopt a serialized batch (a worker's ``export()``)."""
        with self._lock:
            room = MAX_SPANS_PER_TRACE - len(self._spans)
            if room < len(spans):
                self._truncated += len(spans) - max(room, 0)
            self._spans.extend(list(spans)[: max(room, 0)])

    def export(self) -> List[Dict[str, object]]:
        """JSON-native span batch, in completion order."""
        with self._lock:
            return list(self._spans)

    @property
    def truncated(self) -> int:
        return self._truncated


# ----------------------------------------------------------------------
# Thread-local activation
# ----------------------------------------------------------------------


class tracing:
    """Activate ``tracer`` on this thread for the ``with`` body.

    ``parent_id`` seeds the thread's span stack so the first span
    opened inside parents correctly across thread/process handoffs.
    Nested activations restore the previous tracer on exit.  Pass
    ``tracer=None`` for a guaranteed-disabled scope.
    """

    __slots__ = ("_tracer", "_parent", "_prev")

    def __init__(
        self, tracer: Optional[Tracer], parent_id: Optional[str] = None
    ) -> None:
        self._tracer = tracer
        self._parent = parent_id
        self._prev = None

    def __enter__(self) -> Optional[Tracer]:
        self._prev = (
            getattr(_local, "tracer", None),
            getattr(_local, "span_stack", None),
        )
        _local.tracer = self._tracer
        _local.span_stack = (
            [self._parent] if self._parent is not None else []
        )
        return self._tracer

    def __exit__(self, exc_type, exc, tb) -> bool:
        _local.tracer, _local.span_stack = self._prev
        return False


def current_tracer() -> Optional[Tracer]:
    """This thread's active tracer (``None`` when tracing is off)."""
    return getattr(_local, "tracer", None)


def current_span_id() -> Optional[str]:
    """The innermost open span's id on this thread (or the activation
    parent, or ``None``)."""
    stack = getattr(_local, "span_stack", None)
    if stack:
        return stack[-1]
    return None


def span(name: str):
    """A span handle under the thread's active tracer — or the shared
    no-op when tracing is disabled.  The instrumentation-site
    primitive: always safe to call, free when off."""
    tracer = getattr(_local, "tracer", None)
    if tracer is None:
        return NOOP_SPAN
    return tracer.start_span(name)


# ----------------------------------------------------------------------
# Retention + rendering
# ----------------------------------------------------------------------


class TraceStore:
    """Bounded job-id -> tracer retention for ``GET /trace``.

    Holds the :class:`Tracer` itself (not a snapshot) so a trace
    registered at submission renders whatever spans have landed by the
    time it is read — an async (``"wait": false``) job's trace fills
    in as the job progresses.  Memory stays bounded by the trace count
    cap times :data:`MAX_SPANS_PER_TRACE`.
    """

    def __init__(self, max_traces: int = 128) -> None:
        if max_traces < 1:
            raise ValueError("TraceStore needs max_traces >= 1")
        self.max_traces = max_traces
        self._traces: Dict[str, Tuple[Tracer, float]] = {}
        self._order: List[str] = []
        self._lock = threading.Lock()

    def put(self, job_id: str, tracer: Tracer) -> None:
        with self._lock:
            if job_id not in self._traces:
                self._order.append(job_id)
            self._traces[job_id] = (tracer, time.time())
            while len(self._order) > self.max_traces:
                self._traces.pop(self._order.pop(0), None)

    def get(self, job_id: str) -> Optional[Dict[str, object]]:
        with self._lock:
            entry = self._traces.get(job_id)
        if entry is None:
            return None
        tracer, stored_at = entry
        return {
            "job_id": job_id,
            "trace_id": tracer.trace_id,
            "spans": tracer.export(),
            "truncated_spans": tracer.truncated,
            "stored_at": stored_at,
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)


def render_span_tree(spans: Sequence[Dict[str, object]]) -> str:
    """ASCII tree of a span batch (``repro map --trace`` output).

    Children sort by start time under their parent; spans whose parent
    never arrived (e.g. a worker batch lost to a crash) root at the
    top level, so a partial trace still renders.
    """
    by_id = {s["span_id"]: s for s in spans}
    children: Dict[Optional[str], List[Dict[str, object]]] = {}
    for s in spans:
        parent = s.get("parent_id")
        if parent is not None and parent not in by_id:
            parent = None
        children.setdefault(parent, []).append(s)
    for siblings in children.values():
        siblings.sort(key=lambda s: (s.get("start") or 0.0))
    lines: List[str] = []

    def walk(span_obj: Dict[str, object], depth: int) -> None:
        wall = float(span_obj.get("wall_seconds") or 0.0)
        cpu = float(span_obj.get("cpu_seconds") or 0.0)
        line = (
            f"{'  ' * depth}{span_obj['name']:<{max(1, 32 - 2 * depth)}} "
            f"{wall * 1000:9.3f}ms  cpu {cpu * 1000:8.3f}ms"
        )
        attrs = span_obj.get("attrs")
        if attrs:
            rendered = ", ".join(
                f"{key}={value}" for key, value in sorted(attrs.items())
            )
            line += f"  [{rendered}]"
        lines.append(line)
        for child in children.get(span_obj["span_id"], ()):
            walk(child, depth + 1)

    for root in children.get(None, ()):
        walk(root, 0)
    return "\n".join(lines)
