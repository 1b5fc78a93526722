"""Process-backed worker lanes: the service's execution tier.

The PR 5 scheduler ran compiles on its own worker *threads*, so under
concurrent non-identical load the server was GIL-serialized —
effectively single-core no matter how many workers it advertised.
This module gives each scheduler dispatcher a :class:`WorkerLane`: a
single-process :class:`~concurrent.futures.ProcessPoolExecutor` that
executes :func:`repro.service.request.execute_request` outside the
server's GIL.  N dispatchers × one lane each = N truly parallel
compiles on a multicore host.

One process per lane (rather than one shared N-process pool) buys the
properties a serving tier needs and a shared pool cannot give:

- **failure isolation** — a worker process that dies (OOM kill,
  segfault in an extension, ``os._exit``) breaks *its own* lane's pool
  only; the job it was running fails, the lane rebuilds, and sibling
  lanes never notice.  A shared ``ProcessPoolExecutor`` marks itself
  broken and fails every queued future on the first crash.
- **enforceable timeouts and cancellation** — a lane can terminate its
  process to stop a runaway or cancelled compile immediately; a shared
  pool cannot kill one worker without poisoning the rest.

The pickling discipline is the trial engine's
(:mod:`repro.engine.trials` / :mod:`repro.engine.batch`): requests
travel as plain dataclasses of primitives, circuits as the already
parsed :class:`~repro.circuits.circuit.QuantumCircuit`, pipelines by
*preset name*, and results come back as the JSON-native
:class:`~repro.service.store.StoredResult` — no live objects, locks,
or sockets ever cross the process boundary.  Each worker process warms
its own engine cache (device matrices, compile-once flat IR), so a
lane lowers any given circuit/device at most once regardless of how
many jobs it executes.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional

from repro.engine.shared import resolve_mp_context
from repro.exceptions import ReproError
from repro.service import faults

#: Seconds a freshly built lane waits for its worker process to prove
#: it survived fork/spawn bootstrap before recycling it.  Normal
#: startup is milliseconds (fork) to a few seconds (spawn cold
#: import); a worker that stays silent this long is wedged.
WORKER_READY_TIMEOUT = 20.0

#: How often a waiting lane re-checks its worker process while blocked
#: on a job future, and how long a dead worker may stay undetected by
#: its pool before the lane declares the crash itself.
WORKER_POLL_SECONDS = 0.25
MISSED_DEATH_GRACE_SECONDS = 1.0

#: Serializes worker-process forks across lanes.  ``fork``-context
#: children inherit every fd open in the parent at fork time; two
#: lanes forking concurrently can interleave inside the window where a
#: sibling's sentinel pipe exists but its child end is not yet closed.
#: The long-lived winner then holds a copy of the loser's sentinel
#: write-end, so when the loser's worker later dies its pool never
#: sees sentinel EOF and never breaks the in-flight future — a
#: permanent hang.  One fork at a time closes the window.
_SPAWN_LOCK = threading.Lock()


class WorkerCrashed(ReproError):
    """The lane's worker process died mid-job (not a Python exception
    inside the compile — those travel back normally)."""


class LaneStartupError(WorkerCrashed):
    """The lane's worker process never finished bootstrapping.

    Forking a worker while other threads run (dispatchers, sibling
    pools' manager and queue-feeder threads) can leave the child
    holding a copy of a lock some other parent thread held at fork
    time; the child then deadlocks before it ever reads the call
    queue.  CPython's on-demand-spawn fix (gh-90622) only guards
    against the executor's *own* threads, so the hazard is inherent
    to rebuilding fork-context pools in a threaded server.  The lane
    watchdog converts it from a permanent hang into this error — a
    crash for retry purposes, but never charged to the job's poison
    count (the job's code was never reached)."""


class JobTimeout(ReproError):
    """The job exceeded its deadline; the lane's process was recycled."""


class QueueFullError(ReproError):
    """Admission rejected: the scheduler's queue is at capacity.

    Carries ``retry_after`` (seconds, an estimate from queue depth and
    recent execution times) for the HTTP layer's ``Retry-After``
    header on the 429 response.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        self.retry_after = retry_after
        super().__init__(message)


def apply_worker_fault(token: Optional[str], hard: bool) -> None:
    """The ``worker.execute`` injection seam, shared by both tiers.

    ``token`` is the job fingerprint *plus the attempt number*, so an
    injected crash is transient — the retry's token differs and can
    pass.  ``hard=True`` (inside a worker process) makes ``crash`` a
    real process death (``os._exit``), exactly what an OOM kill or
    segfault looks like from outside; ``hard=False`` (thread tier)
    raises :class:`WorkerCrashed` instead, since exiting would take
    the whole server down.  No-op without an active fault plan.
    """
    rule = faults.maybe_inject(faults.SITE_WORKER, token=token)
    if rule is None:
        return
    if rule.kind == "crash":
        if hard:
            os._exit(13)
        raise WorkerCrashed(
            f"injected worker crash (token {token!r})"
        )
    if rule.kind == "hang":
        time.sleep(rule.param if rule.param > 0 else 3600.0)
    elif rule.kind == "slow":
        time.sleep(rule.param)


def _signal_ready(event) -> None:
    """Pool initializer: the worker announces it survived bootstrap.

    Runs in the worker process right after fork/spawn, before any job.
    A worker stuck in the fork-with-threads deadlock (see
    :class:`LaneStartupError`) never reaches this, which is exactly
    how the lane watchdog detects it.  Also arms ``SIGUSR1`` to dump
    the worker's Python stack to stderr — the operator's (and test
    harness's) window into a wedged worker — and ties the worker's life
    to the server's (:func:`_exit_with_parent`).
    """
    try:
        import faulthandler
        import signal as _signal

        faulthandler.register(_signal.SIGUSR1, all_threads=True)
    except (ImportError, AttributeError, ValueError, OSError):
        pass  # platform without SIGUSR1 / closed stderr: diagnostics only
    _exit_with_parent()
    event.set()


def _exit_with_parent() -> None:
    """Exit this worker as soon as the process that started it dies.

    A server killed with ``SIGKILL`` runs no cleanup, and its lane
    workers would live on as orphans.  A forked one also holds every
    descriptor the server had, the listening socket included, so a
    client that connects after the kill is queued on a socket nobody
    serves and waits out its whole timeout instead of failing fast.  A
    daemon thread waits on the parent's sentinel (readable once the
    parent is gone) and ends the process with ``os._exit``.
    """
    parent = multiprocessing.parent_process()
    if parent is None:
        return
    sentinel = parent.sentinel

    def watch() -> None:
        multiprocessing.connection.wait([sentinel])
        os._exit(1)

    threading.Thread(
        target=watch, name="repro-lane-parent-watch", daemon=True
    ).start()


def _fail_pending_futures(pool: ProcessPoolExecutor, reason: str) -> None:
    """Resolve any still-pending work-item futures on a discarded pool.

    Normally the executor's manager thread fails these itself when it
    notices the worker died — but a leaked sentinel fd (see
    ``_SPAWN_LOCK``) leaves it blind: the worker's death never reads
    as EOF, the manager stays parked in ``select`` forever, and the
    future never resolves.  Worse, ``shutdown(cancel_futures=True)``
    cannot cancel a *running* future, so the manager would loop with
    pending items for good and hang interpreter exit on its atexit
    join.  Failing the futures here lets callers unblock and the
    manager drain regardless.  Racing the manager is safe: both sides
    ``pop`` before resolving, so each future is settled exactly once.
    """
    items = getattr(pool, "_pending_work_items", None)
    if not items:
        return
    for work_id in list(items):
        item = items.pop(work_id, None)
        if item is None:
            continue
        try:
            if not item.future.done():
                item.future.set_exception(BrokenProcessPool(reason))
        except Exception:  # pragma: no cover — manager resolved it first
            pass


def _execute_in_process(compile_fn: Callable, request, circuit, key,
                        fault_token=None, trial_jobs=None, trace_ctx=None):
    """Worker-process entry point (module-level so it pickles).

    ``compile_fn`` travels by reference (production:
    :func:`repro.service.request.execute_request`); the request,
    circuit, and fingerprint are the exact payload the thread tier
    hands its in-process executor.  ``fault_token`` keys the
    ``worker.execute`` injection seam; fault plans reach spawned
    workers via the ``REPRO_FAULT_PLAN`` environment variable.
    ``trial_jobs`` (the lane's multi-core sweep grant) is forwarded
    only when set, so injected ``compile_fn`` stand-ins without the
    parameter keep working on default-configured lanes.

    ``trace_ctx`` — ``(trace_id, parent_span_id, profile?)`` — carries
    trace collection across the process boundary.  When set, the
    worker builds its own tracer, records a ``worker.compile`` span
    (and, with ``profile``, router-step aggregates) plus every
    pipeline-pass span under the scheduler's parent span, and the
    return value becomes ``(result, serialized_span_batch)``.  When
    ``None`` (the untraced fast path and every pre-telemetry caller)
    the return value is the bare result, unchanged.
    """
    apply_worker_fault(fault_token, hard=True)
    if trace_ctx is None:
        if trial_jobs is None:
            return compile_fn(request, circuit=circuit, key=key)
        return compile_fn(request, circuit=circuit, key=key,
                          trial_jobs=trial_jobs)
    from repro.telemetry.profile import profiled_routing
    from repro.telemetry.trace import Tracer, span, tracing

    trace_id, parent_id, profile = trace_ctx
    tracer = Tracer(trace_id)
    with tracing(tracer, parent_id=parent_id):
        with span("worker.compile") as compile_span:
            compile_span.set("pid", os.getpid())
            if profile:
                with profiled_routing() as profiler:
                    if trial_jobs is None:
                        result = compile_fn(request, circuit=circuit, key=key)
                    else:
                        result = compile_fn(request, circuit=circuit,
                                            key=key, trial_jobs=trial_jobs)
                if not profiler.empty:
                    tracer.add_raw(
                        "router.profile",
                        compile_span.span_id,
                        start=time.time(),
                        wall_seconds=profiler.scoring_seconds,
                        attrs=profiler.to_dict(),
                    )
            elif trial_jobs is None:
                result = compile_fn(request, circuit=circuit, key=key)
            else:
                result = compile_fn(request, circuit=circuit, key=key,
                                    trial_jobs=trial_jobs)
    return result, tracer.export()


class WorkerLane:
    """One dispatcher's private single-process executor.

    The pool is built lazily (first job) and rebuilt after any crash,
    timeout, or kill — a lane is never left broken.  ``kill`` is safe
    to call from another thread while ``run`` blocks on the future:
    terminating the process breaks the pool, ``run`` observes
    :class:`BrokenProcessPool`, and the *caller* classifies it as a
    cancellation (it asked) or a crash (it didn't).
    """

    def __init__(
        self,
        compile_fn: Callable,
        mp_context: Optional[multiprocessing.context.BaseContext] = None,
        ready_timeout: float = WORKER_READY_TIMEOUT,
        trial_jobs: Optional[int] = None,
    ) -> None:
        self.compile_fn = compile_fn
        #: Cores granted to each compile's best-of-K trial fan-out
        #: (``None`` keeps the serial in-worker sweep).
        self.trial_jobs = trial_jobs
        self.mp_context = (
            mp_context if mp_context is not None else resolve_mp_context()
        )
        self.ready_timeout = ready_timeout
        self._lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._ready = None
        self._ready_confirmed = False
        #: Lifetime count of pool rebuilds after crash/timeout/kill.
        self.restarts = 0

    # ------------------------------------------------------------------

    def run(
        self,
        request,
        circuit,
        key,
        timeout: Optional[float] = None,
        fault_token: Optional[str] = None,
        trace_ctx=None,
    ):
        """Execute one job in the lane's process; block for the result.

        Raises :class:`JobTimeout` after ``timeout`` seconds (the
        worker process is terminated and the pool rebuilt lazily) and
        :class:`WorkerCrashed` if the process dies.  Exceptions raised
        *inside* the compile propagate unchanged, exactly like the
        thread tier.  ``fault_token`` keys the in-worker injection
        seam (chaos testing; ``None`` outside fault runs).

        ``trace_ctx`` (``(trace_id, parent_span_id, profile?)``) ships
        trace collection into the worker; when set, the return value
        is ``(result, serialized_span_batch)`` — see
        :func:`_execute_in_process`.
        """
        with self._lock:
            fresh = self._pool is None or not self._ready_confirmed
        if fresh:
            # A fresh pool forks its worker inside the first submit;
            # serialize that window across lanes (see _SPAWN_LOCK).
            _SPAWN_LOCK.acquire()
        try:
            with self._lock:
                if self._pool is None:
                    self._ready = self.mp_context.Event()
                    self._ready_confirmed = False
                    self._pool = ProcessPoolExecutor(
                        max_workers=1,
                        mp_context=self.mp_context,
                        initializer=_signal_ready,
                        initargs=(self._ready,),
                    )
                pool = self._pool
                ready = self._ready
                confirmed = self._ready_confirmed
                try:
                    future = pool.submit(
                        _execute_in_process,
                        self.compile_fn,
                        request,
                        circuit,
                        key,
                        fault_token,
                        self.trial_jobs,
                        trace_ctx,
                    )
                except BrokenProcessPool as exc:
                    self._discard_pool(pool)
                    raise WorkerCrashed(
                        f"worker pool broken: {exc}"
                    ) from None
        finally:
            if fresh:
                _SPAWN_LOCK.release()
        if not confirmed:
            # Startup watchdog: the first job on a fresh pool also
            # proves the worker process came up at all.  A silent
            # worker is wedged (fork-with-threads deadlock, see
            # LaneStartupError) — recycle it rather than blocking this
            # dispatcher forever.
            if ready is not None and not ready.wait(self.ready_timeout):
                self.kill()
                raise LaneStartupError(
                    f"worker process failed to start within "
                    f"{self.ready_timeout:.0f}s; process recycled"
                )
            with self._lock:
                if self._pool is pool:
                    self._ready_confirmed = True
        # Liveness-checking wait.  A plain blocking ``result()`` trusts
        # the pool's manager thread to notice the worker's death — but
        # a sentinel fd leaked into a sibling's child (see _SPAWN_LOCK)
        # blinds it permanently.  Short polls let the lane observe the
        # dead process itself and convert the miss into an ordinary
        # crash instead of an unbounded hang.
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        dead_since = None
        while True:
            wait = WORKER_POLL_SECONDS
            if deadline is not None:
                wait = min(wait, deadline - time.monotonic())
            try:
                return future.result(timeout=max(wait, 0.001))
            except FutureTimeoutError:
                if deadline is not None and time.monotonic() >= deadline:
                    self.kill()
                    raise JobTimeout(
                        f"compile exceeded its {timeout:.3f}s deadline; "
                        "worker process recycled"
                    ) from None
                procs = list(getattr(pool, "_processes", {}).values())
                if procs and not any(p.is_alive() for p in procs):
                    if dead_since is None:
                        dead_since = time.monotonic()
                    elif (time.monotonic() - dead_since
                          >= MISSED_DEATH_GRACE_SECONDS):
                        with self._lock:
                            self._discard_pool(pool)
                        raise WorkerCrashed(
                            "worker process died but its pool never "
                            "noticed (leaked sentinel fd); pool recycled"
                        ) from None
                else:
                    dead_since = None
            except BrokenProcessPool as exc:
                with self._lock:
                    self._discard_pool(pool)
                raise WorkerCrashed(
                    f"worker process died mid-compile: {exc}"
                ) from None

    def pids(self) -> List[int]:
        """PIDs of the lane's live worker processes (shutdown-hygiene
        assertions: after ``shutdown`` these must all be gone)."""
        with self._lock:
            pool = self._pool
            if pool is None:
                return []
            return [
                process.pid
                for process in getattr(pool, "_processes", {}).values()
                if process.pid is not None and process.is_alive()
            ]

    def kill(self) -> None:
        """Terminate the lane's worker process (cancellation/timeout).

        The in-flight future (if any) fails with ``BrokenProcessPool``;
        the next ``run`` builds a fresh pool.
        """
        with self._lock:
            pool = self._pool
            if pool is None:
                return
            # Private-attribute access is deliberate: ProcessPoolExecutor
            # offers no public way to stop a running call, and letting
            # an abandoned compile burn a core to completion defeats
            # cancellation.  Guarded so a stdlib layout change degrades
            # to "result discarded" instead of crashing the server.
            for process in list(getattr(pool, "_processes", {}).values()):
                try:
                    process.terminate()
                except OSError:  # pragma: no cover — already gone
                    pass
            self._discard_pool(pool)

    def shutdown(self) -> None:
        """Dispose of the pool at scheduler shutdown (idempotent).

        Terminates any still-live worker process first:
        ``pool.shutdown(wait=False)`` alone would leave a hung or
        mid-compile worker running as an orphan after the scheduler is
        gone — the exact leak chaos shutdown tests assert against.
        """
        with self._lock:
            pool = self._pool
            self._pool = None
        if pool is not None:
            for process in list(getattr(pool, "_processes", {}).values()):
                try:
                    process.terminate()
                except OSError:  # pragma: no cover — already gone
                    pass
            _fail_pending_futures(pool, "worker pool shut down")
            pool.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------

    def _discard_pool(self, pool: ProcessPoolExecutor) -> None:
        """Drop ``pool`` (lock held by caller or irrelevant) and count
        the restart the next ``run`` will perform."""
        if self._pool is pool:
            self._pool = None
            self.restarts += 1
        _fail_pending_futures(pool, "worker pool discarded")
        pool.shutdown(wait=False, cancel_futures=True)
