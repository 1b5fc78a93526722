"""CoalescingScheduler: dedup, priorities, batching, failure handling.

The acceptance-critical property lives here: N concurrent identical
submissions trigger exactly ONE pipeline execution, and a repeat of an
already-stored request runs zero.
"""

import threading
import time

import pytest

from repro.exceptions import ReproError
from repro.service.request import CompileRequest
from repro.service.scheduler import CoalescingScheduler
from repro.service.store import ResultStore, StoredResult
from repro.service.workers import QueueFullError

QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
creg c[4];
h q[0];
cx q[0], q[3];
cx q[1], q[2];
measure q -> c;
"""


def request(seed: int = 0) -> CompileRequest:
    return CompileRequest.from_payload({"qasm": QASM, "seed": seed, "trials": 1})


class CountingCompiler:
    """Injectable compile_fn: counts executions, optionally stalls."""

    def __init__(self, delay: float = 0.0, fail: bool = False):
        self.delay = delay
        self.fail = fail
        self.executions = 0
        self._lock = threading.Lock()
        self.release = threading.Event()
        self.release.set()

    def __call__(
        self, req: CompileRequest, circuit=None, key=None
    ) -> StoredResult:
        with self._lock:
            self.executions += 1
        self.release.wait(5)
        if self.delay:
            time.sleep(self.delay)
        if self.fail:
            raise ReproError("injected compile failure")
        return StoredResult(
            key=key or req.fingerprint(),
            routed_qasm="OPENQASM 2.0;\n",
            properties={"pass_timings": [["FakePass", 0.001]]},
            request=req.summary(),
        )


class TestCoalescing:
    def test_concurrent_identical_requests_run_once(self):
        """N racing identical submissions -> exactly one execution."""
        compiler = CountingCompiler()
        compiler.release.clear()  # hold the worker so submissions race
        scheduler = CoalescingScheduler(
            store=ResultStore(), workers=2, compile_fn=compiler
        )
        try:
            jobs = []
            submit_errors = []

            def submit():
                try:
                    jobs.append(scheduler.submit(request()))
                except BaseException as exc:  # pragma: no cover
                    submit_errors.append(exc)

            threads = [threading.Thread(target=submit) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert submit_errors == []
            compiler.release.set()
            for job in jobs:
                scheduler.wait(job, timeout=10)
            assert compiler.executions == 1
            assert len({job.id for job in jobs}) == 1  # one shared job
            stats = scheduler.stats()
            assert stats["executions"] == 1
            assert stats["coalesced"] == 7
            assert stats["submitted"] == 8
        finally:
            scheduler.shutdown()

    def test_repeat_after_completion_is_store_answered(self):
        compiler = CountingCompiler()
        scheduler = CoalescingScheduler(
            store=ResultStore(), workers=1, compile_fn=compiler
        )
        try:
            first = scheduler.wait(scheduler.submit(request()), timeout=10)
            assert not first.cached
            second = scheduler.submit(request())
            assert second.cached
            assert second.state == "done"
            assert second.result.key == first.result.key
            assert compiler.executions == 1
            assert scheduler.stats()["store_answered"] == 1
        finally:
            scheduler.shutdown()

    def test_identical_resubmission_is_not_parsed_again(self, monkeypatch):
        """A byte-identical resubmission finds its fingerprint by the
        request's raw digest: a store hit parses nothing, and a store
        miss parses once to hand the worker its circuit."""
        parses = []
        parse = CompileRequest.parsed_circuit

        def counted(self):
            parses.append(self.seed)
            return parse(self)

        monkeypatch.setattr(CompileRequest, "parsed_circuit", counted)
        compiler = CountingCompiler()
        store = ResultStore()
        scheduler = CoalescingScheduler(
            store=store, workers=1, compile_fn=compiler
        )
        try:
            first = scheduler.wait(scheduler.submit(request()), timeout=10)
            assert parses == [0]
            second = scheduler.submit(request())
            assert second.cached
            assert second.result.key == first.result.key
            assert parses == [0]
            scheduler.submit(request(seed=1))
            assert parses == [0, 1]
            store.clear_memory()
            third = scheduler.wait(scheduler.submit(request()), timeout=10)
            assert not third.cached
            assert third.result.key == first.result.key
            assert parses == [0, 1, 0]
            assert compiler.executions == 3
        finally:
            scheduler.shutdown()

    def test_different_seeds_do_not_coalesce(self):
        compiler = CountingCompiler()
        scheduler = CoalescingScheduler(
            store=ResultStore(), workers=2, compile_fn=compiler
        )
        try:
            jobs = [scheduler.submit(request(seed)) for seed in range(3)]
            for job in jobs:
                scheduler.wait(job, timeout=10)
            assert compiler.executions == 3
        finally:
            scheduler.shutdown()


class TestPrioritiesAndBatch:
    def test_higher_priority_runs_first(self):
        order = []
        order_lock = threading.Lock()
        started = threading.Event()  # the blocker reached the worker
        gate = threading.Event()  # release the blocker

        def recording_compiler(
            req: CompileRequest, circuit=None, key=None
        ) -> StoredResult:
            if req.seed == 99:
                started.set()
                gate.wait(5)  # hold the worker until the rest is queued
            with order_lock:
                order.append(req.seed)
            return StoredResult(
                key=key or req.fingerprint(),
                routed_qasm="OPENQASM 2.0;\n",
                request=req.summary(),
            )

        scheduler = CoalescingScheduler(
            store=ResultStore(), workers=1, compile_fn=recording_compiler
        )
        try:
            # Occupy the single worker so queued priorities are honoured.
            blocker = scheduler.submit(request(99))
            assert started.wait(5)
            low = scheduler.submit(request(1), priority=0)
            high = scheduler.submit(request(2), priority=10)
            mid = scheduler.submit(request(3), priority=5)
            gate.set()
            for job in (blocker, low, high, mid):
                scheduler.wait(job, timeout=10)
            assert order[0] == 99  # the blocker was already running
            assert order[1:] == [2, 3, 1]  # then strictly by priority
        finally:
            scheduler.shutdown()

    def test_coalesced_submission_escalates_queued_priority(self):
        """The priority-inversion bugfix: a priority-10 request that
        coalesces onto a queued priority-0 job must raise the queued
        entry to priority 10 — not wait at priority 0 behind every
        mid-priority job in the queue."""
        order = []
        started = threading.Event()
        gate = threading.Event()

        def recording_compiler(
            req: CompileRequest, circuit=None, key=None
        ) -> StoredResult:
            if req.seed == 99:
                started.set()
                gate.wait(5)
            order.append(req.seed)
            return StoredResult(
                key=key or req.fingerprint(),
                routed_qasm="OPENQASM 2.0;\n",
                request=req.summary(),
            )

        scheduler = CoalescingScheduler(
            store=ResultStore(), workers=1, compile_fn=recording_compiler
        )
        try:
            blocker = scheduler.submit(request(99))
            assert started.wait(5)
            low = scheduler.submit(request(1), priority=0)
            mid = scheduler.submit(request(2), priority=5)
            # Coalesces onto `low` and must escalate it above `mid`.
            dup = scheduler.submit(request(1), priority=10)
            assert dup.id == low.id
            assert low.priority == 10
            gate.set()
            for job in (blocker, low, mid):
                scheduler.wait(job, timeout=10)
            assert order == [99, 1, 2]
            # One execution despite the escalation re-push: the stale
            # heap entry was skipped, not run twice.
            assert scheduler.stats()["executions"] == 3
        finally:
            scheduler.shutdown()

    def test_escalation_never_lowers_priority(self):
        compiler = CountingCompiler()
        compiler.release.clear()
        scheduler = CoalescingScheduler(
            store=ResultStore(), workers=1, compile_fn=compiler
        )
        try:
            blocker = scheduler.submit(request(99))
            high = scheduler.submit(request(1), priority=10)
            dup = scheduler.submit(request(1), priority=2)
            assert dup.id == high.id
            assert high.priority == 10
            compiler.release.set()
            for job in (blocker, high):
                scheduler.wait(job, timeout=10)
        finally:
            scheduler.shutdown()

    def test_batch_coalesces_internal_duplicates(self):
        compiler = CountingCompiler()
        compiler.release.clear()
        scheduler = CoalescingScheduler(
            store=ResultStore(), workers=1, compile_fn=compiler
        )
        try:
            jobs = scheduler.submit_batch(
                [request(0), request(0), request(1)]
            )
            compiler.release.set()
            for job in jobs:
                scheduler.wait(job, timeout=10)
            assert jobs[0].id == jobs[1].id
            assert jobs[2].id != jobs[0].id
            assert compiler.executions == 2
        finally:
            scheduler.shutdown()


class TestFailureAndLifecycle:
    def test_failed_compile_marks_job_failed(self):
        compiler = CountingCompiler(fail=True)
        scheduler = CoalescingScheduler(
            store=ResultStore(), workers=1, compile_fn=compiler
        )
        try:
            job = scheduler.submit(request())
            job.wait(10)
            assert job.state == "failed"
            assert "injected compile failure" in job.error
            assert scheduler.stats()["failed"] == 1
            # The key is no longer in-flight: a retry schedules fresh.
            retry = scheduler.submit(request())
            assert retry.id != job.id
        finally:
            scheduler.shutdown()

    def test_job_lookup(self):
        compiler = CountingCompiler()
        scheduler = CoalescingScheduler(
            store=ResultStore(), workers=1, compile_fn=compiler
        )
        try:
            job = scheduler.submit(request())
            assert scheduler.job(job.id) is job
            assert scheduler.job("job-999999") is None
        finally:
            scheduler.shutdown()

    def test_submit_after_shutdown_raises(self):
        scheduler = CoalescingScheduler(store=ResultStore(), workers=1)
        scheduler.shutdown()
        with pytest.raises(ReproError, match="shut down"):
            scheduler.submit(request())

    def test_pass_timing_aggregation(self):
        compiler = CountingCompiler()
        scheduler = CoalescingScheduler(
            store=ResultStore(), workers=1, compile_fn=compiler
        )
        try:
            scheduler.wait(scheduler.submit(request(0)), timeout=10)
            scheduler.wait(scheduler.submit(request(1)), timeout=10)
            timings = scheduler.stats()["pass_timings"]
            assert timings["paper_default"]["FakePass"]["calls"] == 2
            assert timings["paper_default"]["FakePass"]["seconds"] > 0
        finally:
            scheduler.shutdown()

    def test_rejects_zero_workers(self):
        with pytest.raises(ReproError, match="workers"):
            CoalescingScheduler(store=ResultStore(), workers=0)

    def test_store_put_failure_still_serves_the_result(self):
        """A broken persistent tier degrades to uncached serving — a
        successfully compiled job must not be failed by an OSError in
        store.put (e.g. disk full)."""

        class BrokenStore(ResultStore):
            def put(self, entry):
                raise OSError("disk full")

        compiler = CountingCompiler()
        scheduler = CoalescingScheduler(
            store=BrokenStore(), workers=1, compile_fn=compiler
        )
        try:
            job = scheduler.wait(scheduler.submit(request()), timeout=10)
            assert job.state == "done"
            assert job.result is not None
            assert scheduler.stats()["store_put_failures"] == 1
            assert scheduler.stats()["failed"] == 0
        finally:
            scheduler.shutdown()

    def test_worker_reuses_submission_parse_and_key(self):
        """The worker receives the circuit and fingerprint resolved at
        submission instead of recomputing them."""
        seen = {}

        def capturing_compiler(req, circuit=None, key=None):
            seen["circuit"] = circuit
            seen["key"] = key
            return StoredResult(
                key=key, routed_qasm="OPENQASM 2.0;\n", request=req.summary()
            )

        scheduler = CoalescingScheduler(
            store=ResultStore(), workers=1, compile_fn=capturing_compiler
        )
        try:
            job = scheduler.wait(scheduler.submit(request()), timeout=10)
            assert seen["key"] == job.key
            assert seen["circuit"] is job.circuit
            assert seen["circuit"].num_qubits == 4
        finally:
            scheduler.shutdown()

    def test_batch_per_item_priorities_validated(self):
        scheduler = CoalescingScheduler(store=ResultStore(), workers=1)
        try:
            with pytest.raises(ReproError, match="one priority per"):
                scheduler.submit_batch(
                    [request(0), request(1)], priorities=[1]
                )
        finally:
            scheduler.shutdown()


def wait_for_state(job, state: str, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if job.state == state:
            return
        time.sleep(0.005)
    raise AssertionError(f"{job.id} never reached {state!r} (is {job.state})")


class TestBackpressure:
    def test_queue_full_rejects_with_retry_after(self):
        compiler = CountingCompiler()
        compiler.release.clear()
        scheduler = CoalescingScheduler(
            store=ResultStore(),
            workers=1,
            compile_fn=compiler,
            max_queue_depth=2,
        )
        try:
            blocker = scheduler.submit(request(99))
            wait_for_state(blocker, "running")
            first = scheduler.submit(request(1))
            scheduler.submit(request(2))
            with pytest.raises(QueueFullError) as excinfo:
                scheduler.submit(request(3))
            assert excinfo.value.retry_after >= 1.0
            # Coalescing and store answers don't occupy queue slots, so
            # a full queue still admits them.
            dup = scheduler.submit(request(1), priority=4)
            assert dup.id == first.id
            stats = scheduler.stats()
            assert stats["rejected"] == 1
            assert stats["queue_depth"] == 2
            compiler.release.set()
        finally:
            scheduler.shutdown()

    def test_rejects_invalid_queue_depth(self):
        with pytest.raises(ReproError, match="max_queue_depth"):
            CoalescingScheduler(store=ResultStore(), max_queue_depth=0)


class TestCancellation:
    def test_cancel_queued_job_wakes_all_waiters(self):
        compiler = CountingCompiler()
        compiler.release.clear()
        scheduler = CoalescingScheduler(
            store=ResultStore(), workers=1, compile_fn=compiler
        )
        try:
            blocker = scheduler.submit(request(99))
            wait_for_state(blocker, "running")
            job = scheduler.submit(request(1))
            dup = scheduler.submit(request(1))
            assert dup.id == job.id
            cancelled = scheduler.cancel(job.id)
            assert cancelled is job
            assert job.state == "cancelled"
            assert job.event.is_set()  # every coalesced waiter wakes
            assert "cancelled" in job.error
            # The key left the in-flight table: a retry is a fresh job,
            # and the cancelled job was never executed.
            retry = scheduler.submit(request(1))
            assert retry.id != job.id
            compiler.release.set()
            scheduler.wait(retry, timeout=10)
            assert scheduler.stats()["cancelled"] == 1
            assert compiler.executions == 2  # blocker + retry only
        finally:
            scheduler.shutdown()

    def test_cancel_unknown_and_finished_jobs(self):
        compiler = CountingCompiler()
        scheduler = CoalescingScheduler(
            store=ResultStore(), workers=1, compile_fn=compiler
        )
        try:
            assert scheduler.cancel("job-424242") is None
            job = scheduler.wait(scheduler.submit(request()), timeout=10)
            after = scheduler.cancel(job.id)
            assert after is job
            assert job.state == "done"  # unchanged: too late to cancel
        finally:
            scheduler.shutdown()

    def test_cancel_running_thread_job_is_refused(self):
        """The thread tier cannot interrupt a running compile; cancel
        returns the job still running instead of lying."""
        compiler = CountingCompiler()
        compiler.release.clear()
        scheduler = CoalescingScheduler(
            store=ResultStore(), workers=1, compile_fn=compiler
        )
        try:
            job = scheduler.submit(request())
            wait_for_state(job, "running")
            result = scheduler.cancel(job.id)
            assert result is job
            assert job.state == "running"
            compiler.release.set()
            scheduler.wait(job, timeout=10)
            assert job.state == "done"
        finally:
            scheduler.shutdown()


class TestTimeouts:
    def test_queue_wait_deadline_fails_before_execution(self):
        compiler = CountingCompiler()
        compiler.release.clear()
        scheduler = CoalescingScheduler(
            store=ResultStore(), workers=1, compile_fn=compiler
        )
        try:
            blocker = scheduler.submit(request(99))
            wait_for_state(blocker, "running")
            doomed = scheduler.submit(request(1), timeout=0.05)
            time.sleep(0.1)  # let the deadline lapse while queued
            compiler.release.set()
            scheduler.wait(doomed, timeout=10)
            assert doomed.state == "failed"
            assert doomed.error_kind == "timeout"
            assert "queue" in doomed.error
            assert compiler.executions == 1  # never dispatched
            assert scheduler.stats()["timeouts"] == 1
        finally:
            scheduler.shutdown()

    def test_coalescing_keeps_the_most_generous_deadline(self):
        compiler = CountingCompiler()
        compiler.release.clear()
        scheduler = CoalescingScheduler(
            store=ResultStore(), workers=1, compile_fn=compiler
        )
        try:
            blocker = scheduler.submit(request(99))
            wait_for_state(blocker, "running")
            job = scheduler.submit(request(1), timeout=0.05)
            dup = scheduler.submit(request(1))  # no timeout: most patient
            assert dup.id == job.id
            assert job.deadline is None
            time.sleep(0.1)
            compiler.release.set()
            scheduler.wait(job, timeout=10)
            assert job.state == "done"  # deadline was lifted
        finally:
            scheduler.shutdown()


class TestShutdownHygiene:
    def test_shutdown_fails_pending_jobs_when_worker_hangs(self):
        """The shutdown bugfix: a hung worker must not leave queued
        jobs' waiters blocked forever — shutdown fails them with a
        shutdown error and reports the un-joined thread."""
        hang = threading.Event()

        def hanging_compiler(req, circuit=None, key=None):
            hang.wait(20)
            return StoredResult(
                key=key or req.fingerprint(),
                routed_qasm="OPENQASM 2.0;\n",
                request=req.summary(),
            )

        scheduler = CoalescingScheduler(
            store=ResultStore(),
            workers=1,
            compile_fn=hanging_compiler,
            join_timeout=0.3,
        )
        try:
            running = scheduler.submit(request(0))
            wait_for_state(running, "running")
            queued = scheduler.submit(request(1))
            unjoined = scheduler.shutdown(wait=True)
            assert unjoined == ["repro-compile-0"]
            assert queued.state == "failed"
            assert queued.error_kind == "shutdown"
            assert "shut down" in queued.error
            assert queued.event.is_set()  # waiters actually woke
            assert running.state == "failed"
            assert "unresponsive" in running.error
            assert scheduler.stats()["shutdown_unjoined"] == [
                "repro-compile-0"
            ]
        finally:
            hang.set()  # let the daemon thread drain

    def test_clean_shutdown_reports_no_unjoined_threads(self):
        scheduler = CoalescingScheduler(
            store=ResultStore(), workers=2, compile_fn=CountingCompiler()
        )
        job = scheduler.submit(request())
        assert scheduler.shutdown(wait=True) == []
        assert job.state == "done"  # drained, not failed
        assert scheduler.stats()["shutdown_unjoined"] == []
