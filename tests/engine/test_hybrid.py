"""Tests for the parallel executor's machinery (repro.engine.shared):
shard planning, the automatic executor chooser, the shard runner, the
start-method resolver, and executor downgrade reporting."""

import os
import warnings

import pytest

from repro.circuits import random_circuit
from repro.core.bidirectional import SabreLayout, ShardSearch, TrialRecord
from repro.core.layout import Layout
from repro.core.router import SabreRouter, SearchTrace
from repro.engine import run_trials
from repro.engine.cache import get_flat_distance_matrix
from repro.engine.shared import (
    MP_START_METHOD_ENV,
    ExecutorDecision,
    Sweep,
    _init_worker,
    _run_job,
    choose_executor,
    plan_shards,
)
from repro.engine.trials import _DOWNGRADES_WARNED
from repro.exceptions import ReproError
from repro.hardware import grid_device


def _payload_types(obj):
    """Every type reachable from ``obj`` through containers, instance
    dicts and slots."""
    types = set()
    stack = [obj]
    while stack:
        item = stack.pop()
        types.add(type(item))
        if isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
        elif isinstance(item, dict):
            stack.extend(item.keys())
            stack.extend(item.values())
        elif hasattr(item, "__dict__"):
            stack.extend(vars(item).values())
        elif hasattr(type(item), "__slots__"):
            stack.extend(
                getattr(item, name)
                for name in type(item).__slots__
                if hasattr(item, name)
            )
    return types


@pytest.fixture
def device():
    return grid_device(3, 3)


@pytest.fixture
def workload():
    return random_circuit(9, 60, seed=11, two_qubit_fraction=0.7)


class TestPlanShards:
    def test_even_split(self):
        assert plan_shards([0, 1, 2, 3], 2) == [[0, 1], [2, 3]]

    def test_k_not_divisible_by_p(self):
        # The first K % P shards take the extra seed.
        assert plan_shards([0, 1, 2, 3, 4], 2) == [[0, 1, 2], [3, 4]]
        assert plan_shards(list(range(7)), 3) == [[0, 1, 2], [3, 4], [5, 6]]

    def test_k_smaller_than_p(self):
        # Never more shards than seeds.
        assert plan_shards([4, 5], 8) == [[4], [5]]

    def test_p_equals_one(self):
        assert plan_shards([1, 2, 3], 1) == [[1, 2, 3]]

    def test_order_preserved(self):
        seeds = [9, 3, 7, 1, 5]
        shards = plan_shards(seeds, 2)
        assert [s for shard in shards for s in shard] == seeds

    def test_validation(self):
        with pytest.raises(ReproError, match="seed"):
            plan_shards([], 2)
        with pytest.raises(ValueError, match="num_shards"):
            plan_shards([1], 0)


class TestChooseExecutor:
    def test_single_seed_is_serial(self):
        assert choose_executor(1, cores=8).executor == "serial"

    def test_multicore_is_parallel(self):
        decision = choose_executor(6, cores=4)
        assert decision.executor == "parallel"
        assert decision.jobs == 4

    def test_single_core_is_serial(self):
        decision = choose_executor(6, cores=1)
        assert decision.executor == "serial"
        assert decision.jobs == 1

    def test_jobs_overrides_core_sizing(self):
        decision = choose_executor(8, cores=1, jobs=3)
        assert decision.executor == "parallel"
        assert decision.jobs == 3
        assert choose_executor(8, cores=16, jobs=1).executor == "serial"

    def test_width_capped_by_seed_count(self):
        assert choose_executor(2, cores=16).jobs == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="num_seeds"):
            choose_executor(0)
        with pytest.raises(ValueError, match="jobs"):
            choose_executor(4, jobs=0)

    def test_as_properties_is_json_safe(self):
        import json

        props = choose_executor(4, cores=2).as_properties()
        assert json.loads(json.dumps(props)) == props
        assert props["executor"] == "parallel"


class TestShipOnce:
    def test_submission_payload_is_fingerprint_and_seeds_only(
        self, device, workload, monkeypatch
    ):
        """After the initializer stores the pool's sweeps, a shard
        submission carries no circuit/coupling/distance payload — the
        worker entry point takes exactly (sweep_index, seeds) — and
        returns only the shard's search record and its seconds: a trace
        plus per-seed trial records, no circuit, no result, and no
        replay on the worker side.  (The one string is the trace's
        ``loop`` label.)"""
        def no_replay(*args, **kwargs):
            raise AssertionError("a shard worker replayed a trace")

        distance = get_flat_distance_matrix(device)
        other = Sweep(
            workload, device, None, 3, distance, "paper_default", False
        )
        sweep = Sweep(
            workload, device, None, 3, distance, "paper_default", True
        )
        try:
            _init_worker([other, sweep])  # simulate the pool initializer
            with monkeypatch.context() as patch:
                patch.setattr(SabreRouter, "_replay", no_replay)
                record, seconds = _run_job(1, (0, 1))
        finally:
            _init_worker([])
        assert seconds >= 0.0
        assert isinstance(record, ShardSearch)
        assert isinstance(record.best, SearchTrace)
        assert _payload_types(record) <= {
            ShardSearch, SearchTrace, TrialRecord, Layout,
            list, tuple, int, str,
        }
        serial = run_trials(workload, device, [0, 1], executor="serial")
        assert [t.best_swaps for t in record.trials] == serial.trial_swaps
        assert record.best_trial_index == serial.winner_index
        layout = SabreLayout(device, seeds=[0, 1], distance=distance)
        forward_ir, _ = layout.lower(workload)
        merged = layout.merge([record], forward_ir)
        assert merged.routing.circuit == serial.best_result.routing.circuit


class TestParallelExecutor:
    def test_shard_boundary_sweep(self, device, workload):
        """K not divisible by P, K < P, and P = 1 all reduce to the
        serial executor's trials and winner."""
        serial = run_trials(workload, device, [0, 1, 2, 3, 4])
        for jobs, expected_plan in (
            (2, [[0, 1, 2], [3, 4]]),   # K % P != 0
            (8, [[0], [1], [2], [3], [4]]),  # K < P
            (1, [[0, 1, 2, 3, 4]]),     # P = 1
        ):
            par = run_trials(
                workload, device, [0, 1, 2, 3, 4],
                executor="parallel", jobs=jobs,
            )
            assert par.shard_plan == expected_plan
            assert par.trial_swaps == serial.trial_swaps
            assert par.winner_index == serial.winner_index
            assert par.first_pass_swaps == serial.first_pass_swaps
            assert (
                par.best_result.routing.circuit
                == serial.best_result.routing.circuit
            )

    def test_parallel_sweep_replays_once_in_parent(
        self, device, workload, monkeypatch
    ):
        """Shard workers send back search records; the parent merges
        them and replays the one winner.  A forked worker inherits the
        patched replay and would fail the sweep if it called it."""
        parent = os.getpid()
        calls = []
        replay = SabreRouter._replay

        def counted_replay(self, *args, **kwargs):
            if os.getpid() != parent:
                raise AssertionError("a shard worker replayed a trace")
            calls.append(1)
            return replay(self, *args, **kwargs)

        monkeypatch.setattr(SabreRouter, "_replay", counted_replay)
        par = run_trials(
            workload, device, [0, 1, 2, 3], executor="parallel", jobs=2
        )
        assert par.executor == "parallel"
        assert len(calls) == 1
        assert par.best_result.layout_search.best_trial_index == (
            par.winner_index
        )

    def test_per_seed_path_shards(self, device, workload):
        """Non-g_add objectives keep one pipeline per seed, on the same
        pool, with every trial's result shipped back."""
        serial = run_trials(
            workload, device, [0, 1, 2], objective="depth"
        )
        par = run_trials(
            workload, device, [0, 1, 2], objective="depth",
            executor="parallel", jobs=2,
        )
        assert par.executor == "parallel"
        assert par.shard_plan == [[0, 1], [2]]
        assert [t.value for t in par.trials] == [
            t.value for t in serial.trials
        ]
        for a, b in zip(par.trials, serial.trials):
            assert a.result.routing.circuit == b.result.routing.circuit

    def test_outcome_records_executor(self, device, workload):
        par = run_trials(
            workload, device, [0, 1], executor="parallel", jobs=2
        )
        assert par.requested_executor == "parallel"
        assert par.executor == "parallel"
        assert par.downgrade_reason is None
        serial = run_trials(workload, device, [0, 1])
        assert serial.requested_executor == "serial"
        assert serial.executor == "serial"
        assert serial.shard_plan is None

    def test_single_seed_downgrades_with_warning(self, device, workload):
        _DOWNGRADES_WARNED.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcome = run_trials(
                workload, device, [3], executor="parallel", jobs=2
            )
            # Warned once per downgrade kind, not once per sweep.
            again = run_trials(
                workload, device, [3], executor="parallel", jobs=2
            )
        assert outcome.executor == "serial"
        assert outcome.requested_executor == "parallel"
        assert "single seed" in outcome.downgrade_reason
        assert again.downgrade_reason == outcome.downgrade_reason
        downgrades = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert len(downgrades) == 1

    def test_broken_pool_downgrade_recorded(
        self, device, workload, monkeypatch
    ):
        from concurrent.futures.process import BrokenProcessPool

        import repro.engine.trials as trials

        def broken(*args, **kwargs):
            raise BrokenProcessPool("worker died")

        monkeypatch.setattr(trials, "run_shards", broken)
        _DOWNGRADES_WARNED.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcome = run_trials(
                workload, device, [0, 1], executor="parallel", jobs=2
            )
        assert outcome.executor == "serial"
        assert outcome.requested_executor == "parallel"
        assert outcome.shard_plan is None
        assert "worker pool unavailable" in outcome.downgrade_reason
        assert any(
            issubclass(w.category, RuntimeWarning) for w in caught
        )
        serial = run_trials(workload, device, [0, 1])
        assert outcome.trial_swaps == serial.trial_swaps

    def test_unknown_start_method_raises(
        self, device, workload, monkeypatch
    ):
        """An unknown start method is a configuration error, not a
        reason to run on the platform default or to downgrade."""
        monkeypatch.setenv(MP_START_METHOD_ENV, "bogus")
        with pytest.raises(ValueError):
            run_trials(
                workload, device, [0, 1], executor="parallel", jobs=2
            )

    def test_jobs_validation(self, device, workload):
        with pytest.raises(ValueError, match="jobs"):
            run_trials(workload, device, [0, 1], jobs=0)
        with pytest.raises(ValueError, match="jobs"):
            run_trials(
                workload, device, [0, 1], executor="parallel", jobs=-2
            )

    def test_auto_resolves_on_this_host(self, device, workload):
        outcome = run_trials(workload, device, [0, 1, 2], executor="auto")
        assert outcome.requested_executor == "auto"
        # Whatever the host's core count picked, the trials match
        # serial and no downgrade is recorded (a choice is not one).
        assert outcome.executor in ("serial", "parallel")
        assert outcome.downgrade_reason is None
        serial = run_trials(workload, device, [0, 1, 2])
        assert outcome.trial_swaps == serial.trial_swaps


class TestServiceTrialJobs:
    def test_execute_request_engine_paths_agree(self, workload):
        from repro.qasm import emit_qasm
        from repro.service.request import (
            CompileRequest,
            execute_request,
            trial_executor_decision,
        )

        request = CompileRequest(
            qasm=emit_qasm(workload), device="ibm_q20_tokyo", num_trials=4
        )
        decision = trial_executor_decision(request, 2)
        assert isinstance(decision, ExecutorDecision)
        assert decision.executor == "parallel"
        parallel = execute_request(request, trial_jobs=2)
        serial = execute_request(request, trial_jobs=1)
        assert parallel.routed_qasm == serial.routed_qasm
        drop_walltime = lambda m: {k: v for k, v in m.items() if k != "t_sec"}
        assert drop_walltime(parallel.metrics) == drop_walltime(serial.metrics)
        assert parallel.properties.get("engine.executor") == "parallel"
        assert serial.properties.get("engine.executor") == "serial"

    def test_trial_jobs_does_not_change_routing(self):
        """Seeds 0 and 3 tie on SWAPs here and land in different shards
        under trial_jobs=2; the winner must still be the in-worker
        search's, so one store can serve both settings."""
        from repro.qasm import emit_qasm
        from repro.service.request import CompileRequest, execute_request

        circuit = random_circuit(8, 50, seed=2, two_qubit_fraction=0.7)
        request = CompileRequest(
            qasm=emit_qasm(circuit), device="ibm_q20_tokyo", num_trials=4
        )
        plain = execute_request(request, trial_jobs=None)
        sharded = execute_request(request, trial_jobs=2)
        assert sharded.properties.get("engine.executor") == "parallel"
        assert sharded.properties.get("engine.winning_seed") == 3
        assert sharded.routed_qasm == plain.routed_qasm
        assert sharded.key == plain.key

    def test_single_trial_requests_stay_on_default_path(self, workload):
        from repro.qasm import emit_qasm
        from repro.service.request import (
            CompileRequest,
            execute_request,
            trial_executor_decision,
        )

        request = CompileRequest(
            qasm=emit_qasm(workload), device="ibm_q20_tokyo", num_trials=1
        )
        assert trial_executor_decision(request, 4) is None
        plain = execute_request(request)
        granted = execute_request(request, trial_jobs=4)
        assert plain.routed_qasm == granted.routed_qasm

    def test_scheduler_thread_tier_forwards_trial_jobs(self, workload):
        from repro.qasm import emit_qasm
        from repro.service.request import CompileRequest
        from repro.service.scheduler import CoalescingScheduler
        from repro.service.store import ResultStore

        request = CompileRequest(
            qasm=emit_qasm(workload), device="ibm_q20_tokyo", num_trials=3
        )
        scheduler = CoalescingScheduler(
            store=ResultStore(), workers=1, trial_jobs=2
        )
        try:
            job = scheduler.wait(scheduler.submit(request), timeout=120.0)
        finally:
            scheduler.shutdown()
        assert job.result is not None
        assert job.result.properties.get("engine.executor") == "parallel"

    def test_scheduler_rejects_bad_trial_jobs(self):
        from repro.service.scheduler import CoalescingScheduler
        from repro.service.store import ResultStore

        with pytest.raises(ValueError, match="trial_jobs"):
            CoalescingScheduler(store=ResultStore(), workers=1, trial_jobs=0)
