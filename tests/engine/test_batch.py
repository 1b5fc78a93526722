"""Tests for suite-level batch compilation (repro.engine.batch)."""

import pytest

from repro.bench_circuits import suite
from repro.circuits import random_circuit
from repro.core import compile_circuit
from repro.engine import GLOBAL_CACHE, compile_many, run_trials
from repro.exceptions import ReproError
from repro.hardware import grid_device


@pytest.fixture
def small_suite_circuits():
    """The Table II 'small' category (5 circuits, 4-5 qubits each)."""
    return [spec.build() for spec in suite("small")]


class TestCompileMany:
    def test_reports_in_input_order(self, grid3x3):
        circuits = [
            random_circuit(6, 15, seed=s, two_qubit_fraction=0.5)
            for s in range(3)
        ]
        report = compile_many(circuits, grid3x3, num_trials=2, jobs=1)
        assert [r.name for r in report.reports] == [c.name for c in circuits]
        assert report.device_name == grid3x3.name
        assert report.wall_seconds > 0

    def test_winner_fields_consistent(self, grid3x3):
        circuits = [random_circuit(6, 20, seed=1, two_qubit_fraction=0.6)]
        report = compile_many(circuits, grid3x3, num_trials=3, jobs=1)
        row = report.reports[0]
        assert row.added_gates == 3 * row.num_swaps
        assert row.added_gates == min(3 * s for s in row.trial_swaps)
        assert len(row.trial_swaps) == 3
        assert row.result is not None
        assert row.result.added_gates == row.added_gates

    def test_serial_and_pooled_batches_agree(self, grid3x3):
        circuits = [
            random_circuit(7, 25, seed=s, two_qubit_fraction=0.6)
            for s in range(3)
        ]
        serial = compile_many(circuits, grid3x3, num_trials=3, jobs=1)
        pooled = compile_many(circuits, grid3x3, num_trials=3, jobs=3)
        for a, b in zip(serial.reports, pooled.reports):
            assert a.added_gates == b.added_gates
            assert a.winning_seed == b.winning_seed
            assert a.trial_swaps == b.trial_swaps

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_swaps_tie_breaks_on_depth_like_compile_circuit(self, jobs):
        """Seeds 0 and 2 both route with 9 SWAPs here; seed 2's circuit
        is shallower (swap-atomic depth 25 against 27), so the layout
        search keeps it, and the batch must keep the same winner."""
        device = grid_device(3, 3)
        circuit = random_circuit(9, 40, seed=16, two_qubit_fraction=0.7)
        direct = compile_circuit(circuit, device, num_trials=4, seed=0)
        report = compile_many(
            [circuit], device, num_trials=4, seed=0, jobs=jobs
        )
        row = report.reports[0]
        assert row.winning_seed == 2
        assert row.num_swaps == direct.num_swaps == 9
        assert row.result.routing.circuit == direct.routing.circuit
        assert row.routed_depth == direct.routed_depth

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_per_seed_batch_matches_run_trials(self, grid3x3, jobs):
        """A non-g_add batch runs one pipeline per seed, in process or
        in (circuit, seed-shard) jobs on the pool, and ranks each
        circuit exactly as run_trials does."""
        circuits = [
            random_circuit(7, 25, seed=s, two_qubit_fraction=0.6)
            for s in range(3)
        ]
        report = compile_many(
            circuits, grid3x3, num_trials=3, seed=0, jobs=jobs,
            objective="depth",
        )
        for circuit, row in zip(circuits, report.reports):
            alone = run_trials(circuit, grid3x3, [0, 1, 2], objective="depth")
            assert row.winning_seed == alone.winner.seed
            assert row.trial_swaps == alone.trial_swaps
            assert row.objective_value == alone.winner.value
            assert (
                row.result.routing.circuit
                == alone.best_result.routing.circuit
            )

    @pytest.mark.parametrize(
        "executor, jobs, ran",
        [
            ("auto", 1, "serial"),
            ("parallel", 1, "serial"),
            ("serial", 2, "serial"),
            ("auto", 2, "parallel"),
            ("parallel", 2, "parallel"),
        ],
    )
    def test_report_records_executor_that_ran(
        self, grid3x3, executor, jobs, ran
    ):
        circuits = [
            random_circuit(6, 15, seed=s, two_qubit_fraction=0.5)
            for s in range(2)
        ]
        report = compile_many(
            circuits, grid3x3, num_trials=2, jobs=jobs, executor=executor
        )
        assert report.executor == ran
        assert f"executor={ran} " in report.summary_lines()[0]

    def test_keep_results_flag(self, grid3x3):
        circuits = [random_circuit(5, 10, seed=0, two_qubit_fraction=0.5)]
        slim = compile_many(
            circuits, grid3x3, num_trials=1, jobs=1, keep_results=False
        )
        assert slim.reports[0].result is None

    def test_validation(self, grid3x3):
        circuits = [random_circuit(4, 5, seed=0)]
        with pytest.raises(ReproError, match="num_trials"):
            compile_many(circuits, grid3x3, num_trials=0)
        with pytest.raises(ValueError, match="jobs"):
            compile_many(circuits, grid3x3, jobs=0)
        with pytest.raises(ReproError, match="executor"):
            compile_many(circuits, grid3x3, executor="warp")
        with pytest.raises(ReproError, match="objective"):
            compile_many(circuits, grid3x3, objective="speed")

    def test_total_added_gates(self, grid3x3):
        circuits = [
            random_circuit(6, 15, seed=s, two_qubit_fraction=0.5)
            for s in range(2)
        ]
        report = compile_many(circuits, grid3x3, num_trials=2, jobs=1)
        assert report.total_added_gates == sum(
            r.added_gates for r in report.reports
        )
        assert len(report.summary_lines()) == 1 + len(circuits)


class TestAcceptance:
    """ISSUE acceptance: jobs=4 x trials=8 on the Table-2 small suite."""

    def test_small_suite_beats_single_trial_baseline(
        self, tokyo, small_suite_circuits
    ):
        """Best-of-8 quality dominates the single-trial seed baseline on
        every circuit, and the O(N^3) distance matrix is computed at
        most once per device for the whole batch."""
        GLOBAL_CACHE.clear()
        report = compile_many(
            small_suite_circuits, tokyo, num_trials=8, seed=0, jobs=4
        )
        info = GLOBAL_CACHE.cache_info()
        # One distance computation for the whole batch, plus one
        # lowering per circuit and direction: the parent lowers every
        # circuit before its pool starts, and replays the winners.
        assert info.misses == 1 + 2 * len(small_suite_circuits), (
            "distance matrix must be computed exactly once per device "
            f"per batch run, saw {info.misses} misses"
        )
        for circuit, row in zip(small_suite_circuits, report.reports):
            baseline = compile_circuit(circuit, tokyo, seed=0, num_trials=1)
            assert row.added_gates <= baseline.added_gates, (
                f"{row.name}: best-of-8 g_add {row.added_gates} worse "
                f"than single-trial baseline {baseline.added_gates}"
            )
        # The baselines above hit the cached matrix and the batch's IRs
        # (no recomputation): each unique circuit lowered its
        # compile-once IR exactly once per direction (forward +
        # reverse) in-parent.
        assert (
            GLOBAL_CACHE.cache_info().misses
            == 1 + 2 * len(small_suite_circuits)
        )
