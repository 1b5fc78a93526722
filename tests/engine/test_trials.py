"""Unit tests for the best-of-K trial engine (repro.engine.trials)."""

import pytest

from repro.circuits import random_circuit
from repro.core import HeuristicConfig
from repro.engine import (
    EXECUTORS,
    OBJECTIVES,
    objective_value,
    run_trials,
    select_winner,
)
from repro.engine.trials import TrialResult
from repro.exceptions import ReproError
from repro.hardware import grid_device


@pytest.fixture
def workload():
    """A circuit that certainly needs routing on a 3x3 grid."""
    return random_circuit(9, 50, seed=11, two_qubit_fraction=0.7)


class TestWinnerSelection:
    def _trial(self, seed, value):
        return TrialResult(seed=seed, result=None, value=value, num_swaps=0)

    def test_lowest_value_wins(self):
        trials = [self._trial(0, 9.0), self._trial(1, 3.0), self._trial(2, 6.0)]
        assert select_winner(trials) == 1

    def test_tie_resolves_to_earliest_seed(self):
        trials = [self._trial(5, 4.0), self._trial(1, 4.0), self._trial(9, 4.0)]
        assert select_winner(trials) == 0

    def test_empty_rejected(self):
        with pytest.raises(ReproError, match="at least one trial"):
            select_winner([])

    def test_swaps_tie_breaks_on_depth_on_every_path(self):
        """Seeds 0 and 2 tie on SWAPs here, and seed 2's circuit is
        shallower.  The direct search, the serial executor and the
        parallel executor (which puts the tied seeds in different
        shards) must all keep the search's rule — fewest SWAPs, then
        lowest depth — and so pick seed 2, not the earlier seed 0."""
        from repro.core import compile_circuit

        device = grid_device(3, 3)
        circuit = random_circuit(9, 40, seed=16, two_qubit_fraction=0.7)
        solo = {
            seed: compile_circuit(circuit, device, seed=seed, num_trials=1)
            for seed in (0, 2)
        }
        assert solo[0].num_swaps == solo[2].num_swaps
        assert solo[2].routing.depth < solo[0].routing.depth
        direct = compile_circuit(circuit, device, seed=0, num_trials=4)
        search = direct.layout_search
        assert search.trials[search.best_trial_index].seed == 2
        for executor, jobs in (("serial", None), ("parallel", 2)):
            engine = compile_circuit(
                circuit, device, seed=0, num_trials=4,
                executor=executor, jobs=jobs,
            )
            assert engine.properties["engine.executor"] == executor
            assert engine.properties["engine.winning_seed"] == 2
            assert engine.routing.circuit == direct.routing.circuit
            assert engine.routing.circuit == solo[2].routing.circuit


class TestDeterminism:
    def test_same_seed_list_same_winner(self, grid3x3, workload):
        a = run_trials(workload, grid3x3, seeds=[3, 1, 4, 1 + 4])
        b = run_trials(workload, grid3x3, seeds=[3, 1, 4, 1 + 4])
        assert a.winner_index == b.winner_index
        assert a.winner.seed == b.winner.seed
        assert a.trial_swaps == b.trial_swaps
        assert a.best_result.routing.circuit == b.best_result.routing.circuit

    def test_winner_is_best_by_objective(self, grid3x3, workload):
        outcome = run_trials(
            workload, grid3x3, seeds=list(range(5)), objective="depth"
        )
        values = [t.value for t in outcome.trials]
        assert outcome.winner.value == min(values)
        # Earliest-seed tie-break: nothing before the winner matches it.
        assert outcome.winner_index == values.index(min(values))

    def test_best_of_k_monotone_in_k(self, grid3x3, workload):
        """Over a fixed seed pool, the best-of-K g_add can only improve
        (or stay flat) as K grows — prefixes of the pool nest."""
        pool = list(range(8))
        outcome = run_trials(workload, grid3x3, seeds=pool)
        values = [t.value for t in outcome.trials]
        best_so_far = []
        for k in range(1, len(pool) + 1):
            best_so_far.append(min(values[:k]))
        assert all(
            later <= earlier
            for earlier, later in zip(best_so_far, best_so_far[1:])
        )
        # And each prefix run agrees with the full run's prefix.
        for k in (1, 3, 8):
            prefix = run_trials(workload, grid3x3, seeds=pool[:k])
            assert [t.value for t in prefix.trials] == values[:k]


class TestExecutors:
    def test_serial_and_parallel_agree(self, grid3x3, workload):
        seeds = [0, 1, 2, 3]
        serial = run_trials(workload, grid3x3, seeds=seeds, executor="serial")
        pooled = run_trials(
            workload, grid3x3, seeds=seeds, executor="parallel", jobs=2
        )
        assert serial.winner_index == pooled.winner_index
        assert serial.winner.seed == pooled.winner.seed
        assert serial.trial_swaps == pooled.trial_swaps
        assert (
            serial.best_result.routing.circuit
            == pooled.best_result.routing.circuit
        )
        assert serial.best_result.initial_layout == pooled.best_result.initial_layout

    def test_single_seed_skips_pool(self, grid3x3, workload):
        outcome = run_trials(
            workload, grid3x3, seeds=[7], executor="parallel", jobs=4
        )
        assert len(outcome.trials) == 1
        assert outcome.winner.seed == 7
        # The downgrade is no longer silent: the outcome records the
        # executor that actually ran, and why.
        assert outcome.requested_executor == "parallel"
        assert outcome.executor == "serial"
        assert outcome.downgrade_reason is not None

    def test_search_path_ships_only_the_winner(self, grid3x3, workload):
        """A g_add sweep is one layout search: one entry per seed, but
        only the winner carries a MappingResult."""
        outcome = run_trials(workload, grid3x3, seeds=[3, 1, 4])
        assert [t.seed for t in outcome.trials] == [3, 1, 4]
        assert [t.result is None for t in outcome.trials] == [
            i != outcome.winner_index for i in range(3)
        ]
        assert outcome.best_result.num_swaps == min(outcome.trial_swaps)


class TestObjectives:
    def test_all_registered_objectives_score(self, grid3x3, workload):
        outcome = run_trials(workload, grid3x3, seeds=[0, 1])
        for name in OBJECTIVES:
            assert objective_value(outcome.best_result, name) >= 0.0

    def test_g_add_matches_metric(self, grid3x3, workload):
        outcome = run_trials(workload, grid3x3, seeds=[0, 1, 2])
        for trial in outcome.trials:
            assert trial.value == float(3 * trial.num_swaps)
        assert outcome.winner.value == float(
            outcome.best_result.added_gates
        )

    def test_depth_objective_ranks_by_depth(self, grid3x3, workload):
        outcome = run_trials(
            workload, grid3x3, seeds=list(range(4)), objective="depth"
        )
        depths = [t.result.routed_depth for t in outcome.trials]
        assert outcome.winner.value == float(min(depths))

    def test_weighted_objective_combines(self, grid3x3, workload):
        outcome = run_trials(
            workload, grid3x3, seeds=[0, 1], objective="weighted"
        )
        for trial in outcome.trials:
            expected = trial.result.added_gates + 0.5 * trial.result.routed_depth
            assert trial.value == pytest.approx(expected)

    def test_config_threads_through(self, grid3x3, workload):
        basic = run_trials(
            workload,
            grid3x3,
            seeds=[0],
            config=HeuristicConfig(mode="basic"),
        )
        assert basic.best_result.num_swaps >= 0


class TestValidation:
    def test_empty_seeds_rejected(self, grid3x3, workload):
        with pytest.raises(ReproError, match="at least one seed"):
            run_trials(workload, grid3x3, seeds=[])

    def test_duplicate_seeds_rejected(self, grid3x3, workload):
        with pytest.raises(ReproError, match="distinct"):
            run_trials(workload, grid3x3, seeds=[1, 1])

    def test_unknown_objective_rejected(self, grid3x3, workload):
        with pytest.raises(ReproError, match="objective"):
            run_trials(workload, grid3x3, seeds=[0], objective="fidelity")

    def test_unknown_executor_rejected(self, grid3x3, workload):
        with pytest.raises(ReproError, match="executor"):
            run_trials(workload, grid3x3, seeds=[0], executor="thread")

    def test_executor_registry(self):
        assert EXECUTORS == ("serial", "parallel", "auto")
