"""Unit tests for the reverse-traversal layout search (paper §IV-C2)."""

import pytest

from repro.circuits import QuantumCircuit, random_circuit
from repro.core import SabreLayout
from repro.exceptions import MappingError
from repro.hardware import grid_device
from repro.verify import assert_compliant, assert_equivalent


class TestConfiguration:
    def test_even_traversals_rejected(self, grid3x3):
        with pytest.raises(MappingError, match="odd"):
            SabreLayout(grid3x3, num_traversals=2)

    def test_zero_trials_rejected(self, grid3x3):
        with pytest.raises(MappingError, match="num_trials"):
            SabreLayout(grid3x3, num_trials=0)

    def test_single_traversal_allowed(self, grid3x3):
        circ = random_circuit(9, 30, seed=0, two_qubit_fraction=0.5)
        result = SabreLayout(grid3x3, num_traversals=1, num_trials=2).run(circ)
        assert result.num_swaps >= 0


class TestSearchBehaviour:
    def test_trials_recorded(self, grid3x3):
        circ = random_circuit(9, 40, seed=1, two_qubit_fraction=0.6)
        search = SabreLayout(grid3x3, num_trials=4, seed=0)
        result = search.run(circ)
        assert len(result.trials) == 4
        assert all(t.final_swaps >= 0 for t in result.trials)

    def test_best_trial_selected(self, grid3x3):
        """The kept routing is at least as good as every trial's final
        pass (it may beat them: any forward pass is a candidate)."""
        circ = random_circuit(9, 40, seed=1, two_qubit_fraction=0.6)
        result = SabreLayout(grid3x3, num_trials=4, seed=0).run(circ)
        best_final = min(t.final_swaps for t in result.trials)
        assert result.num_swaps <= best_final

    def test_never_worse_than_first_pass(self, grid3x3):
        """g_op <= g_la by construction (Table II monotonicity)."""
        for seed in range(4):
            circ = random_circuit(9, 50, seed=seed, two_qubit_fraction=0.7)
            result = SabreLayout(grid3x3, num_trials=3, seed=0).run(circ)
            assert result.num_swaps <= result.best_first_pass_swaps

    def test_first_pass_metric_exposed(self, grid3x3):
        circ = random_circuit(9, 40, seed=2, two_qubit_fraction=0.6)
        result = SabreLayout(grid3x3, num_trials=3, seed=0).run(circ)
        assert result.best_first_pass_swaps == min(
            t.first_pass_swaps for t in result.trials
        )

    def test_reverse_traversal_improves_on_average(self, grid3x3):
        """The headline §IV-C2 claim: the updated initial mapping beats
        the random one that the first traversal used."""
        improved = regressed = 0
        for seed in range(6):
            circ = random_circuit(9, 60, seed=seed, two_qubit_fraction=0.7)
            result = SabreLayout(grid3x3, num_trials=3, seed=0).run(circ)
            for trial in result.trials:
                if trial.final_swaps < trial.first_pass_swaps:
                    improved += 1
                elif trial.final_swaps > trial.first_pass_swaps:
                    regressed += 1
        assert improved > regressed

    def test_output_verified(self, grid3x3):
        circ = random_circuit(9, 50, seed=3, two_qubit_fraction=0.6)
        result = SabreLayout(grid3x3, num_trials=3, seed=0).run(circ)
        assert_compliant(result.routing.physical_circuit(), grid3x3)
        assert_equivalent(
            circ,
            result.routing.circuit,
            result.initial_layout,
            result.routing.swap_positions,
        )

    def test_deterministic(self, grid3x3):
        circ = random_circuit(9, 40, seed=4, two_qubit_fraction=0.6)
        a = SabreLayout(grid3x3, num_trials=3, seed=7).run(circ)
        b = SabreLayout(grid3x3, num_trials=3, seed=7).run(circ)
        assert a.routing.circuit == b.routing.circuit

    def test_initial_layout_is_last_forward_start(self, grid3x3):
        """The reported initial layout must be the one the emitted
        (final forward) traversal actually started from."""
        circ = random_circuit(9, 30, seed=5, two_qubit_fraction=0.5)
        result = SabreLayout(grid3x3, num_trials=2, seed=0).run(circ)
        assert result.initial_layout == result.routing.initial_layout

    def test_perfect_mapping_found_for_embeddable_circuit(self, grid3x3):
        """A circuit whose interaction graph is a grid path embeds
        perfectly; the search should find a 0-SWAP mapping."""
        circ = QuantumCircuit(6)
        for _ in range(3):
            for a, b in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]:
                circ.cx(a, b)
        result = SabreLayout(grid3x3, num_trials=5, seed=0).run(circ)
        assert result.num_swaps == 0


class TestSearchMode:
    def test_multi_traversal_search_builds_only_the_winner(
        self, monkeypatch
    ):
        """A 3-traversal vector-scorer search routes every traversal in
        search mode: no traversal's depth is recomputed from a circuit,
        and the one routed circuit built is the replayed winner."""
        import repro.circuits.depth as depth_module
        import repro.core.bidirectional as bidirectional_module
        import repro.core.router as router_module
        from repro.bench_circuits import build_benchmark
        from repro.circuits.decompositions import decompose_to_cx_basis
        from repro.core import SabreRouter
        from repro.hardware import ibm_q20_tokyo

        calls = {"depth": 0, "replay": 0, "remap": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        depth = counted("depth", depth_module.circuit_depth)
        monkeypatch.setattr(depth_module, "circuit_depth", depth)
        for module in (router_module, bidirectional_module):
            monkeypatch.setattr(
                module, "circuit_depth", depth, raising=False
            )
        monkeypatch.setattr(
            router_module, "remap_gate",
            counted("remap", router_module.remap_gate),
        )
        monkeypatch.setattr(
            SabreRouter, "_replay", counted("replay", SabreRouter._replay)
        )
        circuit = decompose_to_cx_basis(build_benchmark("4gt13_92"))
        result = SabreLayout(
            ibm_q20_tokyo(), num_traversals=3, num_trials=5, seed=0
        ).run(circuit)
        assert calls["depth"] == 0
        assert calls["replay"] == 1
        routed = result.routing
        assert calls["remap"] == routed.circuit.num_gates - routed.num_swaps


@pytest.mark.usefixtures("python_loop")
class TestLookaheadMemo:
    def test_each_narrow_front_walked_once_per_search(self, monkeypatch):
        """The restarts of one ``paper_default`` layout search revisit
        the same fronts; each distinct narrow front's extended set is
        walked exactly once per search, not once per traversal (on the
        Python search loop, which owns the memo)."""
        from collections import Counter

        from repro.bench_circuits import build_benchmark
        from repro.circuits.flatdag import FrontierState
        from repro.core import compile_circuit
        from repro.hardware import ibm_q20_tokyo

        walks = Counter()
        original = FrontierState.extended_nodes

        def counted(self, size):
            front = tuple(self.front_list())
            if len(front) <= 4:
                walks[(id(self.dag), front)] += 1
            return original(self, size)

        monkeypatch.setattr(FrontierState, "extended_nodes", counted)
        result = compile_circuit(
            build_benchmark("rd84_142"), ibm_q20_tokyo(), seed=0
        )
        assert result.num_swaps > 0
        assert len(walks) > 100
        assert max(walks.values()) == 1


class TestFoldedSearch:
    @pytest.mark.usefixtures("python_loop")
    def test_search_traversals_execute_no_single_qubit_node(
        self, monkeypatch
    ):
        """Every search traversal of a ``paper_default`` layout search
        runs on a folded frontier: single-qubit gates ride along with
        the node heading their chain and are executed one by one only
        in the final replay, which emits them.  (The frontier is the
        Python search loop's; the native kernel keeps its own.)"""
        from collections import Counter

        from repro.bench_circuits import build_benchmark
        from repro.circuits.flatdag import FrontierState
        from repro.core import SabreRouter, compile_circuit
        from repro.hardware import ibm_q20_tokyo

        phase = ["other"]
        single = Counter()
        calls = Counter()
        execute = FrontierState._execute

        def counted(self, index):
            if len(self.dag.pairs[index]) == 1:
                single[phase[0]] += 1
            return execute(self, index)

        def in_phase(name, fn):
            def wrapper(*args, **kwargs):
                phase[0] = name
                calls[name] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    phase[0] = "other"

            return wrapper

        monkeypatch.setattr(FrontierState, "_execute", counted)
        monkeypatch.setattr(
            SabreRouter, "search", in_phase("search", SabreRouter.search)
        )
        monkeypatch.setattr(
            SabreRouter, "_replay", in_phase("replay", SabreRouter._replay)
        )
        result = compile_circuit(
            build_benchmark("rd84_142"), ibm_q20_tokyo(), seed=0
        )
        singles = sum(
            1 for gate in result.original_circuit if gate.num_qubits == 1
        )
        assert singles > 0
        assert calls == {"search": 15, "replay": 1}
        assert single["search"] == 0
        assert single["replay"] == singles

