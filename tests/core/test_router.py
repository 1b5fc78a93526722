"""Unit tests for SabreRouter (Algorithm 1)."""

import pytest

from repro.circuits import QuantumCircuit, random_circuit
from repro.circuits.flatdag import FlatDag, FrontierState
from repro.core import HeuristicConfig, Layout, SabreRouter
from repro.exceptions import MappingError
from repro.hardware import grid_device, line_device, ring_device
from repro.verify import (
    assert_compliant,
    assert_equivalent,
    routed_statevector_equivalent,
)


class TestRunBasics:
    def test_already_compliant_circuit_needs_no_swaps(self, line5):
        circ = QuantumCircuit(5)
        for q in range(4):
            circ.cx(q, q + 1)
        result = SabreRouter(line5, seed=0).run(circ)
        assert result.num_swaps == 0
        assert result.circuit.num_two_qubit_gates() == 4

    def test_distant_gate_requires_swaps(self, line5):
        circ = QuantumCircuit(5)
        circ.cx(0, 4)
        result = SabreRouter(line5, seed=0).run(circ)
        assert result.num_swaps == 3  # distance 4 -> 3 swaps

    def test_output_is_compliant(self, line5, random6):
        # 6-qubit circuit cannot fit line5
        circ = random_circuit(5, 40, seed=2, two_qubit_fraction=0.8)
        result = SabreRouter(line5, seed=0).run(circ)
        assert_compliant(result.physical_circuit(), line5)

    def test_output_is_equivalent(self, line5):
        circ = random_circuit(5, 40, seed=2, two_qubit_fraction=0.8)
        result = SabreRouter(line5, seed=0).run(circ)
        assert_equivalent(
            circ, result.circuit, result.initial_layout, result.swap_positions
        )

    def test_statevector_equivalence(self, ring4):
        circ = random_circuit(4, 25, seed=5, two_qubit_fraction=0.7)
        result = SabreRouter(ring4, seed=0).run(circ)
        assert routed_statevector_equivalent(
            circ, result.circuit, result.initial_layout, result.final_layout
        )

    def test_too_many_qubits_rejected(self, line5):
        with pytest.raises(MappingError, match="physical qubits"):
            SabreRouter(line5).run(QuantumCircuit(6))

    def test_three_qubit_gate_rejected(self, line5):
        circ = QuantumCircuit(3)
        circ.ccx(0, 1, 2)
        with pytest.raises(MappingError, match="decompose"):
            SabreRouter(line5).run(circ)

    def test_wrong_layout_size_rejected(self, line5):
        circ = QuantumCircuit(2)
        circ.cx(0, 1)
        with pytest.raises(MappingError, match="layout covers"):
            SabreRouter(line5).run(circ, initial_layout=Layout.trivial(3))

    def test_deterministic_given_seed(self, grid3x3):
        circ = random_circuit(9, 60, seed=8, two_qubit_fraction=0.6)
        a = SabreRouter(grid3x3, seed=42).run(circ)
        b = SabreRouter(grid3x3, seed=42).run(circ)
        assert a.circuit == b.circuit
        assert a.num_swaps == b.num_swaps

    def test_empty_circuit(self, line5):
        result = SabreRouter(line5, seed=0).run(QuantumCircuit(3))
        assert result.num_swaps == 0
        assert result.circuit.num_gates == 0

    def test_one_qubit_gates_pass_through(self, line5):
        circ = QuantumCircuit(3)
        circ.h(0)
        circ.t(1)
        circ.measure(2)
        result = SabreRouter(line5, seed=0).run(circ)
        assert result.num_swaps == 0
        assert result.circuit.num_gates == 3

    def test_directives_preserved_in_order(self, line5):
        circ = QuantumCircuit(3)
        circ.cx(0, 1)
        circ.barrier(0, 1, 2)
        circ.measure(0)
        result = SabreRouter(line5, seed=0).run(circ)
        names = [g.name for g in result.circuit]
        assert names.index("barrier") < names.index("measure")


class TestSwapBookkeeping:
    def test_swap_positions_point_at_swaps(self, line5):
        circ = random_circuit(5, 30, seed=1, two_qubit_fraction=0.9)
        result = SabreRouter(line5, seed=0).run(circ)
        for pos in result.swap_positions:
            assert result.circuit[pos].name == "swap"
        swap_count = sum(1 for g in result.circuit if g.name == "swap")
        assert swap_count == result.num_swaps

    def test_added_gates_metric(self, line5):
        circ = QuantumCircuit(5)
        circ.cx(0, 4)
        result = SabreRouter(line5, seed=0).run(circ)
        assert result.added_gates == 3 * result.num_swaps

    def test_physical_circuit_decomposes_swaps(self, line5):
        circ = QuantumCircuit(5)
        circ.cx(0, 4)
        result = SabreRouter(line5, seed=0).run(circ)
        physical = result.physical_circuit(decompose_swaps=True)
        assert "swap" not in physical.gate_counts()
        assert physical.count_gates() == 1 + result.added_gates

    def test_final_layout_tracks_swaps(self, line5):
        circ = QuantumCircuit(5)
        circ.cx(0, 4)
        result = SabreRouter(line5, seed=0).run(circ)
        layout = result.initial_layout.copy()
        for pos in result.swap_positions:
            layout.swap_physical(*result.circuit[pos].qubits)
        assert layout == result.final_layout


def _candidates(router, frontier, layout):
    """The router's §IV-C1 candidate SWAPs for ``frontier``'s front."""
    homes = tuple(
        layout.physical(q)
        for i in frontier.front_list()
        for q in frontier.dag.pairs[i]
    )
    return [c[:2] for c in router._vdev.front_candidates(homes)]


class TestSwapCandidates:
    def test_paper_figure6_restriction(self, grid3x3):
        """Only edges touching front-layer qubit homes are candidates."""
        circ = QuantumCircuit(9)
        circ.cx(0, 8)  # corners of the grid
        router = SabreRouter(grid3x3, seed=0)
        frontier = FrontierState(FlatDag.from_circuit(circ))
        frontier.drain_nonrouting()
        candidates = _candidates(router, frontier, Layout.trivial(9))
        # edges incident to 0 or 8 only
        assert set(candidates) == {(0, 1), (0, 3), (5, 8), (7, 8)}

    def test_candidates_grow_with_front_layer(self, grid3x3):
        circ = QuantumCircuit(9)
        circ.cx(0, 8)
        circ.cx(2, 6)
        router = SabreRouter(grid3x3, seed=0)
        frontier = FrontierState(FlatDag.from_circuit(circ))
        frontier.drain_nonrouting()
        candidates = _candidates(router, frontier, Layout.trivial(9))
        assert len(candidates) == 8


class TestHeuristicModes:
    @pytest.mark.parametrize("mode", ["basic", "lookahead", "decay"])
    def test_all_modes_produce_valid_routing(self, grid3x3, mode):
        circ = random_circuit(9, 50, seed=3, two_qubit_fraction=0.7)
        config = HeuristicConfig(mode=mode)
        result = SabreRouter(grid3x3, config=config, seed=0).run(circ)
        assert_compliant(result.physical_circuit(), grid3x3)
        assert_equivalent(
            circ, result.circuit, result.initial_layout, result.swap_positions
        )

    def test_lookahead_no_worse_than_basic_on_average(self, grid3x3):
        """Look-ahead should help on average (paper §IV-D)."""
        total_basic = total_look = 0
        for seed in range(8):
            circ = random_circuit(9, 60, seed=seed, two_qubit_fraction=0.8)
            basic = SabreRouter(
                grid3x3, config=HeuristicConfig(mode="basic"), seed=0
            ).run(circ)
            look = SabreRouter(
                grid3x3, config=HeuristicConfig(mode="lookahead"), seed=0
            ).run(circ)
            total_basic += basic.num_swaps
            total_look += look.num_swaps
        assert total_look <= total_basic

    def test_escape_hatch_terminates_pathological_config(self):
        """Even a heuristic-hostile configuration must terminate."""
        device = ring_device(8)
        circ = random_circuit(8, 60, seed=0, two_qubit_fraction=1.0)
        config = HeuristicConfig(mode="basic")
        router = SabreRouter(device, config=config, seed=0, stall_limit=2)
        result = router.run(circ)
        assert_compliant(result.physical_circuit(), device)
        assert_equivalent(
            circ, result.circuit, result.initial_layout, result.swap_positions
        )


class TestDefaultDistance:
    def test_bfs_default_equals_floyd_warshall(self, grid3x3):
        """With no matrix passed the router computes BFS APSP, which the
        FW/BFS agreement invariant guarantees is the paper's matrix."""
        from repro.hardware.distance import floyd_warshall

        router = SabreRouter(grid3x3, seed=0)
        assert router.dist == floyd_warshall(grid3x3)

    def test_flat_distance_accepted(self, line5):
        from repro.core import FlatDistance
        from repro.hardware.distance import floyd_warshall

        nested = floyd_warshall(line5)
        flat = FlatDistance.from_matrix(nested)
        circ = QuantumCircuit(5)
        circ.cx(0, 4)
        a = SabreRouter(line5, seed=0, distance=flat).run(circ)
        b = SabreRouter(line5, seed=0, distance=nested).run(circ)
        assert a.circuit == b.circuit
        assert SabreRouter(line5, distance=flat).dist == nested

    def test_wrong_size_matrix_rejected(self, line5):
        with pytest.raises(MappingError, match="device has"):
            SabreRouter(line5, distance=[[0.0, 1.0], [1.0, 0.0]])


class TestPhysicalCircuitMemo:
    def test_memoized_and_correct(self, line5):
        circ = QuantumCircuit(5)
        circ.cx(0, 4)
        result = SabreRouter(line5, seed=0).run(circ)
        first = result.physical_circuit()
        assert first is result.physical_circuit()  # memoised
        assert "swap" not in first.gate_counts()
        assert first.count_gates() == 1 + result.added_gates

    def test_memo_excluded_from_pickle(self, line5):
        """Pool workers ship results back through pickle; the memo must
        not double the payload."""
        import pickle

        circ = QuantumCircuit(5)
        circ.cx(0, 4)
        result = SabreRouter(line5, seed=0).run(circ)
        decomposed = result.physical_circuit()
        clone = pickle.loads(pickle.dumps(result))
        assert clone._decomposed is None
        assert clone.physical_circuit() == decomposed

    def test_undecomposed_form_not_cached(self, line5):
        circ = QuantumCircuit(5)
        circ.cx(0, 4)
        result = SabreRouter(line5, seed=0).run(circ)
        assert result.physical_circuit(decompose_swaps=False) is result.circuit
        # Asking for the raw form must not poison the decomposed cache.
        assert "swap" not in result.physical_circuit().gate_counts()


class TestInitialLayouts:
    def test_initial_layout_respected(self, line5):
        circ = QuantumCircuit(2)
        circ.cx(0, 1)
        layout = Layout([4, 0, 1, 2, 3])  # q0 on far end
        result = SabreRouter(line5, seed=0).run(circ, initial_layout=layout)
        assert result.initial_layout == layout
        assert result.num_swaps == 3

    def test_good_layout_beats_bad_layout(self, line5):
        circ = QuantumCircuit(2)
        for _ in range(5):
            circ.cx(0, 1)
        good = SabreRouter(line5, seed=0).run(
            circ, initial_layout=Layout.trivial(5)
        )
        bad = SabreRouter(line5, seed=0).run(
            circ, initial_layout=Layout([0, 4, 1, 2, 3])
        )
        assert good.num_swaps < bad.num_swaps
