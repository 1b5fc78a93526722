"""Differential suite: shared-IR routing vs per-run object-DAG routing.

The compile-once flat IR must be *observationally invisible*: routing
through a shared (cached, frontier-reused) :class:`FlatDag` must
produce byte-identical circuits to the frozen pre-IR code path
(:mod:`repro.core.legacy`), which re-lowers a fresh ``CircuitDag`` on
every run — across all heuristic modes, both of the router's scoring
methods, the noise-aware penalty path, and the livelock escape hatch.
A second axis pins the reuse story itself: one shared IR + one reset
frontier must route identically to a fresh IR + fresh frontier per run.

The ``scorer`` ids name the router's scoring method: ``vector`` is the
delta loop (``VectorBlock.score_scalar``), which a symmetric matrix
selects; ``reference`` is the full Eq. 2 recomputation
(``VectorBlock.score_full``), selected here by handing the router the
same matrix flagged asymmetric (:func:`_distance`).
"""

from array import array


import pytest

from repro.circuits import QuantumCircuit, random_circuit
from repro.circuits.flatdag import FlatDag, FrontierState
from repro.core import (
    HeuristicConfig,
    Layout,
    LegacyDagRouter,
    LegacySabreLayout,
    SabreLayout,
    SabreRouter,
)
from repro.core.scoring import FlatDistance
from repro.exceptions import MappingError
from repro.extensions.noise_aware import noise_weighted_distance
from repro.hardware import NoiseModel, grid_device, line_device, ring_device
from repro.hardware.distance import bfs_flat_distance

MODES = ["basic", "lookahead", "decay"]
SCORERS = ["vector", "reference"]


def _distance(device, scorer):
    """The device's hop matrix; for ``reference`` flagged asymmetric, so
    the router scores every candidate in full instead of by deltas."""
    flat = bfs_flat_distance(device)
    if scorer == "vector":
        return flat
    return FlatDistance(flat.n, array("d", flat.buf), symmetric=False)


def _assert_identical(a, b):
    assert a.circuit == b.circuit
    assert a.swap_positions == b.swap_positions
    assert a.initial_layout == b.initial_layout
    assert a.final_layout == b.final_layout
    assert a.num_forced_escapes == b.num_forced_escapes


class TestSharedIrVsFreshDag:
    """New router (shared IR) vs legacy router (fresh CircuitDag/run)."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("scorer", SCORERS)
    def test_all_modes_and_scorers(self, tokyo, mode, scorer):
        circuit = random_circuit(20, 150, seed=5, two_qubit_fraction=0.8)
        layout = Layout.random(20, seed=2)
        config = HeuristicConfig(mode=mode)
        new = SabreRouter(
            tokyo, config=config, seed=3, distance=_distance(tokyo, scorer)
        ).run(circuit, initial_layout=layout)
        old = LegacyDagRouter(tokyo, config=config, seed=3).run(
            circuit, initial_layout=layout
        )
        _assert_identical(new, old)

    @pytest.mark.parametrize("device_builder", [
        lambda: line_device(8),
        lambda: ring_device(8),
        lambda: grid_device(3, 4),
    ])
    def test_small_topologies(self, device_builder):
        device = device_builder()
        circuit = random_circuit(
            device.num_qubits, 120, seed=5, two_qubit_fraction=0.9
        )
        layout = Layout.random(device.num_qubits, seed=1)
        new = SabreRouter(device, seed=0).run(circuit, initial_layout=layout)
        old = LegacyDagRouter(device, seed=0).run(circuit, initial_layout=layout)
        _assert_identical(new, old)

    def test_noise_aware_penalty_path(self, tokyo):
        noise = NoiseModel(edge_errors={(0, 1): 0.2, (5, 6): 0.1, (11, 12): 0.15})
        distance = noise_weighted_distance(tokyo, noise)
        circuit = random_circuit(20, 150, seed=11, two_qubit_fraction=0.8)
        layout = Layout.random(20, seed=2)
        config = HeuristicConfig(swap_cost_penalty=1.0)
        new = SabreRouter(tokyo, config=config, seed=4, distance=distance).run(
            circuit, initial_layout=layout
        )
        old = LegacyDagRouter(
            tokyo, config=config, seed=4, distance=distance
        ).run(circuit, initial_layout=layout)
        _assert_identical(new, old)

    def test_escape_hatch_path(self):
        device = ring_device(8)
        circuit = random_circuit(8, 80, seed=0, two_qubit_fraction=1.0)
        layout = Layout.random(8, seed=6)
        config = HeuristicConfig(mode="basic")
        new = SabreRouter(device, config=config, seed=0, stall_limit=2).run(
            circuit, initial_layout=layout
        )
        old = LegacyDagRouter(device, config=config, seed=0, stall_limit=2).run(
            circuit, initial_layout=layout
        )
        assert new.num_forced_escapes > 0
        _assert_identical(new, old)

    def test_directives_and_1q_gates(self, tokyo):
        circuit = random_circuit(12, 80, seed=8, two_qubit_fraction=0.5)
        circuit.barrier()
        for q in range(12):
            circuit.measure(q)
        layout = Layout.random(20, seed=3)
        new = SabreRouter(tokyo, seed=1).run(circuit, initial_layout=layout)
        old = LegacyDagRouter(tokyo, seed=1).run(circuit, initial_layout=layout)
        _assert_identical(new, old)

    @pytest.mark.parametrize("scorer", SCORERS)
    def test_layout_search_end_to_end(self, tokyo, scorer):
        """The whole bidirectional sweep: shared IRs + reset frontiers
        vs per-traversal re-lowering must pick identical winners."""
        circuit = random_circuit(16, 100, seed=9, two_qubit_fraction=0.7)
        new = SabreLayout(
            tokyo, seed=0, distance=_distance(tokyo, scorer)
        ).run(circuit)
        old = LegacySabreLayout(tokyo, seed=0).run(circuit)
        assert new.routing.circuit == old.routing.circuit
        assert new.initial_layout == old.initial_layout
        assert new.best_trial_index == old.best_trial_index
        assert [t.final_swaps for t in new.trials] == [
            t.final_swaps for t in old.trials
        ]


class TestFrontierReuse:
    """Shared IR + reset frontier == fresh IR + fresh frontier."""

    def test_route_reset_route_identical(self, tokyo):
        circuit = random_circuit(18, 120, seed=4, two_qubit_fraction=0.8)
        layout = Layout.random(20, seed=7)
        router = SabreRouter(tokyo, seed=0)
        ir = FlatDag.from_circuit(circuit)
        frontier = FrontierState(ir)
        first = router.run(ir, initial_layout=layout, frontier=frontier)
        second = router.run(ir, initial_layout=layout, frontier=frontier)
        _assert_identical(first, second)

    def test_shared_vs_fresh_construction(self, tokyo):
        circuit = random_circuit(18, 120, seed=4, two_qubit_fraction=0.8)
        layout = Layout.random(20, seed=7)
        router = SabreRouter(tokyo, seed=0)
        ir = FlatDag.from_circuit(circuit)
        frontier = FrontierState(ir)
        # Dirty the frontier, then rely on run()'s reset.
        frontier.drain_nonrouting()
        shared = router.run(ir, initial_layout=layout, frontier=frontier)
        fresh = router.run(
            FlatDag.from_circuit(circuit), initial_layout=layout
        )
        via_circuit = router.run(circuit, initial_layout=layout)
        _assert_identical(shared, fresh)
        _assert_identical(shared, via_circuit)

    def test_interleaved_circuits_one_router(self, tokyo):
        """Frontier reuse must not leak state across different IRs."""
        circ_a = random_circuit(16, 90, seed=1, two_qubit_fraction=0.8)
        circ_b = random_circuit(16, 90, seed=2, two_qubit_fraction=0.8)
        layout = Layout.random(20, seed=0)
        router = SabreRouter(tokyo, seed=5)
        ir_a, ir_b = FlatDag.from_circuit(circ_a), FlatDag.from_circuit(circ_b)
        fr_a, fr_b = FrontierState(ir_a), FrontierState(ir_b)
        solo_a = router.run(ir_a, initial_layout=layout)
        solo_b = router.run(ir_b, initial_layout=layout)
        for _ in range(2):
            _assert_identical(
                router.run(ir_a, initial_layout=layout, frontier=fr_a), solo_a
            )
            _assert_identical(
                router.run(ir_b, initial_layout=layout, frontier=fr_b), solo_b
            )

    def test_mismatched_frontier_rejected(self, tokyo):
        circ_a = random_circuit(8, 30, seed=1)
        circ_b = random_circuit(8, 30, seed=2)
        router = SabreRouter(tokyo, seed=0)
        frontier = FrontierState(FlatDag.from_circuit(circ_a))
        with pytest.raises(MappingError, match="different circuit IR"):
            router.run(FlatDag.from_circuit(circ_b), frontier=frontier)


class TestIrCacheNaming:
    def test_gate_identical_circuits_keep_their_own_names(self, line5):
        """The IR cache must not hand circuit B an IR named after a
        gate-identical circuit A (the routed output is ``<name>_routed``)."""
        from repro.core import compile_circuit
        from repro.engine.cache import clear_cache

        clear_cache()
        try:
            def build(name):
                circ = QuantumCircuit(3, name=name)
                circ.cx(0, 2)
                circ.cx(1, 2)
                return circ

            alpha = compile_circuit(build("alpha"), line5, seed=0, num_trials=1)
            beta = compile_circuit(build("beta"), line5, seed=0, num_trials=1)
            assert alpha.routing.circuit.name == "alpha_routed"
            assert beta.routing.circuit.name == "beta_routed"
        finally:
            clear_cache()


class TestIrValidation:
    def test_unroutable_ir_rejected(self, line5):
        circ = QuantumCircuit(3)
        circ.ccx(0, 1, 2)
        ir = FlatDag.from_circuit(circ)
        assert not ir.routable
        with pytest.raises(MappingError, match="decompose"):
            SabreRouter(line5).run(ir)

    def test_oversized_ir_rejected(self, line5):
        ir = FlatDag.from_circuit(QuantumCircuit(6))
        with pytest.raises(MappingError, match="physical qubits"):
            SabreRouter(line5).run(ir)
