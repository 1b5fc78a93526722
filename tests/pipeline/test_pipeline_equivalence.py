"""Composed-pipeline equivalence suite.

Two guarantees anchor the pipeline refactor:

1. **Byte-identity** — ``Pipeline("paper_default")`` (and therefore
   ``compile_circuit``) produces bit-for-bit the same routed circuits,
   layouts, and trial statistics as the pre-refactor direct path (a
   plain :class:`SabreLayout` search, replicated inline here as the
   reference), across heuristic modes, scorers, and seeds.
2. **Composition soundness** — extension combinations that previously
   required hand-rolled glue (noise-aware + directed + bridge) run
   end-to-end through a single pipeline, stay hardware-compliant
   *including CNOT directions*, and preserve circuit semantics
   (structural equivalence at the routing level, statevector
   equivalence through the unitary-level rewrites).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit, decompose_to_cx_basis, random_circuit
from repro.circuits.decompositions import needs_cx_decomposition
from repro.core import (
    HeuristicConfig,
    Layout,
    SabreLayout,
    compile_circuit,
)
from repro.core.router import RoutingResult
from repro.engine.cache import get_flat_distance_matrix
from repro.hardware import CouplingGraph, NoiseModel, line_device
from repro.hardware.devices import ibm_qx2, ibm_qx5
from repro.pipeline import (
    BridgeRewrite,
    CompilationContext,
    Pipeline,
    compose_pipeline,
)
from repro.verify import (
    is_hardware_compliant,
    routed_statevector_equivalent,
)

MODES = ["basic", "lookahead", "decay"]
SCORERS = ["vector", "reference"]


def reference_compile(circuit, coupling, config, seed, num_trials, num_traversals):
    """The pre-pipeline direct path, replicated verbatim: decompose,
    resolve the cached distance matrix, run one SabreLayout search."""
    coupling.require_connected()
    working = (
        decompose_to_cx_basis(circuit)
        if needs_cx_decomposition(circuit)
        else circuit
    )
    searcher = SabreLayout(
        coupling,
        config=config,
        num_traversals=num_traversals,
        num_trials=num_trials,
        seed=seed,
        distance=get_flat_distance_matrix(coupling),
    )
    return working, searcher.run(working)


class TestPaperDefaultByteIdentity:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("scorer", SCORERS)
    def test_identical_across_modes_and_scorers(self, tokyo, mode, scorer):
        circuit = random_circuit(8, 60, seed=23, two_qubit_fraction=0.6)
        config = HeuristicConfig(mode=mode, scorer=scorer)
        result = Pipeline("paper_default").run(
            circuit, tokyo, config=config, seed=11, num_trials=3
        )
        working, best = reference_compile(
            circuit, tokyo, config, seed=11, num_trials=3, num_traversals=3
        )
        assert result.routing.circuit == best.routing.circuit
        assert result.routing.swap_positions == best.routing.swap_positions
        assert result.initial_layout == best.initial_layout
        assert result.final_layout == best.routing.final_layout
        assert result.num_swaps == best.num_swaps
        assert result.trial_swaps == [t.final_swaps for t in best.trials]
        assert result.first_pass_swaps == best.best_first_pass_swaps
        assert result.original_circuit == working

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_compile_circuit_is_the_pipeline(self, tokyo, seed):
        circuit = random_circuit(6, 40, seed=5, two_qubit_fraction=0.7)
        via_front_door = compile_circuit(circuit, tokyo, seed=seed)
        via_pipeline = Pipeline("paper_default").run(circuit, tokyo, seed=seed)
        assert via_front_door.routing.circuit == via_pipeline.routing.circuit
        assert via_front_door.trial_swaps == via_pipeline.trial_swaps
        assert via_front_door.initial_layout == via_pipeline.initial_layout

    def test_engine_path_identical_to_front_door(self, tokyo):
        circuit = random_circuit(6, 40, seed=9, two_qubit_fraction=0.7)
        a = compile_circuit(
            circuit, tokyo, seed=2, num_trials=4, executor="serial"
        )
        b = Pipeline("paper_default").run(
            circuit, tokyo, seed=2, num_trials=4, executor="serial"
        )
        assert a.routing.circuit == b.routing.circuit
        assert a.trial_swaps == b.trial_swaps
        assert a.first_pass_swaps == b.first_pass_swaps


def _bridge_context(coupling, routed, swap_positions, initial_layout=None):
    """Run the BridgeRewrite pass over a hand-built routing."""
    initial = initial_layout or Layout.trivial(coupling.num_qubits)
    final = initial.copy()
    for position in swap_positions:
        final.swap_physical(*routed[position].qubits)
    context = CompilationContext(
        circuit=routed, coupling=coupling, working=routed
    )
    context.routing = context.raw_routing = RoutingResult(
        circuit=routed,
        initial_layout=initial,
        final_layout=final,
        num_swaps=len(swap_positions),
        swap_positions=list(swap_positions),
    )
    BridgeRewrite().run(context)
    return context


class TestBridgeRewrite:
    def test_swap_then_cx_becomes_bridge(self):
        line3 = line_device(3)
        routed = QuantumCircuit(3, name="r")
        routed.swap(1, 2)
        routed.cx(1, 0)  # enabled by the SWAP; wires idle afterwards
        context = _bridge_context(line3, routed, [0])
        assert context.properties["bridge.swaps_removed"] == 1
        assert context.properties["bridge.bridged_cx"] == 1
        out = context.routing.circuit
        assert out.count_gates() == 4  # 4-CNOT bridge replaces SWAP+CX
        assert context.routing.num_swaps == 0
        assert is_hardware_compliant(out, line3)
        # The bridged circuit must implement the same physical unitary
        # as the original routed circuit, up to the dropped SWAP's wire
        # exchange (re-append it before comparing).
        from repro.verify import statevector_equivalent
        from repro.circuits.decompositions import swap_decomposition

        expanded = QuantumCircuit(3, name="expanded")
        expanded.extend(swap_decomposition(1, 2))
        expanded.cx(1, 0)
        rebuilt = out.copy()
        rebuilt.extend(swap_decomposition(1, 2))
        assert statevector_equivalent(expanded, rebuilt)

    def test_swap_dropped_when_pair_directly_coupled(self):
        triangle = CouplingGraph(3, [(0, 1), (1, 2), (0, 2)], name="tri")
        routed = QuantumCircuit(3, name="r")
        routed.swap(1, 2)
        routed.cx(0, 2)  # without the SWAP this is cx(0, 1): coupled
        context = _bridge_context(triangle, routed, [0])
        assert context.properties["bridge.swaps_removed"] == 1
        assert context.properties["bridge.direct_cx"] == 1
        out = context.routing.circuit
        assert [g.name for g in out] == ["cx"]
        assert out[0].qubits == (0, 1)

    def test_swap_kept_when_wire_interacts_later(self):
        line4 = line_device(4)
        routed = QuantumCircuit(4, name="r")
        routed.swap(1, 2)
        routed.cx(2, 3)
        routed.cx(1, 0)  # wire 1 used again: the SWAP must stay
        context = _bridge_context(line4, routed, [0])
        assert context.properties["bridge.swaps_removed"] == 0
        assert context.routing.circuit == routed

    def test_later_1q_gates_relabelled(self):
        triangle = CouplingGraph(3, [(0, 1), (1, 2), (0, 2)], name="tri")
        routed = QuantumCircuit(3, name="r")
        routed.swap(1, 2)
        routed.cx(0, 2)
        routed.h(2)  # logically the qubit that stayed on wire 1
        routed.x(1)
        context = _bridge_context(triangle, routed, [0])
        out = context.routing.circuit
        assert [(g.name, g.qubits) for g in out] == [
            ("cx", (0, 1)),
            ("h", (1,)),
            ("x", (2,)),
        ]

    def test_end_to_end_bridge_preset_preserves_semantics(self):
        line4 = line_device(4)
        circuit = QuantumCircuit(4, name="far")
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.cx(0, 3)
        result = Pipeline("bridge").run(
            circuit, line4, seed=0, initial_layout=Layout.trivial(4)
        )
        assert is_hardware_compliant(result.physical_circuit(), line4)
        assert routed_statevector_equivalent(
            result.original_circuit,
            result.physical_circuit(decompose_swaps=True),
            result.initial_layout,
            result.final_layout,
        )


class TestThreeExtensionComposition:
    """noise-aware + directed + bridge through one Pipeline (the glue
    the ISSUE says was previously impossible without hand-rolling)."""

    NOISE = NoiseModel(
        edge_errors={(0, 1): 0.15, (2, 3): 0.08, (1, 2): 0.05}
    )

    def composed(self):
        return compose_pipeline(
            "paper_default",
            noise_aware=True,
            bridge=True,
            legalize_directions=True,
        )

    def test_runs_end_to_end_on_directed_device(self):
        device = ibm_qx5()
        circuit = random_circuit(8, 50, seed=3, two_qubit_fraction=0.6)
        result = self.composed().run(
            circuit, device, seed=1, noise=self.NOISE
        )
        # ComplianceCheck ran inside (direction-aware on qx5) and the
        # output is verifiably direction-legal.
        assert result.properties["compliance.checked_direction"] is True
        assert result.properties["compliance.structural"] is True
        assert is_hardware_compliant(
            result.physical_circuit(), device, check_direction=True
        )
        # The noise-aware distance pass actually ran.
        assert result.properties["noise.weighted_edges"] == device.num_edges

    def test_composition_preserves_semantics_small_device(self):
        device = ibm_qx2()
        circuit = random_circuit(5, 30, seed=8, two_qubit_fraction=0.5)
        result = self.composed().run(
            circuit, device, seed=0, noise=self.NOISE
        )
        assert is_hardware_compliant(
            result.physical_circuit(), device, check_direction=True
        )
        assert routed_statevector_equivalent(
            result.original_circuit,
            result.physical_circuit(decompose_swaps=True),
            result.initial_layout,
            result.final_layout,
        )

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        gates=st.integers(min_value=5, max_value=40),
        fraction=st.floats(min_value=0.2, max_value=0.9),
    )
    def test_hypothesis_sweep_directed_composition(
        self, seed, gates, fraction
    ):
        device = ibm_qx2()
        circuit = random_circuit(
            5, gates, seed=seed, two_qubit_fraction=fraction
        )
        result = self.composed().run(
            circuit, device, seed=seed % 17, num_trials=2, noise=self.NOISE
        )
        assert is_hardware_compliant(
            result.physical_circuit(), device, check_direction=True
        )
        assert routed_statevector_equivalent(
            result.original_circuit,
            result.physical_circuit(decompose_swaps=True),
            result.initial_layout,
            result.final_layout,
        )

    def test_noise_aware_preset_matches_legacy_router(self, tokyo):
        from repro.extensions import NoiseAwareRouter

        circuit = random_circuit(6, 30, seed=4, two_qubit_fraction=0.6)
        router = NoiseAwareRouter(tokyo, self.NOISE)
        via_wrapper = router.run(circuit, seed=3, num_trials=2)
        via_pipeline = Pipeline("noise_aware").run(
            circuit, tokyo, seed=3, num_trials=2, noise=self.NOISE
        )
        assert via_wrapper.routing.circuit == via_pipeline.routing.circuit
        assert via_wrapper.num_swaps == via_pipeline.num_swaps
