#!/usr/bin/env python
"""Walk through the paper's worked examples (Figures 1, 3, 4, and 6).

Each section rebuilds a figure from the paper with library primitives
and checks the claim it illustrates:

- Fig. 1: the Toffoli gate lowers to 15 {1q, CNOT} gates;
- Fig. 3: the 4-qubit circuit on the square device needs exactly one
  SWAP, growing gates 6 -> 9 and depth 5 -> 8;
- Fig. 4: DAG construction and front-layer initialisation;
- Fig. 6: the SWAP-candidate restriction to front-layer qubits.

Run:  python examples/paper_walkthrough.py
"""

from repro import QuantumCircuit, Layout, SabreRouter, ring_device, grid_device
from repro.circuits import (
    CircuitDag,
    FlatDag,
    FrontierState,
    circuit_depth,
    toffoli_decomposition,
)
from repro.circuits.dag import DagFrontier
from repro.verify import Statevector, simulate


def figure1_toffoli() -> None:
    print("=== Figure 1: Toffoli decomposition ===")
    decomposed = QuantumCircuit(3, name="toffoli_decomposed")
    decomposed.extend(toffoli_decomposition(0, 1, 2))
    counts = decomposed.gate_counts()
    print(f"gates: {decomposed.num_gates} total, {counts.get('cx', 0)} CNOTs")
    reference = QuantumCircuit(3)
    reference.ccx(0, 1, 2)
    probe = Statevector.random(3, seed=1)
    fidelity = (
        probe.copy()
        .apply_circuit(reference)
        .fidelity(probe.copy().apply_circuit(decomposed))
    )
    print(f"matches the CCX unitary: fidelity = {fidelity:.6f}\n")


def figure3_four_qubit_example() -> None:
    print("=== Figure 3: 4-qubit worked example ===")
    # Device: the square Q1-Q2-Q4-Q3 (edges 12, 24, 43, 31) = ring of 4.
    device = ring_device(4)
    # Paper circuit (0-indexed): CNOTs on (q1,q2),(q3,q4),(q2,q4),
    # (q2,q3),(q3,q4),(q1,q4).
    circ = QuantumCircuit(4, name="fig3")
    for a, b in [(0, 1), (2, 3), (1, 3), (1, 2), (2, 3), (0, 3)]:
        circ.cx(a, b)
    print(f"original: {circ.num_gates} gates, depth {circuit_depth(circ)}")
    # The paper's initial mapping is qi -> Qi.  Ring device wiring:
    # ring edges are (0,1),(1,2),(2,3),(3,0); the paper's square has
    # edges {Q1Q2, Q2Q4, Q4Q3, Q3Q1} -> physical order [0,1,3,2].
    initial = Layout([0, 1, 3, 2])
    router = SabreRouter(device, seed=0)
    result = router.run(circ, initial_layout=initial)
    physical = result.physical_circuit()
    print(
        f"routed:   {physical.count_gates()} gates "
        f"(+{result.added_gates} from {result.num_swaps} SWAP), "
        f"depth {circuit_depth(physical)}"
    )
    print("paper:    9 gates (+3 from 1 SWAP), depth 8\n")


def figure4_dag_front_layer() -> None:
    print("=== Figure 4: DAG generation and front layer ===")
    # Six-qubit example with the paper's dependency shape.
    circ = QuantumCircuit(6, name="fig4")
    circ.cx(1, 2)   # g1
    circ.cx(2, 5)   # g2  (shares q3/q6 region in the paper's labels)
    circ.cx(0, 1)   # g3  depends on g1
    circ.cx(3, 4)   # g4
    circ.h(3)
    circ.cx(1, 3)   # depends on g3, g4
    dag = CircuitDag(circ)
    front = dag.initial_front_layer()
    print("front layer gate indices:", front)
    print("front layer gates:", [str(circ[i]) for i in front])
    frontier = DagFrontier(dag)
    frontier.drain_nonrouting()
    print("extended set (|E|=3):", [str(g) for g in frontier.extended_set(3)])
    print()


def figure6_swap_candidates() -> None:
    print("=== Figure 6: SWAP candidates restricted to the front layer ===")
    device = grid_device(3, 3)
    circ = QuantumCircuit(9, name="fig6")
    circ.cx(0, 6)   # front layer (distant on the grid)
    circ.cx(2, 7)   # front layer
    circ.cx(1, 6)   # behind the front layer
    router = SabreRouter(device, seed=0)
    frontier = FrontierState(FlatDag.from_circuit(circ))
    frontier.drain_nonrouting()
    layout = Layout.trivial(9)
    homes = tuple(
        layout.physical(q)
        for i in frontier.front_list()
        for q in frontier.dag.pairs[i]
    )
    candidates = [c[:2] for c in router._vdev.front_candidates(homes)]
    print(f"device has {device.num_edges} edges; "
          f"only {len(candidates)} are SWAP candidates:")
    print(" ", candidates)
    result = router.run(circ, initial_layout=layout)
    print(f"routing used {result.num_swaps} SWAPs\n")


if __name__ == "__main__":
    figure1_toffoli()
    figure3_four_qubit_example()
    figure4_dag_front_layer()
    figure6_swap_candidates()
