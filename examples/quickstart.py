#!/usr/bin/env python
"""Quickstart: map a logical circuit onto the IBM Q20 Tokyo with SABRE.

Builds a small entangling circuit whose interactions don't fit the
device directly, compiles it with the paper's default configuration,
verifies the output, and exports hardware-ready OpenQASM.

Run:  python examples/quickstart.py
"""

from repro import QuantumCircuit, compile_circuit, ibm_q20_tokyo
from repro.analysis.metrics import fidelity_report, result_metrics
from repro.qasm import emit_qasm
from repro.verify import assert_compliant, assert_equivalent


def build_demo_circuit() -> QuantumCircuit:
    """An 8-qubit circuit with long-range CNOTs (needs routing)."""
    circ = QuantumCircuit(8, name="quickstart")
    # GHZ ladder...
    circ.h(0)
    for q in range(7):
        circ.cx(q, q + 1)
    # ...then long-range interactions that no line placement satisfies.
    for a, b in [(0, 7), (1, 6), (2, 5), (3, 7), (0, 4)]:
        circ.cx(a, b)
        circ.t(b)
    circ.barrier()
    for q in range(8):
        circ.measure(q)
    return circ


def main() -> None:
    device = ibm_q20_tokyo()
    circuit = build_demo_circuit()

    result = compile_circuit(circuit, device, seed=0)

    print("=== SABRE mapping result ===")
    print(result.summary())
    print()
    print("metrics:", result_metrics(result))
    print("fidelity:", {k: round(v, 4) for k, v in fidelity_report(result).items()})

    # Independent verification: coupling compliance + exact equivalence.
    physical = result.physical_circuit()
    assert_compliant(physical, device)
    assert_equivalent(
        result.original_circuit,
        result.routing.circuit,
        result.initial_layout,
        result.routing.swap_positions,
    )
    print("\nverified: hardware-compliant and equivalent to the input")

    qasm = emit_qasm(physical)
    print(f"\nfirst lines of the hardware-ready QASM ({len(qasm.splitlines())} lines):")
    for line in qasm.splitlines()[:8]:
        print(" ", line)

    # ------------------------------------------------------------------
    # Multi-trial engine: best-of-K seeded compilations.
    # ------------------------------------------------------------------
    # SABRE's quality is seed-dependent; running more independently
    # seeded trials and keeping the best is the production configuration
    # (CLI: `python -m repro map circuit.qasm --trials 8 --jobs 4`).
    # executor="parallel" shards the seeds across worker processes (same
    # winner as "serial"); with objective= the winner can optimise depth
    # instead of g_add.
    best = compile_circuit(
        circuit, device, seed=0, num_trials=8, executor="serial"
    )
    print(
        f"\nbest-of-8 trials: g_add {result.added_gates} -> "
        f"{best.added_gates} (per-trial swaps: {best.trial_swaps})"
    )

    # Whole-suite batching: compile_many fans (circuit, seed-shard) jobs
    # across processes and reports per-circuit winners with timing.
    from repro import compile_many

    batch = compile_many(
        [circuit, build_demo_circuit()], device, num_trials=4, jobs=2
    )
    print("\n".join(batch.summary_lines()))


if __name__ == "__main__":
    main()
