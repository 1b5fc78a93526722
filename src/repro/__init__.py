"""repro — a reproduction of SABRE (ASPLOS 2019).

SABRE is the SWAP-based BidiREctional heuristic search algorithm for the
qubit mapping problem introduced in:

    Gushu Li, Yufei Ding, Yuan Xie.
    "Tackling the Qubit Mapping Problem for NISQ-Era Quantum Devices."
    ASPLOS 2019.  arXiv:1809.02573.

Quickstart::

    from repro import compile_circuit, ibm_q20_tokyo, QuantumCircuit

    circ = QuantumCircuit(4, name="demo")
    circ.cx(0, 1); circ.cx(2, 3); circ.cx(1, 2); circ.cx(0, 3)
    result = compile_circuit(circ, ibm_q20_tokyo(), seed=0)
    print(result.summary())

The package also ships the substrates the paper depends on: a quantum
circuit IR and OpenQASM 2.0 parser, device models (including the IBM
Q20 Tokyo of paper Fig. 2), an A*-search baseline (Zulehner et al., the
paper's comparison point), a state-vector simulator for equivalence
checking, the paper's benchmark circuit families, and harnesses that
regenerate Table II and Figure 8.

Beyond the paper, :mod:`repro.engine` adds a production-style
multi-trial engine: best-of-K seeded trials (in process, or sharded
across workers via
``compile_circuit(..., num_trials=8, executor="parallel", jobs=4)``),
whole-suite batching (:func:`compile_many`), and a fingerprint-keyed
cache that computes each device's distance matrix once per process.
"""

from repro.circuits import (
    Gate,
    QuantumCircuit,
    CircuitDag,
    FlatDag,
    FrontierState,
    circuit_depth,
    reversed_circuit,
    inverted_circuit,
    decompose_to_cx_basis,
    random_circuit,
)
from repro.core import (
    Layout,
    HeuristicConfig,
    FlatDistance,
    SabreRouter,
    SabreLayout,
    MappingResult,
    compile_circuit,
)
from repro.hardware import (
    CouplingGraph,
    NoiseModel,
    distance_matrix,
    ibm_q20_tokyo,
    line_device,
    ring_device,
    grid_device,
    random_device,
)
from repro.engine import (
    BatchReport,
    CircuitReport,
    TrialsOutcome,
    compile_many,
    get_distance_matrix,
    run_trials,
)
from repro.pipeline import (
    AnalysisPass,
    CompilationContext,
    Pass,
    Pipeline,
    PropertySet,
    TransformPass,
    compose_pipeline,
    preset_names,
)
from repro.exceptions import (
    ReproError,
    CircuitError,
    QasmError,
    HardwareError,
    MappingError,
    SearchExhausted,
    VerificationError,
)

__version__ = "1.0.0"

__all__ = [
    "Gate",
    "QuantumCircuit",
    "CircuitDag",
    "FlatDag",
    "FrontierState",
    "circuit_depth",
    "reversed_circuit",
    "inverted_circuit",
    "decompose_to_cx_basis",
    "random_circuit",
    "Layout",
    "HeuristicConfig",
    "FlatDistance",
    "SabreRouter",
    "SabreLayout",
    "MappingResult",
    "compile_circuit",
    "BatchReport",
    "CircuitReport",
    "TrialsOutcome",
    "compile_many",
    "get_distance_matrix",
    "run_trials",
    "AnalysisPass",
    "CompilationContext",
    "Pass",
    "Pipeline",
    "PropertySet",
    "TransformPass",
    "compose_pipeline",
    "preset_names",
    "CouplingGraph",
    "NoiseModel",
    "distance_matrix",
    "ibm_q20_tokyo",
    "line_device",
    "ring_device",
    "grid_device",
    "random_device",
    "ReproError",
    "CircuitError",
    "QasmError",
    "HardwareError",
    "MappingError",
    "SearchExhausted",
    "VerificationError",
    "__version__",
]
