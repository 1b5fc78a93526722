"""Compilation result object with the paper's metrics attached."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.depth import circuit_depth
from repro.core.layout import Layout
from repro.core.router import RoutingResult

if TYPE_CHECKING:
    from repro.core.bidirectional import BidirectionalResult


@dataclass
class MappingResult:
    """Everything :func:`repro.core.compiler.compile_circuit` produces.

    The fields mirror Table II's columns: ``original_gates`` is
    ``g_ori``, ``added_gates`` is ``g_add``/``g_op``, ``total_gates`` is
    ``g_tot``, plus depth before/after and wall-clock runtime.

    Attributes:
        name: circuit name (benchmark id).
        device_name: coupling-graph name.
        original_circuit: the (basis-decomposed) input circuit.
        routing: raw :class:`RoutingResult` of the winning traversal.
        initial_layout: chosen initial mapping (after reverse traversal).
        final_layout: mapping when the routed circuit finishes.
        num_swaps: SWAPs inserted.
        runtime_seconds: wall-clock time of the whole search.
        first_pass_swaps: best single-traversal swap count (``g_la``),
            ``None`` when a fixed initial layout was supplied.
        trial_swaps: final swap count of each random restart.
        num_trials / num_traversals: search configuration actually used.
        final_circuit: post-pass output when a pipeline rewrote the
            routed circuit after routing (direction legalisation);
            ``None`` means derive the output from ``routing``.
        properties: the pipeline run's property set — per-pass timings,
            verification verdicts, rewrite statistics, objective
            overrides (see :class:`repro.pipeline.context.PropertySet`).
        layout_search: the layout search's own record (per-seed
            :class:`~repro.core.bidirectional.TrialRecord` s, winning
            trial, raw winning routing) when this result's pipeline run
            held one: a direct search, or the merge of an engine
            search-path sweep (the winner of ``run_trials``, whether its
            seed shards ran in process or in workers).  ``None``
            otherwise.
    """

    name: str
    device_name: str
    original_circuit: QuantumCircuit
    routing: RoutingResult
    initial_layout: Layout
    final_layout: Layout
    num_swaps: int
    runtime_seconds: float
    first_pass_swaps: Optional[int] = None
    trial_swaps: List[int] = field(default_factory=list)
    num_trials: int = 1
    num_traversals: int = 1
    final_circuit: Optional[QuantumCircuit] = None
    properties: Dict[str, object] = field(default_factory=dict)
    layout_search: Optional["BidirectionalResult"] = None

    # ------------------------------------------------------------------
    # Paper metrics
    # ------------------------------------------------------------------

    @property
    def original_gates(self) -> int:
        """``g_ori``: unitary gate count of the input circuit."""
        return self.original_circuit.count_gates()

    @property
    def added_gates(self) -> int:
        """``g_add``: additional gates = 3 CNOTs per inserted SWAP."""
        return 3 * self.num_swaps

    @property
    def total_gates(self) -> int:
        """``g_tot = g_ori + g_add``."""
        return self.original_gates + self.added_gates

    @property
    def original_depth(self) -> int:
        return circuit_depth(self.original_circuit)

    @property
    def routed_depth(self) -> int:
        """Depth of the output with SWAPs decomposed into 3 CNOTs."""
        return circuit_depth(self.physical_circuit(decompose_swaps=True))

    @property
    def routed_depth_swaps_atomic(self) -> int:
        """Depth counting each SWAP as one time step (native-SWAP devices)."""
        return circuit_depth(self.routing.circuit)

    def physical_circuit(self, decompose_swaps: bool = True) -> QuantumCircuit:
        """The hardware-compliant output circuit.

        When a post-routing pipeline pass produced a rewritten output
        (``final_circuit``), that circuit is returned as-is — it is
        already fully expanded (no ``swap`` gates remain to decompose).
        """
        if self.final_circuit is not None:
            return self.final_circuit
        return self.routing.physical_circuit(decompose_swaps=decompose_swaps)

    def gate_overhead_ratio(self) -> float:
        """``g_add / g_ori`` — relative overhead of routing."""
        if self.original_gates == 0:
            return 0.0
        return self.added_gates / self.original_gates

    def as_row(self) -> Dict[str, object]:
        """Flat dict for table/CSV reporting."""
        return {
            "name": self.name,
            "device": self.device_name,
            "n": len(self.original_circuit.used_qubits()),
            "g_ori": self.original_gates,
            "g_add": self.added_gates,
            "g_tot": self.total_gates,
            "swaps": self.num_swaps,
            "d_ori": self.original_depth,
            "d_out": self.routed_depth,
            "t_sec": round(self.runtime_seconds, 4),
        }

    def summary(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"circuit      : {self.name}",
            f"device       : {self.device_name}",
            f"gates        : {self.original_gates} -> {self.total_gates} "
            f"(+{self.added_gates} from {self.num_swaps} SWAPs)",
            f"depth        : {self.original_depth} -> {self.routed_depth}",
            f"runtime      : {self.runtime_seconds:.4f} s",
            f"search       : {self.num_trials} trial(s) x "
            f"{self.num_traversals} traversal(s)",
        ]
        if self.first_pass_swaps is not None:
            lines.append(
                f"g_la (1-pass): {3 * self.first_pass_swaps} added gates"
            )
        return "\n".join(lines)
