"""Shared state threaded through a pipeline run.

Before this package existed, every layer threaded the same handful of
objects by hand — circuit, coupling graph, distance matrix, layout,
heuristic config, seeds — through four divergent ``compile_*`` wrapper
signatures.  :class:`CompilationContext` is that state made explicit:
one mutable record the passes read and extend, plus a
:class:`PropertySet` for derived facts and per-pass metrics (timings,
verification verdicts, rewrite statistics, objective overrides).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.core.heuristic import HeuristicConfig
from repro.core.layout import Layout
from repro.core.result import MappingResult
from repro.core.router import RoutingResult
from repro.core.scoring import FlatDistance
from repro.hardware.coupling import CouplingGraph
from repro.hardware.noise import NoiseModel


class PropertySet(dict):
    """Pass-to-pass scratch space: a dict with timing helpers.

    Conventional keys:

    - ``pass_timings`` — ``[(pass_name, seconds), ...]`` appended by the
      runner, one entry per executed pass, in execution order.
    - ``objective.<name>`` — float override consulted by
      :func:`repro.engine.trials.objective_value` before the built-in
      metric functions, so a pipeline can precompute (or redefine) the
      score its trials are ranked by.
    - ``<pass>.<fact>`` — anything a pass wants downstream passes,
      reports, or callers to see (``bridge.swaps_removed``,
      ``compliance.checked_direction``, ``embedding.perfect`` ...).
    """

    def record_timing(self, pass_name: str, seconds: float) -> None:
        self.setdefault("pass_timings", []).append((pass_name, seconds))

    @property
    def pass_timings(self) -> List[Tuple[str, float]]:
        return self.get("pass_timings", [])

    def timing_report(self) -> str:
        """Human-readable per-pass timing breakdown (CLI ``--verbose``)."""
        timings = self.pass_timings
        if not timings:
            return "no pass timings recorded"
        width = max(len(name) for name, _ in timings)
        total = sum(seconds for _, seconds in timings)
        lines = ["pass timings:"]
        for name, seconds in timings:
            share = (seconds / total * 100.0) if total > 0 else 0.0
            lines.append(f"  {name:{width}s}  {seconds * 1e3:9.3f} ms  {share:5.1f}%")
        lines.append(f"  {'total':{width}s}  {total * 1e3:9.3f} ms")
        return "\n".join(lines)


@dataclass
class CompilationContext:
    """Everything a pipeline run knows, mutable by its passes.

    Attributes:
        circuit: the caller's original circuit (never mutated).
        coupling: target device.
        config: heuristic knobs; ``None`` means paper defaults (passes
            may replace it, e.g. the noise-aware distance pass enables
            the SWAP-cost penalty).
        seed / num_trials / num_traversals / objective / executor /
            jobs: the search configuration of
            :func:`repro.core.compiler.compile_circuit`, verbatim.
        seeds: explicit trial seeds replacing the ``seed``-based range
            (``num_trials`` is then their count); ``None`` otherwise.
        noise: optional noise model for noise-aware passes.
        working: the circuit being compiled (basis-decomposed view of
            ``circuit``); set by ``DecomposeToBasis``.
        distance: the device distance matrix the router consumes; set
            by ``ResolveDistance`` or ``NoiseAwareDistance``.
        initial_layout: fixed starting mapping; pre-set by the caller or
            by ``PerfectEmbedding``, it short-circuits the layout search.
        layout_search: the full bidirectional-search record when the
            direct ``SabreLayout`` path ran, or the engine's merged
            sharded search handed in through ``Pipeline.run``.
        trial_stats: engine-path statistics (best-of-K fan-out) when the
            executor path ran.
        routing: the current routed output (SWAPs as ``swap`` gates).
            Routing-level rewrites (``BridgeRewrite``) replace it.
        raw_routing: the routing exactly as the router produced it —
            the trace-equivalence anchor ``ComplianceCheck`` verifies
            even after unitary-level rewrites changed ``routing``.
        final_circuit: fully expanded post-pass output (e.g. after
            direction legalisation); ``None`` means derive it from
            ``routing`` on demand.
        result: the assembled :class:`MappingResult` (``CollectMetrics``).
        properties: the :class:`PropertySet` of this run.
        start_time: ``perf_counter`` stamp taken when the run began.
    """

    circuit: QuantumCircuit
    coupling: CouplingGraph
    config: Optional[HeuristicConfig] = None
    seed: int = 0
    num_trials: int = 5
    num_traversals: int = 3
    objective: str = "g_add"
    executor: Optional[str] = None
    jobs: Optional[int] = None
    seeds: Optional[List[int]] = None
    noise: Optional[NoiseModel] = None
    working: Optional[QuantumCircuit] = None
    distance: Optional[FlatDistance] = None
    initial_layout: Optional[Layout] = None
    layout_search: Optional[object] = None
    trial_stats: Optional[Dict[str, Any]] = None
    routing: Optional[RoutingResult] = None
    raw_routing: Optional[RoutingResult] = None
    final_circuit: Optional[QuantumCircuit] = None
    result: Optional[MappingResult] = None
    properties: PropertySet = field(default_factory=PropertySet)
    start_time: float = field(default_factory=time.perf_counter)

    def require_routing(self, pass_name: str) -> RoutingResult:
        """The current routing, or a clear error naming the culprit."""
        if self.routing is None:
            from repro.exceptions import ReproError

            raise ReproError(
                f"{pass_name} needs a routed circuit; run a routing pass "
                "(SabreLayoutPass/SabreRoutePass or a baseline) first"
            )
        return self.routing

    def output_circuit(self) -> QuantumCircuit:
        """The current physical output: post-pass circuit when one was
        produced, otherwise the routing's 3-CNOT-decomposed form."""
        if self.final_circuit is not None:
            return self.final_circuit
        return self.require_routing("output_circuit").physical_circuit(
            decompose_swaps=True
        )
