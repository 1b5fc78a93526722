"""Built-in passes: the existing compile flow re-expressed as stages.

Every stage that used to live inline in ``compile_circuit`` or in one
of the four ``extensions/`` wrappers is one class here, so any
combination — noise-aware distances on a directed device with bridge
peepholes, a baseline router under the paper's verification, an
embedding shortcut in front of the engine fan-out — is a pass list
instead of another fork of the compile flow.
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.decompositions import (
    decompose_to_cx_basis,
    needs_cx_decomposition,
)
from repro.circuits.gates import Gate
from repro.core.bidirectional import SabreLayout
from repro.core.result import MappingResult
from repro.core.router import RoutingResult, SabreRouter
from repro.exceptions import ReproError
from repro.pipeline.base import AnalysisPass, Pass, TransformPass
from repro.pipeline.context import CompilationContext


class DecomposeToBasis(TransformPass):
    """Lower the input into the {1q, CNOT} basis the router places.

    3+ qubit gates and explicit SWAPs (which would be mistaken for
    routing SWAPs) force a rewrite; circuits already in basis pass
    through untouched — the need itself is a cached fact of the
    circuit's content (:func:`needs_cx_decomposition`), so trial sweeps
    do not rescan the gate list per compile.
    """

    def run(self, context: CompilationContext) -> None:
        circuit = context.circuit
        context.working = (
            decompose_to_cx_basis(circuit)
            if needs_cx_decomposition(circuit)
            else circuit
        )
        context.properties["decompose.rewritten"] = context.working is not circuit


class ResolveDistance(AnalysisPass):
    """Fetch the device's distance matrix through the engine cache.

    A no-op when an earlier pass (``NoiseAwareDistance``) or the caller
    already provided one, so presets can stack distance providers with
    "first wins" semantics.
    """

    def run(self, context: CompilationContext) -> None:
        if context.distance is not None:
            return
        from repro.engine.cache import get_flat_distance_matrix

        context.distance = get_flat_distance_matrix(context.coupling)


class NoiseAwareDistance(AnalysisPass):
    """Weighted distance matrix from per-edge error rates (paper §VI).

    Resolves the SWAP-log-infidelity-weighted matrix through the engine
    cache (keyed on the weight table, so unit and weighted matrices
    never collide and repeat compiles against one (device, noise) pair
    pay the weighted Floyd-Warshall once per process), and enables the
    heuristic's SWAP-cost penalty so the router also pays for executing
    a SWAP's 3 CNOTs on a noisy coupler.
    """

    def __init__(self, swap_cost_penalty: float = 1.0) -> None:
        self.swap_cost_penalty = swap_cost_penalty

    def run(self, context: CompilationContext) -> None:
        from repro.engine.cache import get_flat_distance_matrix
        from repro.extensions.noise_aware import (
            noise_aware_config,
            noise_edge_weights,
        )

        if context.noise is None:
            raise ReproError(
                "NoiseAwareDistance needs a noise model; pass noise=... to "
                "Pipeline.run (or use the paper_default preset instead)"
            )
        weights = noise_edge_weights(context.coupling, context.noise)
        context.distance = get_flat_distance_matrix(
            context.coupling, edge_weights=weights
        )
        context.config = noise_aware_config(
            context.config, self.swap_cost_penalty
        )
        context.properties["noise.weighted_edges"] = len(weights)


class PerfectEmbedding(AnalysisPass):
    """Zero-SWAP initial mapping via subgraph embedding (paper §V-A1).

    When the circuit's interaction graph embeds into the device, the
    proven perfect layout is pinned as ``initial_layout`` — the routing
    pass then routes once from it with a guaranteed SWAP-free result,
    skipping the layout search entirely.  On failure (or budget
    exhaustion) the pipeline falls through to the standard search.
    """

    def __init__(self, max_nodes: int = 200_000) -> None:
        self.max_nodes = max_nodes

    def run(self, context: CompilationContext) -> None:
        if context.initial_layout is not None:
            return
        from repro.extensions.embedding import find_perfect_layout

        layout = find_perfect_layout(
            context.working
            if context.working is not None
            else context.circuit,
            context.coupling,
            max_nodes=self.max_nodes,
        )
        context.properties["embedding.perfect"] = layout is not None
        if layout is not None:
            context.initial_layout = layout


class SabreLayoutPass(TransformPass):
    """The bidirectional layout search + routing (paper §IV-C2).

    Skipped when a fixed ``initial_layout`` short-circuits the search
    (``SabreRoutePass`` then routes once from it).  With an engine
    executor configured, the best-of-K sweep of
    :mod:`repro.engine.trials` runs instead, and the winner's routing
    lands back on the context so post-passes apply to it like any other.
    A ``layout_search`` already on the context (the engine's merge of a
    sharded search) is adopted as the search's result.
    """

    def run(self, context: CompilationContext) -> None:
        if context.routing is not None or context.initial_layout is not None:
            return
        best = context.layout_search
        if best is None:
            if (
                context.executor is None
                and context.objective != "g_add"
                and context.num_trials > 1
            ):
                # A non-default objective needs the engine's winner
                # selection; the direct path only ranks by (swaps, depth).
                context.executor = "serial"
            if context.executor is not None:
                self._run_engine(context)
                return
            searcher = SabreLayout(
                context.coupling,
                config=context.config,
                num_traversals=context.num_traversals,
                num_trials=context.num_trials,
                seed=context.seed,
                distance=context.distance,
                seeds=context.seeds,
            )
            best = searcher.run(context.working)
            context.layout_search = best
        # Otherwise the engine searched this sweep in seed shards and
        # merged them: adopt its winner.
        context.routing = context.raw_routing = best.routing
        context.initial_layout = best.initial_layout

    @staticmethod
    def _run_engine(context: CompilationContext) -> None:
        """Best-of-K independently seeded trials via :mod:`repro.engine`."""
        from repro.engine.trials import run_trials

        outcome = run_trials(
            context.working,
            context.coupling,
            seeds=(
                context.seeds
                if context.seeds is not None
                else range(context.seed, context.seed + context.num_trials)
            ),
            config=context.config,
            num_traversals=context.num_traversals,
            objective=context.objective,
            executor=context.executor,
            jobs=context.jobs,
            distance=context.distance,
        )
        winner = outcome.best_result
        context.routing = context.raw_routing = winner.routing
        context.initial_layout = winner.initial_layout
        context.trial_stats = {
            "trial_swaps": outcome.trial_swaps,
            "winning_seed": outcome.winner.seed,
            "objective_value": outcome.winner.value,
            "first_pass_swaps": outcome.first_pass_swaps,
        }
        context.properties["engine.trial_swaps"] = outcome.trial_swaps
        context.properties["engine.winning_seed"] = outcome.winner.seed
        # The executor-decision report: which executor actually ran
        # (after "auto" resolution or a downgrade), and the parallel
        # executor's seed shards.  Surfaced by ``repro map --verbose``.
        context.properties["engine.executor"] = outcome.executor
        context.properties["engine.requested_executor"] = (
            outcome.requested_executor
        )
        if outcome.shard_plan is not None:
            context.properties["engine.shard_plan"] = [
                list(shard) for shard in outcome.shard_plan
            ]
        if outcome.downgrade_reason:
            context.properties["engine.downgrade_reason"] = (
                outcome.downgrade_reason
            )


class SabreRoutePass(TransformPass):
    """One routing traversal from a fixed initial layout.

    The path taken when the caller (or ``PerfectEmbedding``) pinned a
    mapping: no search, a single forward traversal over the circuit's
    compile-once IR.  Skipped when a search pass already routed.
    """

    def run(self, context: CompilationContext) -> None:
        if context.routing is not None:
            return
        if context.initial_layout is None:
            raise ReproError(
                "SabreRoutePass needs an initial layout; run SabreLayoutPass "
                "(or PerfectEmbedding, or pass initial_layout=...) first"
            )
        from repro.engine.cache import get_flat_dag

        router = SabreRouter(
            context.coupling,
            config=context.config,
            seed=context.seed,
            distance=context.distance,
        )
        routing = router.run(
            get_flat_dag(context.working),
            initial_layout=context.initial_layout,
        )
        context.routing = context.raw_routing = routing


class BaselineRoutePass(TransformPass):
    """A comparison mapper as a drop-in routing stage.

    Wraps any entry of :data:`repro.baselines.BASELINE_MAPPERS`
    (``trivial``, ``greedy``, ``astar``) so baselines run under the
    same decomposition, verification, and metrics passes as SABRE —
    which is what makes their Table II-style numbers comparable.
    """

    def __init__(self, baseline: str, **mapper_kwargs) -> None:
        from repro.baselines import BASELINE_MAPPERS

        if baseline not in BASELINE_MAPPERS:
            raise ReproError(
                f"unknown baseline {baseline!r}; "
                f"available: {sorted(BASELINE_MAPPERS)}"
            )
        self.baseline = baseline
        self.mapper_kwargs = dict(mapper_kwargs)

    @property
    def name(self) -> str:
        return f"BaselineRoute[{self.baseline}]"

    def run(self, context: CompilationContext) -> None:
        if context.routing is not None:
            return
        from repro.baselines import BASELINE_MAPPERS

        kwargs = dict(self.mapper_kwargs)
        if context.initial_layout is not None and self.baseline == "trivial":
            kwargs.setdefault("initial_layout", context.initial_layout)
        mapper = BASELINE_MAPPERS[self.baseline](context.coupling, **kwargs)
        result = mapper.run(context.working)
        context.routing = context.raw_routing = result.routing
        context.initial_layout = result.initial_layout
        context.properties["baseline.name"] = self.baseline


class BridgeRewrite(TransformPass):
    """Post-routing peephole: SWAP+CNOT -> 4-CNOT bridge (paper §III-A).

    A routed circuit pays 3 CNOTs for a SWAP whose only purpose is to
    enable one CNOT between qubits that never interact again.  The
    bridge identity executes that CNOT *through* the middle qubit at the
    same 4-CNOT cost without moving anything — and when the un-swapped
    operands turn out directly coupled, the SWAP is simply dropped
    (saving all 3 CNOTs).

    A router-inserted SWAP on wires ``(p, m)`` is rewritten when the
    only remaining two-qubit gate touching either wire is the very next
    CNOT it enables; later single-qubit gates and directives on those
    wires are relabelled ``p <-> m`` (dropping a SWAP is exactly that
    relabelling).  The condition makes rewrites pairwise disjoint, so
    one linear scan with a wire permutation suffices.  The rewrite is a
    unitary identity but not a trace equivalence (one CNOT becomes
    four), so it marks the routing as no longer trace-preserving —
    ``ComplianceCheck`` then anchors structural verification on the
    pre-rewrite routing, and the unit suite proves semantics are
    preserved by statevector simulation.
    """

    def run(self, context: CompilationContext) -> None:
        if context.final_circuit is not None:
            raise ReproError(
                "BridgeRewrite works on the SWAP-form routing and must run "
                "before passes that expand it (LegalizeDirections)"
            )
        routing = context.require_routing(self.name)
        circuit = routing.circuit
        gates = circuit.gates
        coupling = context.coupling
        swap_set = set(routing.swap_positions)

        # Last position at which each wire appears in a non-directive
        # multi-qubit gate: the "never interacts again" test.
        last_2q = [-1] * circuit.num_qubits
        for index, gate in enumerate(gates):
            if not gate.is_directive and gate.num_qubits >= 2:
                for q in gate.qubits:
                    last_2q[q] = index

        drops = {}  # swap position -> (p, m)
        rewrites = {}  # enabled-CX position -> replacement gate list
        direct = 0
        bridged = 0
        for position in sorted(swap_set):
            p, m = gates[position].qubits
            target = self._enabled_cx(gates, position, p, m)
            if target is None:
                continue
            cx_index, cx_gate = target
            if cx_index in rewrites:
                # Two SWAPs enabling the same CX (one per operand):
                # rewriting both would compose incorrectly; the first
                # rewrite keeps the second SWAP's effect intact.
                continue
            if last_2q[p] > cx_index or last_2q[m] > cx_index:
                continue  # a wire interacts again later; SWAP still needed
            replacement = self._replacement(cx_gate, p, m, coupling)
            if replacement is None:
                continue
            drops[position] = (p, m)
            rewrites[cx_index] = replacement
            if len(replacement) == 1:
                direct += 1
            else:
                bridged += 1

        if not drops:
            context.properties["bridge.swaps_removed"] = 0
            context.properties["bridge.bridged_cx"] = 0
            context.properties["bridge.direct_cx"] = 0
            return

        out = QuantumCircuit(
            circuit.num_qubits, f"{circuit.name}_bridged", circuit.num_clbits
        )
        # Dropping SWAP(p, m) relabels p <-> m in everything after it;
        # committed drops have pairwise-disjoint wire pairs (enforced by
        # the last_2q condition), so a flat permutation table suffices.
        perm = list(range(circuit.num_qubits))
        identity = True
        swap_positions: List[int] = []
        for index, gate in enumerate(gates):
            if index in drops:
                p, m = drops[index]
                perm[p], perm[m] = perm[m], perm[p]
                identity = False
                continue
            if index in rewrites:
                for replacement_gate in rewrites[index]:
                    out.append_unchecked(replacement_gate)
                continue
            if not gate.is_directive and gate.num_qubits >= 2:
                # Multi-qubit gates are untouched by construction: any
                # that shared a wire with a dropped SWAP would have
                # blocked the drop (or is the rewritten CX itself).
                if index in swap_set:
                    swap_positions.append(out.num_gates)
                out.append_unchecked(gate)
                continue
            out.append_unchecked(
                gate if identity else gate.remapped(perm)
            )

        final_layout = routing.initial_layout.copy()
        for position in swap_positions:
            final_layout.swap_physical(*out[position].qubits)
        context.routing = RoutingResult(
            circuit=out,
            initial_layout=routing.initial_layout,
            final_layout=final_layout,
            num_swaps=len(swap_positions),
            swap_positions=swap_positions,
            num_forced_escapes=routing.num_forced_escapes,
        )
        context.properties["bridge.swaps_removed"] = len(drops)
        context.properties["bridge.bridged_cx"] = bridged
        context.properties["bridge.direct_cx"] = direct
        context.properties["routing.trace_preserving"] = bridged == 0

    @staticmethod
    def _enabled_cx(gates, position: int, p: int, m: int):
        """The first later two-qubit gate touching ``p`` or ``m`` — the
        gate this SWAP exists to enable — if it is a plain CNOT."""
        for index in range(position + 1, len(gates)):
            gate = gates[index]
            if gate.is_directive or gate.num_qubits < 2:
                continue
            if p in gate.qubits or m in gate.qubits:
                if gate.name != "cx":
                    return None  # enables a SWAP or non-CX 2q gate
                return index, gate
        return None  # SWAP enables nothing (cannot happen for SABRE)

    @staticmethod
    def _replacement(cx_gate: Gate, p: int, m: int, coupling) -> Optional[List[Gate]]:
        """Gates implementing the CX with the SWAP dropped, or None.

        With SWAP(p, m) removed, the logical qubit the CX expected on
        one wire sits on the other; substituting that operand either
        lands on a coupled pair (emit the CX directly) or at distance 2
        with the swapped edge's far end as the guaranteed middle (emit
        the 4-CNOT bridge).
        """
        from repro.extensions.bridge import bridge_gates

        control, target = cx_gate.qubits
        if control in (p, m) and target in (p, m):
            # CX on the swapped pair itself: dropping the SWAP just
            # exchanges the operands' wires (still the same coupling).
            return [Gate("cx", (target, control))]
        if control in (p, m):
            other = m if control == p else p
            if coupling.are_coupled(other, target):
                return [Gate("cx", (other, target))]
            return bridge_gates(other, control, target)
        if target in (p, m):
            other = m if target == p else p
            if coupling.are_coupled(control, other):
                return [Gate("cx", (control, other))]
            return bridge_gates(control, target, other)
        return None  # pragma: no cover - _enabled_cx guarantees overlap


class LegalizeDirections(TransformPass):
    """H-conjugate reversed CNOTs for directed devices (paper §III-A).

    Expands remaining SWAPs (3 CNOTs each need their own legalisation)
    and produces the fully hardware-native output circuit.  A no-op
    rewrite on symmetric devices — every CNOT is already allowed.
    """

    def run(self, context: CompilationContext) -> None:
        from repro.extensions.directed import (
            direction_overhead,
            legalize_directions,
        )

        source = context.final_circuit
        if source is None:
            source = context.require_routing(self.name).circuit
        reversed_count, extra_1q = direction_overhead(source, context.coupling)
        context.final_circuit = legalize_directions(source, context.coupling)
        context.properties["directed.reversed_cx"] = reversed_count
        context.properties["directed.extra_1q_gates"] = extra_1q


class ComplianceCheck(AnalysisPass):
    """Verify the output before it can escape the pipeline.

    Two independent checks (paper §III-A's constraint plus semantics):

    - **compliance** of the final physical circuit — every two-qubit
      gate on a coupled pair, and on directed devices (or when forced
      via ``check_direction=True``) every CNOT in a native direction,
      so illegal directions cannot escape silently;
    - **structural equivalence** of the routing as the router produced
      it: replaying it through its evolving layout must recover the
      working circuit exactly.  Anchored on the pre-rewrite routing
      (``raw_routing``) because unitary-level rewrites like the bridge
      are intentionally not trace-preserving.
    """

    def __init__(
        self, check_direction: Optional[bool] = None, structural: bool = True
    ) -> None:
        self.check_direction = check_direction
        self.structural = structural

    def run(self, context: CompilationContext) -> None:
        from repro.verify.compliance import assert_compliant
        from repro.verify.equivalence import assert_equivalent

        check_direction = self.check_direction
        if check_direction is None:
            check_direction = not context.coupling.is_symmetric
        output = context.output_circuit()
        assert_compliant(
            output, context.coupling, check_direction=check_direction
        )
        if self.structural and context.raw_routing is not None:
            raw = context.raw_routing
            assert_equivalent(
                context.working,
                raw.circuit,
                raw.initial_layout,
                swap_positions=raw.swap_positions,
            )
        context.properties["compliance.checked_direction"] = check_direction
        context.properties["compliance.structural"] = (
            self.structural and context.raw_routing is not None
        )


class CollectMetrics(Pass):
    """Assemble the :class:`MappingResult` and stamp the property set.

    The terminal pass of every preset; it reproduces the result shape
    of the three historical compile paths exactly (direct search,
    engine fan-out, fixed initial layout) so the pipeline is a drop-in
    replacement, then attaches the post-pass output circuit and the
    run's :class:`PropertySet`.
    """

    is_analysis = False

    def run(self, context: CompilationContext) -> None:
        routing = context.require_routing(self.name)
        elapsed = time.perf_counter() - context.start_time
        common = dict(
            name=context.circuit.name,
            device_name=context.coupling.name,
            original_circuit=context.working,
            routing=routing,
            final_layout=routing.final_layout,
            num_swaps=routing.num_swaps,
            runtime_seconds=elapsed,
        )
        search = context.layout_search
        if search is not None:
            result = MappingResult(
                initial_layout=search.initial_layout,
                first_pass_swaps=search.best_first_pass_swaps,
                trial_swaps=[t.final_swaps for t in search.trials],
                num_trials=context.num_trials,
                num_traversals=context.num_traversals,
                layout_search=search,
                **common,
            )
        elif context.trial_stats is not None:
            stats = context.trial_stats
            result = MappingResult(
                initial_layout=context.initial_layout,
                first_pass_swaps=stats["first_pass_swaps"],
                trial_swaps=stats["trial_swaps"],
                num_trials=context.num_trials,
                num_traversals=context.num_traversals,
                **common,
            )
        else:
            result = MappingResult(
                initial_layout=routing.initial_layout,
                first_pass_swaps=None,
                trial_swaps=[routing.num_swaps],
                num_trials=1,
                num_traversals=1,
                **common,
            )
        if context.final_circuit is not None:
            result.final_circuit = context.final_circuit
        if (
            context.final_circuit is not None
            or context.properties.get("bridge.swaps_removed")
        ):
            # Post-pass-honest added-gate count: the paper's g_add
            # (3 x SWAPs) undercounts bridge CNOTs and direction fixes.
            context.properties["post.added_gates"] = (
                result.physical_circuit(decompose_swaps=True).count_gates()
                - context.working.count_gates()
            )
        # Attach the live PropertySet (not a copy): the runner records
        # this pass's own timing after it returns, and callers keep the
        # timing_report() helper.
        result.properties = context.properties
        context.result = result
