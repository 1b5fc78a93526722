"""Frozen pre-IR routing path: per-run object-DAG lowering.

Before the compile-once flat IR (:mod:`repro.circuits.flatdag`), every
:meth:`SabreRouter.run` call re-lowered its circuit into a fresh
:class:`~repro.circuits.dag.CircuitDag` of Python node objects, walked
a :class:`~repro.circuits.dag.DagFrontier` (dict/deque-backed extended
set, per-iteration front re-sort), and emitted output through
validated ``Gate.remapped`` copies.  This module preserves that loop
**verbatim** for two jobs:

- **Differential oracle** — the production router must route
  byte-identical circuits to this loop for every heuristic mode,
  distance matrix (symmetric or not), penalty and escape-hatch
  setting; the differential suites (``tests/core/test_differential.py``,
  ``tests/core/test_flatdag_differential.py``,
  ``tests/property/test_scoring_properties.py``) pin the two against
  each other.  It is the only routing oracle that shares no
  :class:`~repro.circuits.flatdag.FlatDag`,
  :class:`~repro.circuits.flatdag.FrontierState` or
  :mod:`repro.core.scoring` code with production.
- **Perf baseline** — ``benchmarks/bench_router_perf.py`` times one
  :class:`LegacyDagRouter` traversal against one production traversal,
  and end-to-end :class:`LegacySabreLayout` trial sweeps against the
  shared-IR :class:`~repro.core.bidirectional.SabreLayout`, so the
  speedup is measured where users feel it.

Candidates are scored with the paper-literal formula
(:func:`~repro.core.heuristic.score_layout`): each candidate SWAP is
applied to the layout, the full Eq. 2 sum recomputed, and the SWAP
undone.  This code is deliberately *not* kept fast — it is kept
*faithful*.  Two deviations from the pre-IR code: the livelock
escape's closest-gate selection iterates the front in ascending node
order (the old code iterated a set, whose order on distance ties was
an accident of hashing), so both paths break escape ties identically;
and :class:`LegacySabreLayout` walks the layout's seed list, so it
searches any seed list the production search takes.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import CircuitDag, DagFrontier
from repro.circuits.gates import Gate
from repro.circuits.reverse import reversed_circuit
from repro.core.bidirectional import (
    BidirectionalResult,
    SabreLayout,
    TrialRecord,
)
from repro.core.heuristic import DecayTracker, score_layout
from repro.core.layout import Layout
from repro.core.router import RoutingResult, SabreRouter
from repro.core.scoring import SCORE_EPSILON
from repro.exceptions import MappingError


class LegacyDagRouter(SabreRouter):
    """The pre-IR :class:`SabreRouter`: lower-per-run, object frontier.

    Scores with the paper-literal formula; decay, tie-breaking and the
    escape hatch follow the production router's rules, so any output
    difference between the two is a fault in one of them.
    """

    def run(
        self,
        circuit: QuantumCircuit,
        initial_layout: Optional[Layout] = None,
        seed: Optional[int] = None,
        frontier: None = None,
    ) -> RoutingResult:
        """Pre-IR traversal: fresh ``CircuitDag`` + ``DagFrontier``."""
        if frontier is not None:
            raise MappingError(
                "LegacyDagRouter re-lowers per run; it takes no frontier"
            )
        n_physical = self.coupling.num_qubits
        if circuit.num_qubits > n_physical:
            raise MappingError(
                f"circuit has {circuit.num_qubits} logical qubits but device "
                f"{self.coupling.name!r} has only {n_physical} physical qubits"
            )
        for gate in circuit:
            if gate.num_qubits > 2 and not gate.is_directive:
                raise MappingError(
                    f"gate {gate} has {gate.num_qubits} qubits; decompose to "
                    "the {1q, CNOT} basis before routing"
                )

        layout = (initial_layout or Layout.trivial(n_physical)).copy()
        if layout.num_qubits != n_physical:
            raise MappingError(
                f"layout covers {layout.num_qubits} qubits, device has {n_physical}"
            )
        rng = random.Random(self.seed if seed is None else seed)
        dag = CircuitDag(circuit)
        dag_frontier = DagFrontier(dag)
        decay = DecayTracker(
            n_physical, self.config.decay_delta, self.config.decay_reset_interval
        )

        out = QuantumCircuit(
            n_physical, f"{circuit.name}_routed", max(circuit.num_clbits, 1)
        )
        swap_positions: List[int] = []
        initial = layout.copy()
        num_escapes = 0
        stall = 0

        self._dag_flush_nonrouting(dag_frontier, layout, out)
        front_gates: List[Gate] = []
        extended: List[Gate] = []
        front_dirty = True
        while not dag_frontier.done:
            executed = self._dag_execute_ready_front(dag_frontier, layout, out)
            if executed:
                decay.reset()
                stall = 0
                front_dirty = True
                continue
            if stall >= self.stall_limit:
                self._dag_escape(dag_frontier, layout, out, swap_positions)
                num_escapes += 1
                stall = 0
                decay.reset()
                front_dirty = True
                continue
            if front_dirty:
                front_gates = [
                    dag_frontier.dag.nodes[i].gate
                    for i in sorted(dag_frontier.front)
                ]
                extended = (
                    dag_frontier.extended_set(self.config.extended_set_size)
                    if self.config.uses_lookahead
                    else []
                )
                front_dirty = False
            self._dag_pick_swap(
                dag_frontier, layout, out, swap_positions, decay, rng,
                front_gates, extended,
            )
            stall += 1

        return RoutingResult(
            circuit=out,
            initial_layout=initial,
            final_layout=layout,
            num_swaps=len(swap_positions),
            swap_positions=swap_positions,
            num_forced_escapes=num_escapes,
        )

    # ------------------------------------------------------------------
    # Pre-IR main-loop pieces (object-DAG walkers)
    # ------------------------------------------------------------------

    def _dag_flush_nonrouting(
        self, frontier: DagFrontier, layout: Layout, out: QuantumCircuit
    ) -> None:
        l2p = layout.l2p
        for index in frontier.drain_nonrouting():
            out.append(frontier.dag.nodes[index].gate.remapped(l2p))

    def _dag_execute_ready_front(
        self, frontier: DagFrontier, layout: Layout, out: QuantumCircuit
    ) -> bool:
        l2p = layout.l2p
        adjacency = self._adjacency
        nodes = frontier.dag.nodes
        ready = [
            index
            for index in frontier.front
            if l2p[nodes[index].gate.qubits[1]]
            in adjacency[l2p[nodes[index].gate.qubits[0]]]
        ]
        if not ready:
            return False
        for index in sorted(ready):
            frontier.execute_front_gate(index)
            out.append(frontier.dag.nodes[index].gate.remapped(l2p))
        self._dag_flush_nonrouting(frontier, layout, out)
        return True

    def _dag_candidates(
        self, frontier: DagFrontier, layout: Layout
    ) -> List[Tuple[int, int]]:
        l2p = layout.l2p
        candidates = set()
        for index in frontier.front:
            for q in frontier.dag.nodes[index].gate.qubits:
                p = l2p[q]
                for nb in self.neighbors[p]:
                    candidates.add((p, nb) if p < nb else (nb, p))
        return sorted(candidates)

    def _dag_pick_swap(
        self,
        frontier: DagFrontier,
        layout: Layout,
        out: QuantumCircuit,
        swap_positions: List[int],
        decay: DecayTracker,
        rng: random.Random,
        front_gates: List[Gate],
        extended: List[Gate],
    ) -> None:
        p2l = layout.p2l
        l2p = layout.l2p
        config = self.config
        uses_decay = config.uses_decay
        penalty = config.swap_cost_penalty
        best_score = float("inf")
        best: List[Tuple[int, int]] = []
        dist = self.dist
        for pa, pb in self._dag_candidates(frontier, layout):
            qa, qb = p2l[pa], p2l[pb]
            layout.swap_logical(qa, qb)
            score = score_layout(front_gates, extended, l2p, dist, config)
            layout.swap_logical(qa, qb)
            if uses_decay:
                score *= decay.factor(qa, qb)
            if penalty:
                score += penalty * (dist[pa][pb] - 1.0)
            if score < best_score - SCORE_EPSILON:
                best_score = score
                best = [(qa, qb)]
            elif score <= best_score + SCORE_EPSILON:
                best.append((qa, qb))
        if not best:
            raise MappingError(
                "no SWAP candidates found; is the coupling graph connected?"
            )
        if self.on_winner_set is not None:
            self.on_winner_set(best)
        qa, qb = best[0] if len(best) == 1 else rng.choice(best)
        self._dag_apply_swap(qa, qb, layout, out, swap_positions)
        decay.record_swap(qa, qb)

    def _dag_apply_swap(
        self,
        qa: int,
        qb: int,
        layout: Layout,
        out: QuantumCircuit,
        swap_positions: List[int],
    ) -> None:
        l2p = layout.l2p
        swap_positions.append(out.num_gates)
        out.append(Gate("swap", (l2p[qa], l2p[qb])))
        layout.swap_logical(qa, qb)

    def _dag_escape(
        self,
        frontier: DagFrontier,
        layout: Layout,
        out: QuantumCircuit,
        swap_positions: List[int],
    ) -> int:
        l2p = layout.l2p
        buf = self.flat_dist.buf
        n = self.flat_dist.n
        nodes = frontier.dag.nodes
        # Ascending iteration so distance ties resolve exactly like the
        # flat path's sorted front list (see module docstring).
        target = min(
            sorted(frontier.front),
            key=lambda i: buf[
                l2p[nodes[i].gate.qubits[0]] * n
                + l2p[nodes[i].gate.qubits[1]]
            ],
        )
        a, b = nodes[target].gate.qubits
        path = self.coupling.shortest_path(l2p[a], l2p[b])
        swaps = 0
        for hop in path[1:-1]:
            qb = layout.logical(hop)
            self._dag_apply_swap(a, qb, layout, out, swap_positions)
            swaps += 1
        return swaps


class LegacySabreLayout(SabreLayout):
    """The pre-IR :class:`SabreLayout`: every traversal re-lowers.

    Same search, seeds, and winner selection as the production class —
    only the per-pass circuit representation differs — so output must
    be byte-identical and any wall-clock gap is the compile-once win.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.router = LegacyDagRouter(
            self.coupling,
            config=self.config,
            seed=self.seed,
            distance=self.router.flat_dist,
        )

    def run(self, circuit: QuantumCircuit) -> BidirectionalResult:
        """Pre-IR search loop: per-traversal circuit handoff."""
        from repro.circuits.depth import circuit_depth

        reverse = reversed_circuit(circuit)
        best: Optional[BidirectionalResult] = None
        best_key = None
        trials: List[TrialRecord] = []
        for trial, trial_seed in enumerate(self.seeds):
            layout = Layout.random(self.coupling.num_qubits, seed=trial_seed)
            first_pass_swaps = 0
            best_swaps = None
            result: Optional[RoutingResult] = None
            for traversal in range(self.num_traversals):
                forward = traversal % 2 == 0
                result = self.router.run(
                    circuit if forward else reverse,
                    initial_layout=layout,
                    seed=trial_seed,
                )
                layout = result.final_layout
                if traversal == 0:
                    first_pass_swaps = result.num_swaps
                if not forward:
                    continue
                if best_swaps is None or result.num_swaps < best_swaps:
                    best_swaps = result.num_swaps
                key = (result.num_swaps, circuit_depth(result.circuit))
                if best_key is None or key < best_key:
                    best_key = key
                    best = BidirectionalResult(
                        routing=result,
                        initial_layout=result.initial_layout,
                        best_trial_index=trial,
                    )
            assert result is not None
            trials.append(
                TrialRecord(
                    seed=trial_seed,
                    first_pass_swaps=first_pass_swaps,
                    final_swaps=result.num_swaps,
                    best_swaps=best_swaps,
                )
            )
        assert best is not None
        best.trials = trials
        return best
