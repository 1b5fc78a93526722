"""SABRE's SWAP-based heuristic search — Algorithm 1 of the paper.

One traversal: scan the dependency DAG from the initial front layer to
the end, executing every hardware-compatible gate immediately and
inserting the best-scoring SWAP whenever the front layer is stuck.

The search-space reduction that gives SABRE its exponential speedup
(§IV-C1) lives in :meth:`~repro.core.scoring.VectorDevice.front_candidates`:
only SWAPs on physical edges touching a front-layer qubit are
considered ("only the SWAPs that associate with at least one qubit in
the front layer are the candidate SWAPs"), i.e. ``O(N)`` candidates
instead of the ``O(exp(N))`` mapping combinations of the A* baseline.

A traversal is split in two.  :meth:`SabreRouter.search` makes every
SWAP decision and builds no circuit; it returns a :class:`SearchTrace`
(the SWAP record, the SWAP count and the depth the circuit would
have).  :meth:`SabreRouter._replay` turns a trace into its routed
circuit.  :meth:`SabreRouter.run` is the two in sequence, and a layout
search replays only the winning forward traversal.  The search loop
(:meth:`SabreRouter._search`) scores every front with a scalar delta
loop (:meth:`~repro.core.scoring.VectorBlock.score_scalar`) that
adjusts only the Eq. 2 terms of the two moved qubits, and skips the
look-ahead sum of any candidate whose exact lower bound already loses
to the best score so far.  On an asymmetric distance matrix, where
that delta arithmetic would not be exact, the loop scores with
:meth:`~repro.core.scoring.VectorBlock.score_full` instead, chosen once
per traversal.  The loop redoes no per-front work that does not depend
on the layout: the look-ahead set ``E`` is a function of the front
alone, so the frontier serves it from a front-keyed memo that lives
for one layout search
(:meth:`~repro.circuits.flatdag.FrontierState.extended_pairs`), and
the sorted candidate list is memoised per front-home tuple on the
device.  Search runs over a *folded* frontier that executes two-qubit
gates and barriers only — SABRE's heuristic never looks at a
single-qubit gate — and adds each single-qubit chain to the depth
counters as one precomputed tail
(:meth:`~repro.circuits.flatdag.FlatDag.folded`).  It executes ready
gates in one inlined cascade over a worklist, touching the frontier's
buffers directly.  The search may execute ready gates in any order: at
each SWAP decision the front, the layout, the per-wire depth counters,
the RNG stream and the decay table are the same whatever order they
ran in.

The replay walks the unfolded DAG instead, and its batch order fixes
the order of the emitted gates: each ready batch ascending, then the
single-qubit gates and directives it released, with the recorded SWAPs
in between.  The walk yields that emission order as node ids with SWAP
markers; :meth:`SabreRouter._replay` then only builds the gates,
remapping each through the current layout.

The search loop and the replay walk also exist in C (``_search.c``,
loaded by :mod:`repro.core.native`), together with the lowering that
builds their tables from the IR's flat operands: one native call runs
a whole traversal, returns the same SWAP record, depth and final
layout, and leaves the tie-break RNG in the same state, and one more
returns a winner's emission order.  They are the production path, and
a compile on them never builds the IR's Python DAG views.  The Python
:meth:`SabreRouter._search` stays as the fallback and differential
oracle of the search, and runs a traversal only when no kernel could
be built or loaded, when the distance matrix is asymmetric, while a
:class:`~repro.telemetry.profile.RouterProfiler` is active (the kernel
keeps no per-step counters) or when :attr:`SabreRouter.on_winner_set`
is set.  :meth:`SabreRouter._replay_order` is the replay walk's
fallback and oracle; it runs only when no kernel is loaded.  The
kernel is exact by
construction: scores are summed in ``score_scalar``'s float order and
compiled without FMA contraction or ``-ffast-math``, a tie-break is
CPython's ``Random.choice`` on the same MT19937 state (read with
``getstate`` and written back with ``setstate``), and the escape hatch
walks the same BFS path.  It needs no look-ahead memo: walking ``E``
afresh at every refresh costs less in C than a memo probe does in
Python.  :attr:`SearchTrace.loop` records which loop ran.

The paper-literal oracle is :class:`~repro.core.legacy.LegacyDagRouter`
(and :class:`~repro.core.legacy.LegacySabreLayout` for whole layout
searches): it regenerates the candidates from scratch, temporarily
applies each SWAP and recomputes the full Eq. 2 sum
(:func:`repro.core.heuristic.score_layout`) over its own object DAG.
It walks the same sorted candidate order, so it produces identical
winner sets, identical tie-breaks and identical routed circuits for
identical seeds; the differential suites enforce this.

The traversal runs over the compile-once flat IR of
:mod:`repro.circuits.flatdag`: :meth:`SabreRouter.run` accepts either a
:class:`~repro.circuits.circuit.QuantumCircuit` (lowered on the spot —
the thin-wrapper entry point) or a prebuilt shared
:class:`~repro.circuits.flatdag.FlatDag`, plus an optional reusable
:class:`~repro.circuits.flatdag.FrontierState` so repeated traversals
of one circuit (the bidirectional search, best-of-K trials) never
re-lower or reallocate per pass.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Set, Tuple, Union

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.depth import circuit_depth
from repro.circuits.flatdag import FlatDag, FrontierState
from repro.circuits.gates import remap_gate, swap_gate
from repro.core import native
from repro.core.heuristic import HeuristicConfig
from repro.core.layout import Layout
from repro.core.scoring import FlatDistance, VectorBlock, VectorDevice
from repro.exceptions import MappingError
from repro.telemetry.profile import active_router_profiler
from repro.hardware.coupling import CouplingGraph
from repro.hardware.distance import bfs_flat_distance


@dataclass
class RoutingResult:
    """Output of one routing traversal.

    Attributes:
        circuit: the hardware-compliant circuit on *physical* wires.
            Inserted SWAPs appear as ``swap`` gates (decompose with
            :meth:`physical_circuit` for the 3-CNOT expansion).
        initial_layout: the mapping the traversal started from.
        final_layout: the mapping after all gates executed — the input
            to the next traversal in the bidirectional scheme.
        num_swaps: SWAPs inserted by this traversal.
        swap_positions: indices into ``circuit`` of the inserted SWAPs.
        num_forced_escapes: times the livelock escape hatch fired
            (0 in normal operation; see ``SabreRouter.stall_limit``).
    """

    circuit: QuantumCircuit
    initial_layout: Layout
    final_layout: Layout
    num_swaps: int
    swap_positions: List[int] = field(default_factory=list)
    num_forced_escapes: int = 0
    #: Memoised 3-CNOT expansion (built on first physical_circuit call).
    _decomposed: Optional[QuantumCircuit] = field(
        default=None, repr=False, compare=False
    )
    #: Memoised :attr:`depth`.
    _depth: Optional[int] = field(default=None, repr=False, compare=False)

    @property
    def depth(self) -> int:
        """Depth of :attr:`circuit` with each SWAP as one gate — the
        layout search's tie-break key, equal to :attr:`SearchTrace.depth`
        of the same traversal routed in search mode."""
        if self._depth is None:
            self._depth = circuit_depth(self.circuit)
        return self._depth

    @property
    def added_gates(self) -> int:
        """Additional gate count under the 3-CNOT SWAP decomposition —
        the paper's ``g_add`` metric."""
        return 3 * self.num_swaps

    def physical_circuit(self, decompose_swaps: bool = True) -> QuantumCircuit:
        """The routed circuit, optionally with SWAPs expanded to CNOTs.

        The decomposed form is memoised — metrics, verifiers, and report
        code all call this repeatedly, and re-walking the whole circuit
        per call was pure waste.  Callers must treat the returned
        circuit as read-only (every in-repo consumer does).
        """
        if not decompose_swaps:
            return self.circuit
        if self._decomposed is None:
            from repro.circuits.decompositions import swap_decomposition

            out = QuantumCircuit(
                self.circuit.num_qubits, self.circuit.name, self.circuit.num_clbits
            )
            swap_set = set(self.swap_positions)
            for index, gate in enumerate(self.circuit):
                if index in swap_set:
                    out.extend(swap_decomposition(*gate.qubits))
                else:
                    out.append(gate)
            self._decomposed = out
        return self._decomposed

    def __getstate__(self):
        # Drop the memo from pickles: process-pool trials ship results
        # back to the parent, and the decomposed copy would roughly
        # double the payload for a cache that rebuilds on demand.
        state = self.__dict__.copy()
        state["_decomposed"] = None
        return state


@dataclass
class SearchTrace:
    """Record of one no-emission routing traversal (search mode).

    A multi-traversal layout search (:class:`~repro.core.bidirectional.
    SabreLayout`) never consumes the
    routed circuits of losing traversals: only the winning forward
    traversal is turned into a real circuit, by replaying its SWAP
    decisions (:meth:`SabreRouter._replay`).  A trace therefore
    carries just the selection key (``num_swaps``, ``depth``), the SWAP
    record that makes the traversal mechanically reproducible, and the
    layout endpoints.

    ``depth`` equals ``circuit_depth(replayed.circuit)`` by
    construction: the search maintains the same per-wire ASAP counters
    over the gates it *would* have emitted.  ``escapes`` marks spans of
    ``swaps`` applied by the livelock hatch back-to-back (the replay
    must not run its ready scan inside such a span, mirroring the
    search loop's behaviour).  ``loop`` names the loop that made the
    decisions: ``"native"`` (the C kernel, :mod:`repro.core.native`) or
    ``"python"`` (:meth:`SabreRouter._search`).
    """

    initial_layout: Layout
    final_layout: Layout
    num_swaps: int
    depth: int
    swaps: List[Tuple[int, int]]
    escapes: List[Tuple[int, int]] = field(default_factory=list)
    num_forced_escapes: int = 0
    loop: str = "python"


class SabreRouter:
    """One-traversal SWAP-based heuristic search (Algorithm 1).

    Args:
        coupling: device coupling graph (must be connected).
        config: heuristic configuration; defaults to the paper's.
        seed: RNG seed for tie-breaking among equal-score SWAPs.
        distance: precomputed distance matrix — either a nested
            ``N x N`` sequence or a :class:`~repro.core.scoring.FlatDistance`
            (computed when omitted; pass it in when routing many
            circuits on one device).  When omitted it is computed with
            the BFS APSP (``O(N·E)``), which agrees with the paper's
            Floyd-Warshall on every unit-weight graph (a test
            invariant) and is much cheaper on sparse devices.
        stall_limit: consecutive SWAP insertions without executing any
            gate before the escape hatch force-routes the closest
            front-layer gate along a shortest path.  The paper does not
            discuss livelock; with decay enabled it is essentially
            unreachable, but the hatch makes termination a theorem
            rather than an observation.  ``None`` derives a generous
            default from the device diameter.
    """

    def __init__(
        self,
        coupling: CouplingGraph,
        config: Optional[HeuristicConfig] = None,
        seed: Optional[int] = None,
        distance: Optional[
            Union[FlatDistance, Sequence[Sequence[float]]]
        ] = None,
        stall_limit: Optional[int] = None,
    ) -> None:
        coupling.require_connected()
        self.coupling = coupling
        self.config = config or HeuristicConfig()
        self.seed = seed
        if distance is None:
            # Built directly in flat row-major form — no nested
            # list-of-lists detour for the default path.
            distance = bfs_flat_distance(coupling)
        self.flat_dist = FlatDistance.from_matrix(distance)
        if self.flat_dist.n != coupling.num_qubits:
            raise MappingError(
                f"distance matrix is {self.flat_dist.n}x{self.flat_dist.n}, "
                f"device has {coupling.num_qubits} qubits"
            )
        # The nested view is only needed by the legacy oracle and
        # external readers; the `dist` property rebuilds it lazily from
        # the flat buffer, so routing never pays the O(N^2) copy.
        self._dist_nested: Optional[List[List[float]]] = None
        self.neighbors: List[List[int]] = [
            coupling.neighbors(q) for q in range(coupling.num_qubits)
        ]
        #: Listified distance buffer shared (read-only) by every run's
        #: VectorBlock, so repeated runs skip the O(N^2) conversion.
        self._buf_list: List[float] = self.flat_dist.buf.tolist()
        #: Adjacency as sets for the O(1) executability test in the
        #: main loop (bypasses CouplingGraph's bounds-checked API).
        self._adjacency: List[Set[int]] = [set(nbs) for nbs in self.neighbors]
        #: Device-constant candidate tables, shared read-only by every
        #: run's VectorBlock.
        self._vdev = VectorDevice(self.flat_dist, self.neighbors)
        if stall_limit is None:
            stall_limit = max(64, 16 * coupling.diameter())
        self.stall_limit = stall_limit
        #: Interned SWAP gates keyed ``pa * N + pb``: the router emits
        #: the same few hundred physical SWAPs millions of times per
        #: layout sweep, and Gate is immutable, so sharing is safe.
        self._swap_cache: dict = {}
        #: Test seam: when set, called once per SWAP selection with the
        #: list of best-scoring (qa, qb) pairs *before* the tie-break.
        #: Setting it runs every traversal on the Python loop.
        self.on_winner_set: Optional[
            Callable[[List[Tuple[int, int]]], None]
        ] = None
        #: The native kernel's device tables (repro.core.native).
        self._native_device = None

    @property
    def dist(self) -> List[List[float]]:
        """Nested list-of-lists view of the distance matrix.

        Kept for the legacy oracle (:mod:`repro.core.legacy`) and
        external consumers; routing reads :attr:`flat_dist` directly.
        Materialised lazily when the router was constructed from a
        :class:`FlatDistance`.
        """
        if self._dist_nested is None:
            self._dist_nested = self.flat_dist.to_matrix()
        return self._dist_nested

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(
        self,
        circuit: Union[QuantumCircuit, FlatDag],
        initial_layout: Optional[Layout] = None,
        seed: Optional[int] = None,
        frontier: Optional[FrontierState] = None,
    ) -> RoutingResult:
        """Route ``circuit`` onto the device from ``initial_layout``.

        ``circuit`` is either a :class:`QuantumCircuit` (lowered to a
        fresh :class:`~repro.circuits.flatdag.FlatDag` on the spot) or
        a prebuilt — typically cached and shared — IR.  The circuit
        must already be in a <=2-qubit basis (the compiler front door
        handles decomposition).  Returns a :class:`RoutingResult`;
        ``result.circuit`` is guaranteed hardware-compliant.

        ``seed`` overrides the constructor's tie-break seed for this
        run only.  ``frontier`` is an optional reusable unfolded
        :class:`~repro.circuits.flatdag.FrontierState` built over the
        same IR; it is reset (O(n) array refill, no reallocation) at
        the start of the run.  When omitted, every run builds a private
        frontier, RNG, and scoring state — no mutable state is shared
        between runs, so concurrent trials routing through one router
        instance stay independent and deterministic.

        A run is a search traversal (as :meth:`search` runs it; the
        Python loop's folded frontier shares ``frontier``'s look-ahead
        memo) followed by :meth:`_replay` of its trace (on ``frontier``
        when the replay runs in Python).
        """
        ir, layout, rng = self._prepare(
            circuit, initial_layout, seed, frontier
        )
        if frontier is not None:
            frontier.reset()
        trace = self._native_search(ir, layout.copy(), rng)
        if trace is None:
            if frontier is None:
                frontier = FrontierState(ir)
            trace = self._search(
                ir,
                layout.copy(),
                rng,
                FrontierState(ir, ext_memo=frontier.ext_memo, folded=True),
            )
        result = self._replay(ir, layout, frontier, trace)
        result._depth = trace.depth
        return result

    def search(
        self,
        circuit: Union[QuantumCircuit, FlatDag],
        initial_layout: Optional[Layout] = None,
        seed: Optional[int] = None,
        frontier: Optional[FrontierState] = None,
    ) -> SearchTrace:
        """Route ``circuit`` in search mode: same decisions, no circuit.

        Arguments and validation are those of :meth:`run`; the
        traversal makes the identical SWAP decisions (same scoring,
        same RNG stream, same :attr:`on_winner_set` calls) but returns
        a :class:`SearchTrace` instead of building a routed circuit.
        :meth:`_replay` turns the trace into the routed circuit, which
        is what :meth:`run` returns.  ``frontier``, when given, must be
        folded; only the Python loop uses it.

        The traversal runs in the native kernel when it is loaded
        (:mod:`repro.core.native`), and on the Python loop
        (:meth:`_search`) when the distance matrix is asymmetric, a
        :class:`~repro.telemetry.profile.RouterProfiler` is active or
        :attr:`on_winner_set` is set.  Both make the same decisions;
        :attr:`SearchTrace.loop` says which one ran.
        """
        ir, layout, rng = self._prepare(
            circuit, initial_layout, seed, frontier, folded=True
        )
        trace = self._native_search(ir, layout, rng)
        if trace is None:
            if frontier is None:
                frontier = FrontierState(ir, folded=True)
            else:
                frontier.reset()
            trace = self._search(ir, layout, rng, frontier)
        return trace

    def _prepare(
        self,
        circuit: Union[QuantumCircuit, FlatDag],
        initial_layout: Optional[Layout],
        seed: Optional[int],
        frontier: Optional[FrontierState],
        folded: bool = False,
    ) -> Tuple[FlatDag, Layout, random.Random]:
        """Validate one traversal's inputs and build its private state:
        the IR, a layout copy and the tie-break RNG.  A given
        ``frontier`` must be built over the IR, folded for
        :meth:`search` and unfolded for :meth:`run`; the caller resets
        it when a loop uses it."""
        ir = circuit if isinstance(circuit, FlatDag) else FlatDag.from_circuit(circuit)
        n_physical = self.coupling.num_qubits
        if ir.num_qubits > n_physical:
            raise MappingError(
                f"circuit has {ir.num_qubits} logical qubits but device "
                f"{self.coupling.name!r} has only {n_physical} physical qubits"
            )
        if not ir.routable:
            for gate in ir.gates:
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
        if frontier is not None:
            if frontier.dag is not ir:
                raise MappingError(
                    "frontier was built over a different circuit IR; "
                    "build one FrontierState per FlatDag and reuse it"
                )
            if (frontier.fold is not None) != folded:
                raise MappingError(
                    "search needs a folded frontier and run an unfolded "
                    "one; build it with "
                    f"FrontierState(ir, folded={folded})"
                )
        return ir, layout, rng

    # ------------------------------------------------------------------
    # Search loop + replay
    # ------------------------------------------------------------------

    def _kernel_searches(self) -> bool:
        """True when this router's traversals run in the native kernel:
        it is loaded, the distance matrix is symmetric (an asymmetric
        one is scored by
        :meth:`~repro.core.scoring.VectorBlock.score_full`), and no
        profiler or :attr:`on_winner_set` hook observes the Python
        loop's steps."""
        return (
            native.kernel is not None
            and self.flat_dist.symmetric
            and self.on_winner_set is None
            and active_router_profiler() is None
        )

    def _native_search(
        self, ir: FlatDag, layout: Layout, rng: random.Random
    ) -> Optional[SearchTrace]:
        """:meth:`_search` in the native kernel, or ``None`` (layout and
        RNG untouched) when this traversal must run on the Python loop
        (see :meth:`_kernel_searches`) or the kernel declines it."""
        if not self._kernel_searches():
            return None
        initial = layout.copy()
        out = native.search(self, ir, layout, rng)
        if out is None:
            return None
        swaps, escapes, depth = out
        return SearchTrace(
            initial_layout=initial,
            final_layout=layout,
            num_swaps=len(swaps),
            depth=depth,
            swaps=swaps,
            escapes=escapes,
            num_forced_escapes=len(escapes),
            loop="native",
        )

    def _search(
        self,
        ir: FlatDag,
        layout: Layout,
        rng: random.Random,
        frontier: FrontierState,
    ) -> SearchTrace:
        """One search-mode traversal over a reset, folded ``frontier``;
        mutates ``layout`` into the final layout.

        The loop makes the SWAP decisions of Algorithm 1 but builds no
        circuit.  It tracks only what traversal selection needs — the
        SWAP record, its count, and per-wire ASAP depth counters that
        mirror ``circuit_depth`` of the circuit :meth:`_replay` will
        emit.  The folded frontier never executes a single-qubit gate:
        the depth counters take each logical qubit's root chain once at
        the start and, whenever a node executes, the depth tail of the
        chain after it on each of its wires.  The layout cannot change
        between a node and its chain, which the unfolded frontier
        drains before the next SWAP, so the tail lands on the physical
        wire the chain would have been emitted on.

        Ready gates run in one cascade over a worklist, with the
        frontier's buffers bound to locals: a gate taken off the list
        is checked against the layout and either executed, releasing
        its two-qubit successors onto the list, or (if it is new) put
        into the front.  Only the gates a SWAP moved and freshly
        released gates are ever checked; ``fgate`` maps each logical
        qubit to its front gate.  Barriers take the slow path through
        :meth:`~repro.circuits.flatdag.FrontierState.drain_nonrouting`
        (they add no depth step of their own).
        """
        initial = layout.copy()
        config = self.config
        profiler = active_router_profiler()
        on_winner_set = self.on_winner_set
        l2p = layout.l2p
        p2l = layout.p2l
        pairs = ir.pairs
        qubit_a = ir.qubit_a
        qubit_b = ir.qubit_b
        two_qubit = ir.two_qubit
        adjacency = self._adjacency
        fold = frontier.fold
        succs = fold.succs
        tails = fold.tails
        remaining = frontier.remaining
        executed = frontier.executed
        front = frontier.front
        front_sorted = frontier.front_list()
        ready_other = frontier._ready_other
        drain_nonrouting = frontier.drain_nonrouting
        extended_pairs = frontier.extended_pairs
        block = VectorBlock(self._vdev, config, self._buf_list)
        set_front = block.set_front
        # The delta loop is exact on symmetric matrices only (see
        # repro.core.scoring); any other matrix is scored in full.
        score = (
            block.score_scalar
            if self.flat_dist.symmetric
            else block.score_full
        )
        uses_lookahead = config.uses_lookahead
        uses_decay = config.uses_decay
        ext_size = config.extended_set_size
        stall_limit = self.stall_limit
        n = len(l2p)
        decay = [1.0] * n
        decay_steps = 0
        decay_delta = config.decay_delta
        decay_interval = config.decay_reset_interval

        wire = [0] * n
        for q, d in enumerate(fold.root_depth):
            if d:
                wire[l2p[q]] += d
        rec: List[Tuple[int, int]] = []
        rec_push = rec.append
        escapes: List[Tuple[int, int]] = []
        fgate = [-1] * n
        work = list(front_sorted)
        for index in work:
            fgate[qubit_a[index]] = index
            fgate[qubit_b[index]] = index

        def apply_swap(qa: int, qb: int) -> None:
            pa = l2p[qa]
            pb = l2p[qb]
            rec_push((qa, qb))
            wa = wire[pa]
            wb = wire[pb]
            end = (wa if wa >= wb else wb) + 1
            wire[pa] = end
            wire[pb] = end
            l2p[qa] = pb
            l2p[qb] = pa
            p2l[pa] = qb
            p2l[pb] = qa
            g1 = fgate[qa]
            if g1 >= 0:
                work.append(g1)
            g2 = fgate[qb]
            if g2 >= 0 and g2 != g1:
                work.append(g2)

        frontier.track_front_log = True
        frontier.front_log.clear()
        num_escapes = 0
        num_ran = 0
        stall = 0
        front_dirty = True
        while True:
            ran = 0
            while True:
                while work:
                    index = work.pop()
                    qa = qubit_a[index]
                    qb = qubit_b[index]
                    pa = l2p[qa]
                    pb = l2p[qb]
                    if pb not in adjacency[pa]:
                        if fgate[qa] != index:
                            front.add(index)
                            insort(front_sorted, index)
                            fgate[qa] = index
                            fgate[qb] = index
                        continue
                    if fgate[qa] == index:
                        front.remove(index)
                        del front_sorted[bisect_left(front_sorted, index)]
                        fgate[qa] = -1
                        fgate[qb] = -1
                    executed[index] = 1
                    ran += 1
                    wa = wire[pa]
                    wb = wire[pb]
                    end = (wa if wa >= wb else wb) + 1
                    ta, tb = tails[index]
                    wire[pa] = end + ta
                    wire[pb] = end + tb
                    for s in succs[index]:
                        r = remaining[s] - 1
                        remaining[s] = r
                        if r == 0:
                            if two_qubit[s]:
                                work.append(s)
                            else:
                                ready_other.append(s)
                if not ready_other:
                    break
                # Barriers: executed by the frontier, which files the
                # two-qubit gates they release into the front (and its
                # log) for the worklist to check.
                for index in drain_nonrouting():
                    for q, t in zip(pairs[index], tails[index]):
                        if t:
                            wire[l2p[q]] += t
                for index in frontier.drain_front_log():
                    fgate[qubit_a[index]] = index
                    fgate[qubit_b[index]] = index
                    work.append(index)
            if not front_sorted:
                num_ran += ran
                break
            if ran:
                num_ran += ran
                if decay_steps:
                    decay = [1.0] * n
                    decay_steps = 0
                stall = 0
                front_dirty = True
            if stall >= stall_limit:
                span = len(rec)
                self._escape(frontier, layout, apply_swap)
                escapes.append((span, len(rec) - span))
                # A span can move one front gate more than once.
                work[:] = set(work)
                num_escapes += 1
                if decay_steps:
                    decay = [1.0] * n
                    decay_steps = 0
                stall = 0
                front_dirty = True
                continue
            if front_dirty:
                # F and E only change when a gate executes, so
                # consecutive SWAP selections share them.  E comes from
                # the frontier's front-keyed memo: each distinct front
                # is walked once per layout search.
                set_front(
                    [pairs[i] for i in front_sorted],
                    extended_pairs(ext_size) if uses_lookahead else (),
                )
                front_dirty = False
            if profiler is None:
                best = score(l2p, p2l, decay, uses_decay)
            else:
                t0 = time.perf_counter()
                best = score(l2p, p2l, decay, uses_decay)
                profiler.add_scalar(time.perf_counter() - t0)
                profiler.record_step(
                    block.scalar_candidates, len(best), block.scalar_bounded
                )
            if on_winner_set is not None:
                on_winner_set(best)
            qa, qb = best[0] if len(best) == 1 else rng.choice(best)
            apply_swap(qa, qb)
            decay[qa] += decay_delta
            decay[qb] += decay_delta
            decay_steps += 1
            if decay_steps >= decay_interval:
                decay = [1.0] * n
                decay_steps = 0
            stall += 1

        frontier.num_executed += num_ran
        frontier.track_front_log = False
        return SearchTrace(
            initial_layout=initial,
            final_layout=layout,
            num_swaps=len(rec),
            depth=max(wire) if wire else 0,
            swaps=rec,
            escapes=escapes,
            num_forced_escapes=num_escapes,
        )

    def _replay(
        self,
        ir: FlatDag,
        layout: Layout,
        frontier: Optional[FrontierState],
        trace: SearchTrace,
    ) -> RoutingResult:
        """Re-emit a recorded search traversal as a real circuit.

        Purely mechanical: no scoring, no RNG, no decay — the SWAP
        sequence in ``trace`` *is* the decision stream, and the ready
        scan between SWAPs reproduces exactly where the search loop
        executed gates (same layouts, same front layers).  Its batch
        order — each ready batch ascending, then the single-qubit gates
        and directives it released — defines the emitted gate sequence,
        which the legacy oracle's emitting loop
        (:class:`~repro.core.legacy.LegacyDagRouter`) matches gate for
        gate.  ``layout`` must equal ``trace.initial_layout`` (pass a
        copy); it ends as the final layout.

        The walk yields the emission order, node ids with
        :data:`repro.core.native.SWAP` markers between them.  The native
        kernel walks it whenever it is loaded
        (:func:`repro.core.native.replay`); otherwise, or if it
        declines, :meth:`_replay_order` walks it on ``frontier``, which
        must then be unfolded and freshly reset over ``ir`` (``None``
        builds one).  Either way this method then only builds the
        gates: each node's gate remapped through the current layout,
        each SWAP on the physical pair it exchanges.
        """
        order = None
        if native.kernel is not None:
            order = native.replay(self, ir, layout, trace)
        if order is None:
            if frontier is None:
                frontier = FrontierState(ir)
            order = self._replay_order(ir, layout.copy(), frontier, trace)
        out = QuantumCircuit(
            self.coupling.num_qubits, f"{ir.name}_routed", max(ir.num_clbits, 1)
        )
        emit = out.append_unchecked
        swap_positions: List[int] = []
        initial = layout.copy()
        l2p = layout.l2p
        p2l = layout.p2l
        gates = ir.gates
        remap = remap_gate
        swap_cache = self._swap_cache
        nd = self.coupling.num_qubits
        swaps = iter(trace.swaps)
        for position, index in enumerate(order):
            if index >= 0:
                emit(remap(gates[index], l2p))
                continue
            qa, qb = next(swaps)
            pa = l2p[qa]
            pb = l2p[qb]
            swap_positions.append(position)
            key = pa * nd + pb
            g = swap_cache.get(key)
            if g is None:
                g = swap_cache[key] = swap_gate(pa, pb)
            emit(g)
            l2p[qa] = pb
            l2p[qb] = pa
            p2l[pa] = qb
            p2l[pb] = qa
        return RoutingResult(
            circuit=out,
            initial_layout=initial,
            final_layout=layout,
            num_swaps=len(swap_positions),
            swap_positions=swap_positions,
            num_forced_escapes=trace.num_forced_escapes,
        )

    def _replay_order(
        self,
        ir: FlatDag,
        layout: Layout,
        frontier: FrontierState,
        trace: SearchTrace,
    ) -> List[int]:
        """The emission order of :meth:`_replay`, walked in Python on a
        reset unfolded ``frontier`` (mutates ``layout``): the fallback
        and oracle of :func:`repro.core.native.replay`."""
        order: List[int] = []
        record = order.append
        l2p = layout.l2p
        qubit_a = ir.qubit_a
        qubit_b = ir.qubit_b
        adjacency = self._adjacency
        swaps = trace.swaps
        esc = dict(trace.escapes)
        drain_nonrouting = frontier.drain_nonrouting
        fgate: dict = {}
        check: List[int] = []

        def apply_swap(qa: int, qb: int) -> None:
            record(native.SWAP)
            pa = l2p[qa]
            l2p[qa] = l2p[qb]
            l2p[qb] = pa
            g1 = fgate.get(qa)
            if g1 is not None:
                check.append(g1)
            g2 = fgate.get(qb)
            if g2 is not None and g2 is not g1:
                check.append(g2)

        order.extend(drain_nonrouting())
        frontier.track_front_log = True
        frontier.front_log.clear()
        for index in frontier.front_list():
            fgate[qubit_a[index]] = index
            fgate[qubit_b[index]] = index
        check.extend(frontier.front_list())
        si = 0
        while not frontier.done:
            if check:
                if len(check) > 1:
                    ready = [
                        index
                        for index in sorted(set(check))
                        if l2p[qubit_b[index]] in adjacency[l2p[qubit_a[index]]]
                    ]
                else:
                    index = check[0]
                    ready = (
                        [index]
                        if l2p[qubit_b[index]] in adjacency[l2p[qubit_a[index]]]
                        else []
                    )
                check.clear()
            else:
                ready = []
            if ready:
                frontier.execute_front_batch(ready)
                order.extend(ready)
                for index in ready:
                    del fgate[qubit_a[index]]
                    del fgate[qubit_b[index]]
                order.extend(drain_nonrouting())
                released = frontier.drain_front_log()
                for index in released:
                    fgate[qubit_a[index]] = index
                    fgate[qubit_b[index]] = index
                check.extend(released)
                continue
            span = esc.get(si)
            if span:
                # A livelock-escape span: the search applied these
                # SWAPs back-to-back without re-scanning for ready
                # gates, so the replay must too.
                for _ in range(span):
                    qa, qb = swaps[si]
                    si += 1
                    apply_swap(qa, qb)
            else:
                qa, qb = swaps[si]
                si += 1
                apply_swap(qa, qb)
        frontier.track_front_log = False
        return order

    def _escape(
        self,
        frontier: FrontierState,
        layout: Layout,
        apply_swap: Callable[[int, int], None],
    ) -> int:
        """Livelock escape: force-route the closest front gate.

        Walk the shortest physical path between the gate's two homes,
        SWAPping the first qubit along it until the pair is adjacent.
        Guarantees the next ready-front scan succeeds for that gate, so
        overall termination is unconditional.  Distance ties resolve to
        the lowest node id (the front list is ascending).  ``apply_swap``
        is the search loop's swap applicator, which keeps the loop's
        SWAP record, depth counters and worklist in step.
        """
        l2p = layout.l2p
        buf = self.flat_dist.buf
        n = self.flat_dist.n
        qubit_a = frontier.dag.qubit_a
        qubit_b = frontier.dag.qubit_b
        target = min(
            frontier.front_list(),
            key=lambda i: buf[l2p[qubit_a[i]] * n + l2p[qubit_b[i]]],
        )
        a = qubit_a[target]
        b = qubit_b[target]
        path = self.coupling.shortest_path(l2p[a], l2p[b])
        swaps = 0
        # Move logical qubit `a` along the path, leaving one edge for the
        # gate itself (after each swap, pi(a) advances one hop).
        for hop in path[1:-1]:
            qb = layout.logical(hop)
            apply_swap(a, qb)
            swaps += 1
        return swaps
