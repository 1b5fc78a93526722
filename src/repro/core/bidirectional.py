"""Reverse traversal for initial mapping (paper §IV-C2, Fig. 5).

Quantum circuits are reversible, so the routing problem of the reversed
circuit is the mirror image of the original's.  SABRE exploits this:

1. start from a random initial mapping and route the *original* circuit
   (forward traversal) — its final mapping reflects where qubits "want"
   to end up;
2. route the *reversed* circuit starting from that final mapping — the
   final mapping of this backward traversal is an initial mapping for
   the original circuit informed by *every* gate, with gates near the
   circuit's beginning weighted most (they were routed last);
3. route the original circuit from the updated initial mapping; the
   output is the best forward traversal of all trials.

The paper uses 3 traversals (forward-backward-forward) and keeps the
best of 5 random restarts (§V "Algorithm Configuration"), so one
traversal in fifteen is kept.  A layout search therefore routes every
traversal without building its circuit (the router's search mode,
:meth:`~repro.core.router.SabreRouter.search`) and builds only the
winner's, by replaying its recorded SWAPs (:class:`BestForward`).  The
paper-literal oracle for a whole search is
:class:`~repro.core.legacy.LegacySabreLayout`, which emits every
traversal.

The restart loop (:meth:`SabreLayout.search`) and the replay
(:meth:`SabreLayout.merge`) are separate steps joined by a small
picklable :class:`ShardSearch` record, so the engine can run the loop
over seed shards in worker processes and merge and replay in the
parent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.flatdag import FlatDag, FrontierState
from repro.core.heuristic import HeuristicConfig
from repro.core.layout import Layout
from repro.core.router import RoutingResult, SabreRouter, SearchTrace
from repro.core.scoring import FlatDistance
from repro.exceptions import MappingError
from repro.hardware.coupling import CouplingGraph
from repro.telemetry.trace import NOOP_SPAN, span


@dataclass
class TrialRecord:
    """Bookkeeping for one random restart.

    Attributes:
        seed: RNG seed that produced the random initial mapping.
        first_pass_swaps: SWAPs used by the very first forward traversal
            — with ``num_traversals == 1`` this is the paper's ``g_la``
            configuration (look-ahead heuristic, no reverse traversal).
        final_swaps: SWAPs used by the last forward traversal (the
            traversal whose output is kept) — the paper's ``g_op``.
        best_swaps: fewest SWAPs over the trial's forward traversals —
            what this seed alone would have produced.
    """

    seed: int
    first_pass_swaps: int
    final_swaps: int
    best_swaps: int


@dataclass
class BidirectionalResult:
    """Best-of-trials output of the reverse-traversal search."""

    routing: RoutingResult
    initial_layout: Layout
    trials: List[TrialRecord] = field(default_factory=list)
    best_trial_index: int = 0

    @property
    def num_swaps(self) -> int:
        return self.routing.num_swaps

    @property
    def best_first_pass_swaps(self) -> int:
        """Best single-traversal swap count across trials (``g_la``)."""
        return min(t.first_pass_swaps for t in self.trials)


@dataclass
class ShardSearch:
    """What one restart loop over a seed list leaves behind.

    The output of :meth:`SabreLayout.search` and the input of
    :meth:`SabreLayout.merge`.  It holds no circuit: ``best`` is the
    loop's best forward :class:`~repro.core.router.SearchTrace`, so the
    record pickles small when a worker process runs the loop over one
    shard of a sweep's seeds.

    Attributes:
        best: the best forward traversal, first of equal
            ``(num_swaps, depth)`` keys.
        best_trial_index: index into ``trials`` of the trial that
            routed ``best``.
        trials: one :class:`TrialRecord` per seed, in seed order.
    """

    best: SearchTrace
    best_trial_index: int
    trials: List[TrialRecord]


class SabreLayout:
    """Bidirectional-traversal layout search with random restarts.

    Args:
        coupling: device coupling graph.
        config: heuristic configuration (paper defaults when omitted).
        num_traversals: total traversals per trial; must be odd so the
            final (output) traversal runs forward.  The paper uses 3.
        num_trials: number of random initial mappings; best kept.
        seed: base RNG seed; trial ``t`` uses ``seed + t``.
        seeds: explicit trial seeds (distinct), overriding ``seed`` and
            ``num_trials``: trial ``t`` uses ``seeds[t]``.  Any slice of
            a seed list searches exactly as that slice of the full
            search would, which is how the engine shards a best-of-K
            sweep across processes.
        distance: optional shared distance matrix — nested rows or a
            :class:`~repro.core.scoring.FlatDistance` (the compiler
            front door passes the cached flattened form; every
            traversal of every trial then shares one buffer).
    """

    def __init__(
        self,
        coupling: CouplingGraph,
        config: Optional[HeuristicConfig] = None,
        num_traversals: int = 3,
        num_trials: int = 5,
        seed: int = 0,
        distance: Optional[
            Union[FlatDistance, Sequence[Sequence[float]]]
        ] = None,
        seeds: Optional[Sequence[int]] = None,
    ) -> None:
        if seeds is None:
            seeds = range(seed, seed + num_trials)
        seeds = list(seeds)
        if num_traversals < 1 or num_traversals % 2 == 0:
            raise MappingError(
                "num_traversals must be odd (forward-backward-...-forward), "
                f"got {num_traversals}"
            )
        if not seeds:
            raise MappingError("num_trials must be >= 1")
        self.coupling = coupling
        self.config = config or HeuristicConfig()
        self.num_traversals = num_traversals
        self.num_trials = len(seeds)
        self.seed = seed
        self.seeds = seeds
        self.router = SabreRouter(
            coupling, config=self.config, seed=seed, distance=distance
        )

    def run(self, circuit: QuantumCircuit) -> BidirectionalResult:
        """Search initial mappings and return the best routed output.

        One :meth:`search` over every seed, then its :meth:`merge`:
        best = fewest SWAPs in a forward traversal, depth as the
        tie-break (both paper metrics, in that priority), and only that
        traversal is turned into a circuit.
        """
        forward_ir, reverse_ir = self.lower(circuit)
        return self.merge([self.search(forward_ir, reverse_ir)], forward_ir)

    def lower(
        self, circuit: QuantumCircuit
    ) -> Tuple[FlatDag, Optional[FlatDag]]:
        """The circuit's forward and (with more than one traversal)
        reverse IRs, through the engine cache.

        Each is lowered at most once per circuit content and process,
        so a repeat compilation of the same circuit pays nothing.  Both
        IRs' folded tables are built too, so a caller that lowers
        before forking a worker pool hands the workers everything a
        search reads.
        """
        from repro.engine.cache import get_flat_dag

        forward_ir = get_flat_dag(circuit)
        reverse_ir = None
        if self.num_traversals > 1:
            reverse_ir = get_flat_dag(circuit, direction="reverse")
        forward_ir.folded()
        if reverse_ir is not None:
            reverse_ir.folded()
        return forward_ir, reverse_ir

    def search(
        self, forward_ir: FlatDag, reverse_ir: Optional[FlatDag]
    ) -> ShardSearch:
        """The restart loop over :attr:`seeds`, without the replay.

        Takes the circuit's IRs as :meth:`lower` returns them: every
        one of the ``num_trials x num_traversals`` routing passes
        shares those read-only IRs plus one resettable frontier per
        direction.  Each frontier carries its direction's look-ahead
        memo (:meth:`FrontierState.extended_pairs
        <repro.circuits.flatdag.FrontierState.extended_pairs>`) across
        resets, so the restarts, which revisit the same fronts, walk
        each front's extended set once per search.

        Every traversal runs in search mode
        (:meth:`SabreRouter.search`): no routed circuit is built and no
        depth recomputed during the sweep, because
        :class:`~repro.core.router.SearchTrace` carries the selection
        key, and both frontiers are folded, so no single-qubit gate is
        executed one by one.  The returned :class:`ShardSearch` holds
        the best trace and the per-seed :class:`TrialRecord` s, and
        :meth:`merge` turns it into a circuit.

        With a tracer active (:mod:`repro.telemetry.trace`) each
        traversal records one ``layout.traversal`` span with attrs
        ``trial``, ``dir``, ``swaps`` and ``depth``.
        """
        route = self.router.search
        forward_frontier = FrontierState(forward_ir, folded=True)
        reverse_frontier = None
        if reverse_ir is not None:
            reverse_frontier = FrontierState(reverse_ir, folded=True)
        best = BestForward()
        trials: List[TrialRecord] = []
        for trial, trial_seed in enumerate(self.seeds):
            layout = Layout.random(self.coupling.num_qubits, seed=trial_seed)
            first_pass_swaps = 0
            best_swaps = None
            for traversal in range(self.num_traversals):
                forward = traversal % 2 == 0
                with span("layout.traversal") as traced:
                    # Seeding each traversal by its trial gives every
                    # restart its own tie-break stream, so trials stay
                    # statistically independent.
                    result = route(
                        forward_ir if forward else reverse_ir,
                        initial_layout=layout,
                        seed=trial_seed,
                        frontier=(
                            forward_frontier if forward else reverse_frontier
                        ),
                    )
                    if traced is not NOOP_SPAN:
                        traced.set("trial", trial)
                        traced.set("dir", "forward" if forward else "reverse")
                        traced.set("swaps", result.num_swaps)
                        traced.set("depth", result.depth)
                layout = result.final_layout
                if traversal == 0:
                    first_pass_swaps = result.num_swaps
                if forward:
                    # Every forward traversal routes the real circuit,
                    # so each is a candidate output; keeping the best
                    # seen guarantees the reverse-traversal result is
                    # never worse than the first traversal's
                    # (g_op <= g_la, Table II).
                    best.offer(result, trial)
                    if best_swaps is None or result.num_swaps < best_swaps:
                        best_swaps = result.num_swaps
            trials.append(
                TrialRecord(
                    seed=trial_seed,
                    first_pass_swaps=first_pass_swaps,
                    final_swaps=result.num_swaps,
                    best_swaps=best_swaps,
                )
            )
        return ShardSearch(best.best, best.trial, trials)

    def merge(
        self, shards: Sequence[ShardSearch], forward_ir: FlatDag
    ) -> BidirectionalResult:
        """The best of ``shards`` as one search result, replayed once.

        ``shards`` are searches over consecutive runs of one seed list,
        in seed order.  The first shard's best starts one
        :class:`BestForward` and the others' bests are offered to it in
        order, which keeps the earliest of equal keys, so the merge
        keeps exactly what one search over the whole list keeps.  The
        winning trace is replayed over ``forward_ir`` (the IR it was
        searched on) with this search's router, byte-identical to the
        emitting traversal of the legacy oracle
        (:class:`~repro.core.legacy.LegacySabreLayout`).
        """
        first = shards[0]
        best = BestForward(first.best, first.best_trial_index)
        trials = list(first.trials)
        for shard in shards[1:]:
            best.offer(shard.best, len(trials) + shard.best_trial_index)
            trials.extend(shard.trials)
        return best.result(self.router, forward_ir, trials)


class BestForward:
    """The best forward traversal of one layout search, then its circuit.

    :meth:`SabreLayout.search` keeps one instance across all its
    trials, and :meth:`SabreLayout.merge` one across its shards' bests.
    Candidates are :class:`~repro.core.router.SearchTrace` s, offered
    in search order and ranked by ``(num_swaps, depth)``; the first of
    equal keys wins.  :meth:`result` replays the winning trace into
    its circuit, so exactly one circuit is ever built for a sweep.
    Depth is read only once a second candidate arrives, so a
    search with one forward traversal in total never computes it.
    """

    __slots__ = ("best", "key", "trial")

    def __init__(
        self, best: Optional[SearchTrace] = None, trial: int = 0
    ) -> None:
        self.best = best
        self.key: Optional[Tuple[int, int]] = None
        self.trial = trial

    def offer(self, candidate: SearchTrace, trial: int = 0) -> None:
        """Keep ``candidate`` if it beats the best so far."""
        if self.best is None:
            self.best = candidate
            self.trial = trial
            return
        if self.key is None:
            self.key = (self.best.num_swaps, self.best.depth)
        key = (candidate.num_swaps, candidate.depth)
        if key < self.key:
            self.best = candidate
            self.key = key
            self.trial = trial

    def result(
        self,
        router: SabreRouter,
        forward_ir: FlatDag,
        trials: List[TrialRecord],
    ) -> BidirectionalResult:
        """The winner as a search result, its trace replayed.  The
        replay emits every single-qubit gate in its drain order, so it
        runs on a fresh unfolded frontier over ``forward_ir``."""
        trace = self.best
        if trace is None:
            raise MappingError("no forward traversal was offered")
        routing = router._replay(
            forward_ir,
            trace.initial_layout.copy(),
            FrontierState(forward_ir),
            trace,
        )
        # The trace already carries the replayed circuit's depth, so
        # ranking this winner against another never recomputes it.
        routing._depth = trace.depth
        return BidirectionalResult(
            routing=routing,
            initial_layout=routing.initial_layout,
            trials=trials,
            best_trial_index=self.trial,
        )
