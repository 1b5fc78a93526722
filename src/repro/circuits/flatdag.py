"""Compile-once flat circuit IR: tuple dependency DAG + resettable frontier.

SABRE's quality comes from repetition — the bidirectional layout search
runs ``num_trials x num_traversals`` routing passes over the *same*
circuit, and the trial engine multiplies that by best-of-K seeds.  The
object-graph :class:`~repro.circuits.dag.CircuitDag` (one ``DagNode``
with two Python lists per gate) is the right representation for
verification and the A* baseline, but re-lowering into it on every
routing pass is pure rework, and walking its node objects keeps
attribute chasing in the router's innermost loops.

This module is the amortised alternative:

- :class:`FlatDag` — an **immutable** lowering of a circuit.  Its
  constructor keeps only what every consumer reads: the gate handles
  needed to emit output, per-node operand tuples, the routability flag
  and the counts.  The native kernel builds its own tables from those
  operands (:func:`repro.core.native.ir_tables`), so a compile on the
  kernel stops there.  The Python DAG views — per-node successor and
  predecessor tuples, int operands, two-qubit flags, counts and roots,
  the shapes CPython walks fastest — are built together, in one
  last-gate-per-wire pass, the first time the Python search loop, its
  replay or a test reads one; :meth:`FlatDag.folded` is lazy too.
  Paying each derivation **once per (circuit, direction)** is the
  point: every trial, traversal, thread, and worker shares the result
  read-only.  The engine cache (:mod:`repro.engine.cache`) memoises
  instances by circuit fingerprint.
- :class:`FrontierState` — the mutable per-traversal execution state
  over a :class:`FlatDag`.  It allocates all of its working buffers
  once and :meth:`~FrontierState.reset` refills them in ``O(n)`` by
  slice assignment from the dag's shared zero sources, so a layout
  search reuses two frontier objects (forward + reverse) for its
  entire trial sweep instead of reallocating per pass.  The look-ahead
  extended set walks preallocated int lists (epoch-stamped visited
  marks, a flat ring queue) instead of building a dict and deque per
  call, and the sorted front layer is maintained incrementally instead
  of re-sorted.  A *folded* frontier (the layout search's) executes
  only multi-qubit nodes and carries each single-qubit chain along
  with the node before it (:meth:`FlatDag.folded`).

Equivalence with the object DAG is a test invariant: structure matches
:class:`~repro.circuits.dag.CircuitDag` node-for-node, and the unfolded
frontier replays :class:`~repro.circuits.dag.DagFrontier`
decision-for-decision (same front layers, same extended-set order),
which is what keeps routed circuits byte-identical to the
per-run-lowering code path.  The folded frontier matches it at every
look-ahead refresh (same front, same extended set).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from operator import attrgetter
from typing import List, NamedTuple, Optional, Set, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.depth import _DIRECTIVE_NAMES
from repro.exceptions import CircuitError


class FoldedTables(NamedTuple):
    """The tables of a folded :class:`FrontierState`, built by
    :meth:`FlatDag.folded`; entries of single-qubit nodes are unused.

    ``succs``: per node, the successors reached directly or through a
    single-qubit chain, one entry per path.  ``fill``: initial remaining
    counts (full-DAG predecessors, root chains excluded).  ``roots``:
    multi-qubit nodes whose count starts at zero.  ``total``: how many
    multi-qubit nodes there are.  ``tails``: per node and operand, the
    depth-counted gates of the chain after it.  ``root_depth``: the
    same for each logical qubit's root chain.
    """

    succs: Tuple[Tuple[int, ...], ...]
    fill: List[int]
    roots: Tuple[int, ...]
    total: int
    tails: Tuple[Tuple[int, ...], ...]
    root_depth: Tuple[int, ...]


class _DagViews(NamedTuple):
    """The Python DAG views of a :class:`FlatDag`, built together on
    first access (:meth:`FlatDag._build_views`)."""

    qubit_a: List[int]
    qubit_b: List[int]
    two_qubit: bytes
    indegree: List[int]
    succs: Tuple[Tuple[int, ...], ...]
    preds: Tuple[Tuple[int, ...], ...]
    roots: Tuple[int, ...]
    zero_bytes: bytes
    zero_ints: List[int]


class FlatDag:
    """Immutable flat lowering of a circuit's dependency DAG.

    Node ``i`` is gate ``i`` of the source circuit.  Edges follow the
    same rule as :class:`~repro.circuits.dag.CircuitDag`: gate ``B``
    depends on gate ``A`` when they share a qubit and ``A`` precedes
    ``B`` (deduplicated).  Successor and predecessor index lists are
    stored ascending, matching the object DAG's construction order.

    Treat instances as frozen: every consumer (router, layout search,
    engine cache, pool workers) shares one object per circuit, so
    mutating any buffer would corrupt all of them.

    Eager attributes (set by the constructor):
        num_nodes: gate count (including directives).
        num_qubits / num_clbits / name: copied from the source circuit
            so the router never needs the circuit object itself.
        gates: the source gate tuple — handles for output emission.
        pairs: per-node operand tuples (``gates[i].qubits``, shared, not
            copied) — what the scorer's ``set_front`` consumes, and the
            operands the native kernel lowers from.
        routable: False when some gate has >2 qubits and is not a
            directive (the router rejects such IRs with a clear error).

    Lazy attributes, built together on first access of any of them (the
    Python search loop, its replay and the oracle tests read them; a
    compile on the native kernel never does, as ``sabre_lower`` builds
    its own tables from :attr:`pairs`):
        qubit_a / qubit_b: per-node int operands for two-qubit gates
            (``-1`` elsewhere) — the router's executability test reads
            these instead of touching gate objects.
        two_qubit: per-node routability flag (1 for two-qubit unitaries).
        indegree: per-node predecessor count (the frontier's reset fill).
        succs: per-node successor tuples, ascending — iterating a small
            tuple is what CPython does fastest in the frontier's
            release loop.
        preds: per-node predecessor tuples, ascending.
        roots: nodes with indegree zero, ascending.

    :meth:`folded` is lazy too.  None of the lazy tables is pickled.
    """

    __slots__ = (
        "num_nodes",
        "num_qubits",
        "num_clbits",
        "name",
        "gates",
        "pairs",
        "routable",
        "_views",
        "_fold",
        "_native",
    )

    def __init__(self, circuit: QuantumCircuit) -> None:
        """Take the circuit's gates and operands (``O(g)``, all of it
        C-level iteration); the DAG views wait for first use.

        Do it once and share the result.  The engine cache
        (:func:`repro.engine.cache.get_flat_dag`) memoises this by
        circuit fingerprint.
        """
        gates = circuit.gates
        self.num_nodes = len(gates)
        self.num_qubits = circuit.num_qubits
        self.num_clbits = circuit.num_clbits
        self.name = circuit.name
        self.gates = gates
        self.pairs = pairs = tuple(map(attrgetter("qubits"), gates))
        self.routable = max(map(len, pairs), default=0) <= 2 or all(
            gate.name in _DIRECTIVE_NAMES
            for gate, qs in zip(gates, pairs)
            if len(qs) > 2
        )
        self._views: Optional[_DagViews] = None
        self._fold: Optional[FoldedTables] = None
        #: The native kernel's tables (repro.core.native.ir_tables).
        self._native = None

    def _dag_views(self) -> _DagViews:
        views = self._views
        if views is None:
            views = self._views = self._build_views()
        return views

    def _build_views(self) -> _DagViews:
        """Lower the Python DAG views in one ``O(g)`` last-gate-per-wire
        pass (racing first calls build equal views; either is kept)."""
        gates = self.gates
        num_nodes = self.num_nodes
        last_on_wire = [-1] * self.num_qubits
        succ_lists: List[List[int]] = [[] for _ in range(num_nodes)]
        preds: List[Tuple[int, ...]] = [()] * num_nodes
        indegree = [0] * num_nodes
        roots: List[int] = []
        qubit_a = [-1] * num_nodes
        qubit_b = [-1] * num_nodes
        two_qubit = bytearray(num_nodes)
        # Node ids arrive ascending, so every successor list comes out
        # ascending — the same order CircuitDag appends successors in.
        for index, qs in enumerate(self.pairs):
            if len(qs) == 1:
                q = qs[0]
                p = last_on_wire[q]
                last_on_wire[q] = index
                if p >= 0:
                    succ_lists[p].append(index)
                    preds[index] = (p,)
                    indegree[index] = 1
                else:
                    roots.append(index)
                continue
            if len(qs) == 2:
                a, b = qs
                pa = last_on_wire[a]
                pb = last_on_wire[b]
                last_on_wire[a] = index
                last_on_wire[b] = index
                if pa > pb:
                    pa, pb = pb, pa
                if pa >= 0 and pa != pb:
                    succ_lists[pa].append(index)
                    succ_lists[pb].append(index)
                    preds[index] = (pa, pb)
                    indegree[index] = 2
                elif pb >= 0:
                    succ_lists[pb].append(index)
                    preds[index] = (pb,)
                    indegree[index] = 1
                else:
                    roots.append(index)
                if gates[index].name not in _DIRECTIVE_NAMES:
                    two_qubit[index] = 1
                    qubit_a[index] = a
                    qubit_b[index] = b
                continue
            ordered = tuple(
                sorted({last_on_wire[q] for q in qs if last_on_wire[q] >= 0})
            )
            for q in qs:
                last_on_wire[q] = index
            for p in ordered:
                succ_lists[p].append(index)
            preds[index] = ordered
            indegree[index] = len(ordered)
            if not ordered:
                roots.append(index)
        # The zero-fill sources are for O(n) frontier resets: slice
        # assignment from these never allocates per reset.
        return _DagViews(
            qubit_a,
            qubit_b,
            bytes(two_qubit),
            indegree,
            tuple(map(tuple, succ_lists)),
            tuple(preds),
            tuple(roots),
            bytes(num_nodes),
            [0] * num_nodes,
        )

    @property
    def qubit_a(self) -> List[int]:
        return self._dag_views().qubit_a

    @property
    def qubit_b(self) -> List[int]:
        return self._dag_views().qubit_b

    @property
    def two_qubit(self) -> bytes:
        return self._dag_views().two_qubit

    @property
    def indegree(self) -> List[int]:
        return self._dag_views().indegree

    @property
    def succs(self) -> Tuple[Tuple[int, ...], ...]:
        return self._dag_views().succs

    @property
    def preds(self) -> Tuple[Tuple[int, ...], ...]:
        return self._dag_views().preds

    @property
    def roots(self) -> Tuple[int, ...]:
        return self._dag_views().roots

    def __getstate__(self):
        # The lazy views and tables are per-process caches, rebuilt on
        # first use: keep them out of what pickles to pool workers.
        state = {name: getattr(self, name) for name in self.__slots__}
        state["_views"] = None
        state["_fold"] = None
        state["_native"] = None
        return None, state

    def folded(self) -> FoldedTables:
        """The folded frontier's tables, built on first call and shared
        (racing first calls build equal tables; either one is kept).

        Multi-qubit nodes (two-qubit gates and barriers) are the only
        nodes a folded frontier executes; every single-qubit gate,
        ``measure`` included, is folded into the node heading its wire's
        chain, or into its wire's root chain.
        """
        if self._fold is not None:
            return self._fold
        n = self.num_nodes
        pairs = self.pairs
        succs = self.succs
        multi = [len(qs) >= 2 for qs in pairs]
        # ``end[i]``: the multi-qubit node a dependency on ``i`` resolves
        # to (``i`` itself, or the node ending its single-qubit chain; -1
        # at the wire's end); ``depth[i]``: depth-counted gates from a
        # single-qubit ``i`` to the end of its chain.
        end = [i if multi[i] else -1 for i in range(n)]
        depth = [0] * n
        for i in range(n - 1, -1, -1):
            if not multi[i]:
                depth[i] = int(self.gates[i].name not in _DIRECTIVE_NAMES)
                for s in succs[i]:  # a 1q gate has at most one
                    end[i] = end[s]
                    depth[i] += depth[s]
        fill = list(self.indegree)
        root_depth = [0] * self.num_qubits
        fsuccs: List[Tuple[int, ...]] = [()] * n
        tails: List[Tuple[int, ...]] = [()] * n
        interned: dict = {}
        for i in range(n):
            if multi[i]:
                out = tuple([end[s] for s in succs[i] if end[s] >= 0])
                fsuccs[i] = succs[i] if out == succs[i] else out
                on_wire = {pairs[s][0]: depth[s] for s in succs[i] if depth[s]}
                tail = tuple([on_wire.get(q, 0) for q in pairs[i]])
                tails[i] = interned.setdefault(tail, tail)
            elif not fill[i]:  # the head of a root chain
                root_depth[pairs[i][0]] = depth[i]
                if end[i] >= 0:
                    fill[end[i]] -= 1
        roots = tuple(i for i in range(n) if multi[i] and not fill[i])
        self._fold = FoldedTables(
            tuple(fsuccs), fill, roots, sum(multi), tuple(tails),
            tuple(root_depth),
        )
        return self._fold

    @classmethod
    def from_circuit(cls, circuit: QuantumCircuit) -> "FlatDag":
        """Alias constructor (reads better at call sites)."""
        return cls(circuit)

    # ------------------------------------------------------------------
    # Queries (test/verification conveniences; not hot paths)
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.num_nodes

    def successors(self, index: int) -> List[int]:
        return list(self.succs[index])

    def predecessors(self, index: int) -> List[int]:
        return list(self.preds[index])

    def __repr__(self) -> str:
        return (
            f"FlatDag(name={self.name!r}, num_nodes={self.num_nodes}, "
            f"num_qubits={self.num_qubits})"
        )


class FrontierState:
    """Resettable execution state over a shared :class:`FlatDag`.

    Unfolded (the default), it is behaviourally identical to
    :class:`~repro.circuits.dag.DagFrontier` (the equivalence suite
    replays random traces on both), with four structural differences
    that matter at scale:

    - **Reset, don't reallocate.**  All buffers are sized once in the
      constructor; :meth:`reset` refills them by slice assignment from
      the dag's shared zero sources, so a trial sweep reuses one
      frontier per direction.
    - **The sorted front is cached.**  ``front_list()`` returns a list
      kept sorted incrementally (``insort`` on release, ``bisect``
      deletion on execute), so the router's per-iteration ready scan
      and per-refresh tie-break ordering never re-sort — while
      preserving exactly the ascending-node-id order the object path
      produced with ``sorted(front)``.
    - **The extended set walks flat int lists.**  Epoch-stamped visited
      marks and a preallocated ring queue replace the per-call dict and
      deque; the traversal order (FIFO from the sorted front, ascending
      successor order) matches ``DagFrontier.extended_set`` exactly, so
      look-ahead scores sum in the same float order.
    - **Each front's extended set is walked once.**
      :meth:`extended_pairs` memoises the walk by front in
      :attr:`ext_memo`, which outlives :meth:`reset`: a layout search's
      restarts revisit the same fronts again and again.

    **Folded** (``folded=True``; search mode only, as it emits no
    single-qubit gate), it executes only multi-qubit nodes, each with
    the single-qubit chains after it (:attr:`fold` holds the depth they
    add), so :meth:`drain_nonrouting` returns only barriers.  Counts in
    ``remaining`` equal an unfolded frontier's after each drain, so the
    full-DAG :meth:`extended_nodes` walk serves the same look-ahead set
    in the same order under the same memo keys.  The router's search
    loop executes two-qubit nodes of a folded frontier itself, over
    ``remaining``, ``executed``, ``front`` and :meth:`front_list`, and
    leaves barriers to :meth:`drain_nonrouting`.
    """

    __slots__ = (
        "dag",
        "fold",
        "_views",
        "_succs",
        "_total",
        "remaining",
        "executed",
        "front",
        "_front_sorted",
        "_ready_other",
        "_ro_head",
        "num_executed",
        "_virt",
        "_virt_epoch",
        "_epoch",
        "_queue",
        "track_front_log",
        "front_log",
        "ext_memo",
    )

    def __init__(
        self,
        dag: FlatDag,
        ext_memo: Optional[dict] = None,
        folded: bool = False,
    ) -> None:
        self.dag = dag
        n = dag.num_nodes
        #: The folded tables, or None for an unfolded frontier.
        self.fold: Optional[FoldedTables] = dag.folded() if folded else None
        self._views = views = dag._dag_views()
        self._succs = self.fold.succs if folded else views.succs
        self._total = self.fold.total if folded else n
        self.remaining = list(self.fold.fill if folded else views.indegree)
        self.executed = bytearray(n)
        self.front: Set[int] = set()
        self._front_sorted: List[int] = []
        self._ready_other: List[int] = []
        self._ro_head = 0
        self.num_executed = 0
        self._virt: List[int] = [0] * n
        self._virt_epoch: List[int] = [0] * n
        self._epoch = 0
        self._queue: List[int] = [0] * n
        # Opt-in journal of front-layer insertions (the router's
        # incremental ready-check; see :meth:`drain_front_log`).
        self.track_front_log = False
        self.front_log: List[int] = []
        #: Look-ahead memo of :meth:`extended_pairs`: extended-set
        #: size -> front -> pairs.  Survives :meth:`reset`; frontiers
        #: over the same dag may share one.
        self.ext_memo: dict = {} if ext_memo is None else ext_memo
        self._seed_roots()

    def reset(self) -> None:
        """Return to the initial (nothing executed) state in ``O(n)``.

        Refills the existing buffers — no reallocation, which is the
        point: ``route -> reset -> route`` must behave exactly like two
        fresh frontiers (a property test pins this down).
        """
        views = self._views
        fold = self.fold
        self.remaining[:] = views.indegree if fold is None else fold.fill
        self.executed[:] = views.zero_bytes
        self.front.clear()
        self._front_sorted.clear()
        self._ready_other.clear()
        self._ro_head = 0
        self.num_executed = 0
        self._epoch = 0
        self._virt_epoch[:] = views.zero_ints
        self.front_log.clear()
        self._seed_roots()

    def _seed_roots(self) -> None:
        for index in self._views.roots if self.fold is None else self.fold.roots:
            self._classify(index)

    def _classify(self, index: int) -> None:
        if self._views.two_qubit[index]:
            self.front.add(index)
            insort(self._front_sorted, index)
            if self.track_front_log:
                self.front_log.append(index)
        else:
            self._ready_other.append(index)

    # ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        """True when every gate (folded: every multi-qubit node) has
        been executed."""
        return self.num_executed == self._total

    def drain_front_log(self) -> List[int]:
        """Return (and forget) front insertions since the last drain.

        Only populated while ``track_front_log`` is set.  The router's
        replay (and its search loop, after barriers) uses this for an
        O(1) per-step ready-check: a stuck
        front gate can only become executable if one of its qubits was
        just SWAPped or if it just entered the front — so scanning the
        whole front every iteration is redundant.
        """
        log = self.front_log
        if log:
            self.front_log = []
        return log

    def front_list(self) -> List[int]:
        """The front layer, ascending — cached, never re-sorted.

        Callers iterate only; executing a front gate mutates the list
        in place (so don't hold it across executions).
        """
        return self._front_sorted

    def drain_nonrouting(self) -> List[int]:
        """Execute and return all ready non-two-qubit operations.

        Cascades exactly like the object frontier: executing a 1q gate
        may release another, which is drained in the same call.
        """
        ready = self._ready_other
        if self._ro_head >= len(ready):
            return []
        drained: List[int] = []
        while self._ro_head < len(ready):
            index = ready[self._ro_head]
            self._ro_head += 1
            self._execute(index)
            drained.append(index)
        ready.clear()
        self._ro_head = 0
        return drained

    def execute_front_gate(self, index: int) -> None:
        """Execute a two-qubit gate currently in the front layer."""
        if index not in self.front:
            raise CircuitError(f"node {index} is not in the front layer")
        self.execute_front_batch([index])

    def execute_front_batch(self, indices: List[int]) -> None:
        """Execute several front-layer gates (the replay's inner loop).

        ``indices`` must be ascending and all currently in the front —
        exactly what the router's ready scan produces (it filters
        :meth:`front_list`), so the per-gate membership bookkeeping of
        :meth:`execute_front_gate` is hoisted out of the hot path, and
        so is :meth:`_execute`'s body (nearly every batch is one gate).
        """
        front = self.front
        fs = self._front_sorted
        executed = self.executed
        remaining = self.remaining
        succs = self._succs
        for index in indices:
            front.remove(index)
            del fs[bisect_left(fs, index)]
            if executed[index]:
                raise CircuitError(f"node {index} already executed")
            executed[index] = 1
            for s in succs[index]:
                r = remaining[s] - 1
                remaining[s] = r
                if r == 0:
                    self._classify(s)
        self.num_executed += len(indices)

    def _execute(self, index: int) -> None:
        if self.executed[index]:
            raise CircuitError(f"node {index} already executed")
        self.executed[index] = 1
        self.num_executed += 1
        remaining = self.remaining
        for s in self._succs[index]:
            r = remaining[s] - 1
            remaining[s] = r
            if r == 0:
                self._classify(s)

    def extended_nodes(self, size: int) -> List[int]:
        """Node ids of the look-ahead set ``E``, in discovery order.

        Same virtual-execution walk as ``DagFrontier.extended_set`` —
        FIFO from the ascending front, releasing a node once all its
        predecessors are virtually executed — but over preallocated int
        lists: ``_virt`` holds virtual remaining-counts, stamped valid
        by ``_virt_epoch`` (bumping the epoch is the O(1) "clear"), and
        the queue is a flat list with head/tail cursors.
        """
        if size <= 0:
            return []
        out: List[int] = []
        epoch = self._epoch + 1
        self._epoch = epoch
        virt = self._virt
        stamps = self._virt_epoch
        remaining = self.remaining
        views = self._views
        succs = views.succs
        two_qubit = views.two_qubit
        queue = self._queue
        tail = 0
        for index in self._front_sorted:
            queue[tail] = index
            tail += 1
        head = 0
        while head < tail and len(out) < size:
            index = queue[head]
            head += 1
            for s in succs[index]:
                if stamps[s] == epoch:
                    r = virt[s] - 1
                else:
                    r = remaining[s] - 1
                    stamps[s] = epoch
                virt[s] = r
                if r == 0:
                    if two_qubit[s]:
                        out.append(s)
                        if len(out) >= size:
                            break
                    queue[tail] = s
                    tail += 1
        return out

    def extended_pairs(self, size: int) -> Tuple[Tuple[int, ...], ...]:
        """Operand pairs of :meth:`extended_nodes`, memoised per front.

        Once every ready non-routing gate has been drained, the executed
        set is exactly the complement of the front's descendants, so the
        walk's result is a function of the front alone: the memo keys it
        by the ascending front and walks each distinct front once for
        the life of :attr:`ext_memo` (one layout search).  With
        non-routing gates still pending the walk runs unmemoised.
        """
        pairs = self.dag.pairs
        if self._ready_other:
            return tuple([pairs[i] for i in self.extended_nodes(size)])
        memo = self.ext_memo.get(size)
        if memo is None:
            memo = self.ext_memo[size] = {}
        front = self._front_sorted
        # Most fronts are one gate: key those by the node id itself,
        # which costs no tuple per entry (ints never equal tuples).
        key = front[0] if len(front) == 1 else tuple(front)
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = tuple(
                [pairs[i] for i in self.extended_nodes(size)]
            )
        return hit
