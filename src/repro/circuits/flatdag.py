"""Compile-once flat circuit IR: CSR dependency DAG + resettable frontier.

SABRE's quality comes from repetition — the bidirectional layout search
runs ``num_trials x num_traversals`` routing passes over the *same*
circuit, and the trial engine multiplies that by best-of-K seeds.  The
object-graph :class:`~repro.circuits.dag.CircuitDag` (one ``DagNode``
with two Python lists per gate) is the right representation for
verification and the A* baseline, but re-lowering into it on every
routing pass is pure rework, and walking its node objects keeps
attribute chasing in the router's innermost loops.

This module is the amortised alternative:

- :class:`FlatDag` — an **immutable** lowering of a circuit: CSR
  successor/predecessor adjacency (int-array offsets + indices — the
  canonical compact form, cheap to pickle to pool workers), per-node
  qubit operands, two-qubit flags, and the gate handles needed to emit
  output.  Alongside the CSR arrays it precomputes the iteration views
  CPython walks fastest (per-node successor tuples, plain int lists) —
  paying that derivation **once per (circuit, direction)** is the
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
  of re-sorted.

Equivalence with the object DAG is a test invariant: structure matches
:class:`~repro.circuits.dag.CircuitDag` node-for-node, and the frontier
replays :class:`~repro.circuits.dag.DagFrontier` decision-for-decision
(same front layers, same extended-set order), which is what keeps
routed circuits byte-identical to the per-run-lowering code path.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, insort
from typing import List, Optional, Set, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.exceptions import CircuitError

#: Below this many gates a ready batch is executed with the scalar
#: per-gate loop even when numpy is in play — same results either way
#: (the bulk path reproduces the scalar decrement/release order), the
#: threshold only dodges array-dispatch overhead on narrow fronts.
_BULK_MIN_GATES = 8


def _intc_view(buf: array) -> np.ndarray:
    """Zero-copy numpy view of an ``array('i')`` (empty-safe)."""
    if not len(buf):
        return np.zeros(0, dtype=np.intc)
    return np.frombuffer(buf, dtype=np.intc)


class FlatDag:
    """Immutable CSR lowering of a circuit's dependency DAG.

    Node ``i`` is gate ``i`` of the source circuit.  Edges follow the
    same rule as :class:`~repro.circuits.dag.CircuitDag`: gate ``B``
    depends on gate ``A`` when they share a qubit and ``A`` precedes
    ``B`` (deduplicated).  Successor and predecessor index lists are
    stored ascending, matching the object DAG's construction order.

    Treat instances as frozen: every consumer (router, layout search,
    engine cache, pool workers) shares one object per circuit, so
    mutating any buffer would corrupt all of them.

    Attributes:
        num_nodes: gate count (including directives).
        num_qubits / num_clbits / name: copied from the source circuit
            so the router never needs the circuit object itself.
        gates: the source gate tuple — handles for output emission.
        pairs: per-node operand tuples (``gates[i].qubits``, shared, not
            copied) — what the scorer's ``set_front`` consumes.
        qubit_a / qubit_b: per-node int operands for two-qubit gates
            (``-1`` elsewhere) — the router's executability test reads
            these instead of touching gate objects.
        two_qubit: per-node routability flag (1 for two-qubit unitaries).
        indegree: per-node predecessor count (the frontier's reset fill).
        succ_off / succ: CSR successors — node ``i``'s successors are
            ``succ[succ_off[i]:succ_off[i + 1]]``, ascending.
        pred_off / pred: CSR predecessors, same layout.
        succs: the successor slices rebound as per-node tuples — same
            data as the CSR pair, prebuilt because iterating a small
            tuple is what CPython does fastest in the frontier's
            release loop.
        roots: nodes with indegree zero, ascending.
        routable: False when some gate has >2 qubits and is not a
            directive (the router rejects such IRs with a clear error).
    """

    __slots__ = (
        "num_nodes",
        "num_qubits",
        "num_clbits",
        "name",
        "gates",
        "pairs",
        "qubit_a",
        "qubit_b",
        "two_qubit",
        "indegree",
        "succ_off",
        "succ",
        "pred_off",
        "pred",
        "succs",
        "roots",
        "routable",
        "qubit_a_np",
        "qubit_b_np",
        "succ_off_np",
        "succ_np",
        "_indegree_arr",
        "_zero_bytes",
        "_zero_ints",
    )

    def __init__(self, circuit: QuantumCircuit) -> None:
        """Lower ``circuit`` in one ``O(g)`` pass (last-gate-per-wire).

        The expensive call — do it once and share the result.  The
        engine cache (:func:`repro.engine.cache.get_flat_dag`) memoises
        this by circuit fingerprint.
        """
        gates = circuit.gates
        num_nodes = len(gates)
        self.num_nodes = num_nodes
        self.num_qubits = circuit.num_qubits
        self.num_clbits = circuit.num_clbits
        self.name = circuit.name
        self.gates = gates
        self.pairs = tuple(gate.qubits for gate in gates)

        last_on_wire = [-1] * circuit.num_qubits
        pred_lists: List[List[int]] = []
        succ_lists: List[List[int]] = [[] for _ in range(num_nodes)]
        indegree = [0] * num_nodes
        qubit_a = [-1] * num_nodes
        qubit_b = [-1] * num_nodes
        two_qubit = bytearray(num_nodes)
        routable = True
        for index, gate in enumerate(gates):
            preds: Set[int] = set()
            for q in gate.qubits:
                prev = last_on_wire[q]
                if prev >= 0:
                    preds.add(prev)
                last_on_wire[q] = index
            ordered = sorted(preds)
            pred_lists.append(ordered)
            indegree[index] = len(ordered)
            for p in ordered:
                # Node ids arrive ascending, so every successor list
                # comes out ascending — the same order CircuitDag
                # appends successors in.
                succ_lists[p].append(index)
            if gate.is_two_qubit:
                two_qubit[index] = 1
                qubit_a[index], qubit_b[index] = gate.qubits
            elif gate.num_qubits > 2 and not gate.is_directive:
                routable = False

        self.qubit_a = qubit_a
        self.qubit_b = qubit_b
        self.two_qubit = bytes(two_qubit)
        self.indegree = indegree
        self.routable = routable
        self.succs = tuple(tuple(s) for s in succ_lists)
        self.roots = tuple(
            index for index in range(num_nodes) if indegree[index] == 0
        )

        # Canonical CSR buffers: one contiguous int array per relation,
        # offsets first.  These are what pickles to pool workers and
        # what structural tests compare against the object DAG.
        succ_off = array("i", [0]) * (num_nodes + 1)
        total = 0
        for index in range(num_nodes):
            succ_off[index] = total
            total += len(succ_lists[index])
        succ_off[num_nodes] = total
        self.succ_off = succ_off
        self.succ = array("i", [s for lst in succ_lists for s in lst])
        pred_off = array("i", [0]) * (num_nodes + 1)
        total = 0
        for index in range(num_nodes):
            pred_off[index] = total
            total += len(pred_lists[index])
        pred_off[num_nodes] = total
        self.pred_off = pred_off
        self.pred = array("i", [p for lst in pred_lists for p in lst])

        # Numpy mirrors for the router's batched paths: per-node operand
        # arrays drive the vectorised ready scan, the CSR successor
        # views (``succ_np`` zero-copy over the array('i') storage,
        # offsets widened to intp for index arithmetic) drive the bulk
        # pred-count decrement.  Shared read-only like everything else
        # on a FlatDag.
        self.qubit_a_np = np.array(qubit_a, dtype=np.intp)
        self.qubit_b_np = np.array(qubit_b, dtype=np.intp)
        self.succ_off_np = _intc_view(self.succ_off).astype(np.intp)
        self.succ_np = _intc_view(self.succ)
        self._indegree_arr = array("i", indegree)

        # Shared zero-fill sources for O(n) frontier resets: slice
        # assignment from these never allocates per reset.
        self._zero_bytes = bytes(num_nodes)
        self._zero_ints = [0] * num_nodes

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
        return self.succ[self.succ_off[index] : self.succ_off[index + 1]].tolist()

    def predecessors(self, index: int) -> List[int]:
        return self.pred[self.pred_off[index] : self.pred_off[index + 1]].tolist()

    def __repr__(self) -> str:
        return (
            f"FlatDag(name={self.name!r}, num_nodes={self.num_nodes}, "
            f"num_qubits={self.num_qubits})"
        )


class FrontierState:
    """Resettable execution state over a shared :class:`FlatDag`.

    Behaviourally identical to :class:`~repro.circuits.dag.DagFrontier`
    (the equivalence suite replays random traces on both), with four
    structural differences that matter at scale:

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
    """

    __slots__ = (
        "dag",
        "remaining",
        "_remaining_np",
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

    def __init__(self, dag: FlatDag, ext_memo: Optional[dict] = None) -> None:
        self.dag = dag
        n = dag.num_nodes
        # ``remaining`` lives in an array('i') so the bulk execute path
        # can decrement through ``_remaining_np`` — a zero-copy numpy
        # view of the *same* memory (no sync step; scalar and bulk
        # writes see each other immediately).
        self.remaining = array("i", dag.indegree)
        self._remaining_np = _intc_view(self.remaining)
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
        # Opt-in journal of front-layer insertions (vector router's
        # incremental ready-check; see :meth:`drain_front_log`).
        self.track_front_log = False
        self.front_log: List[int] = []
        #: Look-ahead memo of :meth:`extended_pairs`: extended-set
        #: size -> front -> pairs.  Survives :meth:`reset`; frontiers
        #: over the same dag may share one (the trial ensemble does).
        self.ext_memo: dict = {} if ext_memo is None else ext_memo
        self._seed_roots()

    def reset(self) -> None:
        """Return to the initial (nothing executed) state in ``O(n)``.

        Refills the existing buffers — no reallocation, which is the
        point: ``route -> reset -> route`` must behave exactly like two
        fresh frontiers (a property test pins this down).
        """
        dag = self.dag
        self.remaining[:] = dag._indegree_arr
        self.executed[:] = dag._zero_bytes
        self.front.clear()
        self._front_sorted.clear()
        self._ready_other.clear()
        self._ro_head = 0
        self.num_executed = 0
        self._epoch = 0
        self._virt_epoch[:] = dag._zero_ints
        self.front_log.clear()
        self._seed_roots()

    def _seed_roots(self) -> None:
        for index in self.dag.roots:
            self._classify(index)

    def _classify(self, index: int) -> None:
        if self.dag.two_qubit[index]:
            self.front.add(index)
            insort(self._front_sorted, index)
            if self.track_front_log:
                self.front_log.append(index)
        else:
            self._ready_other.append(index)

    # ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        """True when every gate has been executed."""
        return self.num_executed == self.dag.num_nodes

    def drain_front_log(self) -> List[int]:
        """Return (and forget) front insertions since the last drain.

        Only populated while ``track_front_log`` is set.  The vector
        router uses this for an O(1) per-step ready-check: a stuck
        front gate can only become executable if one of its qubits was
        just SWAPped or if it just entered the front — so scanning the
        whole front every iteration is redundant.
        """
        log = self.front_log
        if not log:
            return log
        drained = log[:]
        log.clear()
        return drained

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
        front = self.front
        if index not in front:
            raise CircuitError(f"node {index} is not in the front layer")
        front.remove(index)
        fs = self._front_sorted
        del fs[bisect_left(fs, index)]
        self._execute(index)

    def execute_front_batch(self, indices: List[int]) -> None:
        """Execute several front-layer gates (router inner loop).

        ``indices`` must be ascending and all currently in the front —
        exactly what the router's ready scan produces (it filters
        :meth:`front_list`), so the per-gate membership bookkeeping of
        :meth:`execute_front_gate` is hoisted out of the hot path.

        Wide batches take the bulk numpy path: one gather over the CSR
        successor arrays, one ``np.subtract.at`` pred-count decrement,
        and released nodes classified in the exact order the scalar
        loop would have (a node releases when its count hits zero, i.e.
        at its *last* occurrence in the batch's successor stream).
        """
        front = self.front
        fs = self._front_sorted
        if len(indices) >= _BULK_MIN_GATES:
            executed = self.executed
            for index in indices:
                front.remove(index)
                if executed[index]:
                    raise CircuitError(f"node {index} already executed")
                executed[index] = 1
            if len(indices) == len(fs):
                fs.clear()
            else:
                dropped = set(indices)
                fs[:] = [x for x in fs if x not in dropped]
            self.num_executed += len(indices)
            dag = self.dag
            off = dag.succ_off_np
            idx = np.fromiter(indices, dtype=np.intp, count=len(indices))
            starts = off[idx]
            counts = off[idx + 1] - starts
            total = int(counts.sum())
            if not total:
                return
            # CSR expansion of the batch's successor stream (gate order,
            # ascending successors within a gate — the scalar order).
            reps = np.repeat(np.arange(len(idx)), counts)
            shift = np.cumsum(counts) - counts
            pos = np.arange(total) - shift[reps] + starts[reps]
            sucs = dag.succ_np[pos]
            rem = self._remaining_np
            np.subtract.at(rem, sucs, 1)
            rel = sucs[rem[sucs] == 0]
            if len(rel):
                # Dedup to last occurrence, keeping stream order: the
                # scalar loop classifies a node at the decrement that
                # zeroes its count, which is its last occurrence.
                uniq, first_in_rev = np.unique(rel[::-1], return_index=True)
                classify = self._classify
                for s in uniq[np.argsort(-first_in_rev)].tolist():
                    classify(s)
            return
        execute = self._execute
        for index in indices:
            front.remove(index)
            del fs[bisect_left(fs, index)]
            execute(index)

    def _execute(self, index: int) -> None:
        if self.executed[index]:
            raise CircuitError(f"node {index} already executed")
        self.executed[index] = 1
        self.num_executed += 1
        remaining = self.remaining
        for s in self.dag.succs[index]:
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
        dag = self.dag
        succs = dag.succs
        two_qubit = dag.two_qubit
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
