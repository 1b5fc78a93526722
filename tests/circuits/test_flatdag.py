"""Unit tests for the compile-once flat IR (repro.circuits.flatdag).

The FlatDag/FrontierState pair must be *structurally and behaviourally
equivalent* to the CircuitDag/DagFrontier object path — same edges,
same front layers, same extended-set order — because the router's
byte-identical-output guarantee rests on it.
"""

import pickle
import random

import pytest

from repro.circuits import CircuitDag, QuantumCircuit, random_circuit
from repro.circuits.dag import DagFrontier
from repro.circuits.flatdag import FlatDag, FrontierState
from repro.exceptions import CircuitError


def paper_figure4_circuit() -> QuantumCircuit:
    circ = QuantumCircuit(5)
    circ.cx(0, 1)
    circ.cx(2, 3)
    circ.cx(1, 2)
    circ.cx(0, 3)
    circ.cx(3, 4)
    circ.cx(0, 4)
    return circ


class TestFlatDagStructure:
    def test_matches_object_dag_nodewise(self):
        circ = random_circuit(8, 120, seed=3, two_qubit_fraction=0.7)
        flat = FlatDag.from_circuit(circ)
        obj = CircuitDag(circ)
        assert flat.num_nodes == len(obj)
        for i in range(flat.num_nodes):
            assert flat.successors(i) == obj.successors(i)
            assert flat.predecessors(i) == obj.predecessors(i)
            assert flat.indegree[i] == obj.indegree(i)
            node_gate = obj.nodes[i].gate
            assert flat.gates[i] is circ.gates[i]
            assert flat.pairs[i] == node_gate.qubits
            assert bool(flat.two_qubit[i]) == node_gate.is_two_qubit
            if node_gate.is_two_qubit:
                assert (flat.qubit_a[i], flat.qubit_b[i]) == node_gate.qubits

    def test_succs_view_matches_csr(self):
        circ = random_circuit(6, 80, seed=9, two_qubit_fraction=0.8)
        flat = FlatDag.from_circuit(circ)
        for i in range(flat.num_nodes):
            assert list(flat.succs[i]) == flat.successors(i)

    def test_roots_match_object_dag(self):
        circ = random_circuit(7, 60, seed=1, two_qubit_fraction=0.6)
        assert list(FlatDag.from_circuit(circ).roots) == CircuitDag(circ).roots()

    def test_metadata_copied(self):
        circ = QuantumCircuit(4, name="meta", num_clbits=2)
        circ.cx(0, 1)
        flat = FlatDag.from_circuit(circ)
        assert flat.name == "meta"
        assert flat.num_qubits == 4
        assert flat.num_clbits == 2
        assert len(flat) == 1

    def test_routable_flag(self):
        ok = QuantumCircuit(3)
        ok.cx(0, 1)
        ok.barrier()
        assert FlatDag.from_circuit(ok).routable
        bad = QuantumCircuit(3)
        bad.ccx(0, 1, 2)
        assert not FlatDag.from_circuit(bad).routable

    def test_empty_circuit(self):
        flat = FlatDag.from_circuit(QuantumCircuit(3))
        assert flat.num_nodes == 0
        assert flat.roots == ()
        frontier = FrontierState(flat)
        assert frontier.done

    def test_pickle_roundtrip(self):
        circ = random_circuit(6, 50, seed=4, two_qubit_fraction=0.7)
        flat = FlatDag.from_circuit(circ)
        clone = pickle.loads(pickle.dumps(flat))
        assert clone.num_nodes == flat.num_nodes
        assert clone.succs == flat.succs
        assert clone.preds == flat.preds
        assert clone.gates == flat.gates
        # A frontier over the unpickled IR walks identically.
        a, b = FrontierState(flat), FrontierState(clone)
        assert a.front_list() == b.front_list()


def _drive_both(circ: QuantumCircuit, seed: int, ext_size: int = 20):
    """Random co-execution: make identical choices on both frontiers and
    assert front layers, drains, and extended sets agree at every step."""
    obj = DagFrontier(CircuitDag(circ))
    flat = FrontierState(FlatDag.from_circuit(circ))
    rng = random.Random(seed)
    while not flat.done:
        assert obj.drain_nonrouting() == flat.drain_nonrouting()
        assert sorted(obj.front) == flat.front_list()
        assert obj.done == flat.done
        if flat.done:
            break
        extended_obj = obj.extended_set(ext_size)
        extended_flat = flat.extended_nodes(ext_size)
        assert [g.qubits for g in extended_obj] == [
            flat.dag.pairs[i] for i in extended_flat
        ]
        pick = rng.choice(flat.front_list())
        obj.execute_front_gate(pick)
        flat.execute_front_gate(pick)
    assert obj.done and flat.done


class TestFrontierEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_trace_equivalence(self, seed):
        circ = random_circuit(8, 100, seed=seed, two_qubit_fraction=0.7)
        _drive_both(circ, seed)

    def test_trace_equivalence_with_directives(self):
        circ = random_circuit(6, 60, seed=11, two_qubit_fraction=0.5)
        circ.barrier()
        for q in range(6):
            circ.measure(q)
        _drive_both(circ, 5)

    def test_paper_figure4_front(self):
        flat = FrontierState(FlatDag.from_circuit(paper_figure4_circuit()))
        flat.drain_nonrouting()
        assert flat.front_list() == [0, 1]

    def test_small_extended_sizes(self):
        circ = random_circuit(8, 80, seed=2, two_qubit_fraction=0.9)
        for size in (0, 1, 3):
            obj = DagFrontier(CircuitDag(circ))
            flat = FrontierState(FlatDag.from_circuit(circ))
            obj.drain_nonrouting()
            flat.drain_nonrouting()
            assert [g.qubits for g in obj.extended_set(size)] == [
                flat.dag.pairs[i] for i in flat.extended_nodes(size)
            ]


class TestFrontierReset:
    def test_reset_equals_fresh(self):
        circ = random_circuit(8, 90, seed=7, two_qubit_fraction=0.8)
        ir = FlatDag.from_circuit(circ)
        frontier = FrontierState(ir)
        rng = random.Random(0)
        # Partially execute, then reset.
        frontier.drain_nonrouting()
        for _ in range(10):
            if not frontier.front_list():
                break
            frontier.execute_front_gate(rng.choice(frontier.front_list()))
            frontier.drain_nonrouting()
        frontier.extended_nodes(20)
        frontier.reset()
        fresh = FrontierState(ir)
        assert frontier.front_list() == fresh.front_list()
        assert frontier.remaining == fresh.remaining
        assert frontier.executed == fresh.executed
        assert frontier.num_executed == fresh.num_executed == 0
        assert frontier.drain_nonrouting() == fresh.drain_nonrouting()
        assert frontier.extended_nodes(20) == fresh.extended_nodes(20)

    def test_reset_then_full_replay_identical(self):
        circ = random_circuit(7, 70, seed=13, two_qubit_fraction=0.7)
        ir = FlatDag.from_circuit(circ)
        frontier = FrontierState(ir)

        def trace(fs):
            steps = []
            rng = random.Random(99)
            while not fs.done:
                steps.append(tuple(fs.drain_nonrouting()))
                front = fs.front_list()
                if not front:
                    break
                steps.append(tuple(fs.extended_nodes(5)))
                pick = rng.choice(front)
                fs.execute_front_gate(pick)
                steps.append(pick)
            return steps

        first = trace(frontier)
        frontier.reset()
        assert trace(frontier) == first

    def test_extended_pairs_memo_matches_walks_across_resets(self):
        """Random executions over two resets: every memoised look-ahead
        answer equals a fresh walk, and later passes hit the memo."""
        circ = random_circuit(7, 120, seed=3, two_qubit_fraction=0.7)
        ir = FlatDag.from_circuit(circ)
        frontier = FrontierState(ir)
        walks = 0
        for pass_seed in (0, 0, 1):
            frontier.reset()
            rng = random.Random(pass_seed)
            while not frontier.done:
                frontier.drain_nonrouting()
                front = frontier.front_list()
                if not front:
                    break
                served = frontier.extended_pairs(6)
                fresh = tuple(ir.pairs[i] for i in frontier.extended_nodes(6))
                assert served == fresh
                frontier.execute_front_gate(rng.choice(front))
            if pass_seed == 0 and not walks:
                walks = len(frontier.ext_memo[6])
        assert len(frontier.ext_memo[6]) > walks > 0

    def test_extended_pairs_unmemoised_with_pending_nonrouting(self):
        """Ready 1q gates make the executed set more than a function of
        the front, so the walk runs without touching the memo."""
        circ = QuantumCircuit(3)
        circ.cx(0, 1)
        circ.h(2)
        circ.cx(1, 2)
        frontier = FrontierState(FlatDag.from_circuit(circ))
        # The pending h(2) still blocks cx(1, 2) from the look-ahead.
        assert frontier.extended_pairs(5) == ()
        assert frontier.ext_memo == {}
        frontier.drain_nonrouting()
        assert frontier.extended_pairs(5) == ((1, 2),)
        assert frontier.ext_memo == {5: {0: ((1, 2),)}}

    def test_double_execute_rejected(self):
        circ = QuantumCircuit(2)
        circ.cx(0, 1)
        frontier = FrontierState(FlatDag.from_circuit(circ))
        frontier.execute_front_gate(0)
        with pytest.raises(CircuitError, match="not in the front layer"):
            frontier.execute_front_gate(0)


def _fold_circuit() -> QuantumCircuit:
    circ = QuantumCircuit(3, "fold", 3)
    circ.h(0)  # 0: q0's root chain
    circ.measure(0, 0)  # 1: q0's root chain, no depth step
    circ.cx(0, 1)  # 2
    circ.t(0)  # 3: the chain after 2 on q0
    circ.cx(0, 1)  # 4: after 2 directly (q1) and through 3 (q0)
    circ.x(2)  # 5: q2's root chain
    circ.barrier(1, 2)  # 6
    circ.h(2)  # 7: the chain after 6 on q2, ending the wire
    circ.s(2)  # 8
    return circ


class TestFoldedTables:
    def test_tables(self):
        fold = FlatDag.from_circuit(_fold_circuit()).folded()
        assert fold.succs[2] == (4, 4)  # one entry per dependency path
        assert fold.succs[4] == (6,)
        assert fold.succs[6] == ()
        assert [fold.fill[i] for i in (2, 4, 6)] == [0, 2, 1]
        assert fold.roots == (2,)
        assert fold.total == 3
        assert [fold.tails[i] for i in (2, 4, 6)] == [(1, 0), (0, 0), (0, 2)]
        assert fold.root_depth == (1, 0, 1)

    def test_folded_frontier_executes_multi_qubit_nodes_only(self):
        ir = FlatDag.from_circuit(_fold_circuit())
        frontier = FrontierState(ir, folded=True)
        for _ in range(2):
            assert frontier.drain_nonrouting() == []
            assert frontier.front_list() == [2]
            assert frontier.extended_nodes(5) == [4]
            frontier.execute_front_batch([2])
            assert frontier.front_list() == [4]
            frontier.execute_front_batch([4])
            assert frontier.drain_nonrouting() == [6]
            assert frontier.done
            assert list(frontier.executed) == [0, 0, 1, 0, 1, 0, 1, 0, 0]
            frontier.reset()

    def test_built_once_and_kept_out_of_pickles(self):
        ir = FlatDag.from_circuit(_fold_circuit())
        fold = ir.folded()
        assert ir.folded() is fold
        clone = pickle.loads(pickle.dumps(ir))
        assert clone._fold is None
        assert clone._views is None
        assert ir.folded() is fold
        assert clone.folded() == fold


class TestLazyViews:
    def test_constructor_builds_no_dag_view(self):
        """The constructor keeps only gates, operands and counts; the
        first read of any DAG view builds them all, once."""
        ir = FlatDag.from_circuit(_fold_circuit())
        assert ir._views is None and ir._fold is None
        assert ir.num_nodes == 9 and ir.num_qubits == 3 and ir.routable
        assert ir.pairs[2] == (0, 1)
        succs = ir.succs
        views = ir._views
        assert views is not None
        assert ir.succs is succs and ir.roots is views.roots
        assert ir.two_qubit == bytes([0, 0, 1, 0, 1, 0, 0, 0, 0])
        assert ir._views is views

    def test_routable_flag(self):
        circ = QuantumCircuit(3)
        circ.barrier(0, 1, 2)
        circ.cx(0, 1)
        assert FlatDag.from_circuit(circ).routable
        circ.ccx(0, 1, 2)
        assert not FlatDag.from_circuit(circ).routable
        assert FlatDag.from_circuit(QuantumCircuit(2)).routable
