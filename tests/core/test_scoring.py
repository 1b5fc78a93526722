"""Unit tests for the flat distance buffer and the vector scorer's
scalar delta loop and candidate memo (repro.core.scoring)."""

import pickle
import random

import pytest

from repro.circuits import QuantumCircuit, random_circuit
from repro.circuits.flatdag import FlatDag, FrontierState
from repro.core import FlatDistance, HeuristicConfig, Layout, SabreRouter
from repro.core.heuristic import score_layout
from repro.core.scoring import SCORE_EPSILON, VectorBlock, VectorDevice
from repro.exceptions import MappingError
from repro.hardware import distance_matrix, grid_device, line_device


class TestFlatDistance:
    def test_roundtrip(self, tokyo, tokyo_distance):
        flat = FlatDistance.from_matrix(tokyo_distance)
        assert flat.n == tokyo.num_qubits
        assert flat.to_matrix() == [list(row) for row in tokyo_distance]

    def test_buffer_layout(self, tokyo_distance):
        flat = FlatDistance.from_matrix(tokyo_distance)
        n = flat.n
        for a in (0, 7, n - 1):
            for b in (0, 3, n - 1):
                assert flat.buf[a * n + b] == tokyo_distance[a][b]

    def test_symmetric_flag(self, tokyo_distance):
        assert FlatDistance.from_matrix(tokyo_distance).symmetric
        asym = [[0.0, 1.0], [2.0, 0.0]]
        assert not FlatDistance.from_matrix(asym).symmetric

    def test_from_matrix_idempotent(self, tokyo_distance):
        flat = FlatDistance.from_matrix(tokyo_distance)
        assert FlatDistance.from_matrix(flat) is flat

    def test_rejects_ragged(self):
        with pytest.raises(MappingError, match="square"):
            FlatDistance.from_matrix([[0.0, 1.0], [1.0]])

    def test_rejects_wrong_buffer_length(self):
        from array import array

        with pytest.raises(MappingError, match="entries"):
            FlatDistance(3, array("d", [0.0] * 8))

    def test_pickle_roundtrip(self, tokyo_distance):
        flat = FlatDistance.from_matrix(tokyo_distance)
        clone = pickle.loads(pickle.dumps(flat))
        assert clone == flat
        assert clone.symmetric == flat.symmetric

    def test_copy_is_independent(self, tokyo_distance):
        flat = FlatDistance.from_matrix(tokyo_distance)
        clone = flat.copy()
        clone.buf[0] = 99.0
        assert flat.buf[0] != 99.0


def _front_of(circuit):
    """A frontier holding ``circuit``'s initial front layer."""
    frontier = FrontierState(FlatDag.from_circuit(circuit))
    frontier.drain_nonrouting()
    return frontier


def _front_block(device, frontier, config):
    """A VectorBlock holding ``frontier``'s front layer (the scalar
    delta loop's state); also returns the front and extended gates for
    the reference scorer."""
    flat = FlatDistance.from_matrix(distance_matrix(device))
    neighbors = [device.neighbors(q) for q in range(device.num_qubits)]
    block = VectorBlock(VectorDevice(flat, neighbors), config, flat.buf.tolist())
    dag = frontier.dag
    front = frontier.front_list()
    ext = (
        frontier.extended_nodes(config.extended_set_size)
        if config.uses_lookahead
        else []
    )
    block.set_front(
        [dag.pairs[i] for i in front], [dag.pairs[i] for i in ext]
    )
    return block, [dag.gates[i] for i in front], [dag.gates[i] for i in ext]


def _front_homes(frontier, layout):
    dag = frontier.dag
    return tuple(
        layout.physical(q)
        for i in frontier.front_list()
        for q in (dag.qubit_a[i], dag.qubit_b[i])
    )


class TestDeltaScoring:
    """The vector scorer's scalar delta loop (``score_scalar``) must
    pick exactly the winner set of the reference full recomputation,
    step after step, under non-trivial decay."""

    @pytest.mark.parametrize("mode", ["basic", "lookahead", "decay"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_score(self, mode, seed):
        device = grid_device(4, 4)
        circuit = random_circuit(16, 60, seed=seed, two_qubit_fraction=0.8)
        layout = Layout.random(16, seed=seed + 100)
        config = HeuristicConfig(mode=mode)
        frontier = _front_of(circuit)
        block, front_gates, extended = _front_block(device, frontier, config)
        router = SabreRouter(device, config=config)
        dist = distance_matrix(device)
        rng = random.Random(seed)
        for _ in range(40):
            decay = [1.0 + rng.randrange(4) * 1e-3 for _ in range(16)]
            got = block.score_scalar(
                layout.l2p, layout.p2l, decay, config.uses_decay
            )
            want = []
            best = float("inf")
            for pa, pb in router._swap_candidates(frontier, layout):
                qa, qb = layout.logical(pa), layout.logical(pb)
                layout.swap_logical(qa, qb)
                score = score_layout(
                    front_gates, extended, layout.l2p, dist, config
                )
                layout.swap_logical(qa, qb)
                if config.uses_decay:
                    score *= max(decay[qa], decay[qb])
                if score < best - SCORE_EPSILON:
                    best, want = score, [(qa, qb)]
                elif score <= best + SCORE_EPSILON:
                    want.append((qa, qb))
            assert got == want
            qa, qb = rng.choice(want)
            layout.swap_logical(qa, qb)

    def test_front_partner_is_scalar(self):
        device = line_device(5)
        circuit = QuantumCircuit(5)
        circuit.cx(0, 4)
        circuit.cx(1, 2)
        block, _, _ = _front_block(device, _front_of(circuit), HeuristicConfig())
        partner = block._pf
        assert partner[0] == 4
        assert partner[4] == 0
        assert partner[1] == 2
        assert partner[3] == -1


class TestIncrementalCandidates:
    """The vector scorer's memoised candidate lists must
    match the router's from-scratch ``_swap_candidates`` — the order
    that decides tie-breaks — after every SWAP the router could apply."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_agrees_with_rebuild_under_random_swaps(self, seed):
        device = grid_device(4, 4)
        circuit = random_circuit(16, 50, seed=seed, two_qubit_fraction=0.9)
        layout = Layout.random(16, seed=seed)
        router = SabreRouter(device, config=HeuristicConfig(scorer="vector"))
        frontier = _front_of(circuit)
        rng = random.Random(seed)
        for _ in range(60):
            # Apply a random candidate SWAP, exactly like the router.
            cands = router._vdev.front_candidates(
                _front_homes(frontier, layout)
            )
            assert [c[:2] for c in cands] == router._swap_candidates(
                frontier, layout
            )
            pa, pb, _, _ = rng.choice(cands)
            layout.swap_logical(layout.logical(pa), layout.logical(pb))

    def test_matches_router_swap_candidates(self, tokyo):
        """Random layouts and random fronts (any vertex-disjoint set of
        two-qubit gates, home tuples in front order)."""
        router = SabreRouter(tokyo, config=HeuristicConfig(scorer="vector"))
        rng = random.Random(7)
        for trial in range(100):
            qubits = rng.sample(range(20), 2 * rng.randint(1, 6))
            circuit = QuantumCircuit(20)
            for a, b in zip(qubits[::2], qubits[1::2]):
                circuit.cx(a, b)
            frontier = _front_of(circuit)
            layout = Layout.random(20, seed=trial)
            cands = router._vdev.front_candidates(
                _front_homes(frontier, layout)
            )
            assert [(pa, pb) for pa, pb, _, _ in cands] == (
                router._swap_candidates(frontier, layout)
            )


class TestNarrowCandidateMemo:
    def _device(self, coupling):
        flat = FlatDistance.from_matrix(distance_matrix(coupling))
        neighbors = [coupling.neighbors(q) for q in range(coupling.num_qubits)]
        return VectorDevice(flat, neighbors), neighbors

    def test_matches_fresh_candidates_per_device(self, tokyo):
        """Same home tuple, two 20-qubit devices: each device answers
        from its own adjacency."""
        grid = grid_device(4, 5)
        rng = random.Random(2)
        devices = [self._device(tokyo), self._device(grid)]
        for _ in range(200):
            homes = tuple(rng.sample(range(20), rng.choice((2, 4))))
            for vdev, neighbors in devices:
                fresh = sorted(
                    {
                        (p, nb) if p < nb else (nb, p)
                        for p in homes
                        for nb in neighbors[p]
                    }
                )
                for _ in range(2):  # cold, then memoised
                    served = vdev.front_candidates(homes)
                    assert served == [
                        (pa, pb, pa * 20, pb * 20) for pa, pb in fresh
                    ]

    def test_memo_size_is_bounded(self, tokyo, monkeypatch):
        import repro.core.scoring as scoring

        monkeypatch.setattr(scoring, "_CAND_MEMO_MAX", 8)
        vdev, _ = self._device(tokyo)
        for pa in range(20):
            vdev.front_candidates((pa, (pa + 1) % 20))
            assert len(vdev.cand_memo) <= 8
