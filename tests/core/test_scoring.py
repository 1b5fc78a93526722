"""Unit tests for the flat-array delta-scoring state (repro.core.scoring)."""

import pickle
import random

import pytest

from repro.circuits import QuantumCircuit, random_circuit
from repro.circuits.dag import CircuitDag, DagFrontier
from repro.core import FlatDistance, HeuristicConfig, Layout, RouterState, SabreRouter
from repro.core.heuristic import score_layout
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


def _state_for(device, circuit, layout, config):
    """Build a RouterState reflecting ``circuit``'s initial front layer."""
    flat = FlatDistance.from_matrix(distance_matrix(device))
    neighbors = [device.neighbors(q) for q in range(device.num_qubits)]
    state = RouterState(flat, neighbors, config)
    frontier = DagFrontier(CircuitDag(circuit))
    frontier.drain_nonrouting()
    front_gates = [frontier.dag.nodes[i].gate for i in sorted(frontier.front)]
    extended = (
        frontier.extended_set(config.extended_set_size)
        if config.uses_lookahead
        else []
    )
    state.set_front(
        [g.qubits for g in front_gates],
        [g.qubits for g in extended],
        layout.l2p,
    )
    return state, front_gates, extended, frontier


class TestDeltaScoring:
    """swap_score must equal the reference full recomputation exactly
    enough that winner sets never differ (tolerance far below the
    router's 1e-9 tie epsilon)."""

    @pytest.mark.parametrize("mode", ["basic", "lookahead", "decay"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_score(self, mode, seed):
        device = grid_device(4, 4)
        circuit = random_circuit(16, 60, seed=seed, two_qubit_fraction=0.8)
        layout = Layout.random(16, seed=seed + 100)
        config = HeuristicConfig(mode=mode)
        state, front_gates, extended, _ = _state_for(
            device, circuit, layout, config
        )
        dist = distance_matrix(device)
        state.begin_step(layout.l2p)
        for pa, pb in state.candidates():
            qa, qb = layout.logical(pa), layout.logical(pb)
            got = state.swap_score(qa, qb, pa, pb, layout.l2p)
            layout.swap_logical(qa, qb)
            want = score_layout(front_gates, extended, layout.l2p, dist, config)
            layout.swap_logical(qa, qb)
            assert got == pytest.approx(want, abs=1e-12), (pa, pb)

    def test_front_partner_is_scalar(self):
        device = line_device(5)
        circuit = QuantumCircuit(5)
        circuit.cx(0, 4)
        circuit.cx(1, 2)
        layout = Layout.trivial(5)
        state, _, _, _ = _state_for(device, circuit, layout, HeuristicConfig())
        assert state.partner_f[0] == 4
        assert state.partner_f[4] == 0
        assert state.partner_f[1] == 2
        assert state.partner_f[3] == -1

    def test_rejects_overlapping_front(self, tokyo):
        flat = FlatDistance.from_matrix(distance_matrix(tokyo))
        neighbors = [tokyo.neighbors(q) for q in range(tokyo.num_qubits)]
        state = RouterState(flat, neighbors, HeuristicConfig())
        pairs = [(0, 1), (1, 2)]
        with pytest.raises(MappingError, match="vertex-disjoint"):
            state.set_front(pairs, [], Layout.trivial(tokyo.num_qubits).l2p)


class TestIncrementalCandidates:
    """The incrementally maintained candidate set must agree with a
    from-scratch rebuild after every SWAP the router could apply."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_agrees_with_rebuild_under_random_swaps(self, seed):
        device = grid_device(4, 4)
        circuit = random_circuit(16, 50, seed=seed, two_qubit_fraction=0.9)
        layout = Layout.random(16, seed=seed)
        config = HeuristicConfig()
        state, _, _, _ = _state_for(device, circuit, layout, config)
        rng = random.Random(seed)
        for _ in range(60):
            # Apply a random candidate SWAP, exactly like the router.
            pa, pb = rng.choice(state.candidates())
            qa, qb = layout.logical(pa), layout.logical(pb)
            layout.swap_logical(qa, qb)
            state.on_swap_applied(qa, qb, pa, pb)
            # Scratch rebuild on a throwaway state must agree.
            fresh_cands = set()
            for q in state.front_qubits:
                p = layout.physical(q)
                for nb in device.neighbors(p):
                    fresh_cands.add((p, nb) if p < nb else (nb, p))
            assert state.cand_set == fresh_cands
            assert state.cand_list == sorted(fresh_cands)

    def test_matches_router_swap_candidates(self, grid3x3):
        from repro.circuits.flatdag import FlatDag, FrontierState

        circuit = QuantumCircuit(9)
        circuit.cx(0, 8)
        router = SabreRouter(grid3x3, seed=0)
        frontier = FrontierState(FlatDag.from_circuit(circuit))
        frontier.drain_nonrouting()
        layout = Layout.trivial(9)
        state, _, _, _ = _state_for(
            grid3x3, circuit, layout, HeuristicConfig()
        )
        assert state.candidates() == router._swap_candidates(frontier, layout)


class TestNarrowCandidateMemo:
    def _device(self, coupling):
        from repro.core.scoring import VectorDevice

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
                    served = vdev.narrow_candidates(homes)
                    assert served == [
                        (pa, pb, pa * 20, pb * 20) for pa, pb in fresh
                    ]

    def test_memo_size_is_bounded(self, tokyo, monkeypatch):
        import repro.core.scoring as scoring

        monkeypatch.setattr(scoring, "_CAND_MEMO_MAX", 8)
        vdev, _ = self._device(tokyo)
        for pa in range(20):
            vdev.narrow_candidates((pa, (pa + 1) % 20))
            assert len(vdev.cand_memo) <= 8
