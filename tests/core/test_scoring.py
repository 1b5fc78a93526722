"""Unit tests for the flat distance buffer and the candidate scorer's
scalar delta loop, full-sum loop and candidate memo
(repro.core.scoring)."""

import pickle
import random

import pytest

from repro.circuits import QuantumCircuit, random_circuit
from repro.circuits.flatdag import FlatDag, FrontierState
from repro.circuits.gates import Gate
from repro.core import FlatDistance, HeuristicConfig, Layout
from repro.core.heuristic import score_layout
from repro.core.scoring import (
    SCORE_EPSILON,
    VectorBlock,
    VectorDevice,
    device_spread,
)
from repro.exceptions import MappingError
from repro.hardware import distance_matrix, grid_device, line_device
from repro.hardware.distance import weighted_floyd_warshall


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


def _vector_device(device):
    """The candidate tables a router builds for ``device``."""
    return VectorDevice(
        FlatDistance.from_matrix(distance_matrix(device)),
        [device.neighbors(q) for q in range(device.num_qubits)],
    )


def _front_of(circuit):
    """A frontier holding ``circuit``'s initial front layer."""
    frontier = FrontierState(FlatDag.from_circuit(circuit))
    frontier.drain_nonrouting()
    return frontier


def _front_block(device, frontier, config, dist=None):
    """A VectorBlock holding ``frontier``'s front layer (the scalar
    delta loop's state) over ``dist`` (the hop-count matrix by
    default); also returns the front and extended gates for the
    reference scorer."""
    if dist is None:
        dist = distance_matrix(device)
    flat = FlatDistance.from_matrix(dist)
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


def _reference_winners(
    edges, layout, front_gates, extended, dist, config, decay
):
    """The winner set of the paper-literal full recomputation over the
    candidate ``edges``, in order."""
    want = []
    best = float("inf")
    for pa, pb in edges:
        qa, qb = layout.logical(pa), layout.logical(pb)
        layout.swap_logical(qa, qb)
        score = score_layout(front_gates, extended, layout.l2p, dist, config)
        layout.swap_logical(qa, qb)
        if config.uses_decay:
            score *= max(decay[qa], decay[qb])
        if config.swap_cost_penalty:
            score += config.swap_cost_penalty * (dist[pa][pb] - 1.0)
        if score < best - SCORE_EPSILON:
            best, want = score, [(qa, qb)]
        elif score <= best + SCORE_EPSILON:
            want.append((qa, qb))
    return want


def _weighted_distance(device, seed):
    """A noise-aware style matrix: every edge weighs 1.0-2.5."""
    rng = random.Random(seed)
    weights = {
        (min(a, b), max(a, b)): 1.0 + 1.5 * rng.random()
        for a, b in device.edges
    }
    return weighted_floyd_warshall(device, weights)


def _rebuilt_candidates(device, frontier, layout):
    """The §IV-C1 candidate SWAPs of ``frontier``'s front, rebuilt from
    scratch: every device edge touching a front qubit's home, sorted."""
    dag = frontier.dag
    return sorted(
        {
            (min(p, nb), max(p, nb))
            for i in frontier.front
            for q in (dag.qubit_a[i], dag.qubit_b[i])
            for p in (layout.physical(q),)
            for nb in device.neighbors(p)
        }
    )


def _front_homes(frontier, layout):
    dag = frontier.dag
    return tuple(
        layout.physical(q)
        for i in frontier.front_list()
        for q in (dag.qubit_a[i], dag.qubit_b[i])
    )


class TestDeltaScoring:
    """The scalar delta loop (``score_scalar``) must pick exactly the
    winner set of the paper-literal full recomputation, step after
    step, under non-trivial decay."""

    @pytest.mark.parametrize("mode", ["basic", "lookahead", "decay"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_score(self, mode, seed):
        """Also covers the look-ahead lower bound: on weighted matrices
        its per-device spread is not 1, the penalty term joins it, and
        the random circuits start from multi-gate fronts."""
        for weighted, penalty in (
            (False, 0.0), (True, 0.0), (False, 0.5), (True, 0.5)
        ):
            self._check_against_reference(mode, seed, weighted, penalty)

    @staticmethod
    def _check_against_reference(mode, seed, weighted, penalty):
        device = grid_device(4, 4)
        circuit = random_circuit(16, 60, seed=seed, two_qubit_fraction=0.8)
        layout = Layout.random(16, seed=seed + 100)
        config = HeuristicConfig(mode=mode, swap_cost_penalty=penalty)
        dist = (
            _weighted_distance(device, seed)
            if weighted
            else distance_matrix(device)
        )
        frontier = _front_of(circuit)
        block, front_gates, extended = _front_block(
            device, frontier, config, dist
        )
        assert len(front_gates) > 1
        assert (block.device.spread != 1.0) == weighted
        rng = random.Random(seed)
        bounded = 0
        for _ in range(40):
            decay = [1.0 + rng.randrange(4) * 1e-3 for _ in range(16)]
            got = block.score_scalar(
                layout.l2p, layout.p2l, decay, config.uses_decay
            )
            bounded += block.scalar_bounded
            assert block.scalar_bounded < block.scalar_candidates
            want = _reference_winners(
                _rebuilt_candidates(device, frontier, layout), layout,
                front_gates, extended, dist, config, decay,
            )
            assert got == want
            qa, qb = rng.choice(want)
            layout.swap_logical(qa, qb)
        # The bound must actually skip candidates here, or this test
        # would not cover it.
        assert (bounded > 0) == config.uses_lookahead

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


class TestLookaheadBound:
    """The lower bound that lets ``score_scalar`` skip a candidate's
    look-ahead loops must never change the winner set."""

    @pytest.mark.parametrize("mode", ["lookahead", "decay"])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("penalty", [0.0, 0.5])
    def test_random_sets_match_reference(self, mode, weighted, penalty):
        """Arbitrary fronts and look-ahead sets, installed directly,
        reach the bound's worst case (every partner term dropping by
        the full spread) far more often than circuit fronts do."""
        config = HeuristicConfig(mode=mode, swap_cost_penalty=penalty)
        bounded = 0
        for trial in range(150):
            rng = random.Random(trial)
            device = line_device(6) if trial % 2 else grid_device(2, 3)
            n = device.num_qubits
            dist = (
                _weighted_distance(device, trial)
                if weighted
                else distance_matrix(device)
            )
            flat = FlatDistance.from_matrix(dist)
            neighbors = [device.neighbors(q) for q in range(n)]
            block = VectorBlock(
                VectorDevice(flat, neighbors), config, flat.buf.tolist()
            )
            qubits = rng.sample(range(n), 4)
            fpairs = [tuple(qubits[:2])]
            if rng.random() < 0.5:
                fpairs.append(tuple(qubits[2:]))
            epairs = [
                tuple(rng.sample(range(n), 2))
                for _ in range(rng.randint(1, 6))
            ]
            block.set_front(fpairs, epairs)
            layout = Layout.random(n, seed=trial)
            decay = [1.0 + rng.randrange(4) * 1e-3 for _ in range(n)]
            got = block.score_scalar(
                layout.l2p, layout.p2l, decay, config.uses_decay
            )
            bounded += block.scalar_bounded
            homes = {layout.physical(q) for pair in fpairs for q in pair}
            edges = sorted(
                {(min(p, nb), max(p, nb)) for p in homes for nb in neighbors[p]}
            )
            want = _reference_winners(
                edges, layout, [Gate("cx", pair) for pair in fpairs],
                [Gate("cx", pair) for pair in epairs], dist, config, decay,
            )
            assert got == want, trial
        assert bounded > 0

    def test_negative_entry_disables_bound(self):
        device = grid_device(3, 3)
        dist = [list(row) for row in distance_matrix(device)]
        dist[0][8] = dist[8][0] = -1.0
        circuit = random_circuit(9, 40, seed=4, two_qubit_fraction=0.9)
        layout = Layout.random(9, seed=7)
        config = HeuristicConfig(mode="lookahead")
        frontier = _front_of(circuit)
        block, front_gates, extended = _front_block(
            device, frontier, config, dist
        )
        assert block.device.spread == float("inf")
        decay = [1.0] * 9
        for _ in range(20):
            got = block.score_scalar(layout.l2p, layout.p2l, decay, False)
            assert block.scalar_bounded == 0
            assert got == _reference_winners(
                _rebuilt_candidates(device, frontier, layout), layout,
                front_gates, extended, dist, config, decay,
            )
            layout.swap_logical(*got[0])

    def test_spread_reads_the_matrix(self):
        device = line_device(4)
        edges = [(0, 1), (1, 2), (2, 3)]
        flat = FlatDistance.from_matrix(distance_matrix(device))
        assert device_spread(flat, edges) == 1.0
        weights = {(0, 1): 1.0, (1, 2): 3.0, (2, 3): 1.5}
        weighted = FlatDistance.from_matrix(
            weighted_floyd_warshall(device, weights)
        )
        assert device_spread(weighted, edges) == 3.0


class TestFullScoring:
    """``score_full`` (the router's scorer for asymmetric matrices) must
    pick exactly the paper-literal winner set, step after step, and
    leave the layout as it found it."""

    @pytest.mark.parametrize("mode", ["basic", "lookahead", "decay"])
    @pytest.mark.parametrize("penalty", [0.0, 0.5])
    def test_matches_reference_on_asymmetric(self, mode, penalty):
        device = grid_device(3, 3)
        config = HeuristicConfig(mode=mode, swap_cost_penalty=penalty)
        for seed in range(4):
            rng = random.Random(seed)
            dist = [
                [d * (1.0 + 0.6 * rng.random()) for d in row]
                for row in distance_matrix(device)
            ]
            circuit = random_circuit(9, 40, seed=seed, two_qubit_fraction=0.8)
            layout = Layout.random(9, seed=seed)
            frontier = _front_of(circuit)
            block, front_gates, extended = _front_block(
                device, frontier, config, dist
            )
            for _ in range(20):
                decay = [1.0 + rng.randrange(4) * 1e-3 for _ in range(9)]
                l2p = list(layout.l2p)
                got = block.score_full(
                    layout.l2p, layout.p2l, decay, config.uses_decay
                )
                assert layout.l2p == l2p
                assert block.scalar_bounded == 0
                want = _reference_winners(
                    _rebuilt_candidates(device, frontier, layout), layout,
                    front_gates, extended, dist, config, decay,
                )
                assert got == want
                layout.swap_logical(*rng.choice(want))


class TestIncrementalCandidates:
    """The memoised candidate lists must match a from-scratch rebuild
    — the order that decides tie-breaks — after every SWAP the router
    could apply."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_agrees_with_rebuild_under_random_swaps(self, seed):
        device = grid_device(4, 4)
        circuit = random_circuit(16, 50, seed=seed, two_qubit_fraction=0.9)
        layout = Layout.random(16, seed=seed)
        vdev = _vector_device(device)
        frontier = _front_of(circuit)
        rng = random.Random(seed)
        for _ in range(60):
            # Apply a random candidate SWAP, exactly like the router.
            cands = vdev.front_candidates(_front_homes(frontier, layout))
            assert [c[:2] for c in cands] == _rebuilt_candidates(
                device, frontier, layout
            )
            pa, pb, _, _ = rng.choice(cands)
            layout.swap_logical(layout.logical(pa), layout.logical(pb))

    def test_matches_router_swap_candidates(self, tokyo):
        """Random layouts and random fronts (any vertex-disjoint set of
        two-qubit gates, home tuples in front order)."""
        vdev = _vector_device(tokyo)
        rng = random.Random(7)
        for trial in range(100):
            qubits = rng.sample(range(20), 2 * rng.randint(1, 6))
            circuit = QuantumCircuit(20)
            for a, b in zip(qubits[::2], qubits[1::2]):
                circuit.cx(a, b)
            frontier = _front_of(circuit)
            layout = Layout.random(20, seed=trial)
            cands = vdev.front_candidates(_front_homes(frontier, layout))
            assert [(pa, pb) for pa, pb, _, _ in cands] == (
                _rebuilt_candidates(tokyo, frontier, layout)
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
