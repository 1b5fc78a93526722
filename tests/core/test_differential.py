"""Differential suite: the production router vs the legacy oracle.

The production path (a search loop that scores every front over
memoised candidate lists and look-ahead sets, then a replay of the
SWAP record into a circuit) must be *observationally identical* to
the paper-literal legacy oracle (:mod:`repro.core.legacy`), which
rescores the full Eq. 2 sum per candidate over its own object DAG:
same per-step winner sets, same tie-break draws, and therefore
bit-for-bit identical routed circuits for identical seeds — across all
heuristic modes, front widths, symmetric and asymmetric distance
matrices, the noise-aware penalty path, and the livelock escape hatch.
A best-of-K sweep must in turn keep the same winner and per-seed
counts whether it runs as the direct layout search or on the engine's
serial or parallel executor.

Test ids keep the ``vector``/``reference`` labels: ``vector`` is the
production class, ``reference`` the legacy oracle (:data:`ROUTERS`,
:data:`LAYOUTS`).
"""

import hashlib

import pytest

from repro.circuits import random_circuit
from repro.core import (
    HeuristicConfig,
    Layout,
    LegacyDagRouter,
    LegacySabreLayout,
    SabreLayout,
    SabreRouter,
    compile_circuit,
)
from repro.engine import run_trials
from repro.extensions.noise_aware import noise_weighted_distance
from repro.exceptions import MappingError
from repro.hardware import (
    NoiseModel,
    grid_device,
    ibm_q20_tokyo,
    line_device,
    ring_device,
)
from repro.hardware.distance import distance_matrix

MODES = ["basic", "lookahead", "decay"]

#: One traversal: the production router and the paper-literal oracle.
ROUTERS = {"vector": SabreRouter, "reference": LegacyDagRouter}

#: A whole layout search, production and oracle.
LAYOUTS = {"vector": SabreLayout, "reference": LegacySabreLayout}


def _asymmetric_distance(device, seed):
    """The hop-count matrix with every off-diagonal entry scaled by its
    own random factor in [1, 1.6): ``D[a][b] != D[b][a]`` almost
    everywhere."""
    import random

    rng = random.Random(seed)
    hops = distance_matrix(device)
    return [
        [0.0 if a == b else d * (1.0 + 0.6 * rng.random())
         for b, d in enumerate(row)]
        for a, row in enumerate(hops)
    ]


def _directive_circuit():
    """A 9-qubit circuit threaded with barriers, measures and resets."""
    from repro.circuits import Gate, QuantumCircuit

    base = random_circuit(9, 90, seed=31, two_qubit_fraction=0.8)
    circuit = QuantumCircuit(9, "directives")
    for i, gate in enumerate(base.gates):
        circuit.append(gate)
        if i % 20 == 10:
            circuit.barrier()
        if i % 25 == 5:
            circuit.measure(i % 9)
        if i % 30 == 15:
            circuit.append(Gate("reset", (i % 9,)))
    return circuit


def _chain_circuit():
    """A 6-qubit CNOT chain: its interaction graph is a path."""
    from repro.circuits import QuantumCircuit

    circuit = QuantumCircuit(6, "chain")
    for _ in range(3):
        for a in range(5):
            circuit.cx(a, a + 1)
    return circuit


def _run_all(
    device, circuit, mode="decay", seed=0, layout_seed=1, distance=None,
    stall_limit=None, **cfg
):
    layout = Layout.random(device.num_qubits, seed=layout_seed)
    return {
        label: cls(
            device,
            config=HeuristicConfig(mode=mode, **cfg),
            seed=seed,
            distance=distance,
            stall_limit=stall_limit,
        ).run(circuit, initial_layout=layout)
        for label, cls in ROUTERS.items()
    }


def _assert_identical(results):
    reference = results["reference"]
    result = results["vector"]
    assert result.circuit == reference.circuit
    assert result.swap_positions == reference.swap_positions
    assert result.initial_layout == reference.initial_layout
    assert result.final_layout == reference.final_layout
    assert result.num_forced_escapes == reference.num_forced_escapes


class TestIdenticalRouting:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", [0, 7, 13])
    def test_all_modes_tokyo(self, tokyo, mode, seed):
        circuit = random_circuit(20, 150, seed=seed, two_qubit_fraction=0.8)
        _assert_identical(_run_all(tokyo, circuit, mode=mode, seed=seed))

    @pytest.mark.parametrize("mode", MODES)
    def test_all_modes_grid(self, mode):
        device = grid_device(5, 5)
        circuit = random_circuit(25, 200, seed=3, two_qubit_fraction=0.7)
        _assert_identical(_run_all(device, circuit, mode=mode))

    @pytest.mark.parametrize("device_builder", [
        lambda: line_device(8),
        lambda: ring_device(8),
        lambda: grid_device(3, 4),
    ])
    def test_small_topologies(self, device_builder):
        device = device_builder()
        circuit = random_circuit(
            device.num_qubits, 120, seed=5, two_qubit_fraction=0.9
        )
        _assert_identical(_run_all(device, circuit))

    def test_noise_aware_penalty_path(self, tokyo):
        """Weighted (non-integer) distance matrix + swap_cost_penalty."""
        noise = NoiseModel(edge_errors={(0, 1): 0.2, (5, 6): 0.1, (11, 12): 0.15})
        distance = noise_weighted_distance(tokyo, noise)
        circuit = random_circuit(20, 150, seed=11, two_qubit_fraction=0.8)
        _assert_identical(
            _run_all(
                tokyo, circuit, seed=4, layout_seed=2, distance=distance,
                swap_cost_penalty=1.0,
            )
        )

    def test_escape_hatch_path(self):
        """Pathological stall_limit forces the escape hatch in all."""
        device = ring_device(8)
        circuit = random_circuit(8, 80, seed=0, two_qubit_fraction=1.0)
        results = _run_all(
            device, circuit, mode="basic", layout_seed=6, stall_limit=2
        )
        assert results["reference"].num_forced_escapes > 0
        _assert_identical(results)

    @pytest.mark.parametrize("stall_limit", [1, 2, 3, 4])
    def test_asymmetric_escape_hatch(self, stall_limit):
        """The escape hatch on an asymmetric matrix: its closest-gate
        pick reads the matrix in gate orientation, like the oracle."""
        device = line_device(10)
        escapes = 0
        for seed in range(3):
            circuit = random_circuit(10, 40, seed=seed, two_qubit_fraction=1.0)
            results = _run_all(
                device, circuit, mode="basic", seed=seed, layout_seed=seed,
                distance=_asymmetric_distance(device, seed),
                stall_limit=stall_limit,
            )
            _assert_identical(results)
            escapes += results["reference"].num_forced_escapes
        assert escapes > 0

    def test_bidirectional_search_identical(self, tokyo):
        """The whole layout search.  Every traversal routes in search
        mode and one winner is replayed.  It must match the emitting
        LegacySabreLayout oracle, across traversal counts, the escape
        hatch and directive circuits."""
        plain = random_circuit(16, 100, seed=9, two_qubit_fraction=0.7)
        cases = [
            (tokyo, plain, "decay", 3, None),
            (tokyo, plain, "decay", 1, None),
            (tokyo, plain, "decay", 5, None),
            (
                ring_device(8),
                random_circuit(8, 80, seed=0, two_qubit_fraction=1.0),
                "basic",
                3,
                2,
            ),
            (grid_device(3, 3), _directive_circuit(), "decay", 3, None),
            # Zero-SWAP embeddable chain: forward traversals tie on
            # (num_swaps, depth), so the first-seen winner rule shows.
            (tokyo, _chain_circuit(), "decay", 3, None),
        ]
        for device, circuit, mode, num_traversals, stall_limit in cases:
            outputs = {}
            for label, cls in LAYOUTS.items():
                searcher = cls(
                    device,
                    config=HeuristicConfig(mode=mode),
                    num_traversals=num_traversals,
                    seed=0,
                )
                if stall_limit is not None:
                    searcher.router.stall_limit = stall_limit
                outputs[label] = searcher.run(circuit)
            reference = outputs["reference"]
            if stall_limit is not None:
                assert reference.routing.num_forced_escapes > 0
            out = outputs["vector"]
            assert out.routing.circuit == reference.routing.circuit
            assert (
                out.routing.swap_positions == reference.routing.swap_positions
            )
            assert (
                out.routing.num_forced_escapes
                == reference.routing.num_forced_escapes
            )
            assert out.initial_layout == reference.initial_layout
            assert out.best_trial_index == reference.best_trial_index
            assert out.trials == reference.trials

    def test_compile_circuit_identical(self, tokyo):
        circuit = random_circuit(12, 80, seed=21, two_qubit_fraction=0.7)
        result = compile_circuit(circuit, tokyo, seed=0, num_trials=2)
        oracle = LegacySabreLayout(tokyo, num_trials=2, seed=0).run(circuit)
        assert result.routing.circuit == oracle.routing.circuit
        assert result.num_swaps == oracle.num_swaps


def _wide_front_circuit():
    """16 layers of 18 CNOTs, each a random perfect matching of 36
    qubits: on a 6x6 grid most fronts hold five gates or more."""
    import random

    from repro.circuits import QuantumCircuit

    rng = random.Random(36)
    circuit = QuantumCircuit(36, "wide")
    for _ in range(16):
        qubits = list(range(36))
        rng.shuffle(qubits)
        for a, b in zip(qubits[::2], qubits[1::2]):
            circuit.cx(a, b)
    return circuit


class TestWinnerSets:
    @pytest.mark.parametrize(
        "mode, wide",
        [
            pytest.param("basic", False, id="basic"),
            pytest.param("lookahead", False, id="lookahead"),
            pytest.param("decay", False, id="decay"),
            pytest.param("lookahead", True, id="wide-lookahead"),
            pytest.param("decay", True, id="wide-decay"),
        ],
    )
    def test_per_step_winner_sets_identical(
        self, tokyo, mode, wide, monkeypatch
    ):
        """Stronger than end-to-end equality: the full pre-tie-break
        best-candidate set of every search step must match.  The wide
        inputs score fronts of five or more gates at most steps; fronts
        narrow only where layers drain."""
        if wide:
            device = grid_device(6, 6)
            circuit = _wide_front_circuit()
        else:
            device = tokyo
            circuit = random_circuit(20, 120, seed=17, two_qubit_fraction=0.8)
        layout = Layout.random(device.num_qubits, seed=1 if wide else 3)
        widths = []
        candidates_of = LegacyDagRouter._dag_candidates

        def spy(router, frontier, layout):
            widths.append(len(frontier.front))
            return candidates_of(router, frontier, layout)

        monkeypatch.setattr(LegacyDagRouter, "_dag_candidates", spy)
        traces = {}
        for label, cls in ROUTERS.items():
            router = cls(device, config=HeuristicConfig(mode=mode), seed=0)
            steps = []
            router.on_winner_set = lambda best, steps=steps: steps.append(
                list(best)
            )
            router.run(circuit, initial_layout=layout)
            traces[label] = steps
        assert traces["vector"] == traces["reference"]
        assert len(traces["reference"]) > 0
        if wide:
            assert len(widths) == len(traces["reference"])
            assert sum(w >= 5 for w in widths) >= 0.75 * len(widths)
            assert max(widths) >= 10
        # The layout search: the search-mode traversals fire the seam
        # once per step, like the emitting oracle, and the replay of
        # the winner fires it not at all.
        searches = {}
        for label, cls in LAYOUTS.items():
            searcher = cls(
                device,
                config=HeuristicConfig(mode=mode),
                num_trials=2,
                seed=0,
            )
            steps = []
            searcher.router.on_winner_set = lambda best, steps=steps: (
                steps.append(list(best))
            )
            searcher.run(circuit)
            searches[label] = steps
        assert searches["vector"] == searches["reference"]
        assert len(searches["reference"]) > len(traces["reference"])


def _sweep_facts(result):
    """What must agree across sweep paths: the routed circuit's sha1,
    the per-seed best SWAP counts, the winning seed and ``g_la``."""
    digest = hashlib.sha1(
        repr(
            [(g.name, g.qubits, g.params) for g in result.physical_circuit()]
        ).encode("utf-8")
    ).hexdigest()
    props = result.properties
    if "engine.trial_swaps" in props:
        swaps = props["engine.trial_swaps"]
        winner = props["engine.winning_seed"]
    else:
        search = result.layout_search
        swaps = [t.best_swaps for t in search.trials]
        winner = search.trials[search.best_trial_index].seed
    return digest, swaps, winner, result.first_pass_swaps


def _assert_sweep_identity(circuit, device, **kwargs):
    """Direct search vs the serial and parallel executors."""
    from repro.pipeline import Pipeline

    pipe = Pipeline("paper_default")
    facts = {
        executor: _sweep_facts(
            pipe.run(circuit, device, executor=executor, jobs=jobs, **kwargs)
        )
        for executor, jobs in (
            (None, None), ("serial", None), ("parallel", 2)
        )
    }
    assert facts["serial"] == facts[None]
    assert facts["parallel"] == facts[None]
    return facts[None]


#: The 12 mid-size Table II rows of the ``table2_sweep`` workload.
SWEEP_ROWS = (
    "qft_10", "qft_13", "qft_16", "qft_20", "rd84_142", "adr4_197",
    "radd_250", "z4_268", "sym6_145", "misex1_241", "rd73_252",
    "cycle10_2_110",
)


class TestExecutorIdentity:
    """One best-of-K sweep, three paths — the direct layout search
    (``executor=None``), the serial executor and the parallel executor
    (seed shards across two workers) — must route the same winner byte
    for byte and report the same per-seed SWAP counts, winning seed and
    first-pass count."""

    @pytest.mark.parametrize("name", ["4gt13_92", "qft_10"])
    def test_table2_rows(self, tokyo, name):
        from repro.bench_circuits import get_benchmark

        circuit = get_benchmark(name).build()
        _assert_sweep_identity(circuit, tokyo, seed=0, num_trials=8)

    def test_non_contiguous_seed_list(self, tokyo):
        circuit = random_circuit(12, 120, seed=5, two_qubit_fraction=0.7)
        _, swaps, winner, _ = _assert_sweep_identity(
            circuit, tokyo, seeds=[9, 2, 5, 4]
        )
        assert len(swaps) == 4
        assert winner in (9, 2, 5, 4)

    @pytest.mark.parametrize("num_traversals", [1, 3])
    @pytest.mark.parametrize("mode", MODES)
    def test_sweep_matches_reference_trials(self, mode, num_traversals):
        """The engine sweep (one layout search over all seeds) against
        the emitting LegacySabreLayout oracle over the same seeds: same
        per-seed counts, same winner, same circuit."""
        device = grid_device(4, 4)
        circuit = random_circuit(16, 150, seed=23, two_qubit_fraction=0.8)
        seeds = [5, 6, 7]
        config = HeuristicConfig(mode=mode)
        vec = run_trials(
            circuit, device, seeds=seeds, config=config,
            num_traversals=num_traversals,
        )
        ref = LegacySabreLayout(
            device, config=config, seeds=seeds, num_traversals=num_traversals
        ).run(circuit)
        assert vec.trial_swaps == [t.best_swaps for t in ref.trials]
        assert vec.first_pass_swaps == ref.best_first_pass_swaps
        assert vec.winner_index == ref.best_trial_index
        assert vec.best_result.routing.circuit == ref.routing.circuit
        assert vec.best_result.initial_layout == ref.initial_layout

    def test_asymmetric_matrix_sweep(self):
        """An asymmetric matrix takes the search path too: the serial
        and 2-worker parallel executors and the direct
        ``compile_circuit(num_trials=K)`` search keep the oracle's
        winner."""
        device = grid_device(3, 3)
        distance = _asymmetric_distance(device, 5)
        circuit = random_circuit(9, 60, seed=5, two_qubit_fraction=0.8)
        direct = compile_circuit(
            circuit, device, distance=distance, seed=0, num_trials=4
        )
        oracle = LegacySabreLayout(
            device, num_trials=4, seed=0, distance=distance
        ).run(circuit)
        assert direct.routing.circuit == oracle.routing.circuit
        assert direct.trial_swaps == [t.final_swaps for t in oracle.trials]
        for executor, jobs in (("serial", None), ("parallel", 2)):
            outcome = run_trials(
                circuit, device, seeds=[0, 1, 2, 3], distance=distance,
                executor=executor, jobs=jobs,
            )
            assert outcome.executor == executor
            assert outcome.winner_index == oracle.best_trial_index
            assert outcome.trial_swaps == [
                t.best_swaps for t in oracle.trials
            ]
            assert (
                outcome.best_result.routing.circuit == oracle.routing.circuit
            )

    def test_replay_handles_directives(self):
        """Measure/reset/barrier directives ride through the no-emit
        search mode in process and in shard workers alike."""
        _assert_sweep_identity(
            _directive_circuit(), grid_device(3, 3), seeds=[1, 2, 3, 4]
        )

    @pytest.mark.slow
    @pytest.mark.parametrize("name", SWEEP_ROWS)
    def test_sweep_rows(self, tokyo, name):
        """The ``table2_sweep`` rows, best-of-16 at seed bases 0, 7 and
        31."""
        from repro.bench_circuits import get_benchmark

        circuit = get_benchmark(name).build()
        for base in (0, 7, 31):
            _assert_sweep_identity(circuit, tokyo, seed=base, num_trials=16)


class TestScorerSelection:
    """The router has one loop; the distance matrix alone picks how it
    scores (delta loop when symmetric, full sums otherwise).  The
    retired ``scorer`` knob is an unknown argument, so old callers fail
    loudly instead of silently getting the default."""

    def test_invalid_scorer_rejected(self):
        with pytest.raises(TypeError, match="scorer"):
            HeuristicConfig(scorer="vector")

    @pytest.mark.parametrize("name", ["auto", "fast"])
    def test_retired_scorer_names_rejected(self, name):
        with pytest.raises(TypeError, match="scorer"):
            HeuristicConfig(scorer=name)

    def test_asymmetric_matrix_exact(self, line5):
        """Asymmetric matrices route exactly as the oracle routes them,
        in every mode, with and without the SWAP-cost penalty: a line
        whose leftward hops cost more, and grids and rings with every
        entry scaled independently."""
        asym = [[0.0] * 5 for _ in range(5)]
        for i in range(5):
            for j in range(5):
                if i != j:
                    asym[i][j] = abs(i - j) + (0.25 if i > j else 0.0)
        assert not SabreRouter(line5, distance=asym).flat_dist.symmetric
        cases = [(line5, asym, 2)] + [
            (device, _asymmetric_distance(device, seed), seed)
            for device in (grid_device(3, 3), ring_device(6))
            for seed in range(4)
        ]
        for device, distance, seed in cases:
            circuit = random_circuit(
                device.num_qubits, 40, seed=seed, two_qubit_fraction=0.8
            )
            for mode in MODES:
                for penalty in (0.0, 1.0):
                    _assert_identical(
                        _run_all(
                            device, circuit, mode=mode, seed=seed,
                            layout_seed=seed, distance=distance,
                            swap_cost_penalty=penalty,
                        )
                    )


@pytest.fixture
def memo_audit(monkeypatch):
    """Check every memoised look-ahead set and narrow candidate list
    against a fresh computation at the moment it is served."""
    from repro.circuits.flatdag import FrontierState
    from repro.core.scoring import VectorDevice

    audit = {"refreshes": 0, "hits": 0, "memos": {}, "frontiers": {}}
    pairs_of = FrontierState.extended_pairs
    cands_of = VectorDevice.front_candidates

    def memo_entries(frontier):
        return sum(len(memo) for memo in frontier.ext_memo.values())

    def checked_pairs(self, size):
        audit["refreshes"] += 1
        audit["memos"].setdefault(id(self.dag), set()).add(id(self.ext_memo))
        audit["frontiers"].setdefault(id(self.dag), set()).add(id(self))
        entries = memo_entries(self)
        served = pairs_of(self, size)
        audit["hits"] += memo_entries(self) == entries
        fresh = tuple(self.dag.pairs[i] for i in self.extended_nodes(size))
        assert served == fresh
        return served

    def checked_cands(self, homes):
        served = cands_of(self, homes)
        fresh = sorted(
            {
                (p, nb) if p < nb else (nb, p)
                for p in homes
                for nb in self.neighbors[p]
            }
        )
        assert [(pa, pb) for pa, pb, _, _ in served] == fresh
        assert all(
            ra == pa * self.n and rb == pb * self.n
            for pa, pb, ra, rb in served
        )
        return served

    monkeypatch.setattr(FrontierState, "extended_pairs", checked_pairs)
    monkeypatch.setattr(VectorDevice, "front_candidates", checked_cands)
    return audit


class TestLookaheadMemo:
    """The router's front-keyed look-ahead memo (one per layout search
    and IR direction) must serve exactly the extended set a fresh walk
    finds at every refresh, and routing must stay byte-identical to the
    unmemoised legacy oracle."""

    @staticmethod
    def _search(device, circuit, label, stall_limit=None, **kwargs):
        searcher = LAYOUTS[label](
            device,
            num_traversals=3,
            num_trials=5,
            seed=0,
            **kwargs,
        )
        if stall_limit is not None:
            searcher.router.stall_limit = stall_limit
        return searcher.run(circuit)

    def _assert_search_identical(self, device, circuit, **kwargs):
        vector = self._search(device, circuit, "vector", **kwargs)
        reference = self._search(device, circuit, "reference", **kwargs)
        assert vector.routing.circuit == reference.routing.circuit
        assert (
            vector.routing.swap_positions == reference.routing.swap_positions
        )
        assert vector.trials == reference.trials
        return vector

    def test_directive_circuit(self, memo_audit):
        """Measures, barriers and resets are drained before every
        refresh, so the memo still keys on the front alone."""
        self._assert_search_identical(grid_device(3, 3), _directive_circuit())
        assert memo_audit["hits"] > 0
        assert memo_audit["refreshes"] > memo_audit["hits"]

    def test_escape_hatch(self, memo_audit):
        """Escape-hatch SWAPs re-request the same front's look-ahead."""
        result = self._assert_search_identical(
            ring_device(8),
            random_circuit(8, 80, seed=0, two_qubit_fraction=1.0),
            stall_limit=2,
        )
        assert result.routing.num_forced_escapes > 0
        assert memo_audit["hits"] > 0

    def test_route_reset_route_warm_memo(self, tokyo, memo_audit):
        """A reset frontier keeps its memo; the second traversal over
        it, served largely from the memo, matches a fresh frontier's."""
        from repro.circuits.flatdag import FlatDag, FrontierState

        circuit = random_circuit(16, 160, seed=4, two_qubit_fraction=0.8)
        ir = FlatDag.from_circuit(circuit)
        router = SabreRouter(tokyo)
        oracle = LegacyDagRouter(tokyo)
        frontier = FrontierState(ir)
        for layout_seed in (1, 1, 2):
            layout = Layout.random(tokyo.num_qubits, seed=layout_seed)
            hits = memo_audit["hits"]
            warm = router.run(
                ir, initial_layout=layout, seed=3, frontier=frontier
            )
            expected = oracle.run(circuit, initial_layout=layout, seed=3)
            assert warm.circuit == expected.circuit
            assert warm.swap_positions == expected.swap_positions
            assert warm.final_layout == expected.final_layout
        assert memo_audit["hits"] > hits
        assert len(frontier.ext_memo) > 0

    def test_sweep_shares_one_memo_per_direction(self, memo_audit):
        """A serial sweep is one layout search: every seed's traversals
        run on one frontier, and so one memo, per IR direction."""
        device = grid_device(4, 4)
        circuit = random_circuit(16, 150, seed=23, two_qubit_fraction=0.8)
        seeds = [5, 6, 7]
        vec = run_trials(circuit, device, seeds=seeds, num_traversals=3)
        ref = LegacySabreLayout(device, seeds=seeds).run(circuit)
        assert vec.trial_swaps == [t.best_swaps for t in ref.trials]
        assert vec.best_result.routing.circuit == ref.routing.circuit
        assert len(memo_audit["memos"]) == 2  # forward + reverse IR
        for dag_id, memos in memo_audit["memos"].items():
            assert len(memos) == 1
            assert len(memo_audit["frontiers"][dag_id]) == 1
        assert memo_audit["hits"] > 0

    def test_two_devices_in_one_process(self, tokyo, memo_audit):
        """Candidate memos are per device: routing on two 20-qubit
        devices, interleaved, matches each device's oracle."""
        grid = grid_device(4, 5)
        circuit = random_circuit(20, 150, seed=8, two_qubit_fraction=0.8)
        for device in (tokyo, grid, tokyo, grid):
            self._assert_search_identical(device, circuit)
        assert memo_audit["hits"] > 0


def _fold_circuits(n):
    """Circuits whose single-qubit structure the folded search frontier
    must reproduce: single-qubit chains at the start, middle and end of
    wires, mid-circuit measures and resets, 1-qubit, 2-qubit and
    full-width barriers, plus the empty and 1q-only circuits."""
    import random

    from repro.circuits import Gate, QuantumCircuit

    rng = random.Random(1414)
    circuits = [
        QuantumCircuit(n, "empty", n),
        random_circuit(n, 40, seed=7, two_qubit_fraction=0.0),
    ]
    for k in range(4):
        base = random_circuit(n, 70, seed=100 + k, two_qubit_fraction=0.35)
        circuit = QuantumCircuit(n, f"folded{k}", n)
        for gate in base.gates:
            circuit.append(gate)
            x = rng.random()
            if x < 0.05:
                circuit.barrier()
            elif x < 0.10:
                circuit.barrier(rng.randrange(n))
            elif x < 0.13:
                circuit.barrier(*rng.sample(range(n), 2))
            elif x < 0.21:
                q = rng.randrange(n)
                circuit.measure(q, q)
            elif x < 0.24:
                circuit.append(Gate("reset", (rng.randrange(n),)))
        circuits.append(circuit)
    return circuits


FOLD_DEVICES = {
    "tokyo": ibm_q20_tokyo,
    "grid": lambda: grid_device(3, 4),
    "line": lambda: line_device(8),
}


class TestFoldedSearch:
    """Search mode runs on a folded frontier (two-qubit gates and
    barriers only; single-qubit chains ride along as depth tails).  Its
    trace, replayed on an unfolded frontier, must equal the legacy
    oracle's emitting traversal byte for byte, and its depth must equal
    ``circuit_depth`` of that circuit."""

    @pytest.mark.parametrize("stall_limit", [None, 2])
    @pytest.mark.parametrize("device_name", sorted(FOLD_DEVICES))
    def test_search_replay_equals_run(self, device_name, stall_limit):
        from repro.circuits.depth import circuit_depth
        from repro.circuits.flatdag import FlatDag, FrontierState

        device = FOLD_DEVICES[device_name]()
        router = SabreRouter(device)
        oracle = LegacyDagRouter(device)
        if stall_limit is not None:
            router.stall_limit = stall_limit
            oracle.stall_limit = stall_limit
        escapes = 0
        for circuit in _fold_circuits(min(device.num_qubits, 8)):
            ir = FlatDag.from_circuit(circuit)
            folded = FrontierState(ir, folded=True)
            for layout_seed in (1, 2):
                layout = Layout.random(device.num_qubits, seed=layout_seed)
                trace = router.search(
                    ir, initial_layout=layout, seed=3, frontier=folded
                )
                replayed = router._replay(
                    ir, layout.copy(), FrontierState(ir), trace
                )
                emitted = oracle.run(circuit, initial_layout=layout, seed=3)
                assert replayed.circuit == emitted.circuit
                assert replayed.swap_positions == emitted.swap_positions
                assert replayed.final_layout == emitted.final_layout
                assert trace.final_layout == emitted.final_layout
                assert trace.num_swaps == emitted.num_swaps
                assert trace.depth == circuit_depth(emitted.circuit)
                escapes += trace.num_forced_escapes
        if stall_limit is not None:
            assert escapes > 0

    def test_frontier_mode_must_match_traversal_mode(self, line5):
        from repro.circuits.flatdag import FlatDag, FrontierState

        router = SabreRouter(line5)
        ir = FlatDag.from_circuit(_fold_circuits(5)[2])
        with pytest.raises(MappingError, match="folded"):
            router.search(ir, frontier=FrontierState(ir))
        with pytest.raises(MappingError, match="folded"):
            router.run(ir, frontier=FrontierState(ir, folded=True))

    @pytest.mark.parametrize("device_name", sorted(FOLD_DEVICES))
    def test_sweep_traces_replay_to_their_depth(
        self, device_name, monkeypatch
    ):
        """A K=3 sweep searches on folded frontiers: every forward trace
        it ranks replays to a circuit of the traced depth, and its
        per-seed counts equal the emitting legacy oracle's."""
        from repro.circuits.depth import circuit_depth
        from repro.circuits.flatdag import FrontierState
        from repro.core.bidirectional import BestForward
        from repro.core.router import SearchTrace
        from repro.engine.cache import get_flat_dag

        device = FOLD_DEVICES[device_name]()
        offered = []
        offer = BestForward.offer

        def recording(self, candidate, trial=0):
            offered.append(candidate)
            return offer(self, candidate, trial)

        monkeypatch.setattr(BestForward, "offer", recording)
        seeds = [4, 5, 6]
        router = SabreRouter(device)
        for circuit in _fold_circuits(min(device.num_qubits, 8)):
            offered.clear()
            vec = run_trials(circuit, device, seeds=seeds, num_traversals=3)
            traces = [c for c in offered if isinstance(c, SearchTrace)]
            ref = LegacySabreLayout(device, seeds=seeds).run(circuit)
            assert vec.trial_swaps == [t.best_swaps for t in ref.trials]
            assert vec.best_result.routing.circuit == ref.routing.circuit
            assert len(traces) == 2 * len(seeds)
            ir = get_flat_dag(circuit)
            for trace in traces:
                replayed = router._replay(
                    ir, trace.initial_layout.copy(), FrontierState(ir), trace
                )
                assert trace.depth == circuit_depth(replayed.circuit)
