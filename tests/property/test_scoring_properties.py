"""Property tests: vector scorer == reference scorer, step by step —
plus one best-of-K sweep == the same sweep on every executor, and ==
the reference scorer's per-seed trials, seed by seed."""

from hypothesis import given, settings, strategies as st

from repro.circuits import random_circuit
from repro.core import HeuristicConfig, Layout, SabreRouter
from repro.core.heuristic import SCORERS
from repro.engine import run_trials
from repro.extensions.noise_aware import noise_weighted_distance
from repro.hardware import NoiseModel, grid_device, ring_device


def _winner_trace(device, circuit, layout, mode, scorer, seed, distance=None):
    router = SabreRouter(
        device,
        config=HeuristicConfig(mode=mode, scorer=scorer),
        seed=seed,
        distance=distance,
    )
    steps = []
    router.on_winner_set = lambda best: steps.append(list(best))
    result = router.run(circuit, initial_layout=layout)
    return steps, result


@settings(max_examples=25, deadline=None)
@given(
    circuit_seed=st.integers(min_value=0, max_value=10_000),
    layout_seed=st.integers(min_value=0, max_value=10_000),
    tie_seed=st.integers(min_value=0, max_value=10_000),
    mode=st.sampled_from(["basic", "lookahead", "decay"]),
)
def test_winner_sets_and_circuits_identical(
    circuit_seed, layout_seed, tie_seed, mode
):
    """For any circuit/layout/tie-break seed and any heuristic mode,
    the vector scorer's per-step winner sets — the complete
    set of best-scoring SWAPs *before* the random tie-break — equal the
    reference scorer's, and the routed circuits are bit-for-bit
    identical."""
    device = grid_device(3, 3)
    circuit = random_circuit(9, 40, seed=circuit_seed, two_qubit_fraction=0.8)
    layout = Layout.random(9, seed=layout_seed)
    traces = {
        scorer: _winner_trace(device, circuit, layout, mode, scorer, tie_seed)
        for scorer in SCORERS
    }
    ref_steps, ref = traces["reference"]
    steps, result = traces["vector"]
    assert steps == ref_steps
    assert result.circuit == ref.circuit
    assert result.final_layout == ref.final_layout


@settings(max_examples=15, deadline=None)
@given(
    circuit_seed=st.integers(min_value=0, max_value=10_000),
    layout_seed=st.integers(min_value=0, max_value=10_000),
    asymmetric=st.booleans(),
    weighted=st.booleans(),
)
def test_winner_sets_identical_under_distance_matrices(
    circuit_seed, layout_seed, asymmetric, weighted
):
    """Scorer equivalence holds under noise-weighted (non-integer)
    symmetric matrices; asymmetric matrices make the vector scorer
    fall back to the reference scorer (the escape hatch), so
    equality is preserved trivially — either way the routed circuits
    match."""
    device = grid_device(3, 3)
    distance = None
    if weighted:
        noise = NoiseModel(edge_errors={(0, 1): 0.2, (4, 5): 0.1})
        distance = [
            list(row) for row in noise_weighted_distance(device, noise)
        ]
    if asymmetric:
        if distance is None:
            distance = [
                list(row)
                for row in noise_weighted_distance(device, NoiseModel())
            ]
        distance[0][3] += 0.25  # break symmetry => reference fallback
    circuit = random_circuit(9, 30, seed=circuit_seed, two_qubit_fraction=0.8)
    layout = Layout.random(9, seed=layout_seed)
    traces = {
        scorer: _winner_trace(
            device, circuit, layout, "decay", scorer, 0, distance=distance
        )
        for scorer in SCORERS
    }
    ref_steps, ref = traces["reference"]
    steps, result = traces["vector"]
    assert steps == ref_steps
    assert result.circuit == ref.circuit


@settings(max_examples=10, deadline=None)
@given(
    circuit_seed=st.integers(min_value=0, max_value=10_000),
    stall_limit=st.integers(min_value=1, max_value=4),
)
def test_escape_hatch_identical(circuit_seed, stall_limit):
    """The forced-escape path must also be scorer-independent."""
    device = ring_device(6)
    circuit = random_circuit(6, 30, seed=circuit_seed, two_qubit_fraction=1.0)
    layout = Layout.trivial(6)
    results = {}
    for scorer in SCORERS:
        router = SabreRouter(
            device,
            config=HeuristicConfig(mode="basic", scorer=scorer),
            seed=0,
            stall_limit=stall_limit,
        )
        results[scorer] = router.run(circuit, initial_layout=layout)
    assert results["vector"].circuit == results["reference"].circuit
    assert (
        results["vector"].num_forced_escapes
        == results["reference"].num_forced_escapes
    )


@settings(max_examples=8, deadline=None)
@given(
    circuit_seed=st.integers(min_value=0, max_value=10_000),
    seeds=st.lists(
        st.integers(min_value=0, max_value=1_000),
        min_size=2,
        max_size=4,
        unique=True,
    ),
    num_traversals=st.sampled_from([1, 3]),
    mode=st.sampled_from(["basic", "lookahead", "decay"]),
)
def test_sweep_identical_across_executors(
    circuit_seed, seeds, num_traversals, mode
):
    """For any seed list, the direct layout search, the serial executor
    and the parallel executor keep the same winner, byte for byte, and
    the same per-seed SWAP counts — which equal the reference scorer's
    one-pipeline-per-seed trials."""
    from repro.pipeline import Pipeline

    device = grid_device(3, 3)
    circuit = random_circuit(9, 40, seed=circuit_seed, two_qubit_fraction=0.8)
    vector = HeuristicConfig(mode=mode, scorer="vector")
    direct = Pipeline("paper_default").run(
        circuit, device, config=vector, seeds=seeds,
        num_traversals=num_traversals,
    )
    search = direct.layout_search
    winning_seed = search.trials[search.best_trial_index].seed
    outcomes = [
        run_trials(
            circuit, device, seeds=seeds, config=vector,
            num_traversals=num_traversals, executor=executor, jobs=jobs,
        )
        for executor, jobs in (("serial", None), ("parallel", 2))
    ]
    reference = run_trials(
        circuit,
        device,
        seeds=seeds,
        config=HeuristicConfig(mode=mode, scorer="reference"),
        num_traversals=num_traversals,
    )
    for outcome in outcomes:
        assert outcome.best_result.routing.circuit == direct.routing.circuit
        assert outcome.winner.seed == winning_seed
        assert outcome.trial_swaps == [t.best_swaps for t in search.trials]
        assert outcome.trial_swaps == reference.trial_swaps
        assert outcome.first_pass_swaps == reference.first_pass_swaps
    winner = reference.trials[outcomes[0].winner_index].result
    assert winner.routing.circuit == direct.routing.circuit
