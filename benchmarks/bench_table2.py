"""Table II benchmarks: SABRE and the BKA on the paper's suite.

Each bench compiles one Table II row with the paper's configuration and
records the quality metrics (added gates, depth) in
``benchmark.extra_info`` next to the paper's published numbers, so the
pytest-benchmark report doubles as the reproduction table.  Run::

    pytest benchmarks/bench_table2.py --benchmark-only

The full 26-row table (including multi-minute BKA runs) is regenerated
by ``python -m repro.analysis.table2 --full``.

The SABRE rows honour the trial engine's environment knobs so the same
harness measures other configurations without edits::

    REPRO_BENCH_TRIALS=8 REPRO_BENCH_JOBS=4 \
        pytest benchmarks/bench_table2.py --benchmark-only
"""

from __future__ import annotations

import os

import pytest

from repro.baselines import AStarMapper
from repro.bench_circuits import get_benchmark, suite
from repro.core import compile_circuit
from repro.exceptions import SearchExhausted
from repro.verify import assert_compliant

SMALL = [s.name for s in suite("small")]
SIM = [s.name for s in suite("sim")]
QFT = [s.name for s in suite("qft")]
# Large rows that keep bench wall-time reasonable; the biggest rows are
# exercised by the analysis harness instead.
LARGE_SUBSET = ["rd84_142", "adr4_197", "z4_268", "sym6_145"]

#: Engine knobs (paper defaults when unset): trial count, process-pool
#: width (>1 switches to the engine's parallel executor), and objective.
BENCH_TRIALS = int(os.environ.get("REPRO_BENCH_TRIALS", "0")) or None
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
BENCH_OBJECTIVE = os.environ.get("REPRO_BENCH_OBJECTIVE", "g_add")


#: Quality assertions below are calibrated for the paper's trial
#: counts; an env override measures a different configuration, so only
#: the configuration-independent invariants are asserted then.
CALIBRATED = BENCH_TRIALS is None and BENCH_OBJECTIVE == "g_add"


def _sabre_kwargs(num_trials):
    """compile_circuit kwargs for one SABRE bench row, env overrides in."""
    kwargs = {
        "seed": 0,
        "num_trials": BENCH_TRIALS or num_trials,
        "objective": BENCH_OBJECTIVE,
    }
    if BENCH_JOBS > 1:
        kwargs["executor"] = "parallel"
        kwargs["jobs"] = BENCH_JOBS
    return kwargs


def _record(benchmark, spec, result):
    benchmark.extra_info.update(
        {
            "benchmark": spec.name,
            "g_ori": result.original_gates,
            "g_add": result.added_gates,
            "g_la": 3 * (result.first_pass_swaps or 0),
            "d_out": result.routed_depth,
            "paper_g_add_sabre": spec.paper_sabre_added,
            "paper_g_la": spec.paper_sabre_lookahead,
            "paper_g_add_bka": spec.paper_bka_added,
        }
    )


@pytest.mark.parametrize("name", SMALL)
def test_sabre_small(benchmark, tokyo, tokyo_distance, name):
    """Small arithmetic: SABRE finds (near-)perfect initial mappings."""
    spec = get_benchmark(name)
    circuit = spec.build()
    result = benchmark.pedantic(
        compile_circuit,
        args=(circuit, tokyo),
        kwargs={**_sabre_kwargs(5), "distance": tokyo_distance},
        rounds=3,
        iterations=1,
    )
    _record(benchmark, spec, result)
    assert_compliant(result.physical_circuit(), tokyo)
    # Paper §V-A1: no or very few additional gates on the small suite.
    if CALIBRATED:
        assert result.added_gates <= max(spec.paper_sabre_added, 3)


@pytest.mark.parametrize("name", SIM)
def test_sabre_ising(benchmark, tokyo, tokyo_distance, name):
    """Ising chains: the optimal (0-SWAP) mapping exists; SABRE should
    find it or come very close (paper finds 0 for all three)."""
    spec = get_benchmark(name)
    circuit = spec.build()
    result = benchmark.pedantic(
        compile_circuit,
        args=(circuit, tokyo),
        kwargs={**_sabre_kwargs(5), "distance": tokyo_distance},
        rounds=2,
        iterations=1,
    )
    _record(benchmark, spec, result)
    if CALIBRATED:
        assert result.added_gates <= 9


@pytest.mark.parametrize("name", QFT)
def test_sabre_qft(benchmark, tokyo, tokyo_distance, name):
    """QFT: the dense-interaction stress case."""
    spec = get_benchmark(name)
    circuit = spec.build()
    result = benchmark.pedantic(
        compile_circuit,
        args=(circuit, tokyo),
        kwargs={**_sabre_kwargs(5), "distance": tokyo_distance},
        rounds=2,
        iterations=1,
    )
    _record(benchmark, spec, result)
    assert_compliant(result.physical_circuit(), tokyo)
    # Reverse traversal must not lose to the first pass (Table II shape).
    assert result.num_swaps <= result.first_pass_swaps


@pytest.mark.parametrize("name", LARGE_SUBSET)
def test_sabre_large(benchmark, tokyo, tokyo_distance, name):
    """Large arithmetic subset (full set: analysis harness)."""
    spec = get_benchmark(name)
    circuit = spec.build()
    result = benchmark.pedantic(
        compile_circuit,
        args=(circuit, tokyo),
        kwargs={**_sabre_kwargs(3), "distance": tokyo_distance},
        rounds=1,
        iterations=1,
    )
    _record(benchmark, spec, result)
    assert result.num_swaps <= result.first_pass_swaps


@pytest.mark.parametrize("name", ["4mod5-v1_22", "qft_10", "rd84_142"])
def test_bka_comparable_rows(benchmark, tokyo, tokyo_distance, name):
    """BKA runtime on rows it can finish; extra_info carries the
    SABRE-vs-BKA gate comparison for the report."""
    spec = get_benchmark(name)
    circuit = spec.build()
    mapper = AStarMapper(
        tokyo, max_nodes=600_000, max_seconds=90.0, distance=tokyo_distance
    )
    result = benchmark.pedantic(mapper.run, args=(circuit,), rounds=1, iterations=1)
    sabre = compile_circuit(
        circuit, tokyo, seed=0, num_trials=5, distance=tokyo_distance
    )
    benchmark.extra_info.update(
        {
            "benchmark": spec.name,
            "bka_g_add": result.added_gates,
            "sabre_g_add": sabre.added_gates,
            "paper_bka_g_add": spec.paper_bka_added,
            "bka_nodes": mapper.last_run_nodes,
        }
    )
    # Table II shape: SABRE <= BKA on additional gates.
    assert sabre.added_gates <= result.added_gates


def test_bka_oom_row(benchmark, tokyo, tokyo_distance):
    """Table II 'Out of Memory' row: ising_model_16 exhausts the BKA
    budget; the bench times how fast the wall is hit."""
    circuit = get_benchmark("ising_model_16").build()

    def run_until_exhausted():
        mapper = AStarMapper(
            tokyo, max_nodes=300_000, max_seconds=60.0, distance=tokyo_distance
        )
        with pytest.raises(SearchExhausted):
            mapper.run(circuit)
        return mapper.last_run_nodes

    nodes = benchmark.pedantic(run_until_exhausted, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {"benchmark": "ising_model_16", "nodes_at_exhaustion": nodes}
    )
    assert nodes >= 300_000
