"""§V-B2 scalability benchmarks: SABRE stays flat, BKA explodes.

Times both mappers across the qft size sweep and records the BKA's
search-node growth.  The paper's claim — exponential speedup of the
SWAP-based search over mapping-based exhaustive search — shows up here
as orders-of-magnitude node-count growth vs SABRE's linear-ish runtime.
Run::

    pytest benchmarks/bench_scaling.py --benchmark-only
"""

from __future__ import annotations

import os

import pytest

from repro.baselines import AStarMapper
from repro.bench_circuits import ising_model, qft
from repro.core import compile_circuit
from repro.exceptions import SearchExhausted

QFT_SIZES = [4, 8, 12, 16, 20]
BKA_SIZES = [4, 6, 8, 10]  # beyond this the budget wall dominates

#: Trial-engine knobs, same contract as bench_table2: unset keeps the
#: paper's single-trial scaling configuration.
BENCH_TRIALS = int(os.environ.get("REPRO_BENCH_TRIALS", "0")) or None
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))


def _sabre_kwargs(num_trials):
    kwargs = {"seed": 0, "num_trials": BENCH_TRIALS or num_trials}
    if BENCH_JOBS > 1:
        kwargs["executor"] = "parallel"
        kwargs["jobs"] = BENCH_JOBS
    return kwargs


@pytest.mark.parametrize("n", QFT_SIZES)
def test_sabre_scaling_qft(benchmark, tokyo, tokyo_distance, n):
    circuit = qft(n)
    result = benchmark.pedantic(
        compile_circuit,
        args=(circuit, tokyo),
        kwargs={**_sabre_kwargs(1), "distance": tokyo_distance},
        rounds=2,
        iterations=1,
    )
    benchmark.extra_info.update(
        {"n": n, "g": circuit.num_gates, "g_add": result.added_gates}
    )


@pytest.mark.parametrize("n", BKA_SIZES)
def test_bka_scaling_qft(benchmark, tokyo, tokyo_distance, n):
    circuit = qft(n)
    mapper = AStarMapper(
        tokyo, max_nodes=800_000, max_seconds=90.0, distance=tokyo_distance
    )
    result = benchmark.pedantic(mapper.run, args=(circuit,), rounds=1, iterations=1)
    benchmark.extra_info.update(
        {"n": n, "nodes": mapper.last_run_nodes, "g_add": result.added_gates}
    )


def test_bka_exhausts_qft20(benchmark, tokyo, tokyo_distance):
    """Table II: qft_20 is an 'Out of Memory' row for the BKA."""
    circuit = qft(20)

    def run():
        mapper = AStarMapper(
            tokyo, max_nodes=400_000, max_seconds=60.0, distance=tokyo_distance
        )
        with pytest.raises(SearchExhausted):
            mapper.run(circuit)
        return mapper.last_run_nodes

    nodes = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["nodes_at_exhaustion"] = nodes


def test_bka_exhausts_ising16(benchmark, tokyo, tokyo_distance):
    """Table II: ising_model_16 is the other 'Out of Memory' row."""
    circuit = ising_model(16)

    def run():
        mapper = AStarMapper(
            tokyo, max_nodes=400_000, max_seconds=60.0, distance=tokyo_distance
        )
        with pytest.raises(SearchExhausted):
            mapper.run(circuit)
        return mapper.last_run_nodes

    nodes = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["nodes_at_exhaustion"] = nodes


def test_sabre_handles_bka_oom_rows_fast(benchmark, tokyo, tokyo_distance):
    """The paper's punchline: where BKA dies, SABRE takes a fraction of
    a second per traversal."""

    def run_both():
        a = compile_circuit(
            ising_model(16), tokyo, distance=tokyo_distance, **_sabre_kwargs(1)
        )
        b = compile_circuit(
            qft(20), tokyo, distance=tokyo_distance, **_sabre_kwargs(1)
        )
        return a, b

    ising_result, qft_result = benchmark.pedantic(run_both, rounds=2, iterations=1)
    benchmark.extra_info.update(
        {
            "ising16_g_add": ising_result.added_gates,
            "qft20_g_add": qft_result.added_gates,
        }
    )
