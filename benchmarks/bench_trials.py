"""Trial-engine benchmarks: quality-vs-trials and wall-clock-vs-jobs.

Two ways to run it:

- pytest-benchmark harness (opt-in, like every ``bench_*.py`` here)::

      pytest benchmarks/bench_trials.py --benchmark-only

- standalone sweep, printing the quality-vs-trials curve and the
  process-pool speedup table (``--smoke`` shrinks it to a seconds-long
  CI check; ``--parallel-workers N`` adds an identity leg that shards
  a best-of-K sweep across N pool workers and asserts the winner
  matches the serial executor and the direct search byte-for-byte)::

      PYTHONPATH=src python benchmarks/bench_trials.py [--smoke] \
          [--parallel-workers 2]

The curve this prints is the measurement quoted in the README: best-of-K
``g_add`` is monotonically non-increasing in K (same seed pool), while
wall-clock scales down with ``--jobs``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Sequence

import pytest

from repro.bench_circuits import get_benchmark, qft, suite
from repro.core import compile_circuit
from repro.engine import cache_info, clear_cache, compile_many, run_trials
from repro.hardware import ibm_q20_tokyo

TRIAL_COUNTS = [1, 2, 4, 8]
JOB_COUNTS = [1, 2, 4]
#: Medium circuits where restarts actually move the needle.
QUALITY_CIRCUITS = ["rd84_142", "4gt13_92"]
#: Heavy enough that pool dispatch overhead is amortised (the small
#: suite compiles in microseconds and would only measure fork cost).
JOBS_SWEEP_CIRCUITS = ["rd84_142", "adr4_197", "z4_268", "sym6_145"]


@pytest.mark.parametrize("k", TRIAL_COUNTS)
def test_quality_vs_trials(benchmark, tokyo, tokyo_distance, k):
    """Best-of-K g_add on a routing-heavy circuit, serial engine."""
    circuit = get_benchmark("rd84_142").build()
    result = benchmark.pedantic(
        compile_circuit,
        args=(circuit, tokyo),
        kwargs={
            "seed": 0,
            "num_trials": k,
            "executor": "serial",
            "distance": tokyo_distance,
        },
        rounds=2,
        iterations=1,
    )
    benchmark.extra_info.update({"trials": k, "g_add": result.added_gates})


@pytest.mark.parametrize("jobs", JOB_COUNTS)
def test_wallclock_vs_jobs(benchmark, tokyo, jobs):
    """compile_many wall-clock on routing-heavy circuits, 8 trials each."""
    circuits = [get_benchmark(n).build() for n in JOBS_SWEEP_CIRCUITS]
    report = benchmark.pedantic(
        compile_many,
        args=(circuits, tokyo),
        kwargs={"num_trials": 8, "seed": 0, "jobs": jobs},
        rounds=2,
        iterations=1,
    )
    benchmark.extra_info.update(
        {
            "jobs": jobs,
            "total_g_add": report.total_added_gates,
            "wall_seconds": report.wall_seconds,
        }
    )


# ----------------------------------------------------------------------
# Standalone sweep (no pytest-benchmark needed)
# ----------------------------------------------------------------------


def _quality_sweep(names: Sequence[str], trial_counts: Sequence[int]) -> List[str]:
    device = ibm_q20_tokyo()
    lines = ["quality vs trials (g_add, seed pool 0..K-1):"]
    header = f"  {'circuit':14s}" + "".join(f"  K={k:<4d}" for k in trial_counts)
    lines.append(header)
    for name in names:
        circuit = get_benchmark(name).build()
        outcome = run_trials(
            circuit, device, seeds=list(range(max(trial_counts)))
        )
        values = [t.value for t in outcome.trials]
        cells = "".join(
            f"  {int(min(values[:k])):<6d}" for k in trial_counts
        )
        lines.append(f"  {name:14s}{cells}")
    return lines


def _jobs_sweep(
    trials: int, job_counts: Sequence[int], circuits
) -> List[str]:
    import os

    lines = [
        f"wall-clock vs jobs ({len(circuits)} circuits, {trials} trials "
        f"each; {os.cpu_count()} CPU core(s) visible — speedup needs >1):"
    ]
    baseline: Optional[float] = None
    for jobs in job_counts:
        start = time.perf_counter()
        report = compile_many(
            circuits, ibm_q20_tokyo(), num_trials=trials, seed=0, jobs=jobs
        )
        wall = time.perf_counter() - start
        if baseline is None:
            baseline = wall
        lines.append(
            f"  jobs={jobs}: {wall:6.2f}s  (speedup x{baseline / wall:4.2f})  "
            f"total g_add={report.total_added_gates}"
        )
    return lines


def _parallel_smoke(workers: int) -> None:
    """Parallel-executor identity + liveness check for CI.

    Shards a best-of-K sweep on a routing-heavy circuit across
    ``workers`` pool workers and asserts parallel == serial ==
    direct: the same winner, byte for byte, and the same per-seed SWAP
    counts — including on 1-core runners, where the pool is
    oversubscribed and the check proves the sharded path still
    terminates and merges correctly.
    """
    device = ibm_q20_tokyo()
    circuit = get_benchmark("rd84_142").build()
    seeds = list(range(8))
    direct = compile_circuit(circuit, device, seed=0, num_trials=len(seeds))
    search = direct.layout_search
    serial = run_trials(circuit, device, seeds=seeds, executor="serial")
    start = time.perf_counter()
    parallel = run_trials(
        circuit, device, seeds=seeds, executor="parallel", jobs=workers
    )
    wall = time.perf_counter() - start
    assert parallel.executor == "parallel", parallel.downgrade_reason
    assert parallel.shard_plan is not None and len(parallel.shard_plan) == min(
        workers, len(seeds)
    )
    for outcome in (parallel, serial):
        assert outcome.trial_swaps == [t.best_swaps for t in search.trials]
        assert outcome.winner_index == search.best_trial_index
        assert outcome.best_result.routing.circuit == direct.routing.circuit
    print(
        f"parallel smoke: {len(seeds)} trials across {workers} workers in "
        f"{wall:5.2f}s, shards "
        f"{'+'.join(str(len(s)) for s in parallel.shard_plan)}, "
        "parallel == serial == direct"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="seconds-long CI check: tiny sweep + engine sanity asserts",
    )
    parser.add_argument(
        "--parallel-workers",
        type=int,
        default=0,
        metavar="N",
        help="also run a parallel-executor identity leg sharded across N "
        "pool workers (0 = skip)",
    )
    args = parser.parse_args(argv)

    clear_cache()
    if args.smoke:
        device = ibm_q20_tokyo()
        circuits = [spec.build() for spec in suite("small")[:3]] + [qft(6)]
        report = compile_many(circuits, device, num_trials=2, seed=0, jobs=2)
        print("\n".join(report.summary_lines()))
        info = cache_info()
        # One distance computation, plus the parent's one lowering per
        # circuit and direction (it replays every winner).
        assert info.misses == 1 + 2 * len(circuits), (
            f"expected one distance computation, got {info}"
        )
        for row in report.reports:
            baseline = compile_circuit(
                row.result.original_circuit, device, seed=0, num_trials=1
            )
            assert row.added_gates <= baseline.added_gates, row.name
        print(f"cache: {info}")
        if args.parallel_workers:
            _parallel_smoke(args.parallel_workers)
        print("smoke ok")
        return 0

    if args.parallel_workers:
        _parallel_smoke(args.parallel_workers)

    print("\n".join(_quality_sweep(QUALITY_CIRCUITS, TRIAL_COUNTS)))
    circuits = [get_benchmark(n).build() for n in JOBS_SWEEP_CIRCUITS]
    print("\n".join(_jobs_sweep(8, JOB_COUNTS, circuits)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
