"""Suite-level fan-out: compile many circuits, best-of-K each.

``compile_many`` is the heavy-traffic entry point: it flattens a whole
benchmark suite into (circuit, seed) trial jobs, fans them across a
process pool, and reduces each circuit's trials to a winner with the
per-seed selection rule of :func:`repro.engine.trials.select_winner`.
Flattening at the *trial* level (rather than one worker per circuit)
keeps all workers busy even when the suite mixes second-long and
millisecond-long circuits.

The device's distance matrix is resolved once in the parent through the
engine cache and shipped to every job, so a batch run pays the
O(N^3) Floyd-Warshall preprocessing exactly once per device.  Each
circuit's compile-once flat IR is likewise resolved through the
per-process engine cache inside the trial (see
:func:`repro.engine.cache.get_flat_dag`), so no worker lowers the same
circuit twice regardless of how many of its trials it picks up.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.circuits.circuit import QuantumCircuit
from repro.core.heuristic import HeuristicConfig
from repro.core.result import MappingResult
from repro.engine.cache import get_flat_distance_matrix
from repro.engine.trials import (
    EXECUTORS,
    OBJECTIVES,
    TrialResult,
    _run_one_trial,
    select_winner,
)
from repro.exceptions import ReproError
from repro.hardware.coupling import CouplingGraph


@dataclass
class TrialMetrics:
    """Slim per-trial summary shipped back from pool workers.

    A full :class:`~repro.core.result.MappingResult` drags its routed
    circuits through pickle (hundreds of KB per trial on Table II
    circuits); the winner-selection objectives only need these scalars.
    Field names mirror the ``MappingResult`` properties so the
    :data:`~repro.engine.trials.OBJECTIVES` functions score either.
    """

    num_swaps: int
    added_gates: int
    routed_depth: int
    original_gates: int
    runtime_seconds: float


def _to_metrics(result: MappingResult) -> TrialMetrics:
    """The one MappingResult -> TrialMetrics projection; serial and
    pooled paths must score trials from identical data."""
    return TrialMetrics(
        num_swaps=result.num_swaps,
        added_gates=result.added_gates,
        routed_depth=result.routed_depth,
        original_gates=result.original_gates,
        runtime_seconds=result.runtime_seconds,
    )


def _metrics_worker(payload) -> TrialMetrics:
    """Pool entry point: run one trial, return scalars only."""
    return _to_metrics(_run_one_trial(*payload))


def _result_worker(payload) -> MappingResult:
    """Pool entry point for winner rebuilds: full result shipped back."""
    return _run_one_trial(*payload)


@dataclass
class CircuitReport:
    """Structured per-circuit outcome of a batch compilation.

    ``trial_seconds`` sums the workers' compile times (CPU cost);
    the batch-level ``wall_seconds`` reflects actual elapsed time.
    """

    name: str
    num_qubits: int
    original_gates: int
    added_gates: int
    num_swaps: int
    routed_depth: int
    winning_seed: int
    objective_value: float
    trial_seconds: float
    trial_swaps: List[int] = field(default_factory=list)
    result: Optional[MappingResult] = None

    def as_row(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "n": self.num_qubits,
            "g_ori": self.original_gates,
            "g_add": self.added_gates,
            "swaps": self.num_swaps,
            "d_out": self.routed_depth,
            "seed*": self.winning_seed,
            "t_sec": round(self.trial_seconds, 4),
        }


@dataclass
class BatchReport:
    """Everything :func:`compile_many` produces."""

    device_name: str
    objective: str
    num_trials: int
    jobs: int
    reports: List[CircuitReport]
    wall_seconds: float
    executor: str = "auto"

    @property
    def total_added_gates(self) -> int:
        return sum(r.added_gates for r in self.reports)

    def summary_lines(self) -> List[str]:
        lines = [
            f"device={self.device_name} circuits={len(self.reports)} "
            f"trials={self.num_trials} jobs={self.jobs} "
            f"executor={self.executor} "
            f"objective={self.objective} wall={self.wall_seconds:.2f}s",
        ]
        for report in self.reports:
            lines.append(
                f"  {report.name:20s} g_add={report.added_gates:5d} "
                f"d_out={report.routed_depth:5d} seed*={report.winning_seed}"
            )
        return lines


def compile_many(
    circuits: Sequence[QuantumCircuit],
    coupling: CouplingGraph,
    num_trials: int = 8,
    seed: int = 0,
    jobs: int = 1,
    objective: str = "g_add",
    config: Optional[HeuristicConfig] = None,
    num_traversals: int = 3,
    keep_results: bool = True,
    pipeline: str = "paper_default",
    executor: str = "auto",
) -> BatchReport:
    """Compile every circuit best-of-``num_trials`` across ``jobs`` workers.

    Args:
        circuits: the suite; names are taken from each circuit.
        coupling: shared target device.
        num_trials: seeded trials per circuit (seeds ``seed..seed+K-1``).
        seed: base seed; all circuits share the same seed pool so runs
            are reproducible and circuits are comparable across runs.
        jobs: ``1`` compiles in-process; ``>1`` fans trial jobs across a
            :class:`~concurrent.futures.ProcessPoolExecutor`.
        objective: winner-selection metric (see
            :data:`repro.engine.trials.OBJECTIVES`).  Only the metric
            objectives are supported here: pooled batch workers ship
            slim :class:`TrialMetrics` back, not full results with
            property sets, so ``property:`` objectives are rejected.
        config: heuristic knobs shared by every trial.
        num_traversals: traversals per trial (odd).
        keep_results: attach each winner's full
            :class:`~repro.core.result.MappingResult` to its report
            (disable to shed memory on very large suites).
        pipeline: pass-pipeline preset each trial executes (shipped to
            workers by name, like every other payload field).
        executor: one of :data:`~repro.engine.trials.EXECUTORS`.
            ``"auto"`` and ``"parallel"`` use the trial-flattened
            metrics pool when ``jobs > 1``, else the in-process loop;
            ``"serial"`` always compiles in process.  Every trial is a
            single-trial pipeline, ranked by
            :func:`~repro.engine.trials.select_winner`.

    Returns:
        :class:`BatchReport` with one :class:`CircuitReport` per input
        circuit, in input order.
    """
    if num_trials < 1:
        raise ReproError("compile_many needs num_trials >= 1")
    if jobs < 1:
        raise ValueError(
            f"compile_many needs jobs >= 1, got {jobs!r}"
        )
    if executor not in EXECUTORS:
        raise ReproError(
            f"unknown executor {executor!r}; available: {list(EXECUTORS)}"
        )
    objective_fn = OBJECTIVES.get(objective)
    if objective_fn is None:
        raise ReproError(
            f"unknown objective {objective!r}; available: {sorted(OBJECTIVES)}"
        )
    start = time.perf_counter()
    distance = get_flat_distance_matrix(coupling)
    seeds = [seed + t for t in range(num_trials)]
    payloads = [
        (circuit, coupling, config, s, num_traversals, distance, pipeline)
        for circuit in circuits
        for s in seeds
    ]
    def pick_winners(flat_metrics: List[TrialMetrics]):
        """Group flat metrics per circuit and select each winner."""
        per_circuit: List[List[TrialResult]] = []
        winner_indices: List[int] = []
        for index in range(len(circuits)):
            metrics = flat_metrics[index * num_trials : (index + 1) * num_trials]
            trials = [
                TrialResult(
                    seed=s, result=m, value=objective_fn(m),
                    num_swaps=m.num_swaps,
                )
                for s, m in zip(seeds, metrics)
            ]
            per_circuit.append(trials)
            winner_indices.append(select_winner(trials))
        return per_circuit, winner_indices

    winner_results: List[Optional[MappingResult]] = [None] * len(circuits)
    if executor != "serial" and jobs > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            flat = list(pool.map(_metrics_worker, payloads))
            per_circuit, winner_indices = pick_winners(flat)
            if keep_results:
                # Workers shipped scalars only; rebuild each winner's
                # full result on the still-open pool.  Trials are
                # deterministic in their seed, so this replays the exact
                # winning compilations at 1/num_trials of the batch cost
                # while keeping the heavy pickle traffic to one result
                # per circuit.
                winner_payloads = [
                    payloads[index * num_trials + wi]
                    for index, wi in enumerate(winner_indices)
                ]
                winner_results = list(pool.map(_result_worker, winner_payloads))
    else:
        full = [_run_one_trial(*p) for p in payloads]
        per_circuit, winner_indices = pick_winners([_to_metrics(r) for r in full])
        if keep_results:
            winner_results = [
                full[index * num_trials + wi]
                for index, wi in enumerate(winner_indices)
            ]

    reports: List[CircuitReport] = []
    for index, circuit in enumerate(circuits):
        trials = per_circuit[index]
        winner = trials[winner_indices[index]]
        reports.append(
            CircuitReport(
                name=circuit.name,
                num_qubits=circuit.num_qubits,
                original_gates=winner.result.original_gates,
                added_gates=winner.result.added_gates,
                num_swaps=winner.result.num_swaps,
                routed_depth=winner.result.routed_depth,
                winning_seed=winner.seed,
                objective_value=winner.value,
                trial_seconds=sum(t.result.runtime_seconds for t in trials),
                trial_swaps=[t.result.num_swaps for t in trials],
                result=winner_results[index],
            )
        )
    return BatchReport(
        device_name=coupling.name,
        objective=objective,
        num_trials=num_trials,
        jobs=jobs,
        reports=reports,
        wall_seconds=time.perf_counter() - start,
        executor=executor,
    )

