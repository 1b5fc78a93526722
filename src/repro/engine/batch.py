"""Suite-level fan-out: compile many circuits, best-of-K each.

``compile_many`` is the heavy-traffic entry point.  It ranks each
circuit's seeds with the rule :func:`repro.engine.trials.run_trials`
uses for the same sweep, so a circuit's winner does not depend on
whether it was compiled alone or in a batch:

- **search path** (the ``g_add`` objective on a search-eligible
  pipeline, see :func:`repro.engine.ensemble.ensemble_eligible`): the
  suite is flattened into (circuit, seed-shard) jobs.  Each job runs
  the layout search's restart loop over its shard and returns a small
  :class:`~repro.core.bidirectional.ShardSearch` record; the parent
  merges each circuit's records (fewest SWAPs, then lowest depth,
  earliest seed on ties) and replays only the winners.
- **per-seed path** (every other objective or pipeline): the suite is
  flattened into (circuit, seed) trial jobs, one single-trial pipeline
  each, ranked by :func:`repro.engine.trials.select_winner`.

Flattening below the circuit level keeps all workers busy even when
the suite mixes second-long and millisecond-long circuits.

The device's distance matrix is resolved once in the parent through the
engine cache and shipped to every job, so a batch run pays the
O(N^3) Floyd-Warshall preprocessing exactly once per device.  On the
search path the parent also lowers every circuit's IRs before the pool
starts (its replays need them), so forked workers inherit them; on the
per-seed path each circuit's IR is resolved through the per-process
engine cache inside the trial (see
:func:`repro.engine.cache.get_flat_dag`), so no worker lowers the same
circuit twice regardless of how many of its trials it picks up.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.core.bidirectional import ShardSearch
from repro.core.heuristic import HeuristicConfig
from repro.core.result import MappingResult
from repro.engine.cache import get_flat_distance_matrix
from repro.engine.trials import (
    EXECUTORS,
    OBJECTIVES,
    TrialResult,
    _finish_search,
    _run_one_trial,
    _search_layout,
    search_shard,
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


def _search_worker(payload) -> Tuple[ShardSearch, float]:
    """Pool entry point of the search path: one circuit's seed shard.

    ``payload`` holds :func:`~repro.engine.trials.search_shard`'s
    arguments; returns the shard's record and the seconds its search
    took.
    """
    started = time.perf_counter()
    record = search_shard(*payload)
    return record, time.perf_counter() - started


#: One circuit's batch outcome: its trials (the winner's ``result`` is
#: a full result or slim :class:`TrialMetrics`), the winner's index, the
#: circuit's summed compile seconds, and the winner's full result when
#: one was built.
_CircuitOutcome = Tuple[List[TrialResult], int, float, Optional[MappingResult]]


@dataclass
class CircuitReport:
    """Structured per-circuit outcome of a batch compilation.

    ``trial_seconds`` sums the workers' compile times (CPU cost): the
    per-seed pipelines', or on the search path the circuit's shard
    searches' plus its winner's replay and passes.  The batch-level
    ``wall_seconds`` reflects actual elapsed time.  ``trial_swaps``
    holds each seed's best forward-traversal SWAP count.
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
        jobs: ``1`` compiles in-process; ``>1`` fans shard or trial
            jobs across a :class:`~concurrent.futures.ProcessPoolExecutor`.
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
        pipeline: pass-pipeline preset (shipped to per-seed workers by
            name, like every other payload field; on the search path it
            runs once per circuit, in the parent, on the winner).
        executor: one of :data:`~repro.engine.trials.EXECUTORS`.
            ``"auto"`` and ``"parallel"`` use the flattened job pool
            when ``jobs > 1``, else the in-process loop; ``"serial"``
            always compiles in process.

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
    if objective not in OBJECTIVES:
        raise ReproError(
            f"unknown objective {objective!r}; available: {sorted(OBJECTIVES)}"
        )
    from repro.engine.ensemble import ensemble_eligible

    start = time.perf_counter()
    distance = get_flat_distance_matrix(coupling)
    seeds = [seed + t for t in range(num_trials)]
    width = jobs if executor != "serial" else 1
    if objective == "g_add" and ensemble_eligible(pipeline, config, distance):
        outcomes = _search_batch(
            circuits, coupling, config, seeds, num_traversals, distance,
            pipeline, width,
        )
    else:
        outcomes = _per_seed_batch(
            circuits, coupling, config, seeds, num_traversals, distance,
            pipeline, width, objective, keep_results,
        )

    reports: List[CircuitReport] = []
    for circuit, outcome in zip(circuits, outcomes):
        trials, winner_index, trial_seconds, result = outcome
        winner = trials[winner_index]
        metrics = winner.result
        reports.append(
            CircuitReport(
                name=circuit.name,
                num_qubits=circuit.num_qubits,
                original_gates=metrics.original_gates,
                added_gates=metrics.added_gates,
                num_swaps=metrics.num_swaps,
                routed_depth=metrics.routed_depth,
                winning_seed=winner.seed,
                objective_value=winner.value,
                trial_seconds=trial_seconds,
                trial_swaps=[t.num_swaps for t in trials],
                result=result if keep_results else None,
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


def _search_batch(
    circuits: Sequence[QuantumCircuit],
    coupling: CouplingGraph,
    config: Optional[HeuristicConfig],
    seeds: List[int],
    num_traversals: int,
    distance,
    pipeline: str,
    jobs: int,
) -> List[_CircuitOutcome]:
    """Search-path batch: (circuit, seed-shard) jobs, merged per circuit
    in the parent with the winners replayed there."""
    from repro.engine.shared import _mp_context, plan_shards

    sweeps = []
    for circuit in circuits:
        working, layout = _search_layout(
            circuit, coupling, config, seeds, num_traversals, distance
        )
        # Lowered before the pool starts: forked workers inherit the
        # IRs, and the replays below need the forward ones.
        sweeps.append((working, layout, layout.lower(working)))
    shard_plan = plan_shards(seeds, jobs)
    if jobs > 1 and len(circuits) * len(shard_plan) > 1:
        payloads = [
            (working, coupling, config, shard, num_traversals, distance)
            for working, _, _ in sweeps
            for shard in shard_plan
        ]
        with ProcessPoolExecutor(
            max_workers=jobs, mp_context=_mp_context()
        ) as pool:
            flat = list(pool.map(_search_worker, payloads))
        per_circuit = [
            flat[index * len(shard_plan) : (index + 1) * len(shard_plan)]
            for index in range(len(circuits))
        ]
    else:
        per_circuit = []
        for _, layout, irs in sweeps:
            started = time.perf_counter()
            record = layout.search(*irs)
            per_circuit.append([(record, time.perf_counter() - started)])

    outcomes: List[_CircuitOutcome] = []
    for (working, layout, irs), shards in zip(sweeps, per_circuit):
        trials, winner_index = _finish_search(
            working, layout, irs[0], [record for record, _ in shards],
            coupling, distance, pipeline,
            search_seconds=sum(seconds for _, seconds in shards),
        )
        result = trials[winner_index].result
        outcomes.append(
            (trials, winner_index, result.runtime_seconds, result)
        )
    return outcomes


def _per_seed_batch(
    circuits: Sequence[QuantumCircuit],
    coupling: CouplingGraph,
    config: Optional[HeuristicConfig],
    seeds: List[int],
    num_traversals: int,
    distance,
    pipeline: str,
    jobs: int,
    objective: str,
    keep_results: bool,
) -> List[_CircuitOutcome]:
    """Per-seed batch: (circuit, seed) trial jobs, ranked per circuit
    with :func:`~repro.engine.trials.select_winner`."""
    objective_fn = OBJECTIVES[objective]
    num_trials = len(seeds)
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
    if jobs > 1 and len(payloads) > 1:
        from repro.engine.shared import _mp_context

        with ProcessPoolExecutor(
            max_workers=jobs, mp_context=_mp_context()
        ) as pool:
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
    return [
        (
            trials,
            winner_index,
            sum(t.result.runtime_seconds for t in trials),
            winner_results[index],
        )
        for index, (trials, winner_index) in enumerate(
            zip(per_circuit, winner_indices)
        )
    ]
