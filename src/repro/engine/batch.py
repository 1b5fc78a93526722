"""Suite-level fan-out: compile many circuits, best-of-K each.

``compile_many`` is the heavy-traffic entry point.  It ranks each
circuit's seeds with the rule :func:`repro.engine.trials.run_trials`
uses for the same sweep, so a circuit's winner does not depend on
whether it was compiled alone or in a batch: each circuit is one sweep,
planned, run and finished by ``run_trials``' own helpers.

With ``jobs > 1`` the suite is flattened into (circuit, seed-shard)
jobs on one pool of the shard runner
(:func:`repro.engine.shared.run_shards`), which keeps every worker busy
even when the suite mixes second-long and millisecond-long circuits:

- **search path** (the ``g_add`` objective on a search-eligible
  pipeline, see :func:`repro.engine.ensemble.ensemble_eligible`): each
  job runs the layout search's restart loop over its shard and returns
  a small :class:`~repro.core.bidirectional.ShardSearch` record; the
  parent merges each circuit's records (fewest SWAPs, then lowest
  depth, earliest seed on ties) and replays only the winners.
- **per-seed path** (every other objective or pipeline): each job runs
  one single-trial pipeline per seed of its shard and returns their
  results, ranked per circuit by
  :func:`repro.engine.trials.select_winner`.

The device's distance matrix is resolved once in the parent through the
engine cache and shipped to every worker, so a batch run pays the
O(N^3) Floyd-Warshall preprocessing exactly once per device.  On the
search path the parent also lowers every circuit's IRs before the pool
starts (its replays need them), so forked workers inherit them; on the
per-seed path each circuit's IR is resolved through the per-process
engine cache inside the trial (see
:func:`repro.engine.cache.get_flat_dag`), so no worker lowers the same
circuit twice regardless of how many of its shards it picks up.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.circuits.circuit import QuantumCircuit
from repro.core.heuristic import HeuristicConfig
from repro.core.result import MappingResult
from repro.engine.cache import get_flat_distance_matrix
from repro.engine.shared import plan_shards
from repro.engine.trials import (
    EXECUTORS,
    OBJECTIVES,
    _finish_sweep,
    _plan_sweep,
    _run_planned,
)
from repro.exceptions import ReproError
from repro.hardware.coupling import CouplingGraph


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
    executor: str = "serial"

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
        jobs: ``1`` compiles in-process; ``>1`` fans (circuit,
            seed-shard) jobs across a worker pool.
        objective: winner-selection metric, one of
            :data:`repro.engine.trials.OBJECTIVES` (``property:``
            objectives are not accepted here).
        config: heuristic knobs shared by every trial.
        num_traversals: traversals per trial (odd).
        keep_results: attach each winner's full
            :class:`~repro.core.result.MappingResult` to its report
            (disable to shed memory on very large suites).
        pipeline: pass-pipeline preset (shipped to per-seed workers by
            name; on the search path it runs once per circuit, in the
            parent, on the winner).
        executor: one of :data:`~repro.engine.trials.EXECUTORS`.
            ``"auto"`` and ``"parallel"`` use the job pool when
            ``jobs > 1``, else the in-process loop; ``"serial"`` always
            compiles in process.  The report records which one ran.

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
    search = objective == "g_add" and ensemble_eligible(
        pipeline, config, distance
    )
    planned = [
        _plan_sweep(
            circuit, coupling, config, seeds, num_traversals, distance,
            pipeline, search,
        )
        for circuit in circuits
    ]
    width = jobs if executor != "serial" else 1
    shard_plan = plan_shards(seeds, width)
    if width > 1 and len(circuits) * len(shard_plan) > 1:
        ran = "parallel"
        per_circuit = _run_planned(planned, seeds, shard_plan, width)
    else:
        ran = "serial"
        per_circuit = _run_planned(planned, seeds, None)

    reports: List[CircuitReport] = []
    for circuit, sweep, shards in zip(circuits, planned, per_circuit):
        trials, winner_index = _finish_sweep(
            sweep, seeds, shards, objective,
            search_seconds=sum(seconds for _, seconds in shards),
        )
        winner = trials[winner_index]
        result = winner.result
        reports.append(
            CircuitReport(
                name=circuit.name,
                num_qubits=circuit.num_qubits,
                original_gates=result.original_gates,
                added_gates=result.added_gates,
                num_swaps=result.num_swaps,
                routed_depth=result.routed_depth,
                winning_seed=winner.seed,
                objective_value=winner.value,
                trial_seconds=sum(
                    t.result.runtime_seconds
                    for t in trials
                    if t.result is not None
                ),
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
        executor=ran,
    )
