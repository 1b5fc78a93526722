"""Best-of-K seeded compilation trials on one restart loop.

SABRE's output quality is seed-dependent: the initial mapping is random
and equal-score SWAPs tie-break randomly (paper §IV-A, §IV-C2).
Production routers therefore run many independently seeded trials and
keep the best — this module is that engine.  Each trial is a full
bidirectional-traversal search from its own seed (initial mapping
*and* tie-break stream), so trials are statistically independent and
any partition of the seed list searches exactly as the whole list does.

Two kinds of sweep share one entry point, :func:`run_trials`:

- **The search path** (the ``g_add`` objective on a pipeline whose
  routing stage is the plain layout search, see
  :func:`repro.engine.ensemble.ensemble_eligible`): the sweep is the
  restart loop of one :class:`~repro.core.bidirectional.SabreLayout`
  over the seed list.  ``serial`` runs that loop over every seed in
  process; ``parallel`` runs it over contiguous seed shards on the
  shard runner's worker pool (:func:`repro.engine.shared.run_shards`),
  and each worker sends back only a small
  :class:`~repro.core.bidirectional.ShardSearch` record (best trace,
  its trial, per-seed records).  Both end in the same merge in this
  process (:func:`_finish_search`): every shard's best is offered to
  one :class:`~repro.core.bidirectional.BestForward` in shard order
  (lowest ``(num_swaps, depth)``, earliest on ties, which is what one
  search over all seeds keeps), the winner alone is replayed into a
  circuit, and the pipeline's remaining passes run on it.
- **The per-seed path** (every other objective or pipeline): one
  single-trial pipeline per seed, in process or in seed shards on the
  same pool, ranked by :func:`select_winner` (:func:`_rank_seeds`).

:func:`repro.engine.batch.compile_many` plans, runs and finishes each
of its circuits' sweeps with the same helpers (:func:`_plan_sweep`,
:func:`_run_planned`, :func:`_finish_sweep`).

Determinism contract: given the same circuit, device, seed list,
objective, and configuration, :func:`run_trials` returns the same
winner under every executor, and the direct
``compile_circuit(num_trials=K)`` search agrees with it on the search
path.
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.flatdag import FlatDag
from repro.circuits.decompositions import (
    decompose_to_cx_basis,
    needs_cx_decomposition,
)
from repro.core.bidirectional import SabreLayout, ShardSearch
from repro.core.heuristic import HeuristicConfig
from repro.core.result import MappingResult
from repro.core.scoring import FlatDistance
from repro.engine.cache import get_flat_distance_matrix
from repro.engine.shared import (
    ShardOutput,
    Sweep,
    choose_executor,
    plan_shards,
    run_shards,
)
from repro.exceptions import ReproError
from repro.hardware.coupling import CouplingGraph

#: Executor names accepted by :func:`run_trials` / ``compile_many``:
#: ``"serial"`` sweeps in process, ``"parallel"`` shards the seed list
#: across a worker pool (:func:`repro.engine.shared.run_shards`), and
#: ``"auto"`` picks between them from K and the worker count
#: (:func:`repro.engine.shared.choose_executor`).  Both produce the
#: same trials and winner; when ``parallel`` cannot run it downgrades
#: to ``serial``, records that on :class:`TrialsOutcome`, and warns
#: once per downgrade kind.
EXECUTORS = ("serial", "parallel", "auto")

#: Depth weight of the ``weighted`` objective: ``g_add + W * d_out``.
DEFAULT_DEPTH_WEIGHT = 0.5


def _objective_g_add(result: MappingResult) -> float:
    return float(result.added_gates)


def _objective_depth(result: MappingResult) -> float:
    return float(result.routed_depth)


def _objective_weighted(result: MappingResult) -> float:
    return float(result.added_gates) + DEFAULT_DEPTH_WEIGHT * float(
        result.routed_depth
    )


#: Winner-selection objectives (lower is better).
OBJECTIVES: Dict[str, Callable[[MappingResult], float]] = {
    "g_add": _objective_g_add,
    "depth": _objective_depth,
    "weighted": _objective_weighted,
}

#: Objective-name prefix that scores trials straight from the pipeline
#: PropertySet: ``"property:fidelity.estimated_success"`` ranks by that
#: recorded value (lower is better) — how a custom pass teaches the
#: engine a new winner-selection criterion without touching this module.
PROPERTY_OBJECTIVE_PREFIX = "property:"


def objective_value(result: MappingResult, objective: str) -> float:
    """Score ``result`` under a named objective (lower is better).

    Two PropertySet hooks extend the built-in metrics:

    - ``"property:<key>"`` objectives read the named property directly
      (it must have been recorded by the trial's pipeline);
    - for built-in names, a recorded ``"objective.<name>"`` entry
      overrides the metric function.
    """
    properties = getattr(result, "properties", None)
    if objective.startswith(PROPERTY_OBJECTIVE_PREFIX):
        key = objective[len(PROPERTY_OBJECTIVE_PREFIX):]
        if properties is None or key not in properties:
            raise ReproError(
                f"objective {objective!r} needs the trial's pipeline to "
                f"record property {key!r} (e.g. via a custom analysis "
                "pass); it was not found on this result"
            )
        return float(properties[key])
    if properties:
        override = properties.get(f"objective.{objective}")
        if override is not None:
            return float(override)
    try:
        return OBJECTIVES[objective](result)
    except KeyError:
        raise ReproError(
            f"unknown objective {objective!r}; available: {sorted(OBJECTIVES)}"
        ) from None


@dataclass
class TrialResult:
    """One seeded trial and its objective score.

    Attributes:
        seed: the trial seed.
        result: the trial's :class:`MappingResult`.  On the search path
            only the winner carries one; the other trials are ``None``.
        value: the objective score the winner rule compared (on the
            search path, the ``g_add`` of the seed's best forward
            traversal).
        num_swaps: SWAPs of the seed's best forward traversal.
        first_pass_swaps: SWAPs of the seed's first traversal, ``None``
            when its pipeline ran no search.
    """

    seed: int
    result: Optional[MappingResult]
    value: float
    num_swaps: int
    first_pass_swaps: Optional[int] = None


@dataclass
class TrialsOutcome:
    """Everything :func:`run_trials` produces.

    Attributes:
        trials: one entry per seed, in seed-list order.
        winner_index: index into ``trials`` of the selected winner.
        objective: the objective name that ranked them.
        requested_executor: the executor the caller asked for.
        executor: the executor that actually ran — differs from
            ``requested_executor`` after an ``"auto"`` resolution or a
            downgrade (single seed, broken worker pool).
        shard_plan: the parallel executor's seed shards (one list per
            worker), ``None`` for a serial sweep.
        downgrade_reason: why the requested executor could not run,
            ``None`` when it did (``"auto"`` resolution is a choice,
            not a downgrade).
    """

    trials: List[TrialResult]
    winner_index: int
    objective: str
    requested_executor: str = "serial"
    executor: str = "serial"
    shard_plan: Optional[List[List[int]]] = None
    downgrade_reason: Optional[str] = None

    @property
    def winner(self) -> TrialResult:
        return self.trials[self.winner_index]

    @property
    def best_result(self) -> MappingResult:
        return self.winner.result

    @property
    def trial_swaps(self) -> List[int]:
        return [t.num_swaps for t in self.trials]

    @property
    def first_pass_swaps(self) -> Optional[int]:
        """Best first-traversal SWAP count over the seeds (``g_la``)."""
        counts = [
            t.first_pass_swaps
            for t in self.trials
            if t.first_pass_swaps is not None
        ]
        return min(counts) if counts else None


def select_winner(trials: Sequence[TrialResult]) -> int:
    """Index of the best trial: lowest objective value, earliest seed
    on ties.

    This ranks the per-seed path only — non-``g_add`` objectives and
    pipelines whose routing is not the plain layout search.  The search
    path keeps the layout search's own rule: fewest SWAPs, then lowest
    depth, earliest seed on ties (see
    :class:`~repro.core.bidirectional.BestForward`).
    """
    if not trials:
        raise ReproError("select_winner needs at least one trial")
    best = 0
    for index in range(1, len(trials)):
        if trials[index].value < trials[best].value:
            best = index
    return best


def _run_one_trial(
    circuit: QuantumCircuit,
    coupling: CouplingGraph,
    config: Optional[HeuristicConfig],
    seed: int,
    num_traversals: int,
    distance: Sequence[Sequence[float]],
    pipeline: str = "paper_default",
) -> MappingResult:
    """One fully seeded trial: a single-trial pipeline execution
    (pipelines travel as preset names, not objects, so a
    :class:`~repro.engine.shared.Sweep` pickles).

    ``num_trials=1`` with ``executor=None`` keeps this on the direct
    :class:`~repro.core.bidirectional.SabreLayout` path; the trial seed
    drives both the random initial mapping and the router's tie-break
    stream (see ``SabreLayout``'s per-trial seeding).
    """
    from repro.pipeline.runner import get_pipeline

    return get_pipeline(pipeline).run(
        circuit,
        coupling,
        config=config,
        seed=seed,
        num_trials=1,
        num_traversals=num_traversals,
        distance=distance,
        executor=None,
    )


#: A sweep as the parent holds it: the :class:`Sweep` its workers
#: receive and, on a search sweep, the parent's layout search over
#: every seed and that search's ``(forward, reverse)`` IRs.
_PlannedSweep = Tuple[
    Sweep, Optional[SabreLayout], Optional[Tuple[FlatDag, Optional[FlatDag]]]
]


def _plan_sweep(
    circuit: QuantumCircuit,
    coupling: CouplingGraph,
    config: Optional[HeuristicConfig],
    seeds: Sequence[int],
    num_traversals: int,
    distance: FlatDistance,
    pipeline: str,
    search: bool,
) -> _PlannedSweep:
    """One circuit's sweep, ready to run on a pool or in this process.

    A search sweep's circuit is decomposed here, as the pipeline's
    ``DecomposeToBasis`` would, because the search (and every shard of
    it) routes the decomposed circuit.  Its IRs are lowered before any
    pool starts: forked workers inherit them, and the replay needs the
    forward one.
    """
    if search and needs_cx_decomposition(circuit):
        circuit = decompose_to_cx_basis(circuit)
    sweep = Sweep(
        circuit, coupling, config, num_traversals, distance, pipeline, search
    )
    layout = irs = None
    if search:
        layout = sweep.layout(seeds)
        irs = layout.lower(circuit)
    return sweep, layout, irs


def _run_planned(
    planned: Sequence[_PlannedSweep],
    seeds: Sequence[int],
    shard_plan: Optional[List[List[int]]],
    workers: int = 1,
) -> List[List[ShardOutput]]:
    """Each planned sweep's shard outputs, one list per sweep.

    With a ``shard_plan``, every (sweep, shard) pair is one job on a
    pool of ``workers`` (:func:`repro.engine.shared.run_shards`);
    without one, each sweep runs whole in this process, a search sweep
    on the parent's own layout search and IRs.
    """
    if shard_plan is None:
        outputs = []
        for sweep, layout, irs in planned:
            started = time.perf_counter()
            output = layout.search(*irs) if sweep.search else sweep.run(seeds)
            outputs.append([(output, time.perf_counter() - started)])
        return outputs
    jobs = [
        (index, shard)
        for index in range(len(planned))
        for shard in shard_plan
    ]
    flat = run_shards([sweep for sweep, _, _ in planned], jobs, workers)
    count = len(shard_plan)
    return [
        flat[index * count : (index + 1) * count]
        for index in range(len(planned))
    ]


def _finish_sweep(
    planned: _PlannedSweep,
    seeds: Sequence[int],
    shards: Sequence[ShardOutput],
    objective: str,
    search_seconds: float,
) -> Tuple[List[TrialResult], int]:
    """Per-seed trials and the winner index of one finished sweep.

    ``shards`` are the sweep's shard outputs in seed order.  A search
    sweep ends in :func:`_finish_search`; a per-seed sweep in
    :func:`_rank_seeds`.
    """
    sweep, layout, irs = planned
    outputs = [output for output, _ in shards]
    if sweep.search:
        return _finish_search(
            sweep, layout, irs[0], outputs, search_seconds
        )
    return _rank_seeds(
        seeds, [result for output in outputs for result in output], objective
    )


def _finish_search(
    sweep: Sweep,
    layout: SabreLayout,
    forward_ir: FlatDag,
    shards: Sequence[ShardSearch],
    search_seconds: float,
) -> Tuple[List[TrialResult], int]:
    """Per-seed trials and the winner index of a search-path sweep.

    ``shards`` are ``layout``'s restart loops over consecutive seed
    shards, in seed order, searched on the sweep circuit's IRs
    (``forward_ir`` the forward one).  They are merged and the winner
    replayed once (:meth:`SabreLayout.merge`), then the sweep's
    pipeline runs on its circuit with that search in place of its own,
    so the winner's :class:`MappingResult` goes through the same
    post-passes and metrics as a direct compile.  Its
    ``runtime_seconds`` adds ``search_seconds``, the time the shards
    took, to the merge's own.
    """
    from repro.pipeline.runner import get_pipeline

    search = layout.merge(shards, forward_ir)
    result = get_pipeline(sweep.pipeline).run(
        sweep.circuit,
        sweep.coupling,
        config=layout.config,
        seeds=layout.seeds,
        num_traversals=layout.num_traversals,
        distance=sweep.distance,
        executor=None,
        layout_search=search,
    )
    result.runtime_seconds += search_seconds
    trials = [
        TrialResult(
            seed=record.seed,
            result=None,
            value=float(3 * record.best_swaps),
            num_swaps=record.best_swaps,
            first_pass_swaps=record.first_pass_swaps,
        )
        for record in search.trials
    ]
    trials[search.best_trial_index].result = result
    return trials, search.best_trial_index


def _rank_seeds(
    seeds: Sequence[int],
    results: Sequence[MappingResult],
    objective: str,
) -> Tuple[List[TrialResult], int]:
    """Per-seed trials and the winner index of a per-seed sweep, ranked
    by :func:`select_winner`."""
    trials = [
        TrialResult(
            seed=seed,
            result=result,
            value=objective_value(result, objective),
            num_swaps=result.num_swaps,
            first_pass_swaps=result.first_pass_swaps,
        )
        for seed, result in zip(seeds, results)
    ]
    return trials, select_winner(trials)


#: Downgrade kinds already warned about this process (warn once each,
#: not once per sweep — a service replaying thousands of requests
#: should not drown its log).
_DOWNGRADES_WARNED: Set[Tuple[str, str]] = set()


def _note_downgrade(requested: str, effective: str, reason: str) -> str:
    """Record (and warn once per kind about) an executor downgrade."""
    key = (requested, effective)
    if key not in _DOWNGRADES_WARNED:
        _DOWNGRADES_WARNED.add(key)
        warnings.warn(
            f"run_trials: requested executor {requested!r} ran as "
            f"{effective!r} — {reason} (warned once per downgrade kind; "
            "the effective executor is recorded on every TrialsOutcome)",
            RuntimeWarning,
            stacklevel=3,
        )
    return reason


def run_trials(
    circuit: QuantumCircuit,
    coupling: CouplingGraph,
    seeds: Sequence[int],
    config: Optional[HeuristicConfig] = None,
    num_traversals: int = 3,
    objective: str = "g_add",
    executor: str = "serial",
    jobs: Optional[int] = None,
    distance: Optional[Sequence[Sequence[float]]] = None,
    pipeline: str = "paper_default",
) -> TrialsOutcome:
    """Run one compilation per seed and keep the best.

    Args:
        circuit: logical circuit (decomposition handled downstream).
        coupling: target device.
        seeds: one trial per entry; order defines the tie-break.
        config: heuristic knobs (paper defaults when omitted).
        num_traversals: traversals per trial (odd; paper uses 3).
        objective: ``"g_add"`` (paper metric), ``"depth"``,
            ``"weighted"`` (``g_add + 0.5 * d_out``), or
            ``"property:<key>"`` to rank by a value the trial pipeline
            recorded in its PropertySet.
        executor: one of :data:`EXECUTORS` — ``"serial"``,
            ``"parallel"`` (contiguous seed shards across a worker
            pool), or ``"auto"`` (serial for one trial or one
            worker, else parallel).  Both give the same trials and
            winner; the one that actually ran is recorded on the
            outcome.
        jobs: worker count for the parallel executor (default: as many
            as trials, capped at the machine's core count).  Must be a
            positive integer when given.
        distance: precomputed distance matrix.  Computed once through
            the engine cache when omitted and shipped to every worker,
            so a pool run never repeats the Floyd-Warshall step.
        pipeline: pass-pipeline preset (see
            :func:`repro.pipeline.presets.preset_names`).  On the
            per-seed path every trial executes it (shipped to workers
            by *name*); on the search path it runs once, in this
            process, on the merged search's winner.

    Returns:
        :class:`TrialsOutcome`; ``outcome.best_result`` is the winning
        :class:`~repro.core.result.MappingResult`.
    """
    if not seeds:
        raise ReproError("run_trials needs at least one seed")
    seeds = list(seeds)
    if len(set(seeds)) != len(seeds):
        raise ReproError(f"trial seeds must be distinct, got {seeds}")
    if executor not in EXECUTORS:
        raise ReproError(
            f"unknown executor {executor!r}; available: {list(EXECUTORS)}"
        )
    if jobs is not None and (isinstance(jobs, bool) or jobs < 1):
        raise ValueError(
            f"jobs must be a positive integer, got {jobs!r}; omit it to "
            "size the worker pool automatically"
        )
    if (
        objective not in OBJECTIVES
        and not objective.startswith(PROPERTY_OBJECTIVE_PREFIX)
    ):
        raise ReproError(
            f"unknown objective {objective!r}; available: "
            f"{sorted(OBJECTIVES)} or '{PROPERTY_OBJECTIVE_PREFIX}<key>'"
        )
    if distance is None:
        distance = get_flat_distance_matrix(coupling)
    else:
        # One flat buffer: what the router consumes, and what every
        # worker of a parallel sweep receives.
        distance = FlatDistance.from_matrix(distance)

    # Traced requests get one "engine.trials" span covering the whole
    # sweep (recorded once the effective executor is known); untraced
    # runs skip even the clock reads.
    from repro.telemetry.trace import current_span_id, current_tracer

    tracer = current_tracer()
    if tracer is not None:
        trace_parent = current_span_id()
        started_wall = time.time()
        started_perf = time.perf_counter()

    from repro.engine.ensemble import ensemble_eligible

    started = time.perf_counter()
    planned = _plan_sweep(
        circuit, coupling, config, seeds, num_traversals, distance,
        pipeline,
        objective == "g_add" and ensemble_eligible(pipeline),
    )
    requested = executor
    if executor == "auto":
        # A choice, not a downgrade: "auto" promises nothing beyond
        # "the fastest executor for this sweep on this host".
        executor = choose_executor(len(seeds), jobs=jobs).executor
    downgrade_reason: Optional[str] = None
    shard_plan: Optional[List[List[int]]] = None
    shards: Optional[List[ShardOutput]] = None
    if executor == "parallel":
        if len(seeds) == 1:
            downgrade_reason = _note_downgrade(
                requested, "serial", "a single seed has nothing to shard"
            )
        else:
            width = (
                jobs
                if jobs is not None
                else max(1, min(len(seeds), os.cpu_count() or 1))
            )
            shard_plan = plan_shards(seeds, width)
            try:
                [shards] = _run_planned([planned], seeds, shard_plan, width)
            except (BrokenProcessPool, OSError) as exc:
                shard_plan = None
                downgrade_reason = _note_downgrade(
                    requested, "serial",
                    f"worker pool unavailable ({exc})",
                )
    if shards is None:
        executor = "serial"
        [shards] = _run_planned([planned], seeds, None)
    trials, winner_index = _finish_sweep(
        planned, seeds, shards, objective,
        search_seconds=time.perf_counter() - started,
    )
    if tracer is not None:
        tracer.add_raw(
            "engine.trials",
            trace_parent,
            start=started_wall,
            wall_seconds=time.perf_counter() - started_perf,
            attrs={
                "executor": executor,
                "requested": requested,
                "seeds": len(seeds),
            },
        )
    return TrialsOutcome(
        trials=trials,
        winner_index=winner_index,
        objective=objective,
        requested_executor=requested,
        executor=executor,
        shard_plan=shard_plan,
        downgrade_reason=downgrade_reason,
    )
