"""The parallel executor: seed shards on one plain worker pool.

Best-of-K quality comes from independent random restarts, so spreading
a sweep across workers only needs each worker to get its seed shard.
:func:`repro.engine.trials.run_trials` under ``executor="parallel"``
and :func:`repro.engine.batch.compile_many` with ``jobs > 1`` both hand
their work to one runner, :func:`run_shards`.  This module holds the
pieces:

- **Shard planning** (:func:`plan_shards`): partition the K seeds into
  P contiguous, balanced shards.  Trials are seed-independent, so
  concatenating shard outputs in order restores the serial sweep's
  per-seed results, and merging shard bests in order picks the serial
  sweep's winner.
- **An executor chooser** (:func:`choose_executor`): the rule behind
  ``executor="auto"`` — serial for one trial or one worker, parallel
  otherwise.
- **The shard runner** (:class:`Sweep` / :func:`run_shards`): one
  :class:`~concurrent.futures.ProcessPoolExecutor` whose initializer
  stores the list of sweeps in each worker; every submission is then
  ``(sweep_index, seeds)``.  On a search sweep a worker runs only the
  layout search's restart loop over its seeds
  (:meth:`~repro.core.bidirectional.SabreLayout.search`) and sends back
  a :class:`~repro.core.bidirectional.ShardSearch` record with no
  circuit in it; on a per-seed sweep it runs one single-trial pipeline
  per seed and sends back their results (:meth:`Sweep.run`).
- **The start-method resolver** (:func:`resolve_mp_context`), shared
  with the service's worker tier.

Under ``fork`` the initializer's arguments reach the workers without
being pickled, and the parent lowers a search sweep's IRs before the
pool starts, so the workers inherit them; under ``spawn`` and
``forkserver`` the sweep list is pickled once per worker and each
worker lowers its own IRs on first use.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.circuits.circuit import QuantumCircuit
from repro.core.bidirectional import SabreLayout, ShardSearch
from repro.core.heuristic import HeuristicConfig
from repro.core.result import MappingResult
from repro.core.scoring import FlatDistance
from repro.exceptions import ReproError
from repro.hardware.coupling import CouplingGraph

#: Environment knob selecting the multiprocessing start method
#: (``fork`` / ``spawn`` / ``forkserver``) of every process pool: the
#: engine's shard runner and the service's worker lanes.
MP_START_METHOD_ENV = "REPRO_MP_START_METHOD"


def resolve_mp_context(
    start_method: Optional[str] = None,
) -> multiprocessing.context.BaseContext:
    """The multiprocessing context a process pool should use.

    Explicit argument first, then :data:`MP_START_METHOD_ENV`, then the
    platform default.  Unknown names raise the stdlib's ``ValueError``
    listing the valid methods.
    """
    method = start_method or os.environ.get(MP_START_METHOD_ENV) or None
    return multiprocessing.get_context(method)


# ----------------------------------------------------------------------
# Shard planning and executor choice
# ----------------------------------------------------------------------


def plan_shards(seeds: Sequence[int], num_shards: int) -> List[List[int]]:
    """Partition ``seeds`` into at most ``num_shards`` contiguous shards.

    Balanced to within one seed (the first ``K % P`` shards take the
    extra), never more shards than seeds, order-preserving — so
    concatenating per-shard results restores the original seed order.
    """
    if not seeds:
        raise ReproError("plan_shards needs at least one seed")
    if num_shards < 1:
        raise ValueError(
            f"num_shards must be a positive integer, got {num_shards!r}"
        )
    seeds = list(seeds)
    count = min(num_shards, len(seeds))
    base, extra = divmod(len(seeds), count)
    shards: List[List[int]] = []
    start = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        shards.append(seeds[start : start + size])
        start += size
    return shards


@dataclass(frozen=True)
class ExecutorDecision:
    """One resolved ``executor="auto"`` choice, with its rationale."""

    executor: str
    jobs: int
    num_seeds: int
    cores: int
    reason: str

    def as_properties(self) -> Dict[str, object]:
        """JSON-safe summary for reports and benchmark metadata."""
        return {
            "executor": self.executor,
            "jobs": self.jobs,
            "num_seeds": self.num_seeds,
            "cores": self.cores,
            "reason": self.reason,
        }


def choose_executor(
    num_seeds: int,
    cores: Optional[int] = None,
    jobs: Optional[int] = None,
) -> ExecutorDecision:
    """The automatic executor decision.

    ==========  =======  ========
    trials (K)  workers  choice
    ==========  =======  ========
    1           any      serial
    >1          1        serial
    >1          >1       parallel
    ==========  =======  ========

    ``cores`` defaults to the host's CPU count; ``jobs`` (explicit
    pool width) overrides the ``min(K, cores)`` sizing.  Deterministic
    in its inputs — callers that need host-independent choices pass
    ``cores`` explicitly.
    """
    if num_seeds < 1:
        raise ValueError(f"num_seeds must be >= 1, got {num_seeds!r}")
    if jobs is not None and (isinstance(jobs, bool) or jobs < 1):
        raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
    cores = cores if cores is not None else os.cpu_count() or 1
    width = jobs if jobs is not None else max(1, min(num_seeds, cores))
    if num_seeds == 1:
        return ExecutorDecision(
            "serial", 1, num_seeds, cores,
            "a single trial has nothing to fan out",
        )
    if width == 1:
        return ExecutorDecision(
            "serial", 1, num_seeds, cores,
            "one worker: the in-process sweep",
        )
    return ExecutorDecision(
        "parallel", width, num_seeds, cores,
        f"{num_seeds} trials across {width} workers: contiguous seed "
        "shards",
    )


# ----------------------------------------------------------------------
# The shard runner
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Sweep:
    """One circuit's sweep, as every worker receives it.

    ``circuit`` is the working circuit: for a ``search`` sweep it is
    already in the router's basis and the worker runs the layout
    search's restart loop on it; otherwise the worker runs
    ``pipeline`` (a preset name) once per seed.  The distance matrix
    travels with the sweep, so no worker repeats the Floyd-Warshall
    step.
    """

    circuit: QuantumCircuit
    coupling: CouplingGraph
    config: Optional[HeuristicConfig]
    num_traversals: int
    distance: FlatDistance
    pipeline: str
    search: bool

    def layout(self, seeds: Sequence[int]) -> SabreLayout:
        """This sweep's layout search over ``seeds``."""
        return SabreLayout(
            self.coupling,
            config=self.config,
            num_traversals=self.num_traversals,
            seeds=seeds,
            distance=self.distance,
        )

    def run(
        self, seeds: Sequence[int]
    ) -> Union[ShardSearch, List[MappingResult]]:
        """One seed shard of this sweep, in this process: the layout
        search's restart loop over ``seeds`` without the replay, or one
        single-trial pipeline per seed."""
        if self.search:
            layout = self.layout(seeds)
            return layout.search(*layout.lower(self.circuit))
        from repro.engine.trials import _run_one_trial

        return [
            _run_one_trial(
                self.circuit, self.coupling, self.config, seed,
                self.num_traversals, self.distance, self.pipeline,
            )
            for seed in seeds
        ]


#: One job's output and the seconds its shard took.
ShardOutput = Tuple[Union[ShardSearch, List[MappingResult]], float]

#: The pool's sweeps, stored in each worker by the pool initializer.
_SWEEPS: List[Sweep] = []


def _init_worker(sweeps: List[Sweep]) -> None:
    """Pool initializer: store the pool's sweeps in this worker."""
    global _SWEEPS
    _SWEEPS = sweeps


def _timed_shard(sweep: Sweep, seeds: Sequence[int]) -> ShardOutput:
    started = time.perf_counter()
    output = sweep.run(seeds)
    return output, time.perf_counter() - started


def _run_job(sweep_index: int, seeds: Tuple[int, ...], trace_ctx=None):
    """Worker entry point: one seed shard of one stored sweep.

    The submission payload is ``(sweep_index, seeds)`` plus the trace
    context; the return value is the shard's :data:`ShardOutput`.
    ``trace_ctx`` (``(trace_id, parent_span_id, profile?)``) is the
    traced-request extension: when set, the shard records a
    ``shard.sweep`` span (plus its ``layout.traversal`` or per-seed
    pipeline spans and, with ``profile``, router-step aggregates) and
    the return value becomes ``(output, serialized_span_batch)``.
    """
    sweep = _SWEEPS[sweep_index]
    if trace_ctx is None:
        return _timed_shard(sweep, seeds)
    from repro.telemetry.profile import profiled_routing
    from repro.telemetry.trace import Tracer, span, tracing

    trace_id, parent_id, profile = trace_ctx
    tracer = Tracer(trace_id)
    with tracing(tracer, parent_id=parent_id):
        with span("shard.sweep") as shard_span:
            shard_span.set("pid", os.getpid())
            shard_span.set("seeds", len(seeds))
            if profile:
                with profiled_routing() as profiler:
                    output = _timed_shard(sweep, seeds)
                if not profiler.empty:
                    tracer.add_raw(
                        "router.profile",
                        shard_span.span_id,
                        start=time.time(),
                        wall_seconds=profiler.scoring_seconds,
                        attrs=profiler.to_dict(),
                    )
            else:
                output = _timed_shard(sweep, seeds)
    return output, tracer.export()


def run_shards(
    sweeps: Sequence[Sweep],
    jobs: Sequence[Tuple[int, Sequence[int]]],
    workers: int,
) -> List[ShardOutput]:
    """Run ``(sweep_index, seeds)`` jobs on one pool of ``workers``.

    The initializer stores ``sweeps`` in every worker once; each job
    then ships only its sweep index and seeds.  Returns one
    ``(output, seconds)`` pair per job, in job order: with a search
    sweep the output is the shard's
    :class:`~repro.core.bidirectional.ShardSearch`, otherwise one
    :class:`MappingResult` per seed.

    Raises ``ValueError`` for an unknown start method, and whatever the
    pool raises (``BrokenProcessPool``, ``OSError``) otherwise.
    """
    # Traced request?  Ship the trace context into every job so the
    # shard's spans (and router-profile aggregates) parent under this
    # sweep; untraced requests pass None.
    from repro.telemetry.profile import active_router_profiler
    from repro.telemetry.trace import current_span_id, current_tracer

    tracer = current_tracer()
    profiler = active_router_profiler()
    trace_ctx = None
    if tracer is not None:
        trace_ctx = (
            tracer.trace_id, current_span_id(), profiler is not None
        )
    with ProcessPoolExecutor(
        max_workers=min(workers, len(jobs)),
        mp_context=resolve_mp_context(),
        initializer=_init_worker,
        initargs=(list(sweeps),),
    ) as pool:
        futures = [
            pool.submit(_run_job, index, tuple(seeds), trace_ctx)
            for index, seeds in jobs
        ]
        outputs = [future.result() for future in futures]
    if trace_ctx is None:
        return outputs
    traced, outputs = outputs, []
    for output, spans in traced:
        outputs.append(output)
        tracer.add_spans(spans)
        if profiler is not None:
            # Fold the shards' router aggregates into the parent's
            # profiler so the top-level router.profile span covers the
            # whole sweep.
            for span_dict in spans:
                if span_dict.get("name") == "router.profile":
                    profiler.merge_dict(span_dict.get("attrs") or {})
    return outputs
