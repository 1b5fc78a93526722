"""The parallel executor: seed shards over a ship-once worker pool.

:func:`repro.engine.trials.run_trials` under ``executor="parallel"``
splits its seed list into contiguous shards and runs each shard in a
worker process.  On the search path a worker runs only the layout
search's restart loop over its seeds
(:meth:`~repro.core.bidirectional.SabreLayout.search`) and sends back a
:class:`~repro.core.bidirectional.ShardSearch` record: the shard's best
search trace, its trial index and the per-seed trial records, with no
circuit in it.  The parent merges the records and replays the one
winner.  On the per-seed path a worker runs one single-trial pipeline
per seed (:func:`repro.engine.trials.run_shard`) and sends back their
results.  This module holds the pieces:

- **Shard planning** (:func:`plan_shards`): partition the K seeds into
  P contiguous, balanced shards.  Trials are seed-independent, so
  concatenating shard outputs in order restores the serial sweep's
  per-seed results, and merging shard bests in order picks the serial
  sweep's winner.
- **An executor chooser** (:func:`choose_executor`): the rule behind
  ``executor="auto"`` — serial for one trial or one worker, parallel
  otherwise.
- **The ship-once layer** (:class:`SweepSpec` / :func:`run_parallel_sweep`):
  one :class:`~concurrent.futures.ProcessPoolExecutor` whose
  *initializer* installs the sweep's immutable inputs — circuit,
  coupling, config, pipeline name — into a fingerprint-keyed
  worker-side cache exactly once per worker.  The distance matrix
  travels through :class:`multiprocessing.shared_memory.SharedMemory`,
  so even on large devices the workers map the parent's table
  zero-copy instead of unpickling their own.  After the initializer
  runs, each shard submission carries only ``(fingerprint, seeds)``.

Fingerprints reuse :mod:`repro.engine.cache`'s content addresses
(:func:`~repro.engine.cache.circuit_fingerprint` /
:func:`~repro.engine.cache.coupling_fingerprint`), and every worker
pre-seeds its process-local engine cache with the shipped distance so
no code path ever repeats the Floyd-Warshall step.  The parent lowers a
search-path circuit's IRs before the pool starts, so forked workers
inherit them; spawned workers lower their own on first use.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.circuits.circuit import QuantumCircuit
from repro.core.bidirectional import ShardSearch
from repro.core.heuristic import HeuristicConfig
from repro.core.result import MappingResult
from repro.core.scoring import FlatDistance
from repro.engine.cache import circuit_fingerprint, coupling_fingerprint
from repro.exceptions import ReproError
from repro.hardware.coupling import CouplingGraph

#: Environment knob selecting the multiprocessing start method for the
#: sweep pool — the same variable the service worker tier honours
#: (:data:`repro.service.workers.MP_START_METHOD_ENV`), so one setting
#: governs every process boundary in a deployment.
MP_START_METHOD_ENV = "REPRO_MP_START_METHOD"


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
# Ship-once sweep state
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _DistanceHandle:
    """How one sweep's distance matrix reaches the workers.

    ``shm_name`` names a :class:`~multiprocessing.shared_memory.
    SharedMemory` block the workers attach zero-copy; ``raw`` is the
    pickled-bytes fallback for hosts where shared memory is
    unavailable.  Exactly one of the two is set.
    """

    n: int
    symmetric: bool
    shm_name: Optional[str] = None
    raw: Optional[bytes] = None


@dataclass(frozen=True)
class SweepSpec:
    """Everything immutable a parallel sweep ships to each worker, once.

    Crosses the process boundary exactly once per worker (via the pool
    initializer); afterwards shard submissions reference it by
    ``fingerprint`` only.
    """

    fingerprint: str
    circuit: QuantumCircuit
    coupling: CouplingGraph
    config: Optional[HeuristicConfig]
    num_traversals: int
    pipeline: str
    search: bool
    distance: _DistanceHandle


def sweep_fingerprint(
    circuit: QuantumCircuit,
    coupling: CouplingGraph,
    config: Optional[HeuristicConfig],
    num_traversals: int,
    pipeline: str,
    distance: FlatDistance,
) -> str:
    """Content address of one sweep's shared state (sha256 hex digest).

    Built from the engine cache's circuit/coupling fingerprints plus
    every knob that changes a trial's output, and a digest of the
    actual distance buffer (callers may pass custom matrices that the
    coupling fingerprint alone cannot distinguish).
    """
    distance_digest = hashlib.sha256(distance.buf.tobytes()).hexdigest()
    parts = (
        "repro-sweep-v1",
        circuit_fingerprint(circuit),
        coupling_fingerprint(coupling),
        repr(config),
        num_traversals,
        pipeline,
        distance.n,
        distance.symmetric,
        distance_digest,
    )
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


@dataclass
class _WorkerSweep:
    """One installed sweep in a worker process."""

    spec: SweepSpec
    distance: FlatDistance
    shm: Optional[object] = None  # keeps the mapping alive


#: Worker-process sweep cache, keyed by sweep fingerprint.  Installed
#: by the pool initializer; shard submissions only ever look up.
_WORKER_SWEEPS: Dict[str, _WorkerSweep] = {}


def _attach_distance(handle: _DistanceHandle):
    """Materialise a worker-side FlatDistance from its transport handle.

    Shared-memory blocks attach zero-copy: the worker's ``FlatDistance``
    wraps a ``memoryview`` of the parent's table cast to doubles —
    ``len``, indexing, and ``numpy.frombuffer`` all work on it, so both
    scorers consume it unchanged.
    """
    if handle.shm_name is not None:
        from multiprocessing import shared_memory

        # Attaching re-registers the segment with the resource tracker
        # (Python < 3.13 has no ``track=False``), but pool workers share
        # the parent's tracker process and registration is
        # set-idempotent there, so the parent's single ``unlink`` still
        # unregisters exactly once.  Workers never close or unlink: they
        # exit via ``os._exit`` when the pool shuts down, and the
        # parent owns the segment's lifecycle.
        shm = shared_memory.SharedMemory(name=handle.shm_name)
        size = handle.n * handle.n * 8
        view = shm.buf[:size].cast("d")
        return FlatDistance(handle.n, view, handle.symmetric), shm
    if handle.raw is None:  # pragma: no cover — constructor invariant
        raise ReproError("distance handle carries neither shm nor bytes")
    from array import array

    buf = array("d")
    buf.frombytes(handle.raw)
    return FlatDistance(handle.n, buf, handle.symmetric), None


def _install_sweep(spec: SweepSpec) -> None:
    """Idempotently install one sweep's shared state in this worker."""
    if spec.fingerprint in _WORKER_SWEEPS:
        return
    distance, shm = _attach_distance(spec.distance)
    # Pre-seed the process-local engine cache: any path in this worker
    # that resolves the device's distance itself now hits instead of
    # re-running Floyd-Warshall.
    from repro.engine.cache import GLOBAL_CACHE

    GLOBAL_CACHE.seed_flat_distance(spec.coupling, distance)
    _WORKER_SWEEPS[spec.fingerprint] = _WorkerSweep(
        spec=spec, distance=distance, shm=shm
    )


def _init_sweep_worker(spec: SweepSpec) -> None:
    """Pool initializer: the one crossing of the heavy payload."""
    _install_sweep(spec)


def _run_sweep_shard(
    fingerprint: str, seeds: Tuple[int, ...], trace_ctx=None
):
    """Worker entry point: run one shard of seeds against installed state.

    The submission payload is exactly ``(fingerprint, seeds)`` — no
    circuit, coupling, config, or distance ever rides along — and the
    return value is what :func:`_execute_shard` returns.
    ``trace_ctx`` (``(trace_id, parent_span_id, profile?)``) is the
    traced-request extension: when set, the shard records a
    ``shard.sweep`` span (plus its ``layout.traversal`` or per-seed
    pipeline spans and, with ``profile``, router-step aggregates) and
    the return value becomes ``(output, serialized_span_batch)``.
    """
    sweep = _WORKER_SWEEPS.get(fingerprint)
    if sweep is None:
        raise ReproError(
            f"sweep worker has no sweep {fingerprint[:12]}…; the pool "
            "initializer did not run (or ran for a different sweep)"
        )
    if trace_ctx is None:
        return _execute_shard(sweep, seeds)
    import time as _time

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
                    output = _execute_shard(sweep, seeds)
                if not profiler.empty:
                    tracer.add_raw(
                        "router.profile",
                        shard_span.span_id,
                        start=_time.time(),
                        wall_seconds=profiler.scoring_seconds,
                        attrs=profiler.to_dict(),
                    )
            else:
                output = _execute_shard(sweep, seeds)
    return output, tracer.export()


def _execute_shard(
    sweep: _WorkerSweep, seeds: Tuple[int, ...]
) -> Union[ShardSearch, List[MappingResult]]:
    """The shard's actual sweep (shared by both trace modes): the layout
    search's restart loop on the search path, one pipeline per seed
    otherwise."""
    from repro.engine.trials import run_shard, search_shard

    spec = sweep.spec
    if spec.search:
        return search_shard(
            spec.circuit,
            spec.coupling,
            spec.config,
            seeds,
            spec.num_traversals,
            sweep.distance,
        )
    return run_shard(
        spec.circuit,
        spec.coupling,
        spec.config,
        seeds,
        spec.num_traversals,
        sweep.distance,
        spec.pipeline,
    )


def _mp_context():
    """The sweep pool's start-method context (honours the service's
    ``REPRO_MP_START_METHOD`` knob; platform default otherwise)."""
    method = os.environ.get(MP_START_METHOD_ENV, "").strip().lower()
    if method:
        try:
            return multiprocessing.get_context(method)
        except ValueError:
            pass
    return multiprocessing.get_context()


def build_sweep_spec(
    circuit: QuantumCircuit,
    coupling: CouplingGraph,
    config: Optional[HeuristicConfig],
    num_traversals: int,
    pipeline: str,
    distance: FlatDistance,
    search: bool,
    use_shared_memory: bool = True,
) -> Tuple[SweepSpec, Optional[object]]:
    """Build one sweep's ship-once spec; returns ``(spec, shm_or_None)``.

    The caller owns the returned shared-memory block (close + unlink
    after the pool is done); ``None`` means the distance travels as
    bytes inside the spec instead.
    """
    raw = distance.buf.tobytes()
    handle = None
    shm = None
    if use_shared_memory:
        try:
            from multiprocessing import shared_memory

            shm = shared_memory.SharedMemory(create=True, size=len(raw))
            shm.buf[: len(raw)] = raw
            handle = _DistanceHandle(
                distance.n, distance.symmetric, shm_name=shm.name
            )
        except Exception:
            shm = None
    if handle is None:
        handle = _DistanceHandle(distance.n, distance.symmetric, raw=raw)
    spec = SweepSpec(
        fingerprint=sweep_fingerprint(
            circuit, coupling, config, num_traversals, pipeline, distance
        ),
        circuit=circuit,
        coupling=coupling,
        config=config,
        num_traversals=num_traversals,
        pipeline=pipeline,
        search=search,
        distance=handle,
    )
    return spec, shm


def run_parallel_sweep(
    circuit: QuantumCircuit,
    coupling: CouplingGraph,
    shards: Sequence[Sequence[int]],
    config: Optional[HeuristicConfig] = None,
    num_traversals: int = 3,
    distance: Optional[FlatDistance] = None,
    pipeline: str = "paper_default",
    search: bool = True,
) -> List[Union[ShardSearch, List[MappingResult]]]:
    """Run pre-planned seed shards across a ship-once worker pool.

    One worker per shard; each worker's initializer installs the sweep
    spec (heavy payload crosses once), then every shard submission is
    just ``(fingerprint, seeds)``.  Returns one output per shard, in
    shard order: with ``search``, the shard's
    :class:`~repro.core.bidirectional.ShardSearch` (``circuit`` must
    then be in the router's basis); otherwise one
    :class:`MappingResult` per seed.

    Raises whatever the pool raises (``BrokenProcessPool``, ``OSError``)
    — the caller downgrades to the serial sweep.
    """
    if not shards or not any(shards):
        raise ReproError(
            "run_parallel_sweep needs at least one shard of seeds"
        )
    if distance is None:
        from repro.engine.cache import get_flat_distance_matrix

        distance = get_flat_distance_matrix(coupling)
    elif not isinstance(distance, FlatDistance):
        distance = FlatDistance.from_matrix(distance)
    spec, shm = build_sweep_spec(
        circuit, coupling, config, num_traversals, pipeline, distance,
        search,
    )
    # Traced request?  Ship the trace context into every shard so the
    # shard's spans (and router-profile aggregates) parent under this
    # sweep; untraced requests pass None and shards return bare lists.
    from repro.telemetry.profile import active_router_profiler
    from repro.telemetry.trace import current_span_id, current_tracer

    tracer = current_tracer()
    profiler = active_router_profiler()
    trace_ctx = None
    if tracer is not None:
        trace_ctx = (
            tracer.trace_id, current_span_id(), profiler is not None
        )
    try:
        with ProcessPoolExecutor(
            max_workers=len(shards),
            mp_context=_mp_context(),
            initializer=_init_sweep_worker,
            initargs=(spec,),
        ) as pool:
            futures = [
                pool.submit(
                    _run_sweep_shard, spec.fingerprint, tuple(shard),
                    trace_ctx,
                )
                for shard in shards
            ]
            outputs = [future.result() for future in futures]
        if trace_ctx is not None:
            traced, outputs = outputs, []
            for output, spans in traced:
                outputs.append(output)
                tracer.add_spans(spans)
                if profiler is not None:
                    # Fold the shards' router aggregates into the
                    # parent's profiler so the top-level router.profile
                    # span covers the whole sweep.
                    for span_dict in spans:
                        if span_dict.get("name") == "router.profile":
                            profiler.merge_dict(
                                span_dict.get("attrs") or {}
                            )
    finally:
        if shm is not None:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
    return outputs
