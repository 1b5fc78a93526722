"""Trial-major ensemble routing: K seeded trials in lockstep.

The best-of-K engine (:mod:`repro.engine.trials`) is embarrassingly
parallel, but on a single core its serial executor pays the router's
per-step numpy dispatch cost once *per trial*.  The vector scorer's
kernel is nearly size-invariant in the trial dimension — scoring K
trials' candidate sets in one ``(K, E)`` batch costs little more than
scoring one — so this module routes all K trials of a best-of-K run
*together*: one :class:`~repro.core.scoring.VectorBlock` with K rows,
K routing generators (:meth:`~repro.core.router.SabreRouter.
_route_vector`) advanced in lockstep, and a single batched
``score_rows`` call per round covering every trial that is stuck on a
wide front.

Determinism contract: the ensemble reproduces the serial executor's
per-seed results *exactly*.  Each trial keeps its own tie-break RNG
(seeded by its trial seed), its own decay row, its own frontier pair,
and its own layout chain across traversals; only the kernel dispatch
is shared.  The differential suite enforces byte-identical routed
circuits against ``executor="serial"`` for the same seed list.

Eligibility: the lockstep path needs the vector scorer (symmetric
distance matrix) and a pipeline whose routing stage is the plain
``SabreLayoutPass`` search — embedding shortcuts, baseline routers,
and noise-distance rewrites route differently per trial, so
:func:`ensemble_eligible` reports False for them and
:func:`repro.engine.trials.run_trials` silently falls back to the
serial executor (same results, no lockstep speedup).
"""

from __future__ import annotations

import random
import time
from typing import List, Optional, Sequence, Union

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.decompositions import (
    decompose_to_cx_basis,
    needs_cx_decomposition,
)
from repro.circuits.flatdag import FrontierState
from repro.core.bidirectional import (
    BestForward,
    BidirectionalResult,
    TrialRecord,
)
from repro.core.heuristic import DecayArray, HeuristicConfig
from repro.core.router import SabreRouter
from repro.core.scoring import FlatDistance, VectorBlock
from repro.exceptions import MappingError, ReproError
from repro.hardware.coupling import CouplingGraph
from repro.telemetry.profile import active_router_profiler


def decompose_like_pipeline(circuit: QuantumCircuit) -> QuantumCircuit:
    """The circuit exactly as ``DecomposeToBasis`` would hand it to the
    layout search (identical object when already in basis, so the IR
    cache keys match the per-trial pipeline runs)."""
    if needs_cx_decomposition(circuit):
        return decompose_to_cx_basis(circuit)
    return circuit


def ensemble_eligible(
    pipeline: str,
    config: Optional[HeuristicConfig],
    distance: Optional[Union[FlatDistance, Sequence[Sequence[float]]]],
) -> bool:
    """Whether the lockstep ensemble reproduces this configuration.

    Three requirements, each checked against the serial executor's
    actual behaviour:

    - the scorer must be ``"vector"`` (the lockstep driver is the
      vector generator protocol; ``reference`` trials have no kernel
      to share);
    - the distance matrix must be symmetric (otherwise the router
      itself falls back to the reference scorer, see
      :class:`~repro.core.router.SabreRouter`);
    - the trial pipeline's routing stage must be the plain
      ``SabreLayoutPass`` search: presets that pin layouts
      (``PerfectEmbedding``), reroute per trial (``BaselineRoutePass``),
      or rewrite the distance/config (``NoiseAwareDistance``) would
      diverge from what the ensemble precomputes.
    """
    if (config or HeuristicConfig()).scorer != "vector":
        return False
    if distance is not None:
        flat = (
            distance
            if isinstance(distance, FlatDistance)
            else FlatDistance.from_matrix(distance)
        )
        if not flat.symmetric:
            return False
    from repro.pipeline.passes import (
        BaselineRoutePass,
        NoiseAwareDistance,
        PerfectEmbedding,
        SabreLayoutPass,
    )
    from repro.pipeline.runner import get_pipeline

    try:
        pipe = get_pipeline(pipeline)
    except ReproError:
        return False
    has_search = False
    for pass_ in pipe.passes:
        if isinstance(
            pass_, (PerfectEmbedding, BaselineRoutePass, NoiseAwareDistance)
        ):
            return False
        if isinstance(pass_, SabreLayoutPass):
            has_search = True
    return has_search


def run_ensemble_trials(
    circuit: QuantumCircuit,
    coupling: CouplingGraph,
    seeds: Sequence[int],
    config: Optional[HeuristicConfig] = None,
    num_traversals: int = 3,
    distance: Optional[
        Union[FlatDistance, Sequence[Sequence[float]]]
    ] = None,
    pipeline: str = "paper_default",
) -> List["object"]:
    """One full :class:`~repro.core.result.MappingResult` per seed, via
    the lockstep ensemble.

    Runs :func:`ensemble_layout_search` over the decomposed circuit,
    then re-enters the per-trial pipeline with each search result
    precomputed: decomposition, metrics, and any post-routing passes
    run exactly as on the serial path, so each trial's result matches
    the serial executor's byte for byte (the layout-search pass adopts
    the injected record).  Shared by ``executor="ensemble"`` (in
    process) and the hybrid executor's shard workers
    (:mod:`repro.engine.shared`) — callers gate on
    :func:`ensemble_eligible` first.
    """
    from repro.pipeline.runner import get_pipeline

    searches = ensemble_layout_search(
        coupling,
        decompose_like_pipeline(circuit),
        seeds,
        config=config,
        num_traversals=num_traversals,
        distance=distance,
    )
    pipe = get_pipeline(pipeline)
    return [
        pipe.run(
            circuit,
            coupling,
            config=config,
            seed=seed,
            num_trials=1,
            num_traversals=num_traversals,
            distance=distance,
            executor=None,
            layout_search=search,
        )
        for seed, search in zip(seeds, searches)
    ]


def ensemble_layout_search(
    coupling: CouplingGraph,
    circuit: QuantumCircuit,
    seeds: Sequence[int],
    config: Optional[HeuristicConfig] = None,
    num_traversals: int = 3,
    distance: Optional[
        Union[FlatDistance, Sequence[Sequence[float]]]
    ] = None,
) -> List[BidirectionalResult]:
    """Run one bidirectional layout search per seed, in lockstep.

    Semantically ``[SabreLayout(..., num_trials=1, seed=s).run(circuit)
    for s in seeds]`` — same random initial mappings, same per-trial
    tie-break streams, same best-forward-traversal selection — but all
    K trials advance together through each traversal phase, sharing
    one K-row :class:`~repro.core.scoring.VectorBlock` so every
    scoring step is a single batched kernel call over all trials that
    are currently stuck on a wide front.

    ``circuit`` must already be in the routable basis (callers go
    through :func:`decompose_like_pipeline`).  Raises
    :class:`~repro.exceptions.MappingError` for configurations the
    vector scorer cannot serve (asymmetric distance matrix) — callers
    gate on :func:`ensemble_eligible` first.

    Multi-traversal searches run every traversal in *search mode*
    (:class:`~repro.core.router.SearchTrace`), exactly as the solo
    :meth:`SabreLayout.run <repro.core.bidirectional.SabreLayout.run>`
    does: no circuits are built during the sweep, and each trial's
    :class:`~repro.core.bidirectional.BestForward` replays only its
    winner into the byte-identical circuit the traversal would have
    emitted.  Single-traversal runs emit directly (the one forward
    traversal *is* the result).
    """
    from repro.core.layout import Layout
    from repro.engine.cache import get_flat_dag, get_flat_dag_pair

    if num_traversals < 1 or num_traversals % 2 == 0:
        raise MappingError(
            "num_traversals must be odd (forward-backward-...-forward), "
            f"got {num_traversals}"
        )
    if not seeds:
        raise ReproError("ensemble_layout_search needs at least one seed")
    router = SabreRouter(coupling, config=config, distance=distance)
    if router.scorer != "vector":
        raise MappingError(
            "the trial ensemble needs the vector scorer; this "
            f"configuration resolved to {router.scorer!r} "
            "(asymmetric distance matrix or explicit scorer override)"
        )
    if num_traversals > 1:
        forward_ir, reverse_ir = get_flat_dag_pair(circuit)
    else:
        forward_ir, reverse_ir = get_flat_dag(circuit), None
    n = coupling.num_qubits
    if forward_ir.num_qubits > n:
        raise MappingError(
            f"circuit has {forward_ir.num_qubits} logical qubits but device "
            f"{coupling.name!r} has only {n} physical qubits"
        )
    if not forward_ir.routable:
        for gate in forward_ir.gates:
            if gate.num_qubits > 2 and not gate.is_directive:
                raise MappingError(
                    f"gate {gate} has {gate.num_qubits} qubits; decompose "
                    "to the {1q, CNOT} basis before routing"
                )
    K = len(seeds)
    block = VectorBlock(
        router._vdev, router.config, router._buf_list, rows=K
    )
    config = router.config
    # Per-trial state threaded across traversal phases.
    layouts = [Layout.random(n, seed=s) for s in seeds]
    first_pass_swaps = [0] * K
    final_swaps = [0] * K
    best = [BestForward() for _ in range(K)]
    # A single forward traversal is necessarily each trial's best, so
    # it emits its circuit directly; longer sweeps run every traversal
    # in no-emission search mode and replay only the winners below.
    emitting = num_traversals == 1
    # One look-ahead memo per IR direction, shared by all K trials'
    # frontiers: the trials revisit each other's fronts, and a front's
    # extended set does not depend on the trial.  Search-mode sweeps
    # run on folded frontiers (two-qubit gates and barriers only).
    forward_memo: dict = {}
    reverse_memo: dict = {}
    folded = not emitting
    frontiers = {
        "forward": [
            FrontierState(forward_ir, ext_memo=forward_memo, folded=folded)
            for _ in range(K)
        ],
        "reverse": (
            [
                FrontierState(reverse_ir, ext_memo=reverse_memo, folded=folded)
                for _ in range(K)
            ]
            if reverse_ir is not None
            else []
        ),
    }
    for traversal in range(num_traversals):
        forward = traversal % 2 == 0
        ir = forward_ir if forward else reverse_ir
        phase_frontiers = frontiers["forward" if forward else "reverse"]
        # Fresh per-phase tie-break RNG per trial, exactly as the
        # serial path's router.run(seed=trial_seed) per traversal.
        rngs = [random.Random(s) for s in seeds]
        results: List[Optional[object]] = [None] * K
        gens = []
        for t in range(K):
            phase_frontiers[t].reset()
            decay = DecayArray(
                n,
                config.decay_delta,
                config.decay_reset_interval,
                values=block.dv[t],
            )
            gens.append(
                router._route_vector(
                    ir,
                    layouts[t].copy(),
                    rngs[t],
                    phase_frontiers[t],
                    block,
                    t,
                    decay,
                    emitting=emitting,
                )
            )
        # Lockstep rounds: advance every generator to its next kernel
        # request (or completion), then score all stuck rows at once.
        pending: List[int] = []
        for t in range(K):
            try:
                gens[t].send(None)
                pending.append(t)
            except StopIteration as stop:
                results[t] = stop.value
        profiler = active_router_profiler()
        while pending:
            if profiler is None:
                scored = block.score_rows(pending, rngs, emit_sets=False)
            else:
                t0 = time.perf_counter()
                scored = block.score_rows(pending, rngs, emit_sets=False)
                profiler.add_kernel(time.perf_counter() - t0)
                # One batched call advances every stuck trial one step;
                # the compacted candidate-lane count covers the whole
                # batch, and tie sizes are unavailable (emit_sets off).
                profiler.record_step(int(getattr(block, "_lane_c", -1)), 0)
            advanced: List[int] = []
            for t in pending:
                try:
                    gens[t].send(scored[t])
                    advanced.append(t)
                except StopIteration as stop:
                    results[t] = stop.value
            pending = advanced
        for t in range(K):
            result = results[t]
            layouts[t] = result.final_layout
            if traversal == 0:
                first_pass_swaps[t] = result.num_swaps
            final_swaps[t] = result.num_swaps
            if forward:
                best[t].offer(result)
    # Each trial's winning forward traversal becomes a real circuit:
    # emitted already (single traversal) or replayed from its trace,
    # byte-identical to what the traversal would have built.
    return [
        best[t].result(
            router,
            forward_ir,
            [
                TrialRecord(
                    seed=seeds[t],
                    first_pass_swaps=first_pass_swaps[t],
                    final_swaps=final_swaps[t],
                )
            ],
        )
        for t in range(K)
    ]
