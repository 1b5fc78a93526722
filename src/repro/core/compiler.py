"""One-call public API: :func:`compile_circuit`.

Executes the ``paper_default`` pass pipeline
(:mod:`repro.pipeline`) the way the paper's evaluation ran it: basis
decomposition -> (optional) reverse-traversal layout search ->
SWAP-based routing -> metrics.  Everything is deterministic given
``seed``.

Two execution paths share this front door:

- the **direct path** (``executor=None``): the paper's configuration —
  one :class:`~repro.core.bidirectional.SabreLayout` search whose
  random restarts run in-process;
- the **engine path** (``executor="serial"``/``"parallel"``/``"auto"``):
  the sweep is dispatched through :mod:`repro.engine.trials`.  For the
  default ``g_add`` objective it runs the same layout search, in
  process or split into seed shards across a worker pool, and keeps
  the same winner as the direct path; other objectives run one
  pipeline per seed and rank them by ``objective``.

Either way the device's distance matrix is resolved through the engine
cache (:mod:`repro.engine.cache`), so repeated calls against one device
pay the O(N^3) Floyd-Warshall preprocessing once per process — and the
circuit is lowered into its compile-once flat IR
(:class:`~repro.circuits.flatdag.FlatDag`) through the same cache, so
repeated trials/traversals/calls against one circuit lower it once per
direction per process.

Other scenarios — noise-aware distances, directed-coupling
legalisation, bridge rewrites, baseline routers — are other pipelines:
pass ``pipeline="noise_aware"`` (or any name from
:func:`repro.pipeline.presets.preset_names`), or build a custom one
with :func:`repro.pipeline.compose_pipeline` / an explicit pass list.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.decompositions import needs_cx_decomposition
from repro.core.heuristic import HeuristicConfig
from repro.core.layout import Layout
from repro.core.result import MappingResult
from repro.core.scoring import FlatDistance
from repro.hardware.coupling import CouplingGraph


def _needs_decomposition(circuit: QuantumCircuit) -> bool:
    """Back-compat alias for :func:`needs_cx_decomposition` (which
    memoises the answer on the circuit instance)."""
    return needs_cx_decomposition(circuit)


def compile_circuit(
    circuit: QuantumCircuit,
    coupling: CouplingGraph,
    config: Optional[HeuristicConfig] = None,
    seed: int = 0,
    num_trials: Optional[int] = None,
    num_traversals: Optional[int] = None,
    initial_layout: Optional[Layout] = None,
    distance: Optional[Union[FlatDistance, Sequence[Sequence[float]]]] = None,
    objective: str = "g_add",
    executor: Optional[str] = None,
    jobs: Optional[int] = None,
    pipeline: str = "paper_default",
) -> MappingResult:
    """Map ``circuit`` onto ``coupling`` with SABRE.

    Args:
        circuit: logical circuit; 3-qubit gates and explicit SWAPs are
            decomposed into the {1q, CNOT} basis automatically.
        coupling: device coupling graph (must be connected).
        config: heuristic knobs; defaults to the paper's evaluation
            configuration (|E|=20, W=0.5, delta=0.001, decay mode).
        seed: base RNG seed (tie-breaks and random restarts).
        num_trials: random initial mappings to try; ``None`` defers to
            the pipeline preset's default (paper: 5).
        num_traversals: traversals per trial, odd; ``None`` defers to
            the preset's default (paper: 3 = forward-backward-forward).
            ``1`` disables the reverse traversal (the paper's ``g_la``
            configuration).
        initial_layout: skip the layout search and route once from this
            mapping (useful for controlled experiments).
        distance: optional precomputed distance matrix for the device
            (resolved through the engine cache when omitted).
        objective: winner-selection metric for the engine path —
            ``"g_add"`` (paper default), ``"depth"``, or ``"weighted"``.
        executor: ``None`` (direct in-process search), ``"serial"``
            (engine path, in-process), ``"parallel"`` (engine path, seed
            shards across a worker pool), or ``"auto"`` (parallel when
            there are several trials and workers).  A non-default
            ``objective`` implies at least the serial engine path.
        jobs: worker count for ``executor="parallel"``/``"auto"``.
        pipeline: named pass-pipeline preset to execute
            (default: the paper's flow).

    Returns:
        A :class:`~repro.core.result.MappingResult`; its
        ``physical_circuit()`` is hardware-compliant and semantically
        equivalent to the input (up to the final qubit permutation
        recorded in ``final_layout``), and its ``properties`` carry the
        pipeline's per-pass timings and derived metrics.
    """
    from repro.pipeline.runner import get_pipeline

    return get_pipeline(pipeline).run(
        circuit,
        coupling,
        config=config,
        seed=seed,
        num_trials=num_trials,
        num_traversals=num_traversals,
        initial_layout=initial_layout,
        distance=distance,
        objective=objective,
        executor=executor,
        jobs=jobs,
    )
