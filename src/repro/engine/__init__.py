"""Multi-trial, batch-capable compilation engine.

The paper evaluates SABRE one circuit and one seed at a time; a
production mapping service runs *many* seeded trials per circuit (the
result quality is seed-dependent), compiles whole suites at once, and
must not recompute per-device preprocessing on every call.  This
package supplies those three layers:

- :mod:`repro.engine.cache` — process-local memoisation of distance
  matrices and device objects (keyed on a structural fingerprint of
  the coupling graph) and of compile-once circuit IRs
  (:class:`~repro.circuits.flatdag.FlatDag`, keyed on the circuit's
  gate-content fingerprint) so repeated trials never re-lower.
- :mod:`repro.engine.trials` — best-of-K seeded trials with a
  configurable objective, under the serial or parallel executor.  A
  ``g_add`` sweep runs the plain layout search's restart loop (one per
  seed shard) and merges and replays the winner in the parent; other
  objectives run one pipeline per seed.
- :mod:`repro.engine.shared` — the parallel executor's machinery:
  shard planning, the automatic executor chooser, the start-method
  resolver, and the shard runner (one worker pool that runs
  ``(sweep_index, seeds)`` jobs for ``run_trials`` and
  ``compile_many`` alike).
- :mod:`repro.engine.ensemble` — the predicate deciding which sweeps
  may run as the plain layout search.
- :mod:`repro.engine.batch` — ``compile_many``: fan a whole suite's
  (circuit, seed-shard) jobs across the same shard runner and finish
  each circuit with ``run_trials``' own code.

``repro.core.compiler.compile_circuit`` fronts the trial engine via its
``executor``/``objective``/``jobs`` options; the CLI exposes them as
``--trials``, ``--jobs``, ``--executor``, and ``--objective``.
"""

from repro.engine.cache import (
    CacheInfo,
    DeviceCache,
    GLOBAL_CACHE,
    cache_info,
    cache_stats,
    circuit_fingerprint,
    clear_cache,
    coupling_fingerprint,
    get_cached_device,
    get_distance_matrix,
    get_flat_dag,
    get_flat_distance_matrix,
)
from repro.engine.trials import (
    EXECUTORS,
    OBJECTIVES,
    PROPERTY_OBJECTIVE_PREFIX,
    TrialResult,
    TrialsOutcome,
    objective_value,
    run_trials,
    select_winner,
)
from repro.engine.batch import BatchReport, CircuitReport, compile_many
from repro.engine.shared import (
    ExecutorDecision,
    choose_executor,
    plan_shards,
)

__all__ = [
    "CacheInfo",
    "DeviceCache",
    "GLOBAL_CACHE",
    "cache_info",
    "cache_stats",
    "circuit_fingerprint",
    "clear_cache",
    "coupling_fingerprint",
    "get_cached_device",
    "get_distance_matrix",
    "get_flat_dag",
    "get_flat_distance_matrix",
    "EXECUTORS",
    "OBJECTIVES",
    "PROPERTY_OBJECTIVE_PREFIX",
    "TrialResult",
    "TrialsOutcome",
    "objective_value",
    "run_trials",
    "select_winner",
    "BatchReport",
    "CircuitReport",
    "compile_many",
    "ExecutorDecision",
    "choose_executor",
    "plan_shards",
]
