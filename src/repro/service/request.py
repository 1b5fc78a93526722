"""The service's unit of work: a validated, fingerprintable request.

A compilation request is *content-addressed*: two requests that would
provably produce the same artifact — same circuit gate list, same
device structure, same pipeline preset and heuristic configuration,
same seed/trial/objective settings — share one fingerprint, and
therefore one store entry and one in-flight computation.  The
fingerprint is computed from the *parsed* circuit, not the QASM text,
so whitespace, comments, and register-name differences between two
submissions of the same circuit still coalesce.

:func:`execute_request` is the single compile path every scheduler
worker runs: parse -> shared device -> named pipeline -> routed QASM +
JSON-safe metrics, packaged as a :class:`~repro.service.store.StoredResult`.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.analysis.metrics import json_safe_properties, result_metrics
from repro.circuits.circuit import QuantumCircuit
from repro.core.heuristic import MODES, HeuristicConfig
from repro.engine.cache import coupling_fingerprint, get_cached_device
from repro.engine.trials import OBJECTIVES, PROPERTY_OBJECTIVE_PREFIX
from repro.exceptions import ReproError
from repro.pipeline.presets import get_preset
from repro.qasm import emit_qasm, parse_qasm

#: HeuristicConfig fields a request may override, with their types.
#: Kept explicit (rather than introspected) so the wire format is a
#: deliberate, documented surface.
CONFIG_FIELDS: Dict[str, type] = {
    "mode": str,
    "extended_set_size": int,
    "extended_set_weight": float,
    "decay_delta": float,
    "decay_reset_interval": int,
    "swap_cost_penalty": float,
}


class RequestError(ReproError):
    """A malformed or unsatisfiable compilation request.

    The HTTP layer maps this (and any :class:`ReproError` raised while
    parsing the request body) to a 400 response.
    """


@dataclass(frozen=True)
class CompileRequest:
    """One compilation the service has been asked to perform.

    Attributes:
        qasm: OpenQASM 2.0 source of the logical circuit.
        device: named device in the registry
            (:data:`repro.hardware.devices.DEVICE_BUILDERS`).
        pipeline: pass-pipeline preset name
            (:func:`repro.pipeline.presets.preset_names`).
        seed: base seed of the best-of-K trial pool.
        num_trials / num_traversals: search fan-out; ``None`` defers to
            the preset's defaults (paper: 5 trials, 3 traversals).
        objective: trial-winner selection metric.
        config: HeuristicConfig overrides (see :data:`CONFIG_FIELDS`).
    """

    qasm: str
    device: str = "ibm_q20_tokyo"
    pipeline: str = "paper_default"
    seed: int = 0
    num_trials: Optional[int] = None
    num_traversals: Optional[int] = None
    objective: str = "g_add"
    config: Tuple[Tuple[str, object], ...] = field(default_factory=tuple)

    # ------------------------------------------------------------------
    # Construction / validation
    # ------------------------------------------------------------------

    @classmethod
    def from_payload(cls, payload: object) -> "CompileRequest":
        """Build a validated request from a decoded JSON body.

        Accepted keys: ``qasm`` (required), ``device``, ``pipeline``,
        ``seed``, ``trials``, ``traversals``, ``objective``, ``config``.
        Unknown keys are rejected so client typos fail loudly instead of
        silently compiling with defaults.
        """
        if not isinstance(payload, dict):
            raise RequestError(
                f"request body must be a JSON object, got {type(payload).__name__}"
            )
        # ``priority``/``timeout`` (scheduling) and ``trace``/``profile``
        # (telemetry) are knobs consumed by the HTTP layer — they are
        # never dataclass fields, so they can never leak into the
        # fingerprint and split the content-addressed store; accepted
        # here so batch items carrying them validate cleanly.
        known = {
            "qasm", "device", "pipeline", "seed", "trials", "traversals",
            "objective", "config", "priority", "timeout", "trace",
            "profile",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise RequestError(
                f"unknown request field(s) {unknown}; accepted: {sorted(known)}"
            )
        qasm = payload.get("qasm")
        if not isinstance(qasm, str) or not qasm.strip():
            raise RequestError("request needs a non-empty 'qasm' string")

        def _int(key: str, default: Optional[int]) -> Optional[int]:
            value = payload.get(key, default)
            if value is None:
                return None
            if isinstance(value, bool) or not isinstance(value, int):
                raise RequestError(f"field {key!r} must be an integer")
            return value

        config_raw = payload.get("config") or {}
        if not isinstance(config_raw, dict):
            raise RequestError("field 'config' must be a JSON object")
        config_items = []
        for key in sorted(config_raw):
            if key not in CONFIG_FIELDS:
                raise RequestError(
                    f"unknown config field {key!r}; "
                    f"accepted: {sorted(CONFIG_FIELDS)}"
                )
            try:
                config_items.append((key, CONFIG_FIELDS[key](config_raw[key])))
            except (TypeError, ValueError):
                raise RequestError(
                    f"config field {key!r} must be of type "
                    f"{CONFIG_FIELDS[key].__name__}, got {config_raw[key]!r}"
                ) from None

        request = cls(
            qasm=qasm,
            device=str(payload.get("device", "ibm_q20_tokyo")),
            pipeline=str(payload.get("pipeline", "paper_default")),
            seed=_int("seed", 0),
            num_trials=_int("trials", None),
            num_traversals=_int("traversals", None),
            objective=str(payload.get("objective", "g_add")),
            config=tuple(config_items),
        )
        request.validate()
        return request

    def validate(self) -> None:
        """Cheap structural checks (no QASM parse, no device build)."""
        get_preset(self.pipeline)  # raises with the available names
        if (
            self.objective not in OBJECTIVES
            and not self.objective.startswith(PROPERTY_OBJECTIVE_PREFIX)
        ):
            raise RequestError(
                f"unknown objective {self.objective!r}; available: "
                f"{sorted(OBJECTIVES)} or '{PROPERTY_OBJECTIVE_PREFIX}<key>'"
            )
        if self.num_trials is not None and self.num_trials < 1:
            raise RequestError("trials must be >= 1")
        if self.num_traversals is not None and self.num_traversals < 1:
            raise RequestError("traversals must be >= 1")
        config = dict(self.config)
        mode = config.get("mode")
        if mode is not None and mode not in MODES:
            raise RequestError(
                f"unknown heuristic mode {mode!r}; available: {sorted(MODES)}"
            )
        # Runs every HeuristicConfig check (ranges, finiteness) up front,
        # so a bad knob is rejected before anything is queued.
        self.heuristic_config()

    # ------------------------------------------------------------------
    # Content addressing
    # ------------------------------------------------------------------

    def parsed_circuit(self) -> QuantumCircuit:
        """The request's circuit, parsed fresh (QASM errors surface here)."""
        return parse_qasm(self.qasm)

    def raw_digest(self) -> str:
        """Digest of the request as submitted: the QASM text and every
        field.  Equal digests imply equal :meth:`fingerprint` s, so the
        scheduler can answer a byte-identical resubmission without
        parsing it again."""
        digest = hashlib.sha256(self.qasm.encode("utf-8"))
        digest.update(
            repr(
                (
                    self.device,
                    self.pipeline,
                    self.config,
                    self.seed,
                    self.num_trials,
                    self.num_traversals,
                    self.objective,
                )
            ).encode("utf-8")
        )
        return digest.hexdigest()

    def fingerprint(self, circuit: Optional[QuantumCircuit] = None) -> str:
        """Content address of this request (sha256 hex digest).

        Keyed on the parsed gate list — not the QASM bytes — plus the
        device's *structural* fingerprint (so a renamed but identical
        topology still hits) and every knob that can change the output:
        pipeline preset, heuristic config, seed, trials, traversals,
        objective.  The circuit name is deliberately excluded: it decides
        the routed circuit's *name*, not its gates, and the response
        carries the name outside the artifact key.
        """
        if circuit is None:
            circuit = self.parsed_circuit()
        coupling = get_cached_device(self.device)
        parts = (
            "repro-service-v1",
            (circuit.num_qubits, circuit.num_clbits, circuit.gates),
            coupling_fingerprint(coupling),
            self.pipeline,
            self.config,
            self.seed,
            self.num_trials,
            self.num_traversals,
            self.objective,
        )
        return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()

    def summary(self) -> Dict[str, object]:
        """JSON-safe echo of the request (minus the QASM body)."""
        return {
            "device": self.device,
            "pipeline": self.pipeline,
            "seed": self.seed,
            "trials": self.num_trials,
            "traversals": self.num_traversals,
            "objective": self.objective,
            "config": dict(self.config),
        }

    def heuristic_config(self) -> Optional[HeuristicConfig]:
        """The request's HeuristicConfig, or ``None`` for paper defaults."""
        if not self.config:
            return None
        return HeuristicConfig(**dict(self.config))


def trial_executor_decision(request: CompileRequest, trial_jobs: int):
    """The multi-trial executor a lane with ``trial_jobs`` cores runs.

    Returns an :class:`~repro.engine.shared.ExecutorDecision`, or
    ``None`` when the request's effective trial count is 1 (nothing to
    fan out — the default serial path stays).  Deterministic in the
    request and ``trial_jobs`` (the host's core count is deliberately
    *not* consulted), so every lane of every replica makes the same
    choice for the same request.
    """
    from repro.engine.shared import choose_executor
    from repro.pipeline.runner import get_pipeline

    pipe = get_pipeline(request.pipeline)
    num_trials = request.num_trials
    if num_trials is None:
        num_trials = pipe.defaults.get("num_trials", 5)
    if num_trials is None or num_trials <= 1:
        return None
    return choose_executor(num_trials, cores=trial_jobs)


def execute_request(
    request: CompileRequest,
    circuit: Optional[QuantumCircuit] = None,
    key: Optional[str] = None,
    trial_jobs: Optional[int] = None,
):
    """Run one request through its pipeline; return a StoredResult.

    This is the only place the service actually compiles.  By default
    requests run on the serial engine path (``executor=None``): the
    scheduler's worker pool already provides request-level concurrency,
    and nesting a process pool inside every worker thread would
    oversubscribe the host for no quality gain.

    ``trial_jobs`` is the opt-in multi-core sweep knob (``repro serve
    --trial-jobs N``): it grants each compile that many cores for its
    best-of-K sweep, routed through the engine's executor chooser
    (seed shards across ``N`` workers when ``N > 1``).  It changes
    where the trials run, never which one wins: the routed output is
    the same with or without it.

    ``circuit`` and ``key`` accept the parse and fingerprint the
    scheduler already performed at submission, so a scheduled compile
    never repeats that work; both are recomputed when omitted (direct
    library use).
    """
    from repro.pipeline.runner import get_pipeline
    from repro.service.store import StoredResult
    from repro.telemetry.trace import span

    started = time.perf_counter()
    if circuit is None:
        circuit = request.parsed_circuit()
    coupling = get_cached_device(request.device)
    executor = None
    jobs = None
    if trial_jobs is not None and trial_jobs >= 1:
        decision = trial_executor_decision(request, trial_jobs)
        if decision is not None:
            executor = decision.executor
            jobs = decision.jobs
    with span("request.execute") as exec_span:
        exec_span.set("device", request.device)
        exec_span.set("pipeline", request.pipeline)
        result = get_pipeline(request.pipeline).run(
            circuit,
            coupling,
            config=request.heuristic_config(),
            seed=request.seed,
            num_trials=request.num_trials,
            num_traversals=request.num_traversals,
            objective=request.objective,
            executor=executor,
            jobs=jobs,
        )
        routed = result.physical_circuit(decompose_swaps=True)
    return StoredResult(
        key=key if key is not None else request.fingerprint(circuit),
        routed_qasm=emit_qasm(routed),
        metrics=result_metrics(result),
        properties=json_safe_properties(result.properties),
        request=request.summary(),
        compile_seconds=time.perf_counter() - started,
        created_at=time.time(),
    )
