"""The ``Pipeline`` runner: execute passes over one shared context.

``Pipeline("paper_default").run(circuit, device)`` is the composition
surface the whole stack fronts: ``compile_circuit`` executes it, each
engine trial executes one, the CLI selects one by name, and extensions
are rows in its pass list rather than forks of the compile flow.

The runner owns the cross-cutting concerns so passes stay small:
input validation (identical errors to the historical front door),
run-parameter defaulting (preset defaults under caller overrides),
per-pass wall-clock timing into the :class:`PropertySet`, and the
analysis-pass invariant (an analysis pass must not replace the working
circuit, the routing, or the final output).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Union

from repro.circuits.circuit import QuantumCircuit
from repro.core.bidirectional import BidirectionalResult
from repro.core.heuristic import HeuristicConfig
from repro.core.layout import Layout
from repro.core.result import MappingResult
from repro.core.scoring import FlatDistance
from repro.exceptions import MappingError, ReproError
from repro.hardware.coupling import CouplingGraph
from repro.hardware.noise import NoiseModel
from repro.pipeline.base import Pass
from repro.pipeline.context import CompilationContext, PropertySet
from repro.telemetry.trace import span


class Pipeline:
    """A declarative compiler: an ordered pass list plus defaults.

    Args:
        passes: a preset name (see
            :func:`repro.pipeline.presets.preset_names`) or an explicit
            pass sequence.
        name: display name; defaults to the preset name or "custom".
        defaults: run-parameter defaults applied when the caller leaves
            the corresponding ``run`` argument unset (presets use this —
            e.g. ``fast`` pins ``num_trials=1, num_traversals=1``).

    Example::

        from repro.pipeline import Pipeline

        result = Pipeline("noise_aware").run(
            circuit, device, noise=noise_model, seed=0
        )
        print(result.properties.timing_report())
    """

    def __init__(
        self,
        passes: Union[str, Sequence[Pass]],
        name: Optional[str] = None,
        defaults: Optional[Dict[str, object]] = None,
    ) -> None:
        if isinstance(passes, str):
            from repro.pipeline.presets import get_preset

            factory, preset_defaults, _ = get_preset(passes)
            self.passes: List[Pass] = factory()
            self.name = name or passes
            self.defaults = dict(preset_defaults)
            if defaults:
                self.defaults.update(defaults)
        else:
            self.passes = list(passes)
            self.name = name or "custom"
            self.defaults = dict(defaults or {})
        for p in self.passes:
            if not isinstance(p, Pass):
                raise ReproError(
                    f"pipeline {self.name!r} entry {p!r} is not a Pass"
                )

    def __repr__(self) -> str:
        names = ", ".join(p.name for p in self.passes)
        return f"Pipeline({self.name!r}: [{names}])"

    def _default(self, key: str, value, fallback):
        if value is not None:
            return value
        return self.defaults.get(key, fallback)

    def run(
        self,
        circuit: QuantumCircuit,
        coupling: CouplingGraph,
        config: Optional[HeuristicConfig] = None,
        seed: Optional[int] = None,
        num_trials: Optional[int] = None,
        num_traversals: Optional[int] = None,
        initial_layout: Optional[Layout] = None,
        distance: Optional[
            Union[FlatDistance, Sequence[Sequence[float]]]
        ] = None,
        objective: Optional[str] = None,
        executor: Optional[str] = None,
        jobs: Optional[int] = None,
        noise: Optional[NoiseModel] = None,
        seeds: Optional[Sequence[int]] = None,
        layout_search: Optional[BidirectionalResult] = None,
    ) -> MappingResult:
        """Execute every pass over a fresh context; return the result.

        Parameters mirror :func:`repro.core.compiler.compile_circuit`;
        ``None`` means "preset default, else the paper's value".
        ``noise`` feeds noise-aware passes.  ``seeds`` replaces the
        ``seed .. seed + num_trials - 1`` trial range with an explicit
        list of distinct seeds (``num_trials`` becomes its length).
        ``layout_search`` is a finished layout search over those seeds
        for ``SabreLayoutPass`` to adopt instead of searching: how the
        engine runs the passes around a sweep it searched in seed
        shards and merged.  The returned :class:`MappingResult` carries
        the run's property set (``result.properties``) including
        per-pass timings.
        """
        coupling.require_connected()
        if circuit.num_qubits > coupling.num_qubits:
            raise MappingError(
                f"circuit {circuit.name!r} needs {circuit.num_qubits} qubits; "
                f"device {coupling.name!r} has {coupling.num_qubits}"
            )
        if distance is not None and not isinstance(distance, FlatDistance):
            distance = FlatDistance.from_matrix(distance)
        context = CompilationContext(
            circuit=circuit,
            coupling=coupling,
            config=self._default("config", config, None),
            seed=self._default("seed", seed, 0),
            num_trials=(
                len(seeds)
                if seeds is not None
                else self._default("num_trials", num_trials, 5)
            ),
            num_traversals=self._default("num_traversals", num_traversals, 3),
            objective=self._default("objective", objective, "g_add"),
            executor=self._default("executor", executor, None),
            jobs=self._default("jobs", jobs, None),
            noise=noise,
            initial_layout=initial_layout,
            seeds=list(seeds) if seeds is not None else None,
            distance=distance,
            layout_search=layout_search,
            properties=PropertySet(),
        )
        context.properties["pipeline.name"] = self.name
        with span("pipeline.run") as pipeline_span:
            pipeline_span.set("preset", self.name)
            for pass_ in self.passes:
                before = None
                if pass_.is_analysis:
                    before = self._program_state(context)
                started = time.perf_counter()
                with span(f"pass.{pass_.name}"):
                    pass_.run(context)
                context.properties.record_timing(
                    pass_.name, time.perf_counter() - started
                )
                if before is not None and before != self._program_state(
                    context
                ):
                    raise ReproError(
                        f"analysis pass {pass_.name!r} mutated the program "
                        "state; rewrite passes must subclass TransformPass"
                    )
        if context.result is None:
            raise ReproError(
                f"pipeline {self.name!r} produced no MappingResult; "
                "did you forget the CollectMetrics terminal pass?"
            )
        return context.result

    @staticmethod
    def _program_state(context: CompilationContext):
        """Fingerprint of the mutable program state an analysis pass
        must not touch: object identities plus the circuits' mutation
        counters (catching in-place appends, not just replacement)."""
        routing = context.routing
        return (
            id(context.working),
            getattr(context.working, "_mutations", None),
            id(routing),
            None if routing is None else routing.circuit._mutations,
            id(context.final_circuit),
            getattr(context.final_circuit, "_mutations", None),
        )


#: Process-wide preset pipeline singletons (passes are stateless, so a
#: shared instance per preset name is safe and keeps the per-compile
#: overhead of the pipeline layer to a dictionary lookup).
_SHARED: Dict[str, Pipeline] = {}


def get_pipeline(preset: str) -> Pipeline:
    """The shared :class:`Pipeline` instance for a preset name."""
    pipeline = _SHARED.get(preset)
    if pipeline is None:
        pipeline = Pipeline(preset)
        _SHARED[preset] = pipeline
    return pipeline
