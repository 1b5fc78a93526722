"""Named pipelines: the scenarios the mapper ships ready-made.

A preset is a pass list plus run-parameter defaults.  ``Pipeline`` (and
therefore ``compile_circuit``, the trial engine, and the CLI) resolves
presets by name; :func:`compose_pipeline` derives ad-hoc combinations
— noise-aware routing on a directed device with bridge peepholes is a
three-flag call, not hand-rolled glue.

Pass instances are stateless (all mutable state lives on the
:class:`~repro.pipeline.context.CompilationContext`), so each preset's
pass list is built once and shared process-wide.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.exceptions import ReproError
from repro.pipeline.base import Pass
from repro.pipeline.passes import (
    BaselineRoutePass,
    BridgeRewrite,
    CollectMetrics,
    ComplianceCheck,
    DecomposeToBasis,
    LegalizeDirections,
    NoiseAwareDistance,
    PerfectEmbedding,
    ResolveDistance,
    SabreLayoutPass,
    SabreRoutePass,
)

#: A preset: (pass factory, run-parameter defaults, one-line summary).
PresetSpec = Tuple[Callable[[], List[Pass]], Dict[str, object], str]


def _paper_passes() -> List[Pass]:
    return [
        DecomposeToBasis(),
        ResolveDistance(),
        SabreLayoutPass(),
        SabreRoutePass(),
        CollectMetrics(),
    ]


def _best_effort_passes() -> List[Pass]:
    return [
        DecomposeToBasis(),
        PerfectEmbedding(),
        ResolveDistance(),
        SabreLayoutPass(),
        SabreRoutePass(),
        CollectMetrics(),
    ]


def _noise_aware_passes() -> List[Pass]:
    return [
        DecomposeToBasis(),
        NoiseAwareDistance(),
        ResolveDistance(),
        SabreLayoutPass(),
        SabreRoutePass(),
        CollectMetrics(),
    ]


def _directed_passes() -> List[Pass]:
    return [
        DecomposeToBasis(),
        ResolveDistance(),
        SabreLayoutPass(),
        SabreRoutePass(),
        LegalizeDirections(),
        ComplianceCheck(),
        CollectMetrics(),
    ]


def _bridge_passes() -> List[Pass]:
    return [
        DecomposeToBasis(),
        ResolveDistance(),
        SabreLayoutPass(),
        SabreRoutePass(),
        BridgeRewrite(),
        ComplianceCheck(),
        CollectMetrics(),
    ]


def _baseline_passes(baseline: str) -> Callable[[], List[Pass]]:
    def build() -> List[Pass]:
        return [
            DecomposeToBasis(),
            ResolveDistance(),
            BaselineRoutePass(baseline),
            ComplianceCheck(),
            CollectMetrics(),
        ]

    return build


PRESETS: Dict[str, PresetSpec] = {
    # The paper's evaluation flow, verbatim: decompose -> reverse-
    # traversal layout search -> SWAP routing -> metrics.  This is what
    # compile_circuit runs; its outputs are byte-identical to the
    # pre-pipeline implementation (the differential suite enforces it).
    "paper_default": (_paper_passes, {}, "the paper's SABRE flow"),
    # One trial, one traversal: the latency-first configuration.
    "fast": (
        _paper_passes,
        {"num_trials": 1, "num_traversals": 1},
        "single-trial single-traversal (lowest latency)",
    ),
    # Try to *prove* a zero-SWAP mapping first (subgraph embedding);
    # fall through to the full search when none exists.
    "best_effort": (
        _best_effort_passes,
        {},
        "perfect-embedding shortcut, then the full search",
    ),
    # Error-weighted distances steer routing around bad couplings.
    "noise_aware": (
        _noise_aware_passes,
        {},
        "noise-weighted distances (needs noise=...)",
    ),
    # Directed-coupling devices: legalise CNOT directions after routing
    # and verify nothing illegal escapes.
    "directed_device": (
        _directed_passes,
        {},
        "route + H-conjugate reversed CNOTs + verify",
    ),
    # SWAP+CNOT -> bridge peephole after routing.
    "bridge": (
        _bridge_passes,
        {},
        "route + bridge distance-2 CNOT peephole + verify",
    ),
    "baseline_trivial": (
        _baseline_passes("trivial"),
        {},
        "shortest-path SWAP-chain baseline under pipeline verification",
    ),
    "baseline_greedy": (
        _baseline_passes("greedy"),
        {},
        "Siraichi-style greedy baseline under pipeline verification",
    ),
    "baseline_astar": (
        _baseline_passes("astar"),
        {},
        "Zulehner-style A* baseline under pipeline verification",
    ),
}


def get_preset(name: str) -> PresetSpec:
    """Look up a named preset or raise with the available names."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ReproError(
            f"unknown pipeline preset {name!r}; available: {sorted(PRESETS)}"
        ) from None


def preset_names() -> List[str]:
    return sorted(PRESETS)


def compose_pipeline(
    base: str = "paper_default",
    noise_aware: bool = False,
    bridge: bool = False,
    legalize_directions: bool = False,
    verify: Optional[bool] = None,
):
    """Derive a pipeline by composing extension passes onto a preset.

    This is the "hand-rolled glue" eliminated: any combination of the
    §VI extensions is one call.  ``verify`` defaults to True whenever a
    post-routing rewrite is enabled (so illegal CX directions cannot
    escape silently) and to whatever the base preset does otherwise.

    Order is fixed by data flow: the noise-aware distance must precede
    the search; the bridge rewrite works on the SWAP-form routing so it
    precedes direction legalisation; verification precedes metrics.

    Returns:
        A fresh :class:`~repro.pipeline.runner.Pipeline`.
    """
    from repro.pipeline.runner import Pipeline

    factory, defaults, _ = get_preset(base)
    passes = factory()
    if verify is None:
        verify = bridge or legalize_directions

    def has(kind) -> bool:
        return any(isinstance(p, kind) for p in passes)

    if noise_aware and not has(NoiseAwareDistance):
        anchor = next(
            (i for i, p in enumerate(passes) if isinstance(p, ResolveDistance)),
            len(passes),
        )
        passes.insert(anchor, NoiseAwareDistance())
    if bridge and not has(BridgeRewrite):
        # The bridge rewrites the SWAP-form routing, so it must precede
        # direction legalisation (which expands SWAPs away) and any
        # verification already in the base preset.
        anchor = next(
            (
                i
                for i, p in enumerate(passes)
                if isinstance(
                    p, (LegalizeDirections, ComplianceCheck, CollectMetrics)
                )
            ),
            len(passes),
        )
        passes.insert(anchor, BridgeRewrite())
    tail = next(
        (
            i
            for i, p in enumerate(passes)
            if isinstance(p, (ComplianceCheck, CollectMetrics))
        ),
        len(passes),
    )
    if legalize_directions and not has(LegalizeDirections):
        passes.insert(tail, LegalizeDirections())
        tail += 1
    if verify and not has(ComplianceCheck):
        passes.insert(tail, ComplianceCheck())

    flags = [
        name
        for enabled, name in (
            (noise_aware, "noise"),
            (bridge, "bridge"),
            (legalize_directions, "directed"),
        )
        if enabled
    ]
    name = base if not flags else f"{base}+{'+'.join(flags)}"
    return Pipeline(passes, name=name, defaults=dict(defaults))
