"""Unit tests for the pass-pipeline compiler surface."""

import pytest

from repro.circuits import QuantumCircuit, random_circuit
from repro.circuits.decompositions import needs_cx_decomposition
from repro.core import HeuristicConfig, Layout, compile_circuit
from repro.engine import run_trials
from repro.engine.trials import objective_value
from repro.exceptions import MappingError, ReproError, VerificationError
from repro.hardware import line_device, ring_device
from repro.hardware.devices import ibm_qx5
from repro.hardware.noise import NoiseModel
from repro.pipeline import (
    PRESETS,
    AnalysisPass,
    CollectMetrics,
    ComplianceCheck,
    CompilationContext,
    DecomposeToBasis,
    Pipeline,
    PropertySet,
    ResolveDistance,
    SabreLayoutPass,
    SabreRoutePass,
    compose_pipeline,
    get_pipeline,
    preset_names,
)
from repro.verify import is_hardware_compliant


class TestPresets:
    def test_registry_names(self):
        assert "paper_default" in preset_names()
        for expected in (
            "fast",
            "best_effort",
            "noise_aware",
            "directed_device",
            "bridge",
            "baseline_trivial",
            "baseline_greedy",
            "baseline_astar",
        ):
            assert expected in PRESETS

    def test_unknown_preset_raises(self):
        with pytest.raises(ReproError, match="unknown pipeline preset"):
            Pipeline("no_such_preset")

    def test_shared_instances(self):
        assert get_pipeline("paper_default") is get_pipeline("paper_default")

    def test_fast_preset_defaults(self, tokyo, random6):
        result = Pipeline("fast").run(random6, tokyo, seed=3)
        assert result.num_trials == 1
        assert result.num_traversals == 1
        # Explicit overrides still win over preset defaults.
        result = Pipeline("fast").run(random6, tokyo, seed=3, num_trials=2)
        assert result.num_trials == 2

    def test_every_preset_produces_compliant_output(self, random6):
        device = line_device(6)
        noise = NoiseModel(edge_errors={(0, 1): 0.2, (3, 4): 0.1})
        for name in preset_names():
            kwargs = {"noise": noise} if name == "noise_aware" else {}
            result = Pipeline(name).run(random6, device, seed=1, **kwargs)
            assert is_hardware_compliant(
                result.physical_circuit(), device
            ), f"preset {name} emitted a non-compliant circuit"
            assert result.properties["pipeline.name"] == name


class TestRunner:
    def test_records_one_timing_per_pass(self, tokyo, ghz5):
        pipeline = Pipeline("paper_default")
        result = pipeline.run(ghz5, tokyo, seed=0)
        names = [name for name, _ in result.properties.pass_timings]
        assert names == [p.name for p in pipeline.passes]
        assert all(t >= 0.0 for _, t in result.properties.pass_timings)
        assert "DecomposeToBasis" in result.properties.timing_report()

    def test_too_large_circuit_raises(self, ghz5):
        with pytest.raises(MappingError, match="needs 5 qubits"):
            Pipeline("paper_default").run(ghz5, ring_device(4))

    def test_non_pass_entry_rejected(self):
        with pytest.raises(ReproError, match="is not a Pass"):
            Pipeline([object()])

    def test_missing_collect_metrics(self, tokyo, ghz5):
        with pytest.raises(ReproError, match="CollectMetrics"):
            Pipeline([DecomposeToBasis()]).run(ghz5, tokyo)

    def test_analysis_pass_mutation_guard(self, tokyo, ghz5):
        class Rogue(AnalysisPass):
            def run(self, context):
                context.working = QuantumCircuit(1, name="rogue")

        with pytest.raises(ReproError, match="mutated the program state"):
            Pipeline([DecomposeToBasis(), Rogue()]).run(ghz5, tokyo)

    def test_analysis_pass_inplace_mutation_guard(self, tokyo, ghz5):
        # Appending to the working circuit (no object replacement) must
        # be caught too — the mutation counter, not just identity.
        class SneakyAppend(AnalysisPass):
            def run(self, context):
                context.working.h(0)

        with pytest.raises(ReproError, match="mutated the program state"):
            Pipeline([DecomposeToBasis(), SneakyAppend()]).run(ghz5, tokyo)

    def test_initial_layout_short_circuits_search(self, tokyo, random6):
        layout = Layout.random(tokyo.num_qubits, seed=7)
        result = Pipeline("paper_default").run(
            random6, tokyo, seed=0, initial_layout=layout
        )
        assert result.num_trials == 1
        assert result.num_traversals == 1
        assert result.first_pass_swaps is None
        assert result.initial_layout == layout

    def test_noise_aware_requires_noise(self, tokyo, ghz5):
        with pytest.raises(ReproError, match="needs a noise model"):
            Pipeline("noise_aware").run(ghz5, tokyo)

    def test_engine_path_through_pipeline(self, tokyo, random6):
        serial = Pipeline("paper_default").run(
            random6, tokyo, seed=0, num_trials=3, executor="serial"
        )
        direct = Pipeline("paper_default").run(
            random6, tokyo, seed=0, num_trials=3
        )
        assert serial.num_trials == 3
        assert len(serial.trial_swaps) == 3
        assert serial.properties["engine.trial_swaps"] == serial.trial_swaps
        # Winner selection by g_add matches the direct path's best swaps.
        assert serial.num_swaps <= min(direct.trial_swaps)


class TestObjectivePropertySet:
    def test_override_wins(self, tokyo, ghz5):
        result = compile_circuit(ghz5, tokyo, num_trials=1)
        baseline = objective_value(result, "g_add")
        result.properties["objective.g_add"] = baseline + 100.0
        assert objective_value(result, "g_add") == baseline + 100.0

    def test_override_steers_trial_selection(self, tokyo, random6):
        # Rescoring through the PropertySet must override the built-in
        # metric for every trial result the engine produced (the depth
        # objective keeps one result per seed).
        outcome = run_trials(
            random6, tokyo, seeds=[0, 1, 2, 3], objective="depth"
        )
        values = [t.value for t in outcome.trials]
        if len(set(values)) > 1:
            for trial in outcome.trials:
                trial.result.properties["objective.depth"] = -trial.value
            rescored = [
                objective_value(t.result, "depth") for t in outcome.trials
            ]
            assert rescored == [-v for v in values]

    def test_property_objective_ranks_trials(self, tokyo, random6, monkeypatch):
        # A custom analysis pass records a score; "property:<key>"
        # objectives rank trials by it — here: *maximise* swaps, the
        # opposite of g_add, so the winner provably came from the
        # PropertySet, not the built-in metrics.
        from repro.pipeline import presets as presets_mod
        from repro.pipeline import runner as runner_mod

        class RecordAntiSwap(AnalysisPass):
            def run(self, context):
                context.properties["score.anti_swap"] = float(
                    -context.routing.num_swaps
                )

        def build():
            factory, _, _ = presets_mod.get_preset("paper_default")
            passes = factory()
            passes.insert(-1, RecordAntiSwap())
            return passes

        monkeypatch.setitem(
            presets_mod.PRESETS, "anti_swap", (build, {}, "test preset")
        )
        monkeypatch.delitem(runner_mod._SHARED, "anti_swap", raising=False)
        outcome = run_trials(
            random6,
            tokyo,
            seeds=[0, 1, 2, 3],
            objective="property:score.anti_swap",
            pipeline="anti_swap",
        )
        swaps = [t.result.num_swaps for t in outcome.trials]
        assert outcome.best_result.num_swaps == max(swaps)

    def test_property_objective_missing_key_raises(self, tokyo, ghz5):
        result = compile_circuit(ghz5, tokyo, num_trials=1)
        with pytest.raises(ReproError, match="record property"):
            objective_value(result, "property:not.recorded")

    def test_unknown_objective_still_rejected_early(self, tokyo, ghz5):
        with pytest.raises(ReproError, match="unknown objective"):
            run_trials(ghz5, tokyo, seeds=[0], objective="fidelity")


class TestDecompositionCache:
    def test_cached_until_mutation(self, tokyo):
        circ = QuantumCircuit(3, name="cache-me")
        circ.h(0)
        circ.cx(0, 1)
        assert needs_cx_decomposition(circ) is False
        # Cached: same mutation counter returns the memoised answer.
        assert circ.__dict__["_needs_cx_decomposition"][1] is False
        circ.ccx(0, 1, 2)
        assert needs_cx_decomposition(circ) is True
        circ2 = QuantumCircuit(2, name="swapper")
        circ2.swap(0, 1)
        assert needs_cx_decomposition(circ2) is True

    def test_compile_uses_cached_predicate(self, tokyo, ghz5):
        compile_circuit(ghz5, tokyo, num_trials=1)
        counter, value = ghz5.__dict__["_needs_cx_decomposition"]
        assert value is False
        assert counter == ghz5._mutations


class TestComplianceCheckPass:
    def test_catches_illegal_direction(self, random6):
        device = ibm_qx5()
        # Routing alone on a directed device leaves reversed CNOTs; the
        # check must refuse to let them escape.
        passes = [
            DecomposeToBasis(),
            ResolveDistance(),
            SabreLayoutPass(),
            SabreRoutePass(),
            ComplianceCheck(),
            CollectMetrics(),
        ]
        with pytest.raises(VerificationError, match="violation"):
            Pipeline(passes).run(random6, device, seed=0)

    def test_directed_preset_passes_the_check(self, random6):
        device = ibm_qx5()
        result = Pipeline("directed_device").run(random6, device, seed=0)
        assert result.properties["compliance.checked_direction"] is True
        assert is_hardware_compliant(
            result.physical_circuit(), device, check_direction=True
        )
        assert result.final_circuit is not None


class TestComposeHelper:
    def test_bridge_precedes_legalize_regardless_of_base(self):
        for base in ("paper_default", "directed_device"):
            pipeline = compose_pipeline(
                base, bridge=True, legalize_directions=True
            )
            names = [p.name for p in pipeline.passes]
            assert names.index("BridgeRewrite") < names.index(
                "LegalizeDirections"
            )
            assert names.index("LegalizeDirections") < names.index(
                "ComplianceCheck"
            )
            assert names[-1] == "CollectMetrics"

    def test_no_duplicate_passes(self):
        pipeline = compose_pipeline(
            "directed_device", legalize_directions=True
        )
        names = [p.name for p in pipeline.passes]
        assert names.count("LegalizeDirections") == 1
        assert names.count("ComplianceCheck") == 1

    def test_composed_name(self):
        pipeline = compose_pipeline(
            "paper_default", noise_aware=True, bridge=True
        )
        assert pipeline.name == "paper_default+noise+bridge"


class TestBaselinePresets:
    @pytest.mark.parametrize(
        "preset", ["baseline_trivial", "baseline_greedy", "baseline_astar"]
    )
    def test_baseline_runs_under_verification(self, preset):
        device = line_device(5)
        circ = random_circuit(5, 16, seed=5, two_qubit_fraction=0.6)
        result = Pipeline(preset).run(circ, device)
        assert is_hardware_compliant(result.physical_circuit(), device)
        assert result.properties["baseline.name"] == preset.split("_", 1)[1]
        assert result.num_trials == 1


class TestPropertySetHelpers:
    def test_timing_report_empty(self):
        assert "no pass timings" in PropertySet().timing_report()

    def test_context_require_routing_message(self, tokyo, ghz5):
        context = CompilationContext(circuit=ghz5, coupling=tokyo)
        with pytest.raises(ReproError, match="needs a routed circuit"):
            context.require_routing("SomePass")
