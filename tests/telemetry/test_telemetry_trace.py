"""Trace spans: nesting, activation scoping, cross-process batches,
retention, and tree rendering."""

import threading

import pytest

from repro.telemetry.trace import (
    MAX_SPANS_PER_TRACE,
    NOOP_SPAN,
    TraceStore,
    Tracer,
    current_span_id,
    current_tracer,
    render_span_tree,
    span,
    tracing,
)


class TestSpans:
    def test_nested_spans_parent_correctly(self):
        tracer = Tracer()
        with tracing(tracer):
            with tracer.start_span("outer") as outer:
                with tracer.start_span("inner") as inner:
                    assert current_span_id() == inner.span_id
                assert current_span_id() == outer.span_id
        spans = {s["name"]: s for s in tracer.export()}
        assert spans["inner"]["parent_id"] == spans["outer"]["span_id"]
        assert spans["outer"]["parent_id"] is None
        # Spans land in completion order: inner closes first.
        assert [s["name"] for s in tracer.export()] == ["inner", "outer"]

    def test_span_records_timings_and_attrs(self):
        tracer = Tracer()
        with tracing(tracer):
            with span("work") as handle:
                handle.set("preset", "fast")
        (exported,) = tracer.export()
        assert exported["wall_seconds"] >= 0.0
        assert exported["cpu_seconds"] >= 0.0
        assert exported["start"] > 0.0
        assert exported["attrs"] == {"preset": "fast"}

    def test_exception_is_annotated_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracing(tracer):
                with span("boom"):
                    raise RuntimeError("bad")
        (exported,) = tracer.export()
        assert exported["attrs"]["error"] == "RuntimeError: bad"

    def test_explicit_parent_overrides_stack(self):
        tracer = Tracer()
        with tracing(tracer):
            with tracer.start_span("root"):
                with tracer.start_span("child", parent_id="elsewhere"):
                    pass
        spans = {s["name"]: s for s in tracer.export()}
        assert spans["child"]["parent_id"] == "elsewhere"

    def test_span_ids_unique_across_tracers(self):
        ids = set()
        for _ in range(3):
            tracer = Tracer()
            for _ in range(5):
                ids.add(tracer.new_span_id())
        assert len(ids) == 15


class TestActivation:
    def test_disabled_span_is_shared_noop(self):
        assert span("anything") is NOOP_SPAN
        with span("anything") as handle:
            assert handle.set("k", "v") is NOOP_SPAN
            assert handle.span_id is None

    def test_tracing_none_disables_nested_scope(self):
        tracer = Tracer()
        with tracing(tracer):
            assert current_tracer() is tracer
            with tracing(None):
                assert current_tracer() is None
                assert span("x") is NOOP_SPAN
            assert current_tracer() is tracer
        assert current_tracer() is None

    def test_parent_id_seeds_stack(self):
        tracer = Tracer()
        with tracing(tracer, parent_id="p0"):
            assert current_span_id() == "p0"
            with span("child"):
                pass
        (exported,) = tracer.export()
        assert exported["parent_id"] == "p0"

    def test_activation_is_thread_local(self):
        tracer = Tracer()
        seen = {}

        def other_thread():
            seen["tracer"] = current_tracer()
            seen["span"] = span("x")

        with tracing(tracer):
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join()
        assert seen["tracer"] is None
        assert seen["span"] is NOOP_SPAN


class TestBatches:
    def test_add_raw_records_synthesized_span(self):
        tracer = Tracer()
        span_id = tracer.add_raw(
            "queue.wait", "parent", start=123.0, wall_seconds=0.5,
            attrs={"priority": 1},
        )
        (exported,) = tracer.export()
        assert exported["span_id"] == span_id
        assert exported["wall_seconds"] == 0.5
        assert exported["attrs"] == {"priority": 1}

    def test_add_spans_adopts_worker_batch(self):
        parent = Tracer()
        with tracing(parent):
            with parent.start_span("job.execute") as job:
                parent_id = job.span_id
        worker = Tracer(trace_id=parent.trace_id)
        with tracing(worker, parent_id=parent_id):
            with span("worker.compile"):
                pass
        parent.add_spans(worker.export())
        spans = {s["name"]: s for s in parent.export()}
        assert spans["worker.compile"]["parent_id"] == parent_id

    def test_truncation_caps_span_count(self):
        tracer = Tracer()
        for index in range(MAX_SPANS_PER_TRACE + 10):
            tracer.add_raw(f"s{index}", None, start=0.0, wall_seconds=0.0)
        assert len(tracer.export()) == MAX_SPANS_PER_TRACE
        assert tracer.truncated == 10
        tracer.add_spans([{"span_id": "x", "name": "late"}] * 3)
        assert len(tracer.export()) == MAX_SPANS_PER_TRACE
        assert tracer.truncated == 13


class TestTraceStore:
    def test_get_exports_lazily(self):
        store = TraceStore(max_traces=4)
        tracer = Tracer()
        store.put("job-1", tracer)
        assert store.get("job-1")["spans"] == []
        # Spans recorded after put() still appear: async jobs fill in.
        tracer.add_raw("late", None, start=0.0, wall_seconds=0.1)
        payload = store.get("job-1")
        assert [s["name"] for s in payload["spans"]] == ["late"]
        assert payload["trace_id"] == tracer.trace_id
        assert payload["truncated_spans"] == 0
        assert payload["stored_at"] > 0.0

    def test_fifo_eviction(self):
        store = TraceStore(max_traces=2)
        for index in range(3):
            store.put(f"job-{index}", Tracer())
        assert store.get("job-0") is None
        assert store.get("job-1") is not None
        assert store.get("job-2") is not None
        assert len(store) == 2

    def test_reput_same_job_id_does_not_duplicate(self):
        store = TraceStore(max_traces=2)
        store.put("job-a", Tracer())
        store.put("job-a", Tracer())
        store.put("job-b", Tracer())
        assert len(store) == 2
        assert store.get("job-a") is not None

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            TraceStore(max_traces=0)


class TestRenderTree:
    def test_orphans_root_at_top(self):
        spans = [
            {"span_id": "a", "parent_id": None, "name": "root",
             "start": 1.0, "wall_seconds": 0.01, "cpu_seconds": 0.0},
            {"span_id": "b", "parent_id": "a", "name": "child",
             "start": 2.0, "wall_seconds": 0.005, "cpu_seconds": 0.0},
            {"span_id": "c", "parent_id": "missing", "name": "orphan",
             "start": 3.0, "wall_seconds": 0.001, "cpu_seconds": 0.0},
        ]
        tree = render_span_tree(spans)
        lines = tree.splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  child")
        assert lines[2].startswith("orphan")

    def test_attrs_rendered_inline(self):
        spans = [
            {"span_id": "a", "parent_id": None, "name": "pass.routing",
             "start": 1.0, "wall_seconds": 0.01, "cpu_seconds": 0.0,
             "attrs": {"preset": "fast", "swaps": 12}},
        ]
        tree = render_span_tree(spans)
        assert "preset=fast" in tree
        assert "swaps=12" in tree


class TestLayoutTraversalSpans:
    """The layout search records one span per traversal below the
    layout-search pass (every trial, both directions)."""

    @pytest.mark.parametrize("scorer", ["vector", "reference"])
    def test_traversals_nest_under_layout_pass(self, scorer):
        from repro import compile_circuit
        from repro.bench_circuits import build_benchmark
        from repro.core import HeuristicConfig
        from repro.hardware import ibm_q20_tokyo

        tracer = Tracer()
        with tracing(tracer):
            result = compile_circuit(
                build_benchmark("4gt13_92"),
                ibm_q20_tokyo(),
                config=HeuristicConfig(scorer=scorer),
                seed=0,
                num_trials=2,
                num_traversals=3,
            )
        spans = tracer.export()
        by_id = {s["span_id"]: s for s in spans}
        traversals = [s for s in spans if s["name"] == "layout.traversal"]
        assert len(traversals) == 2 * 3
        for s in traversals:
            assert by_id[s["parent_id"]]["name"] == "pass.SabreLayoutPass"
        attrs = [s["attrs"] for s in traversals]
        dirs = ["forward", "reverse", "forward"]
        assert [a["dir"] for a in attrs] == dirs * 2
        assert [a["trial"] for a in attrs] == [0, 0, 0, 1, 1, 1]
        kept = min(
            (a["swaps"], a["depth"]) for a in attrs if a["dir"] == "forward"
        )
        assert kept == (result.num_swaps, result.routing.depth)
        assert "layout.traversal" in render_span_tree(spans)

    def test_untraced_search_records_nothing(self):
        from repro import compile_circuit
        from repro.bench_circuits import build_benchmark
        from repro.hardware import ibm_q20_tokyo

        assert current_tracer() is None
        compile_circuit(build_benchmark("4gt13_92"), ibm_q20_tokyo(), seed=0)
        assert current_tracer() is None
