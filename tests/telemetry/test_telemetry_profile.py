"""Router profiler: aggregate semantics, merging, and scoping."""

import threading

from repro.telemetry.profile import (
    RouterProfiler,
    active_router_profiler,
    profiled_routing,
)


class TestRecordStep:
    def test_aggregates_candidates_and_ties(self):
        prof = RouterProfiler()
        prof.record_step(4, 2)
        prof.record_step(10, 1)
        assert prof.steps == 2
        assert prof.candidates_total == 14
        assert prof.candidates_max == 10
        assert prof.tie_total == 3
        assert prof.tie_max == 2

    def test_negative_candidates_skip_candidate_stats(self):
        prof = RouterProfiler()
        prof.record_step(-1, 3)
        assert prof.steps == 1
        assert prof.candidates_total == 0
        assert prof.candidates_max == 0
        assert prof.tie_total == 3

    def test_bounded_candidates_sum(self):
        prof = RouterProfiler()
        prof.record_step(8, 1, 5)
        prof.record_step(4, 2)
        assert prof.bounded_total == 5
        assert prof.to_dict()["bounded_total"] == 5

    def test_zero_tie_skips_tie_stats(self):
        prof = RouterProfiler()
        prof.record_step(5, 0)
        assert prof.steps == 1
        assert prof.tie_total == 0
        assert prof.tie_max == 0

    def test_add_scalar(self):
        prof = RouterProfiler()
        prof.add_scalar(0.25)
        prof.add_scalar(0.5)
        assert (prof.scalar_calls, prof.scalar_seconds) == (2, 0.75)
        assert prof.scoring_seconds == 0.75
        assert not prof.empty
        assert not RouterProfiler().to_dict()["scalar_calls"]
        merged = RouterProfiler()
        merged.merge_dict(prof.to_dict())
        assert merged.to_dict() == prof.to_dict()

    def test_empty_property(self):
        prof = RouterProfiler()
        assert prof.empty
        prof.record_step(-1, 0)
        assert not prof.empty


class TestMerge:
    def test_merge_sums_and_maxes(self):
        a = RouterProfiler()
        a.record_step(4, 2, 1)
        a.add_scalar(0.1)
        b = RouterProfiler()
        b.record_step(9, 5, 3)
        b.add_scalar(0.2)
        a.merge(b)
        assert a.steps == 2
        assert a.candidates_total == 13
        assert a.candidates_max == 9
        assert a.tie_max == 5
        assert a.scalar_calls == 2
        assert a.bounded_total == 4
        assert abs(a.scalar_seconds - 0.3) < 1e-12

    def test_merge_dict_round_trips(self):
        source = RouterProfiler()
        source.record_step(6, 3, 2)
        source.add_scalar(0.125)
        target = RouterProfiler()
        target.merge_dict(source.to_dict())
        assert target.to_dict() == source.to_dict()

    def test_to_dict_means_only_with_steps(self):
        prof = RouterProfiler()
        assert "candidates_mean" not in prof.to_dict()
        prof.record_step(4, 2)
        payload = prof.to_dict()
        assert payload["candidates_mean"] == 4.0
        assert payload["tie_mean"] == 2.0


class TestScoping:
    def test_disabled_by_default(self):
        assert active_router_profiler() is None

    def test_activation_and_restore(self):
        with profiled_routing() as prof:
            assert active_router_profiler() is prof
            inner = RouterProfiler()
            with profiled_routing(inner):
                assert active_router_profiler() is inner
            assert active_router_profiler() is prof
        assert active_router_profiler() is None

    def test_activation_is_thread_local(self):
        seen = {}

        def other_thread():
            seen["profiler"] = active_router_profiler()

        with profiled_routing():
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join()
        assert seen["profiler"] is None


class TestRouterIntegration:
    def test_tokyo_paper_default_counts_candidates(self):
        """Every step is scored by the scalar delta loop: its
        candidates count, and its time is the scoring time."""
        from repro import compile_circuit
        from repro.bench_circuits import build_benchmark
        from repro.hardware import ibm_q20_tokyo

        with profiled_routing() as prof:
            compile_circuit(
                build_benchmark("4gt13_92"),
                ibm_q20_tokyo(),
                pipeline="paper_default",
                seed=0,
            )
        payload = prof.to_dict()
        assert payload["steps"] > 0
        assert payload["candidates_total"] > 0
        assert payload["candidates_max"] > 0
        assert payload["scalar_calls"] == payload["steps"]
        assert "kernel_calls" not in payload
        assert prof.scoring_seconds == prof.scalar_seconds > 0.0

    def test_table2_row_reports_bounded_candidates(self):
        """The look-ahead bound skips some, never all, of a Table II
        row's candidates: a bound that silently stopped firing (or
        skipped everything) shows here."""
        from repro import compile_circuit
        from repro.bench_circuits import build_benchmark
        from repro.hardware import ibm_q20_tokyo

        with profiled_routing() as prof:
            compile_circuit(
                build_benchmark("qft_10"),
                ibm_q20_tokyo(),
                pipeline="paper_default",
                seed=0,
            )
        assert 0 < prof.bounded_total < prof.candidates_total
        assert prof.to_dict()["bounded_total"] == prof.bounded_total
