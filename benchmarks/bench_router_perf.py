"""Router perf benchmark: per-step scorer AND end-to-end layout sweeps.

Three benchmark families, one report (``BENCH_router.json``):

- **Scorer cases** — one routing traversal (``SabreRouter.run``) per
  case under the production ``vector`` scorer against the
  paper-literal ``reference`` scorer.  One more, untimed traversal
  per case runs under the router profiler and reports
  ``bounded_share``: the share of scored candidates whose look-ahead
  sum the vector scorer's lower bound skipped (informational, never
  gated).
- **Layout cases** — a full ``SabreLayout`` trial sweep (bidirectional
  traversals x random restarts, the way users actually compile) under
  the compile-once shared-IR path vs the frozen pre-IR baseline
  (:class:`repro.core.legacy.LegacySabreLayout`), which re-lowers a
  fresh object DAG on every traversal.  The case mix follows the
  paper's benchmark families (QFT, Ising, reversible/Toffoli blocks)
  plus one adversarial dense-random stress case where the shared
  scoring loop dominates and the IR win is smallest.
- **Trials cases** — a best-of-K seeded trial sweep under the serial
  executor (:func:`repro.engine.run_trials`: one layout search over
  all K seeds, one look-ahead memo, one circuit built) vs K
  single-trial pipelines, one per seed, each with its own memo and its
  own winner circuit — same seeds, same winner.  The tokyo case is
  gated; the synthetic-grid case is timed and byte-checked but its
  ratio is informational only (``ungated_speedup``): grids do not
  justify a default.

Every case asserts the compared paths' routed circuits are
*byte-identical* (the differential guarantee) before timing means
anything.

Three ways to run it:

- standalone full sweep (the numbers quoted in the README)::

      PYTHONPATH=src python benchmarks/bench_router_perf.py

- seconds-long CI smoke check with the regression gate::

      PYTHONPATH=src python benchmarks/bench_router_perf.py --smoke \
          --check-regression benchmarks/BENCH_router_baseline.json

- pytest-benchmark harness (opt-in, like every ``bench_*.py`` here)::

      pytest benchmarks/bench_router_perf.py --benchmark-only

The regression gate compares *speedup ratios* (two code paths on the
same machine, same process), not absolute wall-clock, so it is stable
across runner hardware: a >25% drop in any layout or trials case's
speedup, or a >35% drop in a scorer case's vector speedup, against the
checked-in baseline fails the run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np
import pytest

from repro.bench_circuits import (
    approximate_qft,
    build_benchmark,
    ising_model,
    mct_ladder,
    qft,
)
from repro.circuits import QuantumCircuit, random_circuit
from repro.circuits.decompositions import decompose_to_cx_basis
from repro.core import (
    HeuristicConfig,
    Layout,
    LegacySabreLayout,
    SabreLayout,
    SabreRouter,
)
from repro.engine import run_trials
from repro.engine.cache import clear_cache
from repro.engine.trials import _run_one_trial
from repro.hardware import CouplingGraph, grid_device, ibm_q20_tokyo
from repro.telemetry.profile import profiled_routing

#: Allowed relative drop in a case's speedup before the gate fails.
REGRESSION_TOLERANCE = 0.25

#: The scorer cases' vector column gates with extra headroom: its
#: smoke-sized cases sit near the numpy dispatch floor, where
#: run-to-run noise on shared runners swings the ratio harder than the
#: end-to-end comparisons.
VECTOR_REGRESSION_TOLERANCE = 0.35

#: Layout seed shared by every case (fixed => deterministic swaps).
LAYOUT_SEED = 9

#: Router tie-break seed.
ROUTER_SEED = 0


@dataclass(frozen=True)
class Case:
    """One benchmark case: a circuit routed on a device, N times."""

    name: str
    device_builder: Callable[[], CouplingGraph]
    circuit_builder: Callable[[], QuantumCircuit]
    repeats: int
    #: Cases tagged deep form the "deep-circuit scaling bench" — the
    #: regime the delta scoring exists for (large device, long circuit).
    deep: bool = False


def _rand(n: int, gates: int) -> Callable[[], QuantumCircuit]:
    return lambda: random_circuit(n, gates, seed=6, two_qubit_fraction=0.8)


#: Full sweep: small-device cases (where per-step overhead dominates and
#: the win is modest) up the scaling curve to the deep cases (where the
#: O(|F|+|E|) -> O(deg) reduction shows its asymptotics).
FULL_CASES = [
    Case("qft20_tokyo", ibm_q20_tokyo, lambda: qft(20), repeats=3),
    Case("rand2000_tokyo", ibm_q20_tokyo, _rand(20, 2000), repeats=3),
    Case("rand3000_grid7x7", lambda: grid_device(7, 7), _rand(49, 3000), repeats=2),
    Case(
        "rand5000_grid10x10",
        lambda: grid_device(10, 10),
        _rand(100, 5000),
        repeats=2,
    ),
    Case(
        "rand8000_grid12x12",
        lambda: grid_device(12, 12),
        _rand(144, 8000),
        repeats=1,
        deep=True,
    ),
    Case(
        "rand12000_grid14x14",
        lambda: grid_device(14, 14),
        _rand(196, 12000),
        repeats=1,
        deep=True,
    ),
]

#: Smoke sweep: seconds-long, still deep enough that the speedup ratio
#: is stable on shared CI runners.
SMOKE_CASES = [
    Case("rand1200_grid6x6", lambda: grid_device(6, 6), _rand(36, 1200), repeats=4),
    Case(
        "rand2500_grid9x9",
        lambda: grid_device(9, 9),
        _rand(81, 2500),
        repeats=3,
        deep=True,
    ),
]


@dataclass(frozen=True)
class LayoutCase:
    """One end-to-end case: a full ``SabreLayout`` trial sweep.

    ``num_trials x num_traversals`` routing passes over one circuit —
    the repetition the compile-once IR amortises.
    """

    name: str
    device_builder: Callable[[], CouplingGraph]
    circuit_builder: Callable[[], QuantumCircuit]
    num_trials: int = 5
    num_traversals: int = 3
    repeats: int = 2


#: End-to-end sweep, paper benchmark families + one dense-random
#: stress case (where the shared scoring loop dominates and the
#: shared-IR win is smallest — kept honest on purpose).
FULL_LAYOUT_CASES = [
    LayoutCase("layout_qft20_tokyo", ibm_q20_tokyo, lambda: qft(20)),
    LayoutCase(
        "layout_aqft20_tokyo", ibm_q20_tokyo, lambda: approximate_qft(20, 4)
    ),
    LayoutCase(
        "layout_ising20x12_tokyo", ibm_q20_tokyo, lambda: ising_model(20, 12)
    ),
    LayoutCase(
        "layout_ising49x6_grid7x7",
        lambda: grid_device(7, 7),
        lambda: ising_model(49, 6),
    ),
    LayoutCase("layout_mct16_tokyo", ibm_q20_tokyo, lambda: mct_ladder(16, 3)),
    LayoutCase(
        "layout_qft30_grid7x7", lambda: grid_device(7, 7), lambda: qft(30)
    ),
    LayoutCase("layout_rand600_tokyo", ibm_q20_tokyo, _rand(20, 600)),
]

#: Layout smoke cases: one structured, one stress, and one Table II
#: reversible-logic row whose gates are mostly single-qubit (the share
#: the layout search's folded frontier skips), all seconds-long.
SMOKE_LAYOUT_CASES = [
    LayoutCase("layout_qft16_tokyo", ibm_q20_tokyo, lambda: qft(16)),
    LayoutCase(
        "layout_ising20x8_tokyo", ibm_q20_tokyo, lambda: ising_model(20, 8)
    ),
    LayoutCase(
        "layout_sym6_145_tokyo",
        ibm_q20_tokyo,
        lambda: decompose_to_cx_basis(build_benchmark("sym6_145")),
    ),
]


@dataclass(frozen=True)
class TrialsCase:
    """One best-of-K case: the serial executor vs per-seed pipelines.

    The serial executor runs all K seeds as one layout search; the
    per-seed side runs K single-trial pipelines and keeps the lowest
    ``(num_swaps, depth)``, earliest seed on ties.  Same seeds,
    byte-identical winner, same per-seed SWAP counts.
    """

    name: str
    device_builder: Callable[[], CouplingGraph]
    circuit_builder: Callable[[], QuantumCircuit]
    num_trials: int
    num_traversals: int
    repeats: int = 1
    #: Whether check_regression gates the ratio (reported as
    #: ``speedup``) or only records it (``ungated_speedup``).
    gated: bool = True


#: The gated case: a Table II row on tokyo under the paper's three
#: traversals, where the restarts revisit each other's fronts.
TOKYO_TRIALS_CASE = TrialsCase(
    "trials_sym6_145_tokyo_k8",
    ibm_q20_tokyo,
    lambda: decompose_to_cx_basis(build_benchmark("sym6_145")),
    num_trials=8,
    num_traversals=3,
    repeats=5,
)

FULL_TRIALS_CASES = [
    TOKYO_TRIALS_CASE,
    TrialsCase(
        "trials_rand8000_grid12x12_k8",
        lambda: grid_device(12, 12),
        _rand(144, 8000),
        num_trials=8,
        num_traversals=1,
        gated=False,
    ),
    TrialsCase(
        "trials_rand12000_grid14x14_k6",
        lambda: grid_device(14, 14),
        _rand(196, 12000),
        num_trials=6,
        num_traversals=3,
        gated=False,
    ),
]

SMOKE_TRIALS_CASES = [
    TOKYO_TRIALS_CASE,
    TrialsCase(
        "trials_rand3500_grid10x10_k6",
        lambda: grid_device(10, 10),
        _rand(100, 3500),
        num_trials=6,
        num_traversals=1,
        gated=False,
    ),
]


def _time_router(
    device: CouplingGraph,
    circuit: QuantumCircuit,
    scorer: str,
    layout: Layout,
    repeats: int,
):
    """Best-of-``repeats`` wall-clock for one traversal; returns
    ``(seconds, result)``."""
    router = SabreRouter(
        device, config=HeuristicConfig(scorer=scorer), seed=ROUTER_SEED
    )
    best = math.inf
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = router.run(circuit, initial_layout=layout)
        best = min(best, time.perf_counter() - start)
    return best, result


def run_case(case: Case) -> dict:
    """Measure one case under both scorers and check identity."""
    device = case.device_builder()
    circuit = case.circuit_builder()
    layout = Layout.random(device.num_qubits, seed=LAYOUT_SEED)
    ref_seconds, ref = _time_router(
        device, circuit, "reference", layout, case.repeats
    )
    vector_seconds, vector = _time_router(
        device, circuit, "vector", layout, case.repeats
    )
    assert ref is not None and vector is not None
    with profiled_routing() as prof:
        SabreRouter(
            device, config=HeuristicConfig(scorer="vector"), seed=ROUTER_SEED
        ).run(circuit, initial_layout=layout)
    identical = (
        vector.circuit == ref.circuit
        and vector.swap_positions == ref.swap_positions
        and vector.final_layout == ref.final_layout
    )
    return {
        "name": case.name,
        "device": device.name,
        "num_qubits": device.num_qubits,
        "num_gates": circuit.num_gates,
        "deep": case.deep,
        "reference_seconds": round(ref_seconds, 6),
        "vector_seconds": round(vector_seconds, 6),
        "vector_speedup": round(ref_seconds / vector_seconds, 3),
        "num_swaps": vector.num_swaps,
        "bounded_share": round(
            prof.bounded_total / max(prof.candidates_total, 1), 3
        ),
        "identical": identical,
    }


def run_trials_case(case: TrialsCase) -> dict:
    """Measure one best-of-K sweep: per-seed pipelines vs serial.

    The engine cache is cleared and re-warmed (one throwaway trial)
    before each timed run so both sides measure routing, not lowering.
    """
    device = case.device_builder()
    circuit = case.circuit_builder()
    seeds = list(range(101, 101 + case.num_trials))
    config = HeuristicConfig(scorer="vector")

    def warm():
        clear_cache()
        run_trials(
            circuit, device, seeds=seeds[:1], config=config,
            num_traversals=1,
        )

    def per_seed():
        return [
            _run_one_trial(
                circuit, device, config, seed, case.num_traversals, None
            )
            for seed in seeds
        ]

    def serial():
        return run_trials(
            circuit, device, seeds=seeds, config=config,
            num_traversals=case.num_traversals, executor="serial",
        )

    # Interleaved repeats, best of each side: a slow phase of a shared
    # host then hits both sides instead of one.
    timings = {"per_seed": math.inf, "serial": math.inf}
    outputs = {}
    for _ in range(case.repeats):
        for label, sweep in (("per_seed", per_seed), ("serial", serial)):
            warm()
            start = time.perf_counter()
            outputs[label] = sweep()
            timings[label] = min(
                timings[label], time.perf_counter() - start
            )
    trials, ser = outputs["per_seed"], outputs["serial"]
    keys = [(r.num_swaps, r.routing.depth) for r in trials]
    winner = keys.index(min(keys))
    identical = (
        [r.num_swaps for r in trials] == ser.trial_swaps
        and winner == ser.winner_index
        and trials[winner].routing.circuit == ser.best_result.routing.circuit
    )
    ratio_key = "speedup" if case.gated else "ungated_speedup"
    return {
        "name": case.name,
        "device": device.name,
        "num_qubits": device.num_qubits,
        "num_gates": circuit.num_gates,
        "num_trials": case.num_trials,
        "num_traversals": case.num_traversals,
        "per_seed_seconds": round(timings["per_seed"], 6),
        "serial_seconds": round(timings["serial"], 6),
        ratio_key: round(timings["per_seed"] / timings["serial"], 3),
        "num_swaps": ser.best_result.num_swaps,
        "identical": identical,
    }


def run_layout_case(case: LayoutCase) -> dict:
    """Measure one end-to-end trial sweep under both code paths.

    Best-of-``repeats`` wall clock; the engine cache is cleared before
    every timed run so each measurement includes the (cold) lowering —
    precisely the cost the shared-IR path amortises across its
    ``num_trials x num_traversals`` passes.
    """
    device = case.device_builder()
    circuit = case.circuit_builder()
    timings = {}
    outputs = {}
    for label, cls in (("legacy", LegacySabreLayout), ("shared_ir", SabreLayout)):
        best = math.inf
        for _ in range(case.repeats):
            clear_cache()
            searcher = cls(
                device,
                num_trials=case.num_trials,
                num_traversals=case.num_traversals,
                seed=ROUTER_SEED,
            )
            start = time.perf_counter()
            outputs[label] = searcher.run(circuit)
            best = min(best, time.perf_counter() - start)
        timings[label] = best
    new, old = outputs["shared_ir"], outputs["legacy"]
    identical = (
        new.routing.circuit == old.routing.circuit
        and new.initial_layout == old.initial_layout
        and new.best_trial_index == old.best_trial_index
    )
    return {
        "name": case.name,
        "device": device.name,
        "num_qubits": device.num_qubits,
        "num_gates": circuit.num_gates,
        "num_trials": case.num_trials,
        "num_traversals": case.num_traversals,
        "legacy_seconds": round(timings["legacy"], 6),
        "shared_ir_seconds": round(timings["shared_ir"], 6),
        "speedup": round(timings["legacy"] / timings["shared_ir"], 3),
        "num_swaps": new.num_swaps,
        "identical": identical,
    }


def _geomean(values: Sequence[float]) -> float:
    return round(math.exp(sum(math.log(v) for v in values) / len(values)), 3)


def _host_info() -> dict:
    """Host metadata embedded in the report — speedup ratios transfer
    across machines, but absolute times only make sense next to the
    hardware and library versions that produced them."""
    return {
        "cpu_count": os.cpu_count(),
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "platform": platform.platform(),
    }


def run_suite(
    cases: Sequence[Case],
    layout_cases: Sequence[LayoutCase],
    trials_cases: Sequence[TrialsCase],
    smoke: bool,
) -> dict:
    """Run every case and assemble the BENCH_router.json payload."""
    results = []
    for case in cases:
        row = run_case(case)
        results.append(row)
        print(
            f"  {row['name']:26s} ref={row['reference_seconds'] * 1000:9.1f}ms"
            f"  vector={row['vector_seconds'] * 1000:8.1f}ms"
            f"  speedup=x{row['vector_speedup']:<5.2f}"
            f"  bounded={row['bounded_share']:.2f}"
            f"  identical={row['identical']}"
        )
    print("layout sweeps: shared-IR vs legacy per-run-DAG")
    layout_results = []
    for layout_case in layout_cases:
        row = run_layout_case(layout_case)
        layout_results.append(row)
        print(
            f"  {row['name']:26s} old={row['legacy_seconds'] * 1000:9.1f}ms"
            f"  new={row['shared_ir_seconds'] * 1000:8.1f}ms"
            f"  speedup=x{row['speedup']:<5.2f}"
            f"  identical={row['identical']}"
        )
    print("trials sweeps: serial executor vs per-seed pipelines (vector)")
    trials_results = []
    for trials_case in trials_cases:
        row = run_trials_case(trials_case)
        trials_results.append(row)
        ratio = row.get("speedup", row.get("ungated_speedup"))
        print(
            f"  {row['name']:26s}"
            f" per-seed={row['per_seed_seconds'] * 1000:8.1f}ms"
            f"  serial={row['serial_seconds'] * 1000:8.1f}ms"
            f"  speedup=x{ratio:<5.2f}"
            f"{'' if 'speedup' in row else ' (ungated)'}"
            f"  identical={row['identical']}"
        )
    vector_speedups = [row["vector_speedup"] for row in results]
    layout_speedups = [row["speedup"] for row in layout_results]
    trials_speedups = [
        row["speedup"] for row in trials_results if "speedup" in row
    ]
    deep = [row for row in results if row["deep"]]
    summary = {
        "geomean_vector_speedup": _geomean(vector_speedups),
        "deep_vector_geomean": (
            _geomean([row["vector_speedup"] for row in deep]) if deep else None
        ),
        "geomean_layout_speedup": _geomean(layout_speedups),
        "min_layout_speedup": min(layout_speedups),
        "geomean_trials_speedup": (
            _geomean(trials_speedups) if trials_speedups else None
        ),
        "all_identical": all(
            row["identical"]
            for row in results + layout_results + trials_results
        ),
    }
    return {
        "schema": 6,
        "bench": "router_perf",
        "smoke": smoke,
        "layout_seed": LAYOUT_SEED,
        "router_seed": ROUTER_SEED,
        "host": _host_info(),
        "cases": results,
        "layout_cases": layout_results,
        "trials_cases": trials_results,
        "summary": summary,
    }


def check_regression(report: dict, baseline_path: str) -> List[str]:
    """Compare per-case speedups against a checked-in baseline.

    Covers all three families: scorer cases (vector vs reference),
    layout cases (shared-IR vs legacy) and the gated trials cases
    (serial executor vs per-seed pipelines).  Returns a list of
    failure messages (empty = pass).  Ratios are machine-relative, so
    the gate transfers across hardware; the tolerance absorbs runner
    noise.
    """
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    failures = []
    compared = 0
    for kind, diverged in (
        ("cases", "scorers diverged"),
        ("layout_cases", "shared-IR and legacy layout sweeps diverged"),
        ("trials_cases", "serial executor and per-seed pipelines diverged"),
    ):
        base_cases = {row["name"]: row for row in baseline.get(kind, [])}
        for row in report.get(kind, []):
            if not row["identical"]:
                failures.append(f"{row['name']}: {diverged}")
            base = base_cases.get(row["name"])
            if base is None:
                continue
            compared += 1
            for key, label, tolerance in (
                ("speedup", "speedup", REGRESSION_TOLERANCE),
                (
                    "vector_speedup",
                    "vector speedup",
                    VECTOR_REGRESSION_TOLERANCE,
                ),
            ):
                if key not in row or key not in base:
                    continue
                floor = base[key] * (1.0 - tolerance)
                if row[key] < floor:
                    failures.append(
                        f"{row['name']}: {label} x{row[key]:.2f} fell below "
                        f"x{floor:.2f} (baseline x{base[key]:.2f} - "
                        f"{tolerance:.0%})"
                    )
    if compared == 0:
        # A renamed case or a smoke/full baseline mismatch must not turn
        # the gate into a vacuous pass.
        failures.append(
            f"no benchmark case matched the baseline {baseline_path}"
        )
    return failures


# ----------------------------------------------------------------------
# pytest-benchmark harness (opt-in)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scorer", ["vector", "reference"])
def test_router_scorers_qft20(benchmark, tokyo, scorer):
    circuit = qft(20)
    layout = Layout.random(tokyo.num_qubits, seed=LAYOUT_SEED)
    router = SabreRouter(
        tokyo, config=HeuristicConfig(scorer=scorer), seed=ROUTER_SEED
    )
    result = benchmark.pedantic(
        router.run,
        args=(circuit,),
        kwargs={"initial_layout": layout},
        rounds=3,
        iterations=1,
    )
    benchmark.extra_info.update({"scorer": scorer, "swaps": result.num_swaps})


@pytest.mark.parametrize("path", ["shared_ir", "legacy"])
def test_layout_sweep_qft16(benchmark, tokyo, path):
    circuit = qft(16)
    cls = SabreLayout if path == "shared_ir" else LegacySabreLayout
    searcher = cls(tokyo, num_trials=5, num_traversals=3, seed=ROUTER_SEED)

    def sweep():
        clear_cache()
        return searcher.run(circuit)

    result = benchmark.pedantic(sweep, rounds=3, iterations=1)
    benchmark.extra_info.update({"path": path, "swaps": result.num_swaps})


@pytest.mark.parametrize("scorer", ["vector", "reference"])
def test_router_scorers_deep_grid(benchmark, scorer):
    device = grid_device(10, 10)
    circuit = random_circuit(100, 5000, seed=6, two_qubit_fraction=0.8)
    layout = Layout.random(device.num_qubits, seed=LAYOUT_SEED)
    router = SabreRouter(
        device, config=HeuristicConfig(scorer=scorer), seed=ROUTER_SEED
    )
    result = benchmark.pedantic(
        router.run,
        args=(circuit,),
        kwargs={"initial_layout": layout},
        rounds=2,
        iterations=1,
    )
    benchmark.extra_info.update({"scorer": scorer, "swaps": result.num_swaps})


# ----------------------------------------------------------------------
# Standalone harness
# ----------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="seconds-long CI sweep (two cases) instead of the full curve",
    )
    parser.add_argument(
        "--output",
        default="BENCH_router.json",
        help="where to write the machine-readable report (default: %(default)s)",
    )
    parser.add_argument(
        "--check-regression",
        metavar="BASELINE",
        default=None,
        help="compare speedups against a baseline BENCH_router.json; exit "
        f"non-zero on a >{REGRESSION_TOLERANCE:.0%} drop or a scorer mismatch",
    )
    args = parser.parse_args(argv)

    cases = SMOKE_CASES if args.smoke else FULL_CASES
    layout_cases = SMOKE_LAYOUT_CASES if args.smoke else FULL_LAYOUT_CASES
    trials_cases = SMOKE_TRIALS_CASES if args.smoke else FULL_TRIALS_CASES
    label = "smoke" if args.smoke else "full"
    print(f"router perf ({label}): vector scorer vs reference scorer")
    report = run_suite(cases, layout_cases, trials_cases, smoke=args.smoke)
    summary = report["summary"]
    print(
        f"  vector geomean x{summary['geomean_vector_speedup']:.2f}, "
        f"layout geomean x{summary['geomean_layout_speedup']:.2f}, "
        f"trials geomean x{summary['geomean_trials_speedup']:.2f}, "
        f"all identical: {summary['all_identical']}"
    )
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"  wrote {args.output}")

    if not summary["all_identical"]:
        print("FAIL: benchmark code paths routed differently", file=sys.stderr)
        return 1
    if args.check_regression:
        failures = check_regression(report, args.check_regression)
        if failures:
            for message in failures:
                print(f"REGRESSION: {message}", file=sys.stderr)
            return 1
        print(f"  regression gate ok (vs {args.check_regression})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
