"""The Table II workloads: the paper's circuits compiled on IBM Q20 Tokyo.

``table2_direct`` compiles all 26 rows the way ``repro map`` does, one
solo layout search per circuit in this single-threaded process, so the
``core`` layer does almost all the work.  ``table2_sweep`` runs
best-of-16 sweeps over the mid-size rows through the engine's ``auto``
executor with two jobs, so the ``engine`` layer (chooser, ship-once
pool, shared memory, batch kernel) does most of it.  Both use the same
heuristic; a change to the solo scorer should move the first and leave
the second alone, and an executor change the other way round.

Row ``i`` compiles with seed ``seed + i``.  Before each timed compile
the engine cache is cleared and a fresh circuit is built, so no compile
inherits another's lowering or memoised facts.  A run repeats rows until
``--seconds`` of compiling is spent; every repeat must give the same
outputs.  Gated times are calibrated against a reference task timed
between compiles (``calibrate.py``); wall times go to the report.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import statistics
import time
from typing import Dict, List, Optional, Tuple

from calibrate import calibrated, calibrated_median, reference_seconds
from measure import TreeRssSampler, fresh_import, geomean, self_peak_rss_mb
import frontdoor
from spans import SpanRecorder

#: The mid-size rows of the sweep workload (cold best-of-16 in seconds).
SWEEP_ROWS = (
    "qft_10", "qft_13", "qft_16", "qft_20", "rd84_142", "adr4_197",
    "radd_250", "z4_268", "sym6_145", "misex1_241", "rd73_252",
    "cycle10_2_110",
)
SWEEP_KWARGS = {"num_trials": 16, "executor": "auto", "jobs": 2}

#: Statevector checks run on rows with at most this many logical qubits.
#: Over this many touched wires the physical-level check gets too costly
#: (it doubles with every wire, and a 10-qubit row can wander over all
#: 20), so the routed circuit is un-routed and checked on its logical
#: register instead.
STATEVECTOR_MAX_QUBITS = 10
STATEVECTOR_MAX_WIRES = 12

#: A row's compiles in one round continue until this many seconds are
#: spent: one compile of a small row is short enough for a single burst
#: of interference on a shared host to double it.
MIN_BURST_S = 0.3

IMPORTS = ("repro", "repro.pipeline.presets", "repro.engine.shared")


def _tokyo():
    from repro.hardware import ibm_q20_tokyo

    return ibm_q20_tokyo()


def _specs(names=None):
    from repro.bench_circuits import TABLE_II, get_benchmark

    if names is None:
        return list(TABLE_II)
    return [get_benchmark(name) for name in names]


def _digest(circuit) -> str:
    text = repr([(g.name, g.qubits, g.params) for g in circuit])
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


class RowRun:
    """One compiled row: its timing, quality and output digest."""

    __slots__ = ("spec", "result", "seconds", "gates", "g_add", "depth",
                 "digest", "executor", "shard_plan")

    def __init__(self, spec, result, seconds: float) -> None:
        self.spec = spec
        self.result = result
        self.seconds = seconds
        self.gates = result.original_gates
        self.g_add = result.added_gates
        self.depth = result.routed_depth
        self.digest = _digest(result.physical_circuit())
        props = result.properties
        self.executor = props.get("engine.executor", "direct")
        self.shard_plan = props.get("engine.shard_plan")

    def outputs(self):
        return (self.spec.name, self.g_add, self.depth, self.digest)


def compile_one(spec, seed: int, kwargs: Dict[str, object]):
    """Compile a freshly built row; only the compile call is timed.

    Returns ``(result, seconds)``.
    """
    from repro.core import compile_circuit
    from repro.engine.cache import clear_cache

    device = _tokyo()
    circuit = spec.build()
    clear_cache()
    start = time.perf_counter()
    result = compile_circuit(circuit, device, seed=seed, **kwargs)
    return result, time.perf_counter() - start


# -- correctness gate (outside the timed region) ---------------------------


def _statevector_check(result) -> Tuple[bool, str]:
    """Statevector equivalence of a routed row; returns (ok, how).

    ``routed_statevector_equivalent`` runs on the wires the output
    touches: wires the routed circuit never touches hold the same
    logical slot from start to end, so dropping them (and relabelling
    the rest densely) leaves the check unchanged while simulating 2^k
    amplitudes, k = wires touched, instead of 2^20.  Past
    ``STATEVECTOR_MAX_WIRES`` the routed circuit is un-routed with
    ``extract_logical_circuit`` and compared on the logical register.
    """
    from repro.circuits.circuit import QuantumCircuit
    from repro.core.layout import Layout
    from repro.verify.equivalence import extract_logical_circuit
    from repro.verify.statevector import (
        routed_statevector_equivalent, statevector_equivalent,
    )

    routed = result.physical_circuit(decompose_swaps=True)
    init, final = result.initial_layout, result.final_layout
    n = result.original_circuit.num_qubits
    wires = {q for gate in routed for q in gate.qubits}
    wires.update(init.physical(q) for q in range(n))
    wires.update(final.physical(q) for q in range(n))
    if len(wires) > STATEVECTOR_MAX_WIRES:
        logical = extract_logical_circuit(
            result.routing.circuit, init, n, result.routing.swap_positions
        )
        return statevector_equivalent(result.original_circuit, logical), (
            f"logical ({len(wires)} wires touched)"
        )
    order = sorted(wires)
    dense = {p: i for i, p in enumerate(order)}
    logicals = list(range(n)) + sorted(
        init.logical(p) for p in order if init.logical(p) >= n
    )
    init_c = Layout([dense[init.physical(q)] for q in logicals])
    final_c = Layout([dense[final.physical(q)] for q in logicals])
    compact = QuantumCircuit(len(order), routed.name, routed.num_clbits)
    for gate in routed:
        compact.append(gate.remapped(dense))
    ok = routed_statevector_equivalent(
        result.original_circuit, compact, init_c, final_c
    )
    return ok, f"physical ({len(wires)} wires)"


def check_rows(rows: List[RowRun]):
    """Verify every output.

    Returns (failure messages, seconds per check, how each statevector
    check ran).
    """
    from repro.verify import assert_compliant, assert_equivalent
    from repro.exceptions import VerificationError

    device = _tokyo()
    failures: List[str] = []
    statevector: Dict[str, str] = {}
    spent = {"compliance": 0.0, "equivalence": 0.0, "statevector": 0.0}
    for row in rows:
        result = row.result
        try:
            start = time.perf_counter()
            assert_compliant(result.physical_circuit(), device)
            mid = time.perf_counter()
            assert_equivalent(
                result.original_circuit,
                result.routing.circuit,
                result.initial_layout,
                swap_positions=result.routing.swap_positions,
            )
            end = time.perf_counter()
            spent["compliance"] += mid - start
            spent["equivalence"] += end - mid
            if row.spec.num_qubits <= STATEVECTOR_MAX_QUBITS:
                ok, statevector[row.spec.name] = _statevector_check(result)
                spent["statevector"] += time.perf_counter() - end
                if not ok:
                    raise VerificationError("statevector mismatch")
        except VerificationError as exc:
            failures.append(f"{row.spec.name}: {exc}")
    return failures, spent, statevector


# -- the workload ----------------------------------------------------------


def _ledger(rows: List[RowRun], row_seconds: Dict[str, float]):
    return [
        {
            "name": r.spec.name,
            "n": r.spec.num_qubits,
            "g_ori": r.gates,
            "compile_s": round(row_seconds[r.spec.name], 4),
            "g_add": r.g_add,
            "depth": r.depth,
            "executor": r.executor,
            "shard_plan": r.shard_plan,
            "paper_g_la": r.spec.paper_sabre_lookahead,
            "paper_g_op": r.spec.paper_sabre_added,
            "paper_t_op": r.spec.paper_sabre_time_total,
        }
        for r in rows
    ]


def _layer_metrics(recorder: SpanRecorder, untraced_s: float,
                   traced_s: float) -> Dict[str, float]:
    s = recorder.summary()

    def self_s(name: str) -> float:
        return s.get(name, {}).get("self", 0.0)

    traversals = recorder.attrs("core.traversal")
    emitted = sum(a["gates"] for a in traversals)
    kept = sum(a["kept_gates"] for a in recorder.attrs("core.layout"))
    sweeps = recorder.attrs("engine.sweep")
    run_s = s.get("pipeline.run", {}).get("total", 0.0)
    layers = {
        "pipeline.run_s": run_s,
        "pipeline.self_s": self_s("pipeline.run"),
        "core.layout_s": self_s("core.layout") + self_s("core.traversal"),
        "circuits.depth_s": self_s("circuits.depth"),
        "circuits.depth_calls": s.get("circuits.depth", {}).get("calls", 0),
        "circuits.lower_s": self_s("circuits.lower"),
        "circuits.decompose_s": self_s("circuits.decompose"),
        "engine.cache.distance_s": self_s("engine.cache.distance"),
        "engine.sweep_s": s.get("engine.sweep", {}).get("total", 0.0),
        "engine.trial_s": (
            s["engine.sweep"]["total"] / sum(a["trials"] for a in sweeps)
            if sweeps else 0.0
        ),
        "engine.shards": sum(a["shards"] for a in sweeps),
        "core.traversals": len(traversals),
        "core.swaps_searched": sum(a["swaps"] for a in traversals),
        "core.gates_emitted": emitted,
        "core.emit_useful_ratio": kept / emitted if emitted else 0.0,
        "bench.trace_overhead_frac": traced_s / untraced_s - 1.0,
    }
    for name, attrs, _, self_time in recorder.self_times():
        if name == "core.traversal":
            key = ("core.rev_traversal_s" if attrs["dir"] == "reverse"
                   else "core.fwd_traversal_s")
            layers[key] = layers.get(key, 0.0) + self_time
    layer_sum = sum(
        layers[k] for k in (
            "pipeline.self_s", "core.layout_s", "circuits.depth_s",
            "circuits.lower_s", "circuits.decompose_s",
            "engine.cache.distance_s",
        )
    ) + self_s("engine.sweep")
    layers["bench.layer_sum_frac"] = layer_sum / run_s if run_s else 0.0
    return layers


def run(workload: str, seed: int, seconds: float, trace: bool,
        span_path: Optional[str] = None) -> Dict[str, object]:
    if workload == "table2_direct":
        specs, kwargs = _specs(), {}
    else:
        specs, kwargs = _specs(SWEEP_ROWS), dict(SWEEP_KWARGS)

    # Set-up: a fresh interpreter's imports plus building every circuit
    # and the device's distance matrix; the median of eleven, calibrated.
    def setup_once() -> None:
        from repro.engine.cache import clear_cache, get_flat_distance_matrix

        fresh_import(IMPORTS)
        clear_cache()
        for spec in specs:
            spec.build()
        get_flat_distance_matrix(_tokyo())

    setup_s = calibrated_median(setup_once, 11)

    # Rows run round after round until the first full round is done and
    # --seconds of compiling is spent, largest first (by the paper's gate
    # count): two rows make half of table2_direct's time, and this way
    # they get a second run before the time runs out.  In each round a
    # row compiles repeatedly until MIN_BURST_S is spent, so small rows
    # get several runs.  The reference task (see calibrate.py) is timed
    # between rows; each compile is calibrated by the mean of the
    # timings just before and just after its row's burst, and a row's
    # calibrated time is the median over its runs.  The ledger keeps
    # each row's best wall time.  Every repeat at this seed must give the
    # first run's outputs.  A traced run is one untraced round of one
    # compile per row, then one traced round.
    order = sorted(range(len(specs)), key=lambda i: -specs[i].paper_gates)
    first: List[Optional[RowRun]] = [None] * len(specs)
    row_seconds: Dict[str, float] = {}
    timings: List[Tuple[str, float, int]] = []
    references: List[float] = []
    runs = 0
    mismatched: List[str] = []
    measured = 0.0
    recorder = None
    # The sweep's work runs in pool workers, so sample the whole process
    # tree there; the direct workload's peak is this process's own.
    sampler = (TreeRssSampler(os.getpid()) if workload == "table2_sweep"
               else contextlib.nullcontext())

    def repeat(row: RowRun, i: int) -> None:
        if row.outputs() != first[i].outputs():
            mismatched.append(row.spec.name)

    with sampler:
        slots = 0
        while slots < len(specs) or (not trace and measured < seconds):
            i = order[slots % len(specs)]
            spec = specs[i]
            slots += 1
            references.append(reference_seconds())
            burst = 0.0
            while burst < MIN_BURST_S:
                row = RowRun(spec, *compile_one(spec, seed + i, kwargs))
                runs += 1
                burst += row.seconds
                row_seconds[spec.name] = min(
                    row_seconds.get(spec.name, row.seconds), row.seconds
                )
                timings.append((spec.name, row.seconds, len(references) - 1))
                if first[i] is None:
                    first[i] = row
                else:
                    repeat(row, i)
                if trace:
                    break
            measured += burst
            if slots == len(specs):
                # The high-water mark of one round: later rounds hold a
                # repeat next to the kept result, and the checks' memory
                # depends on how many wires the seed's routing touched.
                peak = max(self_peak_rss_mb(),
                           getattr(sampler, "peak_mb", 0.0))
        references.append(reference_seconds())
        if trace:
            untraced_s = sum(r.seconds for r in first)
            with SpanRecorder() as recorder:
                raw = [compile_one(spec, seed + i, kwargs)
                       for i, spec in enumerate(specs)]
            traced = [RowRun(spec, *out) for spec, out in zip(specs, raw)]
            del raw
            for i, row in enumerate(traced):
                repeat(row, i)
            traced_s = sum(r.seconds for r in traced)
            del traced

    failures, spent, statevector = check_rows(first)
    failures += [f"{name}: a repeat at seed {seed} gave other outputs"
                 for name in mismatched]
    gates = sum(r.gates for r in first)
    row_calibrated: Dict[str, List[float]] = {}
    for name, wall, k in timings:
        reference = (references[k] + references[k + 1]) / 2
        row_calibrated.setdefault(name, []).append(calibrated(wall, reference))
    row_median = [statistics.median(v) for v in row_calibrated.values()]
    attempted = len(specs)
    failed = len({f.split(":")[0] for f in failures})

    e2e = {
        "setup_s": setup_s,
        "gates_per_s": gates / sum(row_median),
        "compile_s_geomean": geomean(row_median),
        "g_add_total": sum(r.g_add for r in first),
        "depth_total": sum(r.depth for r in first),
        "ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": peak,
    }
    layers: Dict[str, float] = {}
    if trace:
        layers = _layer_metrics(recorder, untraced_s, traced_s)
        layers["verify.compliance_s"] = spent["compliance"]
        layers["verify.equivalence_s"] = spent["equivalence"]
        layers["verify.statevector_s"] = spent["statevector"]
        if span_path:
            recorder.dump(span_path)
        if workload == "table2_direct":
            index = {spec.name: i for i, spec in enumerate(specs)}
            front, front_spans = frontdoor.replay([
                (specs[i], seed + i, first[i].seconds, first[i].result)
                for i in (index[name] for name in frontdoor.ROWS)
            ])
            layers.update(front)
            if span_path:
                front_spans.dump(
                    span_path.replace(".spans.", ".frontdoor.spans.")
                )
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "e2e": e2e,
        "layers": layers,
        "ledger": _ledger(first, row_seconds),
        "meta": {
            "runs": runs,
            "measured_s": measured,
            "wall_gates_per_s": gates / sum(row_seconds.values()),
            "wall_compile_s_geomean": geomean(row_seconds.values()),
            "timings": timings,
            "references": references,
            "check_s": spent,
            "statevector_check": statevector,
            "compile_kwargs": kwargs,
        },
    }
