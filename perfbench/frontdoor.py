"""The service front door, replayed in-process on Table II results.

A warm ``repro serve`` hit is all front door: body decode, QASM parse,
request fingerprint, store lookup and reply encode.  The traced
``table2_direct`` run replays exactly those steps on the large,
parse-bound rows, against a memory store holding the results that run
just compiled, with spans around each step: untraced, traced, then
untraced again, so the tracing overhead is measured against the mean of
the untraced replays.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Tuple

from spans import SpanRecorder

#: Large rows (58-154 kB of QASM) whose warm hits are parse-bound.
ROWS = ("rd73_252", "cycle10_2_110", "square_root_7", "sqn_258", "rd84_253")


def _stored(rows) -> Tuple[List[bytes], object]:
    """Request bodies for ``rows`` and a memory store answering them.

    ``rows`` are ``(spec, compile seed, seconds, MappingResult)``; each
    entry is assembled the way the service stores a compile.
    """
    from repro.analysis.metrics import json_safe_properties, result_metrics
    from repro.qasm import emit_qasm
    from repro.service.request import CompileRequest
    from repro.service.store import ShardedResultStore, StoredResult

    store = ShardedResultStore(root=None)
    bodies = []
    for spec, seed, seconds, result in rows:
        body = json.dumps({"qasm": emit_qasm(spec.build()), "seed": seed})
        request = CompileRequest.from_payload(json.loads(body))
        store.put(StoredResult(
            key=request.fingerprint(),
            routed_qasm=emit_qasm(result.physical_circuit(decompose_swaps=True)),
            metrics=result_metrics(result),
            properties=json_safe_properties(result.properties),
            request=request.summary(),
            compile_seconds=seconds,
            created_at=time.time(),
        ))
        bodies.append(body.encode("utf-8"))
    return bodies, store


def replay(rows) -> Tuple[Dict[str, float], SpanRecorder]:
    """Per-layer front-door metrics and the spans behind them."""
    from repro.service.request import CompileRequest

    bodies, store = _stored(rows)

    def one(body: bytes) -> float:
        payload = json.loads(body)
        req = CompileRequest.from_payload(payload)
        entry = store.get(req.fingerprint(req.parsed_circuit()))
        if entry is None:
            raise RuntimeError("replayed body is not in the store")
        start = time.perf_counter()
        json.dumps({"state": "done", "cached": True,
                    "result": entry.to_payload()}).encode("utf-8")
        return time.perf_counter() - start

    def timed() -> Tuple[float, float]:
        started = time.perf_counter()
        encode = sum(one(body) for body in bodies)
        return time.perf_counter() - started, encode

    before, _ = timed()
    with SpanRecorder() as recorder:
        traced, encode = timed()
    after, _ = timed()
    s = recorder.summary()
    parse_s = s["qasm.parse"]["total"]
    parse_bytes = sum(a["bytes"] for a in recorder.attrs("qasm.parse"))
    return {
        "qasm.parse_s": parse_s,
        "qasm.tokenize_s": s["qasm.tokenize"]["total"],
        "qasm.parse_mb_per_s": parse_bytes / parse_s / 1e6,
        "service.fingerprint_s": s["service.fingerprint"]["total"],
        "service.store_get_s": s["service.store_get"]["total"],
        "service.reply_encode_s": encode,
        "service.front_door_s": traced,
        "bench.front_door_trace_overhead_frac": 2 * traced / (before + after)
        - 1.0,
    }, recorder
