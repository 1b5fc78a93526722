"""Span recording for the traced run, from outside the program.

:class:`SpanRecorder` wraps the public entry points of each layer on the
compile path for the duration of a ``with`` block and restores the
originals on exit.  Every call becomes one span ``(id, parent, name,
start, end, attrs)`` kept in memory; :meth:`SpanRecorder.dump` writes
them out at the end.  A layer's self time is its spans' durations minus
the part covered by their child spans.

Functions imported by name into other modules are patched in every
``repro`` module that holds them, so the wrappers see calls no matter
which module makes them.  Only the thread that installed the wrappers
should call through them: the parent stack is not shared.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[int, int, str, float, float, Optional[dict]]
Annotate = Callable[[tuple, dict, object], Optional[dict]]

#: Modules whose module-level imports must exist before patching.
PRELOAD = (
    "repro.pipeline.passes",
    "repro.pipeline.runner",
    "repro.core.bidirectional",
    "repro.core.router",
    "repro.core.result",
    "repro.engine.trials",
    "repro.engine.shared",
    "repro.engine.ensemble",
    "repro.qasm.parser",
    "repro.service.request",
    "repro.service.store",
)


class SpanRecorder:
    """Wraps the compile path's entry points and records their spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []
        self._ir_direction: Dict[int, str] = {}

    # -- wrapping ------------------------------------------------------

    def _wrap(self, name: str, fn, annotate: Optional[Annotate]):
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            attrs = annotate(args, kwargs, out) if annotate else None
            spans.append((span_id, parent, name, start, end, attrs))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch_function(self, module: str, attr: str, name: str,
                        annotate: Optional[Annotate] = None) -> None:
        original = getattr(importlib.import_module(module), attr)
        wrapper = self._wrap(name, original, annotate)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def _patch_method(self, cls, attr: str, name: str,
                      annotate: Optional[Annotate] = None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(name, original, annotate))
        self._patches.append((cls, attr, original))

    # -- annotations ---------------------------------------------------

    def _note_ir(self, args, kwargs, out):
        direction = args[1] if len(args) > 1 else kwargs.get(
            "direction", "forward"
        )
        self._ir_direction[id(out)] = direction
        return None

    def _note_traversal(self, args, kwargs, out):
        ir = args[1] if len(args) > 1 else kwargs.get("circuit")
        return {
            "dir": self._ir_direction.get(id(ir), "forward"),
            "swaps": out.num_swaps,
            "gates": out.circuit.num_gates,
        }

    @staticmethod
    def _note_layout(args, kwargs, out):
        return {"kept_gates": out.routing.circuit.num_gates}

    @staticmethod
    def _note_sweep(args, kwargs, out):
        return {
            "executor": out.executor,
            "shards": len(out.shard_plan or ()),
            "trials": len(out.trials),
        }

    @staticmethod
    def _note_parse(args, kwargs, out):
        source = args[0] if args else kwargs["source"]
        return {"bytes": len(source.encode("utf-8"))}

    # -- install / restore ---------------------------------------------

    def __enter__(self) -> "SpanRecorder":
        for module in PRELOAD:
            importlib.import_module(module)
        from repro.core.bidirectional import SabreLayout
        from repro.core.router import SabreRouter
        from repro.pipeline.runner import Pipeline
        from repro.service.request import CompileRequest
        from repro.service.store import ShardedResultStore

        self._patch_method(Pipeline, "run", "pipeline.run")
        self._patch_function("repro.circuits.decompositions",
                             "decompose_to_cx_basis", "circuits.decompose")
        self._patch_function("repro.engine.cache", "get_flat_distance_matrix",
                             "engine.cache.distance")
        self._patch_function("repro.engine.cache", "get_flat_dag",
                             "circuits.lower", self._note_ir)
        self._patch_method(SabreLayout, "run", "core.layout",
                           self._note_layout)
        self._patch_method(SabreRouter, "run", "core.traversal",
                           self._note_traversal)
        self._patch_function("repro.circuits.depth", "circuit_depth",
                             "circuits.depth")
        self._patch_function("repro.engine.trials", "run_trials",
                             "engine.sweep", self._note_sweep)
        self._patch_function("repro.qasm.parser", "parse_qasm", "qasm.parse",
                             self._note_parse)
        self._patch_function("repro.qasm.lexer", "tokenize", "qasm.tokenize")
        self._patch_method(CompileRequest, "fingerprint",
                           "service.fingerprint")
        self._patch_method(ShardedResultStore, "get", "service.store_get")
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------

    def self_times(self) -> List[Tuple[str, Optional[dict], float, float]]:
        """``(name, attrs, duration, self time)`` for every span."""
        covered: Dict[int, float] = defaultdict(float)
        for _, parent, _, start, end, _ in self.spans:
            covered[parent] += end - start
        return [
            (name, attrs, end - start, end - start - covered[span_id])
            for span_id, _, name, start, end, attrs in self.spans
        ]

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total`` and ``self`` seconds."""
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total": 0.0, "self": 0.0}
        )
        for name, _, duration, self_s in self.self_times():
            row = out[name]
            row["calls"] += 1
            row["total"] += duration
            row["self"] += self_s
        return dict(out)

    def attrs(self, name: str) -> List[dict]:
        return [a for _, _, n, _, _, a in self.spans if n == name and a]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, attrs in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end, "attrs": attrs,
                }) + "\n")
