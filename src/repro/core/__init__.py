"""SABRE: SWAP-based BidiREctional heuristic search (the paper's core).

Public pieces:

- :class:`~repro.core.layout.Layout` — the mapping ``pi`` between logical
  and physical qubits (paper Table I).
- :class:`~repro.core.heuristic.HeuristicConfig` and the cost functions
  of §IV-D (Equations 1 and 2: nearest-neighbour, look-ahead, decay).
- :class:`~repro.core.router.SabreRouter` — Algorithm 1, the one-pass
  SWAP-based heuristic search.
- :class:`~repro.core.bidirectional.SabreLayout` — the reverse-traversal
  initial mapping search (§IV-C2) with random restarts.
- :func:`~repro.core.compiler.compile_circuit` — the one-call public API
  tying everything together.
"""

from repro.core.layout import Layout
from repro.core.heuristic import HeuristicConfig, DecayTracker
from repro.core.scoring import FlatDistance
from repro.core.router import SabreRouter, RoutingResult
from repro.core.bidirectional import SabreLayout
from repro.core.legacy import LegacyDagRouter, LegacySabreLayout
from repro.core.compiler import compile_circuit
from repro.core.result import MappingResult

__all__ = [
    "LegacyDagRouter",
    "LegacySabreLayout",
    "Layout",
    "HeuristicConfig",
    "DecayTracker",
    "FlatDistance",
    "SabreRouter",
    "RoutingResult",
    "SabreLayout",
    "compile_circuit",
    "MappingResult",
]
