"""Heuristic cost functions (paper §IV-D, Equations 1 and 2).

Three stacked designs, selectable via :class:`HeuristicConfig.mode`:

- ``"basic"`` — Equation 1: the summed nearest-neighbour cost (NNC) over
  the front layer ``F``.
- ``"lookahead"`` — Equation 2 without decay: normalised front-layer
  term plus a ``W``-weighted term over the extended set ``E`` of
  upcoming two-qubit gates.
- ``"decay"`` — full Equation 2: the look-ahead score multiplied by
  ``max(decay(q1), decay(q2))`` of the candidate SWAP's qubits, which
  steers search toward non-overlapping (parallel) SWAPs and exposes the
  gate-count/depth trade-off of Fig. 8.

Every candidate SWAP is scored with that one cost function, computed by
one of two implementations (:attr:`HeuristicConfig.scorer`): the
production ``"vector"`` scorer of :mod:`repro.core.scoring`, or the
paper-literal :func:`score_layout` (``"reference"``), kept as the
differential oracle and as the fallback for asymmetric distance
matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from repro.circuits.gates import Gate
from repro.exceptions import MappingError

#: Valid heuristic modes, weakest to strongest.
MODES = ("basic", "lookahead", "decay")

#: Scorer implementations, production first (:attr:`HeuristicConfig.scorer`).
SCORERS = ("vector", "reference")


@dataclass(frozen=True)
class HeuristicConfig:
    """Tunable knobs of the SABRE cost function.

    Defaults are the paper's evaluation settings (§V "Algorithm
    Configuration"): ``|E| = 20``, ``W = 0.5``, ``delta = 0.001``, decay
    reset every 5 search steps or on gate execution.

    Attributes:
        mode: ``"basic"``, ``"lookahead"``, or ``"decay"``.
        extended_set_size: ``|E|``, number of look-ahead gates.
        extended_set_weight: ``W`` in Equation 2, ``0 <= W < 1``.
        decay_delta: ``delta``, the per-SWAP decay increment.
        decay_reset_interval: reset the decay table after this many
            consecutive SWAP selections.
        swap_cost_penalty: extension knob (0.0 = paper behaviour): adds
            ``penalty * (D[e] - 1)`` to a candidate SWAP's score, where
            ``D[e]`` is the distance-matrix length of the SWAP's own
            edge.  With the unit-hop matrix every edge has length 1 and
            the term vanishes; with a noise-weighted matrix it makes
            the router pay for executing 3 CNOTs on a noisy coupler
            (see :mod:`repro.extensions.noise_aware`).
        scorer: candidate-SWAP scoring implementation.  The default
            ``"vector"`` scores every front with a scalar ``O(deg)``
            delta loop over the flat distance buffer
            (:mod:`repro.core.scoring`); ``"reference"`` recomputes the
            full Eq. 2 sum per candidate exactly as written in the
            paper.  Both produce identical
            routed circuits (the differential suite enforces it).
    """

    mode: str = "decay"
    extended_set_size: int = 20
    extended_set_weight: float = 0.5
    decay_delta: float = 0.001
    decay_reset_interval: int = 5
    swap_cost_penalty: float = 0.0
    scorer: str = "vector"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise MappingError(
                f"unknown heuristic mode {self.mode!r}; choose from {MODES}"
            )
        for name in ("extended_set_weight", "decay_delta", "swap_cost_penalty"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise MappingError(f"{name} must be a finite number, got {value!r}")
        if self.extended_set_size < 0:
            raise MappingError("extended_set_size must be >= 0")
        if not 0.0 <= self.extended_set_weight < 1.0:
            raise MappingError(
                "extended_set_weight W must satisfy 0 <= W < 1 (paper §IV-D)"
            )
        if self.decay_delta < 0.0:
            raise MappingError("decay_delta must be >= 0")
        if self.decay_reset_interval < 1:
            raise MappingError("decay_reset_interval must be >= 1")
        if self.swap_cost_penalty < 0.0:
            raise MappingError("swap_cost_penalty must be >= 0")
        if self.scorer not in SCORERS:
            raise MappingError(
                f"unknown scorer {self.scorer!r}; choose from {SCORERS}"
            )

    @property
    def uses_lookahead(self) -> bool:
        return self.mode in ("lookahead", "decay") and self.extended_set_size > 0

    @property
    def uses_decay(self) -> bool:
        return self.mode == "decay"


class DecayTracker:
    """Per-qubit decay parameters (§IV-D).

    Every qubit starts at 1.0.  When a SWAP on ``(q1, q2)`` is selected,
    both qubits' parameters grow by ``delta``; the table resets to all
    ones every ``reset_interval`` selections or whenever the router
    executes a gate ("this decay function is reset every 5 search steps
    or after a CNOT gate is executed", §V).
    """

    __slots__ = ("delta", "reset_interval", "values", "_steps")

    def __init__(self, num_qubits: int, delta: float, reset_interval: int) -> None:
        self.delta = delta
        self.reset_interval = reset_interval
        self.values: List[float] = [1.0] * num_qubits
        self._steps = 0

    def factor(self, q1: int, q2: int) -> float:
        """``max(decay(q1), decay(q2))`` — the Equation 2 multiplier."""
        v = self.values
        return v[q1] if v[q1] >= v[q2] else v[q2]

    def record_swap(self, q1: int, q2: int) -> None:
        """Bump both qubits after a SWAP is selected; auto-reset on the
        configured interval."""
        self.values[q1] += self.delta
        self.values[q2] += self.delta
        self._steps += 1
        if self._steps >= self.reset_interval:
            self.reset()

    def reset(self) -> None:
        """Forget all decay (called on reset interval and gate execution)."""
        self.values = [1.0] * len(self.values)
        self._steps = 0


def mapped_distance_sum(
    gates: Sequence[Gate], l2p: Sequence[int], dist: Sequence[Sequence[float]]
) -> float:
    """``sum over gates of D[pi(q1)][pi(q2)]`` — the NNC building block."""
    total = 0.0
    for gate in gates:
        a, b = gate.qubits
        total += dist[l2p[a]][l2p[b]]
    return total


def score_layout(
    front_gates: Sequence[Gate],
    extended_gates: Sequence[Gate],
    l2p: Sequence[int],
    dist: Sequence[Sequence[float]],
    config: HeuristicConfig,
) -> float:
    """Distance part of the heuristic for the *current* ``l2p``.

    The router evaluates a candidate SWAP by temporarily applying it to
    the layout, calling this, then undoing it — "the mapping pi is
    temporarily changed by a SWAP and then H is calculated" (§IV-D).
    Decay is applied by the caller (it depends on the SWAP's qubits, not
    on the layout).

    - basic mode: Equation 1, the raw front-layer sum.
    - lookahead/decay modes: Equation 2's braced term, with each sum
      normalised by its set size.
    """
    if config.mode == "basic":
        return mapped_distance_sum(front_gates, l2p, dist)
    score = mapped_distance_sum(front_gates, l2p, dist) / len(front_gates)
    if extended_gates:
        score += (
            config.extended_set_weight
            * mapped_distance_sum(extended_gates, l2p, dist)
            / len(extended_gates)
        )
    return score
