"""Gate objects and the standard gate library.

The paper restricts circuits to single-qubit gates plus CNOT (Section
II-A): "arbitrary quantum circuit can be expressed by compositions of a
set of single-qubit gates and CNOT gate" (Barenco et al.), and this is
the elementary gate set of the IBM devices the paper targets.  We
implement that basis plus the common OpenQASM 2.0 convenience gates
(S, T, rotations, U1/U2/U3, CZ, SWAP, Toffoli) so the paper's benchmark
suites parse directly; the routing core itself only distinguishes
one-qubit from two-qubit gates.

A :class:`Gate` is an immutable value object: name, qubit operands, and
real parameters.  Immutability lets circuits share gates freely (the
reverse-traversal pass re-uses the forward pass's gates) and makes gates
usable as dictionary keys in the DAG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.exceptions import CircuitError


@dataclass(frozen=True)
class GateSpec:
    """Static description of a gate type.

    Attributes:
        name: canonical lowercase gate name (as in OpenQASM 2.0).
        num_qubits: number of qubit operands.
        num_params: number of real parameters.
        self_inverse: whether ``G . G = I`` (used by :meth:`Gate.inverse`).
        inverse_name: name of the inverse gate type when it is a different
            type (e.g. ``t`` <-> ``tdg``); ``None`` means same type.
        directive: True for pseudo-operations (barrier) that have no
            unitary action and are ignored by routing heuristics.
    """

    name: str
    num_qubits: int
    num_params: int = 0
    self_inverse: bool = False
    inverse_name: Optional[str] = None
    directive: bool = False


def _build_specs() -> Dict[str, GateSpec]:
    specs = [
        GateSpec("id", 1, self_inverse=True),
        GateSpec("x", 1, self_inverse=True),
        GateSpec("y", 1, self_inverse=True),
        GateSpec("z", 1, self_inverse=True),
        GateSpec("h", 1, self_inverse=True),
        GateSpec("s", 1, inverse_name="sdg"),
        GateSpec("sdg", 1, inverse_name="s"),
        GateSpec("t", 1, inverse_name="tdg"),
        GateSpec("tdg", 1, inverse_name="t"),
        GateSpec("sx", 1, inverse_name="sxdg"),
        GateSpec("sxdg", 1, inverse_name="sx"),
        GateSpec("rx", 1, num_params=1),
        GateSpec("ry", 1, num_params=1),
        GateSpec("rz", 1, num_params=1),
        GateSpec("u1", 1, num_params=1),
        GateSpec("u2", 1, num_params=2),
        GateSpec("u3", 1, num_params=3),
        GateSpec("cx", 2, self_inverse=True),
        GateSpec("cz", 2, self_inverse=True),
        GateSpec("cy", 2, self_inverse=True),
        GateSpec("ch", 2, self_inverse=True),
        GateSpec("crz", 2, num_params=1),
        GateSpec("cu1", 2, num_params=1),
        GateSpec("cp", 2, num_params=1),
        GateSpec("rzz", 2, num_params=1),
        GateSpec("swap", 2, self_inverse=True),
        GateSpec("ccx", 3, self_inverse=True),
        GateSpec("cswap", 3, self_inverse=True),
        GateSpec("measure", 1, directive=True),
        GateSpec("reset", 1, directive=True),
        GateSpec("barrier", 0, directive=True),  # variadic; checked specially
    ]
    return {spec.name: spec for spec in specs}


#: Registry of all gate types the library understands, keyed by name.
GATE_SPECS: Dict[str, GateSpec] = _build_specs()

#: Gate names whose parameters negate under inversion (rotation-like).
_NEGATE_PARAMS_ON_INVERSE = {"rx", "ry", "rz", "u1", "crz", "cu1", "cp", "rzz"}


@dataclass(frozen=True, slots=True)
class Gate:
    """A single circuit operation: ``name`` applied to ``qubits``.

    Qubits are plain integer wire indices (the circuit container defines
    the register).  For controlled gates the control(s) come first, e.g.
    ``Gate('cx', (control, target))``.

    Instances are immutable and hashable; two gates compare equal when
    name, operands, and parameters all match.  Slotted: a routed
    deep-circuit workload holds millions of gates, and slot storage
    both shrinks them and speeds every ``gate.qubits`` read in the
    mapper's loops.
    """

    name: str
    qubits: Tuple[int, ...]
    params: Tuple[float, ...] = field(default=())
    clbit: Optional[int] = None  # only used by `measure`

    def __post_init__(self) -> None:
        spec = GATE_SPECS.get(self.name)
        if spec is None:
            raise CircuitError(f"unknown gate name: {self.name!r}")
        if not isinstance(self.qubits, tuple):
            object.__setattr__(self, "qubits", tuple(self.qubits))
        if not isinstance(self.params, tuple):
            object.__setattr__(self, "params", tuple(self.params))
        if spec.name == "barrier":
            if not self.qubits:
                raise CircuitError("barrier requires at least one qubit")
        elif len(self.qubits) != spec.num_qubits:
            raise CircuitError(
                f"gate {self.name!r} expects {spec.num_qubits} qubit(s), "
                f"got {len(self.qubits)}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise CircuitError(
                f"gate {self.name!r} has duplicate qubit operands {self.qubits}"
            )
        if spec.name != "barrier" and len(self.params) != spec.num_params:
            raise CircuitError(
                f"gate {self.name!r} expects {spec.num_params} parameter(s), "
                f"got {len(self.params)}"
            )
        for p in self.params:
            if not isinstance(p, (int, float)):
                raise CircuitError(
                    f"gate {self.name!r} parameter {p!r} is not a real number"
                )

    @property
    def spec(self) -> GateSpec:
        """The static :class:`GateSpec` for this gate's type."""
        return GATE_SPECS[self.name]

    @property
    def num_qubits(self) -> int:
        """Number of qubit operands (2 for CNOT, 1 for H, ...)."""
        return len(self.qubits)

    @property
    def is_two_qubit(self) -> bool:
        """True for the gates the mapper must route (2-qubit unitaries).

        Barriers/measure/reset are directives and never require routing;
        3-qubit gates must be decomposed before routing (the paper's
        benchmarks are already in the {1q, CNOT} basis).
        """
        return self.num_qubits == 2 and not self.spec.directive

    @property
    def is_directive(self) -> bool:
        """True for non-unitary pseudo-operations (measure/reset/barrier)."""
        return self.spec.directive

    def inverse(self) -> "Gate":
        """Return the inverse (dagger) of this gate.

        Used to build true inverse circuits; the reverse *traversal* of
        the paper only needs gate order reversed (qubit pairs are what
        matter to routing), but we implement the exact dagger so reversed
        circuits remain semantically meaningful and simulator-checkable.
        """
        spec = self.spec
        if spec.directive:
            return self
        if spec.self_inverse:
            return self
        if spec.inverse_name is not None:
            return Gate(spec.inverse_name, self.qubits, self.params)
        if self.name in _NEGATE_PARAMS_ON_INVERSE:
            return Gate(self.name, self.qubits, tuple(-p for p in self.params))
        if self.name == "u2":
            phi, lam = self.params
            return Gate("u3", self.qubits, (-math.pi / 2, -lam, -phi))
        if self.name == "u3":
            theta, phi, lam = self.params
            return Gate("u3", self.qubits, (-theta, -lam, -phi))
        raise CircuitError(f"no inverse rule for gate {self.name!r}")

    def remapped(self, mapping) -> "Gate":
        """Return a copy acting on ``mapping[q]`` for each operand ``q``.

        ``mapping`` may be a dict, list, or any indexable; used to move
        gates between the logical and physical index spaces.
        """
        return Gate(
            self.name,
            tuple(mapping[q] for q in self.qubits),
            self.params,
            self.clbit,
        )

    def __str__(self) -> str:
        args = ", ".join(str(q) for q in self.qubits)
        if self.params:
            ps = ", ".join(f"{p:g}" for p in self.params)
            return f"{self.name}({ps}) {args}"
        return f"{self.name} {args}"


def swap_gate(pa: int, pb: int) -> Gate:
    """Unvalidated ``Gate("swap", (pa, pb))`` for the router's
    SWAP-insertion path.

    The router inserts one of these per search step with operands taken
    from a layout table (distinct by bijectivity, in range by
    construction), so the dataclass validation pass is provably
    redundant there.  Everyone else should construct :class:`Gate`
    normally.
    """
    gate = object.__new__(Gate)
    object.__setattr__(gate, "name", "swap")
    object.__setattr__(gate, "qubits", (pa, pb))
    object.__setattr__(gate, "params", ())
    object.__setattr__(gate, "clbit", None)
    return gate


def remap_gate(gate: Gate, mapping) -> Gate:
    """Allocation-light :meth:`Gate.remapped` for the router's emit path.

    Two differences from ``remapped()``, both safe only because the
    router maps through a *permutation* (a :class:`~repro.core.layout.Layout`
    table), which preserves operand distinctness and arity:

    - when the mapping is the identity on this gate's operands, the
      original (immutable) gate is returned unchanged — no allocation
      at all, the common case once qubits have settled;
    - otherwise the copy is built without re-running ``__post_init__``
      validation (spec lookup, arity/duplicate checks), which the
      source gate already passed and the permutation cannot break.

    Every output op of every traversal funnels through here, so the
    saved allocations are measured in the millions per layout sweep.
    """
    qubits = gate.qubits
    if len(qubits) == 2:
        mapped = (mapping[qubits[0]], mapping[qubits[1]])
    elif len(qubits) == 1:
        mapped = (mapping[qubits[0]],)
    else:
        mapped = tuple(mapping[q] for q in qubits)
    if mapped == qubits:
        return gate
    new = _new_object(Gate)
    _set_name(new, gate.name)
    _set_qubits(new, mapped)
    _set_params(new, gate.params)
    _set_clbit(new, gate.clbit)
    return new


# remap_gate fills a new Gate through its slot descriptors: the frozen
# dataclass's __setattr__ guard is what object.__setattr__ would route
# around, at about twice the cost per field.
_new_object = object.__new__
_set_name = Gate.__dict__["name"].__set__
_set_qubits = Gate.__dict__["qubits"].__set__
_set_params = Gate.__dict__["params"].__set__
_set_clbit = Gate.__dict__["clbit"].__set__
