"""Memoised derived data: distance matrices, devices, and circuit IRs.

The paper's preprocessing step — the Floyd-Warshall all-pairs distance
matrix ``D`` — costs ``O(N^3)`` per device, and every routing pass
needs the circuit lowered into a dependency DAG (``O(g)`` with a Python
object per gate when done naively).  A production service compiling
millions of circuits against a handful of devices must not pay those
costs per call, so the engine keys every derived artefact on a
*structural fingerprint* — of the coupling graph (qubit count,
undirected edge set, direction set, edge weights, APSP method) for
device data, of the gate list for circuit IRs — and computes each at
most once per process.

Safety properties:

- **Thread-safe**: all cache state is guarded by a lock, so concurrent
  compilation threads share one computation per device.
- **Process-safe by construction**: worker processes each hold their
  own cache instance, and the batch/trial executors compute the matrix
  once in the parent and ship it to workers as an argument, so a pool
  run performs the Floyd-Warshall exactly once (see
  :mod:`repro.engine.batch`).  Circuit IRs are lowered at most once per
  worker (and shared outright under a fork start method).
- **Poison-proof**: matrices are stored once, flattened to immutable
  bytes, and returned as fresh mutable copies (nested lists or
  :class:`FlatDistance` buffers); mutating a returned matrix can never
  corrupt later reads.  Circuit IRs (:class:`FlatDag`) carry no
  mutating API at all, so — like device objects — every caller shares
  one instance per fingerprint.
"""

from __future__ import annotations

import threading
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.flatdag import FlatDag
from repro.circuits.reverse import reversed_circuit
from repro.core.scoring import FlatDistance
from repro.exceptions import ReproError
from repro.hardware.coupling import CouplingGraph
from repro.hardware.devices import DEVICE_BUILDERS, get_device
from repro.hardware.distance import (
    bfs_flat_distance,
    distance_matrix,
    weighted_floyd_warshall,
)

#: Cache key: (num_qubits, undirected edges, directed edges or None,
#: sorted edge-weight items or None, APSP method).
Fingerprint = Tuple[object, ...]

Matrix = List[List[float]]


def coupling_fingerprint(
    coupling: CouplingGraph,
    edge_weights: Optional[Dict[Tuple[int, int], float]] = None,
    method: str = "floyd-warshall",
) -> Fingerprint:
    """Structural identity of a device for cache keying.

    Two :class:`CouplingGraph` instances with the same qubit count,
    edge set, and direction set fingerprint identically regardless of
    object identity or ``name``, so a device rebuilt per request still
    hits the cache.  Weighted (noise-aware) matrices key on the weight
    table too, so unit and weighted matrices never collide.  Weight
    keys are fingerprinted verbatim — ``weighted_floyd_warshall`` only
    honours ``(low, high)`` keys, so a reversed key changes the
    computed matrix and must change the fingerprint with it.
    """
    directed = getattr(coupling, "_directed", None)
    weights_key = (
        None
        if edge_weights is None
        else tuple(sorted((tuple(e), w) for e, w in edge_weights.items()))
    )
    return (
        coupling.num_qubits,
        tuple(coupling.edges),
        None if directed is None else tuple(sorted(directed)),
        weights_key,
        method,
    )


class _GatesKey:
    """A gate tuple that hashes once.

    Tuples do not cache their hash, so a tuple-keyed IR lookup rehashed
    every gate on each dict probe (two gets and an insert per miss, a
    get and a ``move_to_end`` per hit).  This wrapper hashes the gates
    at construction and compares by content, so equal gate sequences
    from distinct circuits still share one cache entry.
    """

    __slots__ = ("gates", "_hash")

    def __init__(self, gates: Tuple[object, ...]) -> None:
        self.gates = gates
        self._hash = hash(gates)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # String hashes differ between processes, so a pickled key
        # (it travels inside a pickled circuit's memo) rehashes on load.
        return (_GatesKey, (self.gates,))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, _GatesKey):
            return NotImplemented
        return self._hash == other._hash and self.gates == other.gates


def circuit_fingerprint(circuit: QuantumCircuit) -> Fingerprint:
    """Content identity of a circuit for IR cache keying.

    Keyed on the gate sequence itself (gates are immutable, hashable
    value objects), not object identity — a circuit rebuilt per request
    or mutated after a previous fetch fingerprints to the state it is
    in *now*, so stale IRs are unreachable by construction.  The gate
    sequence is wrapped in a :class:`_GatesKey` memoised on the
    circuit's mutation counter, so each circuit state hashes its gates
    once however many lookups it makes.

    The name is part of the key: the IR carries it into routed-output
    naming (``<name>_routed``), so two gate-identical circuits with
    different names must not share an IR or the second would inherit
    the first's name downstream.
    """
    memo = circuit.__dict__.get("_gates_key")
    if memo is None or memo[0] != circuit._mutations:
        memo = (circuit._mutations, _GatesKey(circuit.gates))
        circuit.__dict__["_gates_key"] = memo
    return (
        circuit.name,
        circuit.num_qubits,
        circuit.num_clbits,
        memo[1],
    )


@dataclass(frozen=True)
class CacheInfo:
    """Counters snapshot (``lru_cache``-style)."""

    hits: int
    misses: int
    entries: int


class DeviceCache:
    """Process-local memo for distance matrices and named devices.

    One instance (the module-level :data:`GLOBAL_CACHE`) backs the
    whole engine; tests may construct private instances to assert
    hit/miss behaviour in isolation.
    """

    #: LRU bound for the circuit-IR store.  Device matrices are few
    #: (one per device) and stay unbounded; circuits are open-ended, so
    #: the IR store evicts least-recently-used entries beyond this.
    MAX_DAG_ENTRIES = 64

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: Single matrix store, flattened: (n, raw float64 bytes,
        #: symmetric flag).  The nested list-of-lists form is derived
        #: from it on demand, so both access paths share one compute
        #: and one copy per fingerprint.
        self._flat: Dict[Fingerprint, Tuple[int, bytes, bool]] = {}
        self._devices: Dict[str, CouplingGraph] = {}
        #: Circuit IRs keyed by (circuit fingerprint, direction), LRU.
        self._dags: "OrderedDict[Tuple[Fingerprint, str], FlatDag]" = (
            OrderedDict()
        )
        self._hits = 0
        self._misses = 0

    # ------------------------------------------------------------------
    # Distance matrices
    # ------------------------------------------------------------------

    def distance_matrix(
        self,
        coupling: CouplingGraph,
        edge_weights: Optional[Dict[Tuple[int, int], float]] = None,
        method: str = "floyd-warshall",
    ) -> Matrix:
        """The device's ``D[][]``, computed at most once per fingerprint.

        Returns a *fresh* list-of-lists copy on every call (hit or
        miss); callers may mutate their copy freely.  Backed by the
        same flattened store as :meth:`flat_distance_matrix`, so
        fetching both forms still computes the APSP only once.
        """
        return self.flat_distance_matrix(
            coupling, edge_weights, method
        ).to_matrix()

    def flat_distance_matrix(
        self,
        coupling: CouplingGraph,
        edge_weights: Optional[Dict[Tuple[int, int], float]] = None,
        method: str = "floyd-warshall",
    ) -> FlatDistance:
        """The device's ``D`` as a :class:`FlatDistance`, cached once.

        This is what the router core consumes directly: a 1-D
        ``array('d')`` buffer.  Stored as immutable bytes; every call
        (hit or miss) returns a fresh buffer, so mutating a returned
        instance can never corrupt later reads.
        """
        key = coupling_fingerprint(coupling, edge_weights, method)
        with self._lock:
            frozen = self._flat.get(key)
            if frozen is not None:
                self._hits += 1
                return self._thaw_flat(frozen)
        # Compute outside the lock: Floyd-Warshall on a big device is
        # exactly the work we must not serialise other devices behind.
        # (A rare concurrent first fetch may duplicate the compute; the
        # first store wins and the loser counts as a hit, matching the
        # pre-existing nested-store behaviour.)
        flat = FlatDistance.from_matrix(
            self._compute(coupling, edge_weights, method)
        )
        frozen = (flat.n, flat.buf.tobytes(), flat.symmetric)
        with self._lock:
            if key not in self._flat:
                self._flat[key] = frozen
                self._misses += 1
            else:
                self._hits += 1
            return self._thaw_flat(self._flat[key])

    @staticmethod
    def _thaw_flat(frozen: Tuple[int, bytes, bool]) -> FlatDistance:
        n, raw, symmetric = frozen
        buf = array("d")
        buf.frombytes(raw)
        return FlatDistance(n, buf, symmetric)

    @staticmethod
    def _compute(
        coupling: CouplingGraph,
        edge_weights: Optional[Dict[Tuple[int, int], float]],
        method: str,
    ):
        if edge_weights is not None:
            return weighted_floyd_warshall(coupling, edge_weights)
        if method == "bfs":
            # Built directly as a FlatDistance (from_matrix is a no-op
            # on it), skipping the nested-rows detour entirely.
            return bfs_flat_distance(coupling)
        return distance_matrix(coupling, method=method)

    # ------------------------------------------------------------------
    # Circuit IRs
    # ------------------------------------------------------------------

    def flat_dag(
        self, circuit: QuantumCircuit, direction: str = "forward"
    ) -> FlatDag:
        """The circuit's compile-once IR, lowered at most once per content.

        ``direction="reverse"`` lowers the reversed circuit (gate order
        flipped, directives dropped — what the bidirectional search's
        backward traversals route), cached under the *forward* content
        fingerprint so forward and reverse IRs of one circuit share a
        single hashing pass per direction.

        Unlike matrices, the returned :class:`FlatDag` is the shared
        cached instance: it is immutable (flat arrays plus immutable
        gate handles, no mutating API), so all trials, traversals, and
        threads read one object — that sharing is the point.
        """
        if direction not in ("forward", "reverse"):
            raise ReproError(
                f"unknown IR direction {direction!r}; "
                "choose 'forward' or 'reverse'"
            )
        key = (circuit_fingerprint(circuit), direction)
        with self._lock:
            cached = self._dags.get(key)
            if cached is not None:
                self._hits += 1
                self._dags.move_to_end(key)
                return cached
        # Lower outside the lock — O(g) work other threads need not
        # queue behind.  A rare concurrent first fetch may duplicate
        # the lowering; the first store wins and the loser counts as a
        # hit, matching the matrix-store behaviour.
        source = circuit if direction == "forward" else reversed_circuit(circuit)
        built = FlatDag.from_circuit(source)
        with self._lock:
            cached = self._dags.get(key)
            if cached is not None:
                self._hits += 1
                self._dags.move_to_end(key)
                return cached
            self._dags[key] = built
            self._misses += 1
            while len(self._dags) > self.MAX_DAG_ENTRIES:
                self._dags.popitem(last=False)
            return built

    # ------------------------------------------------------------------
    # Device objects
    # ------------------------------------------------------------------

    def device(
        self, name: str, builder: Optional[Callable[[], CouplingGraph]] = None
    ) -> CouplingGraph:
        """A shared :class:`CouplingGraph` for a named device.

        ``CouplingGraph`` exposes no mutating API, so handing every
        caller the same instance is safe and keeps fingerprints (and
        therefore downstream identity-keyed structures) stable.
        """
        with self._lock:
            cached = self._devices.get(name)
            if cached is not None:
                self._hits += 1
                return cached
        built = builder() if builder is not None else get_device(name)
        with self._lock:
            if name not in self._devices:
                self._devices[name] = built
                self._misses += 1
            else:
                self._hits += 1
            return self._devices[name]

    # ------------------------------------------------------------------
    # Introspection / maintenance
    # ------------------------------------------------------------------

    def cache_info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(
                hits=self._hits,
                misses=self._misses,
                entries=len(self._flat) + len(self._devices) + len(self._dags),
            )

    def stats(self) -> Dict[str, int]:
        """Counters plus per-store entry counts, as a JSON-safe dict.

        The serving layer surfaces this on ``GET /stats`` and in the
        ``repro serve --verbose`` banner; unlike :meth:`cache_info` it
        breaks the entry count down by store so operators can see what
        the process is actually holding (matrices are per-device and
        small in number, circuit IRs are the LRU-bounded open set).
        """
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "matrix_entries": len(self._flat),
                "device_entries": len(self._devices),
                "dag_entries": len(self._dags),
                "entries": len(self._flat) + len(self._devices) + len(self._dags),
            }

    def clear(self) -> None:
        with self._lock:
            self._flat.clear()
            self._devices.clear()
            self._dags.clear()
            self._hits = 0
            self._misses = 0


#: Shared per-process cache used by the compiler front door and the
#: trial/batch executors.
GLOBAL_CACHE = DeviceCache()


def get_distance_matrix(
    coupling: CouplingGraph,
    edge_weights: Optional[Dict[Tuple[int, int], float]] = None,
    method: str = "floyd-warshall",
) -> Matrix:
    """Module-level convenience wrapper over :data:`GLOBAL_CACHE`."""
    return GLOBAL_CACHE.distance_matrix(coupling, edge_weights, method)


def get_flat_distance_matrix(
    coupling: CouplingGraph,
    edge_weights: Optional[Dict[Tuple[int, int], float]] = None,
    method: str = "floyd-warshall",
) -> FlatDistance:
    """Flattened-matrix wrapper over :data:`GLOBAL_CACHE`.

    The compiler front door and the trial/batch executors fetch this
    form: the router consumes it without re-flattening, and its compact
    single-buffer pickle keeps worker-pool dispatch cheap.
    """
    return GLOBAL_CACHE.flat_distance_matrix(coupling, edge_weights, method)


def get_flat_dag(
    circuit: QuantumCircuit, direction: str = "forward"
) -> FlatDag:
    """Compile-once circuit IR through :data:`GLOBAL_CACHE`.

    The layout search and compiler front door fetch both directions
    here, so a trial sweep — and any repeat compilation of the same
    circuit in this process — lowers the circuit exactly once per
    direction.
    """
    return GLOBAL_CACHE.flat_dag(circuit, direction)


def get_cached_device(name: str) -> CouplingGraph:
    """Named device lookup through the shared cache."""
    if name not in DEVICE_BUILDERS:
        # Delegate the error path (and its message) to the zoo.
        return get_device(name)
    return GLOBAL_CACHE.device(name)


def cache_info() -> CacheInfo:
    """Hit/miss counters of the shared cache."""
    return GLOBAL_CACHE.cache_info()


def cache_stats() -> Dict[str, int]:
    """Per-store counter breakdown of the shared cache (JSON-safe)."""
    return GLOBAL_CACHE.stats()


def clear_cache() -> None:
    """Drop all shared cache entries and reset counters (test hook)."""
    GLOBAL_CACHE.clear()
