"""Correctness tests for the device cache (repro.engine.cache)."""

import threading

from repro.engine.cache import (
    DeviceCache,
    coupling_fingerprint,
)
from repro.hardware import grid_device, ibm_q20_tokyo, line_device
from repro.hardware.distance import (
    bfs_distance_matrix,
    floyd_warshall,
    weighted_floyd_warshall,
)


class TestDistanceMatrixCaching:
    def test_hit_equals_fresh_floyd_warshall(self):
        cache = DeviceCache()
        device = ibm_q20_tokyo()
        first = cache.distance_matrix(device)
        second = cache.distance_matrix(device)
        assert first == floyd_warshall(device)
        assert second == floyd_warshall(device)
        info = cache.cache_info()
        assert info.misses == 1
        assert info.hits == 1

    def test_computed_once_per_fingerprint(self):
        cache = DeviceCache()
        device = grid_device(3, 3)
        for _ in range(5):
            cache.distance_matrix(device)
        info = cache.cache_info()
        assert info.misses == 1
        assert info.hits == 4

    def test_equal_devices_share_one_entry(self):
        """Two independently built instances of the same topology hit
        one cache slot — the key is structural, not object identity."""
        cache = DeviceCache()
        cache.distance_matrix(grid_device(3, 3))
        cache.distance_matrix(grid_device(3, 3))
        info = cache.cache_info()
        assert info.misses == 1
        assert info.hits == 1

    def test_mutation_cannot_poison_cache(self):
        cache = DeviceCache()
        device = grid_device(3, 3)
        stolen = cache.distance_matrix(device)
        stolen[0][1] = 999.0
        stolen[2].append(123.0)
        clean = cache.distance_matrix(device)
        assert clean == floyd_warshall(device)
        assert clean[0][1] == 1.0

    def test_returned_copies_are_independent(self):
        cache = DeviceCache()
        device = line_device(5)
        a = cache.distance_matrix(device)
        b = cache.distance_matrix(device)
        assert a == b
        assert a is not b
        assert all(ra is not rb for ra, rb in zip(a, b))

    def test_weighted_and_unit_keys_differ(self):
        cache = DeviceCache()
        device = line_device(4)
        weights = {(0, 1): 2.0, (1, 2): 1.0, (2, 3): 3.0}
        unit = cache.distance_matrix(device)
        weighted = cache.distance_matrix(device, edge_weights=weights)
        assert unit == floyd_warshall(device)
        assert weighted == weighted_floyd_warshall(device, weights)
        assert unit != weighted
        assert cache.cache_info().misses == 2
        # Re-reads of both flavours hit their own entries.
        assert cache.distance_matrix(device) == unit
        assert cache.distance_matrix(device, edge_weights=weights) == weighted
        assert cache.cache_info().misses == 2

    def test_different_weight_tables_key_separately(self):
        cache = DeviceCache()
        device = line_device(4)
        a = cache.distance_matrix(device, edge_weights={(0, 1): 2.0})
        b = cache.distance_matrix(device, edge_weights={(0, 1): 4.0})
        assert a != b
        assert cache.cache_info().misses == 2

    def test_reversed_weight_key_never_aliases(self):
        """weighted_floyd_warshall only honours (low, high) keys, so a
        reversed key computes a different matrix — the cache must key
        them apart and always return exactly the fresh computation."""
        cache = DeviceCache()
        device = line_device(2)
        proper = {(0, 1): 5.0}
        reversed_key = {(1, 0): 5.0}
        assert cache.distance_matrix(
            device, edge_weights=proper
        ) == weighted_floyd_warshall(device, proper)
        assert cache.distance_matrix(
            device, edge_weights=reversed_key
        ) == weighted_floyd_warshall(device, reversed_key)
        assert cache.cache_info().misses == 2

    def test_method_is_part_of_key(self):
        cache = DeviceCache()
        device = grid_device(2, 3)
        fw = cache.distance_matrix(device, method="floyd-warshall")
        bfs = cache.distance_matrix(device, method="bfs")
        # Unit-weight APSP agrees across algorithms, but the entries are
        # distinct cache slots (methods could diverge on weighted input).
        assert fw == bfs == bfs_distance_matrix(device)
        assert cache.cache_info().misses == 2

    def test_clear_resets(self):
        cache = DeviceCache()
        cache.distance_matrix(line_device(3))
        cache.clear()
        info = cache.cache_info()
        assert info == type(info)(hits=0, misses=0, entries=0)


class TestFlatMatrixCaching:
    def test_flat_equals_nested(self):
        cache = DeviceCache()
        device = ibm_q20_tokyo()
        flat = cache.flat_distance_matrix(device)
        assert flat.to_matrix() == floyd_warshall(device)
        assert flat.symmetric

    def test_computed_once_per_fingerprint(self):
        cache = DeviceCache()
        device = grid_device(3, 3)
        for _ in range(4):
            cache.flat_distance_matrix(device)
        info = cache.cache_info()
        assert info.misses == 1
        assert info.hits == 3

    def test_flat_and_nested_share_one_store(self):
        """Both access forms are backed by one flattened store: fetching
        nested then flat computes the APSP exactly once."""
        cache = DeviceCache()
        device = grid_device(3, 3)
        nested = cache.distance_matrix(device)
        flat = cache.flat_distance_matrix(device)
        assert flat.to_matrix() == nested
        info = cache.cache_info()
        assert info.misses == 1
        assert info.hits == 1

    def test_mutation_cannot_poison_flat_cache(self):
        cache = DeviceCache()
        device = grid_device(3, 3)
        stolen = cache.flat_distance_matrix(device)
        stolen.buf[0] = 999.0
        clean = cache.flat_distance_matrix(device)
        assert clean.to_matrix() == floyd_warshall(device)

    def test_weighted_flat_matrix(self):
        cache = DeviceCache()
        device = line_device(4)
        weights = {(0, 1): 2.0, (1, 2): 0.5}
        flat = cache.flat_distance_matrix(device, edge_weights=weights)
        assert flat.to_matrix() == weighted_floyd_warshall(device, weights)

    def test_clear_resets_flat_store(self):
        cache = DeviceCache()
        device = grid_device(3, 3)
        cache.flat_distance_matrix(device)
        cache.clear()
        assert cache.cache_info().entries == 0
        cache.flat_distance_matrix(device)
        assert cache.cache_info().misses == 1


class TestFingerprint:
    def test_name_does_not_matter(self):
        a = grid_device(3, 3)
        b = grid_device(3, 3)
        b.name = "renamed"
        assert coupling_fingerprint(a) == coupling_fingerprint(b)

    def test_topology_matters(self):
        assert coupling_fingerprint(grid_device(3, 3)) != coupling_fingerprint(
            line_device(9)
        )

    def test_weights_order_invariant(self):
        device = line_device(4)
        w1 = {(0, 1): 2.0, (1, 2): 3.0}
        w2 = {(1, 2): 3.0, (0, 1): 2.0}
        assert coupling_fingerprint(device, w1) == coupling_fingerprint(device, w2)


class TestCircuitFingerprint:
    def test_one_gate_hash_per_circuit_state(self, monkeypatch):
        """The IR key hashes each gate once per circuit state, not once
        per dict probe, and a repeat lookup hashes none."""
        from repro.circuits import random_circuit
        from repro.circuits.gates import Gate

        circuit = random_circuit(4, 30, seed=2)
        calls = []
        original = Gate.__hash__

        def counting_hash(gate):
            calls.append(1)
            return original(gate)

        monkeypatch.setattr(Gate, "__hash__", counting_hash)
        cache = DeviceCache()
        first = cache.flat_dag(circuit)
        assert len(calls) == circuit.num_gates
        assert cache.flat_dag(circuit) is first
        cache.flat_dag(circuit, "reverse")
        assert len(calls) == circuit.num_gates
        assert cache.cache_info().hits == 1

    def test_content_keyed_across_instances(self):
        from repro.circuits import random_circuit

        cache = DeviceCache()
        first = cache.flat_dag(random_circuit(4, 30, seed=2))
        assert cache.flat_dag(random_circuit(4, 30, seed=2)) is first
        renamed = random_circuit(4, 30, seed=2)
        renamed.name = "other"
        assert cache.flat_dag(renamed) is not first

    def test_pickled_circuit_rehashes_its_key(self):
        """A circuit shipped to a worker carries its memoised key, and
        string hashes differ between processes: the key must hash as
        the receiving process would."""
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        write = (
            "import pickle, sys\n"
            "from repro.circuits import random_circuit\n"
            "from repro.engine.cache import circuit_fingerprint\n"
            "c = random_circuit(4, 30, seed=2)\n"
            "circuit_fingerprint(c)\n"
            "sys.stdout.write(pickle.dumps(c).hex())\n"
        )
        read = (
            "import pickle, sys\n"
            "c = pickle.loads(bytes.fromhex(sys.stdin.read()))\n"
            "key = c.__dict__['_gates_key'][1]\n"
            "assert hash(key) == hash(c.gates), 'stale hash'\n"
        )

        def run(code, seed, stdin=None):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            return subprocess.run(
                [sys.executable, "-c", code], input=stdin, env=env,
                capture_output=True, text=True, timeout=60, check=True,
            ).stdout

        run(read, "2", run(write, "1"))

    def test_mutated_circuit_misses(self):
        from repro.circuits import random_circuit

        cache = DeviceCache()
        circuit = random_circuit(4, 30, seed=2)
        first = cache.flat_dag(circuit)
        circuit.cx(0, 1)
        second = cache.flat_dag(circuit)
        assert second is not first
        assert second.num_nodes == first.num_nodes + 1
        assert cache.cache_info().misses == 2


class TestDeviceObjects:
    def test_named_device_shared(self):
        cache = DeviceCache()
        a = cache.device("ibm_q20_tokyo")
        b = cache.device("ibm_q20_tokyo")
        assert a is b
        info = cache.cache_info()
        assert info.misses == 1 and info.hits == 1

    def test_builder_override(self):
        cache = DeviceCache()
        built = cache.device("custom", builder=lambda: grid_device(2, 2))
        assert built.num_qubits == 4
        assert cache.device("custom") is built


class TestThreadSafety:
    def test_concurrent_reads_one_computation(self):
        cache = DeviceCache()
        device = ibm_q20_tokyo()
        results = []
        barrier = threading.Barrier(4)

        def read():
            barrier.wait()
            results.append(cache.distance_matrix(device))

        threads = [threading.Thread(target=read) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        reference = floyd_warshall(device)
        assert all(r == reference for r in results)
        info = cache.cache_info()
        # Racing threads may each compute, but exactly one result is
        # stored and the ledger stays consistent.
        assert info.entries == 1
        assert info.hits + info.misses == 4


class TestStats:
    """The per-store breakdown the serving layer surfaces on /stats."""

    def test_breakdown_tracks_each_store(self):
        from repro.circuits import random_circuit

        cache = DeviceCache()
        stats = cache.stats()
        assert stats == {
            "hits": 0,
            "misses": 0,
            "matrix_entries": 0,
            "device_entries": 0,
            "dag_entries": 0,
            "entries": 0,
        }
        cache.distance_matrix(line_device(4))
        cache.device("ibm_q20_tokyo")
        cache.flat_dag(random_circuit(3, 5, seed=1))
        stats = cache.stats()
        assert stats["matrix_entries"] == 1
        assert stats["device_entries"] == 1
        assert stats["dag_entries"] == 1
        assert stats["entries"] == 3
        assert stats["misses"] == 3
        cache.distance_matrix(line_device(4))
        assert cache.stats()["hits"] == 1

    def test_matches_cache_info_totals(self):
        cache = DeviceCache()
        cache.distance_matrix(grid_device(2, 3))
        cache.distance_matrix(grid_device(2, 3))
        info = cache.cache_info()
        stats = cache.stats()
        assert (info.hits, info.misses, info.entries) == (
            stats["hits"],
            stats["misses"],
            stats["entries"],
        )

    def test_module_level_wrapper(self):
        from repro.engine.cache import cache_stats

        assert set(cache_stats()) == {
            "hits",
            "misses",
            "matrix_entries",
            "device_entries",
            "dag_entries",
            "entries",
        }
