"""Regression tests for the trial seed-handling bug class.

Historically every random restart shared the router's base tie-break
seed: trials differed only in their initial mapping and replayed the
same tie-break sequence, and concurrent trials routed through one
router would have contended for one RNG stream.  These tests pin the
fixed contract: per-run seeding, no shared or global RNG state.
"""

import random

from repro.circuits import QuantumCircuit, random_circuit
from repro.core import Layout, SabreLayout, SabreRouter
from repro.engine import run_trials
from repro.hardware import grid_device, ring_device
import pytest


@pytest.fixture
def ring8():
    return ring_device(8)


def _tie_heavy_circuit(num_qubits=8):
    """Antipodal CNOTs on a ring: routing either way round costs the
    same, so equal-score SWAPs abound and the tie-break RNG decides the
    swap sequence.  Pair with ``ring_device(num_qubits)``."""
    circ = QuantumCircuit(num_qubits, name="tie_heavy")
    for k in range(num_qubits // 2):
        circ.cx(k, (k + num_qubits // 2) % num_qubits)
    return circ


def _swap_sequence(result):
    return [result.circuit[i].qubits for i in result.swap_positions]


class TestRouterRunSeed:
    def test_run_seed_overrides_constructor_seed(self, ring8):
        circ = _tie_heavy_circuit()
        router = SabreRouter(ring8, seed=0)
        fixed = Layout.trivial(8)
        default = router.run(circ, initial_layout=fixed)
        explicit = router.run(circ, initial_layout=fixed, seed=0)
        assert _swap_sequence(default) == _swap_sequence(explicit)

    def test_different_run_seeds_differ_in_tie_breaks(self, ring8):
        """Two trials with different seeds from the SAME initial layout
        must produce different tie-break sequences (the initial-mapping
        randomness is deliberately held fixed here)."""
        circ = _tie_heavy_circuit()
        router = SabreRouter(ring8, seed=0)
        fixed = Layout.trivial(8)
        sequences = {
            tuple(_swap_sequence(router.run(circ, initial_layout=fixed, seed=s)))
            for s in range(6)
        }
        assert len(sequences) > 1, (
            "six differently seeded runs produced identical swap "
            "sequences; tie-break seeding is not being applied"
        )

    def test_same_run_seed_reproduces(self, ring4):
        circ = QuantumCircuit(4)
        for _ in range(6):
            circ.cx(0, 2)
            circ.cx(1, 3)
        router = SabreRouter(ring4, seed=99)
        fixed = Layout.trivial(4)
        a = router.run(circ, initial_layout=fixed, seed=5)
        b = router.run(circ, initial_layout=fixed, seed=5)
        assert a.circuit == b.circuit

    def test_runs_share_no_state_through_router(self, ring8):
        """Interleaving other runs between two identically seeded runs
        must not perturb them — each run owns a private RNG."""
        circ = _tie_heavy_circuit()
        router = SabreRouter(ring8, seed=0)
        fixed = Layout.trivial(8)
        first = router.run(circ, initial_layout=fixed, seed=3)
        router.run(circ, initial_layout=fixed, seed=8)
        router.run(circ, initial_layout=fixed)
        again = router.run(circ, initial_layout=fixed, seed=3)
        assert _swap_sequence(first) == _swap_sequence(again)

    def test_global_random_state_untouched(self, ring8):
        """Routing must never touch the module-level ``random`` stream
        (a global ``random.seed`` call is exactly the bug class that
        breaks concurrent trials)."""
        circ = _tie_heavy_circuit()
        random.seed(1234)
        before = random.getstate()
        SabreRouter(ring8, seed=0).run(circ)
        assert random.getstate() == before


class TestLayoutTrialSeeding:
    def test_restarts_use_distinct_tie_break_streams(self, grid3x3):
        """SabreLayout restarts must not replay one tie-break sequence:
        with per-trial seeding, trials recorded from the same circuit
        generally diverge in their final swap counts, and the recorded
        seeds are distinct."""
        circ = random_circuit(9, 60, seed=2, two_qubit_fraction=0.7)
        result = SabreLayout(grid3x3, num_trials=5, seed=0).run(circ)
        seeds = [t.seed for t in result.trials]
        assert len(set(seeds)) == len(seeds)

    def test_parallel_trials_differ_and_match_serial(self, ring8):
        """ISSUE regression: two parallel trials with different seeds
        produce different tie-break sequences — and exactly the ones
        the serial executor produces."""
        circ = _tie_heavy_circuit()
        # The depth objective runs one pipeline per seed, so every
        # trial's circuit comes back, not just the winner's.
        serial = run_trials(
            circ, ring8, seeds=[0, 1], objective="depth", executor="serial"
        )
        pooled = run_trials(
            circ, ring8, seeds=[0, 1], objective="depth",
            executor="parallel", jobs=2,
        )
        serial_seqs = [
            _swap_sequence(t.result.routing) for t in serial.trials
        ]
        pooled_seqs = [
            _swap_sequence(t.result.routing) for t in pooled.trials
        ]
        assert serial_seqs == pooled_seqs
        assert (
            serial.trials[0].result.routing.circuit
            != serial.trials[1].result.routing.circuit
        ), "differently seeded trials collapsed to one output"
