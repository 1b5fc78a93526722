"""Property-based tests: every trial winner is a correct compilation.

Whatever the seed pool, objective, or executor, the engine's winner
must satisfy the mapper's two contracts — hardware compliance on the
device and structural equivalence to the input circuit — and its
objective value must actually be the pool's minimum.  hypothesis
explores random circuits, random connected devices, and random seed
pools.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit
from repro.engine import run_trials
from repro.engine.trials import OBJECTIVES, objective_value
from repro.hardware import random_device
from repro.verify import assert_compliant, assert_equivalent

circuit_specs = st.tuples(
    st.integers(min_value=2, max_value=7),      # logical qubits
    st.integers(min_value=1, max_value=30),     # gate count
    st.integers(min_value=0, max_value=10_000), # circuit seed
)
device_specs = st.tuples(
    st.integers(min_value=7, max_value=12),     # physical qubits
    st.integers(min_value=0, max_value=10_000), # device seed
)
seed_pools = st.lists(
    st.integers(min_value=0, max_value=100_000),
    min_size=1,
    max_size=4,
    unique=True,
)


def build_circuit(spec):
    n, gates, seed = spec
    rng = random.Random(seed)
    circ = QuantumCircuit(n, name=f"trialprop_{seed}")
    for _ in range(gates):
        if n >= 2 and rng.random() < 0.6:
            a, b = rng.sample(range(n), 2)
            circ.cx(a, b)
        else:
            circ.add_gate(rng.choice(["h", "t", "x", "s"]), rng.randrange(n))
    return circ


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(circuit=circuit_specs, device=device_specs, seeds=seed_pools)
def test_winner_is_verified_compilation(circuit, device, seeds):
    """The winning trial passes equivalence and compliance checks."""
    circ = build_circuit(circuit)
    dev = random_device(device[0], seed=device[1])
    outcome = run_trials(circ, dev, seeds=seeds)
    winner = outcome.best_result
    assert_compliant(winner.physical_circuit(), dev)
    assert_equivalent(
        winner.original_circuit,
        winner.routing.circuit,
        winner.routing.initial_layout,
        winner.routing.swap_positions,
    )


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    circuit=circuit_specs,
    device=device_specs,
    seeds=seed_pools,
    objective=st.sampled_from(sorted(OBJECTIVES)),
)
def test_every_trial_verified_and_winner_minimal(circuit, device, seeds, objective):
    """Every trial that ships a result is a correct compilation — all of
    them, except on the ``g_add`` search path, which ships only its
    winner — and the winner attains the pool's minimum objective
    value."""
    circ = build_circuit(circuit)
    dev = random_device(device[0], seed=device[1])
    outcome = run_trials(circ, dev, seeds=seeds, objective=objective)
    assert outcome.best_result is not None
    for trial in outcome.trials:
        result = trial.result
        if result is None:
            assert objective == "g_add"
            continue
        assert_compliant(result.physical_circuit(), dev)
        assert_equivalent(
            result.original_circuit,
            result.routing.circuit,
            result.routing.initial_layout,
            result.routing.swap_positions,
        )
        assert trial.value == objective_value(result, objective)
    assert outcome.winner.value == min(t.value for t in outcome.trials)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(circuit=circuit_specs, device=device_specs)
def test_growing_seed_pool_never_hurts(circuit, device):
    """Best-of-K g_add is monotonically non-increasing in K over a
    fixed, nested seed pool."""
    circ = build_circuit(circuit)
    dev = random_device(device[0], seed=device[1])
    pool = [11, 22, 33, 44]
    previous = float("inf")
    full = run_trials(circ, dev, seeds=pool)
    values = [t.value for t in full.trials]
    for k in range(1, len(pool) + 1):
        best_k = min(values[:k])
        assert best_k <= previous
        previous = best_k
