"""Shared fixtures: devices, distance matrices, and workload circuits."""

from __future__ import annotations

import pytest

from repro.circuits import QuantumCircuit, random_circuit
from repro.hardware import (
    distance_matrix,
    grid_device,
    ibm_q20_tokyo,
    line_device,
    ring_device,
)


@pytest.fixture
def python_loop(monkeypatch):
    """Run every search traversal on the Python loop
    (:meth:`~repro.core.router.SabreRouter._search`) by unloading the
    native kernel for the test."""
    from repro.core import native

    monkeypatch.setattr(native, "kernel", None)


@pytest.fixture(scope="session")
def tokyo():
    """The paper's evaluation device (Fig. 2)."""
    return ibm_q20_tokyo()


@pytest.fixture(scope="session")
def tokyo_distance(tokyo):
    return distance_matrix(tokyo)


@pytest.fixture(scope="session")
def grid3x3():
    """The 9-qubit device of the paper's Fig. 6/7 examples."""
    return grid_device(3, 3)


@pytest.fixture(scope="session")
def line5():
    return line_device(5)


@pytest.fixture(scope="session")
def ring4():
    """The 4-qubit square of the paper's Fig. 3 example."""
    return ring_device(4)


@pytest.fixture
def ghz5():
    circ = QuantumCircuit(5, name="ghz5")
    circ.h(0)
    for q in range(4):
        circ.cx(q, q + 1)
    return circ


@pytest.fixture
def random6():
    """A fixed random 6-qubit circuit that certainly needs routing."""
    return random_circuit(6, 40, seed=13, two_qubit_fraction=0.7)
