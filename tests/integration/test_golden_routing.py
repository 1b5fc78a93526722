"""Golden routing digests for every Table II row on ``ibm_q20_tokyo``.

Each digest is a sha1 over ``(name, qubits, params)`` of every gate of
the routed circuit ``compile_circuit(spec.build(), ibm_q20_tokyo(),
seed=i)`` (row ``i`` of ``TABLE_II``, SWAPs not decomposed).  The
literals were recorded from the production router, so any change to
candidate order, scoring, tie-breaking or emission order shows up here
whatever oracle path the differential suites compare against.

Rows of at most 1000 gates run in the quick tier; the deep rows are
marked slow.  Each row runs twice: on the production search loop (the
native kernel when it is loaded, :mod:`repro.core.native`) and on the
Python loop it ports.
"""

import hashlib

import pytest

from repro import compile_circuit, ibm_q20_tokyo
from repro.bench_circuits import TABLE_II

#: (row name, logical gate count, sha1 of the routed gate list).
GOLDEN = [
    ('4mod5-v1_22', 21, "aba47665cb2fb78eeeb6db1a4a0c53f338714140"),
    ('mod5mils_65', 35, "d3b60c84b55f22cf66db1ed92e384814668c37ba"),
    ('alu-v0_27', 36, "53627d46ba5c7c775db2c2f449788151a20ae00c"),
    ('decod24-v2_43', 52, "47ea0271d6d08de4dbd2bd64b2939f23b0e0f5b1"),
    ('4gt13_92', 66, "fc9b37f99c9eb3ba6f0e6fc6d16267fbb02db3b1"),
    ('ising_model_10', 480, "cef1342304a83d0fcb55b90fe198c41722fa0be1"),
    ('ising_model_13', 633, "85082fd8f353081a84758974e6290e3038644f54"),
    ('ising_model_16', 786, "fa5fd88e3e7b026e34da8fd2d814c9b8d4fbaf0b"),
    ('qft_10', 235, "eeef43e2dea79ba37272ae768eaa4c4d4dbc3917"),
    ('qft_13', 403, "748c3caa7104febfa0df97f2f361306785c60e76"),
    ('qft_16', 616, "2bcba84f3fecf6b758f969e2e89aaaf7139885ea"),
    ('qft_20', 970, "519079c38c54bf189a9d68b2bd366fcdfbcdc833"),
    ('rd84_142', 343, "c868f9b50e419b2bf05475cdef2e78bf4e8f0242"),
    ('adr4_197', 3439, "7b039a1428eda19bc7cac2fb6b0c08f91734729f"),
    ('radd_250', 3213, "89e67129799d687d0483b759c5a6890466fde9b0"),
    ('z4_268', 3073, "8e6af13dc8cd1b389c71ba3df3a8e1a9201e0c56"),
    ('sym6_145', 3888, "d2cac847d53e1c8d189f89e9f53bf7db06579bdf"),
    ('misex1_241', 4813, "222ee69e65a77d8ad483a6ac33e782f7d94cb33d"),
    ('rd73_252', 5321, "7e768b00da94e17a3f5e7ac1a365aabce41067dc"),
    ('cycle10_2_110', 6050, "8514281485ff2c3e2c290e6a1e488f55b4c494bd"),
    ('square_root_7', 7630, "dc5b140578f3b2b757d700f5d1d2a5f28f316bc7"),
    ('sqn_258', 10223, "8b60038dd3eb060259d904e089a737ecc2ecb878"),
    ('rd84_253', 13658, "6d0eae127d7109377dfb4357bc183d5e60e23cd0"),
    ('co14_215', 17936, "05d3a63ccae93705352dc85a9917a2d89500b2fa"),
    ('sym9_193', 34881, "d9db039d83b2afe7c3ff5c861740044458a399d3"),
    ('9symml_195', 34881, "0a9f67d79ced4e009df9b6a1fe0b3f2f9a1279fc"),
]

#: Rows larger than this many gates run in the slow tier only.
QUICK_MAX_GATES = 1000


def routing_digest(circuit) -> str:
    h = hashlib.sha1()
    for gate in circuit.gates:
        h.update(repr((gate.name, tuple(gate.qubits), tuple(gate.params))).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def tokyo():
    return ibm_q20_tokyo()


def test_golden_covers_table_ii():
    assert [name for name, _, _ in GOLDEN] == [spec.name for spec in TABLE_II]


ROWS = [
    pytest.param(
        i,
        id=name,
        marks=() if gates <= QUICK_MAX_GATES else pytest.mark.slow,
    )
    for i, (name, gates, _) in enumerate(GOLDEN)
]


@pytest.mark.parametrize("index", ROWS)
def test_routing_matches_golden_digest(tokyo, index):
    name, gates, digest = GOLDEN[index]
    circuit = TABLE_II[index].build()
    assert len(circuit.gates) == gates
    result = compile_circuit(circuit, tokyo, seed=index)
    assert routing_digest(result.routing.circuit) == digest, name


@pytest.mark.parametrize("index", ROWS)
def test_routing_matches_golden_digest_python_loop(tokyo, index, python_loop):
    test_routing_matches_golden_digest(tokyo, index)
