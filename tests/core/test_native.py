"""The native search kernel against the Python search loop it ports.

:mod:`repro.core.native` runs one search traversal per C call.  For
equal inputs it must leave exactly what
:meth:`~repro.core.router.SabreRouter._search` leaves: the same SWAP
record, escape spans, depth and final layout, and the same tie-break
RNG state.  A seeded fuzz draws cases across topology classes, heuristic
modes, penalties, look-ahead sizes, stall limits and awkward circuits.

The loader must never raise: no compiler, an unusable or foreign cache
directory and a damaged build all end on the Python loop, which routes
identically.
"""

import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.circuits import Gate, QuantumCircuit, random_circuit
from repro.circuits.decompositions import decompose_to_cx_basis
from repro.circuits.flatdag import FlatDag, FrontierState
from repro.circuits.reverse import reversed_circuit
from repro.core import HeuristicConfig, Layout, SabreRouter, compile_circuit
from repro.core import native
from repro.core.scoring import FlatDistance
from repro.hardware import (
    grid_device,
    heavy_hex_device,
    ibm_q20_tokyo,
    line_device,
    random_device,
    ring_device,
)
from repro.hardware.distance import bfs_flat_distance
from repro.telemetry.profile import profiled_routing
from repro.telemetry.trace import Tracer, tracing

SRC = Path(__file__).resolve().parents[2] / "src"

requires_kernel = pytest.mark.skipif(
    native.kernel is None, reason="native search kernel not loaded"
)

DEVICES = {
    "line": lambda: line_device(7),
    "ring": lambda: ring_device(8),
    "grid": lambda: grid_device(3, 4),
    "heavy_hex": lambda: heavy_hex_device(2),
    "random": lambda: random_device(12, seed=3),
}


def _wide_front(n, layers, rng):
    """Layers of disjoint CNOTs over random pairings: fronts of ``n // 2``
    gates."""
    circuit = QuantumCircuit(n, "wide")
    for _ in range(layers):
        order = list(range(n))
        rng.shuffle(order)
        for a, b in zip(order[::2], order[1::2]):
            circuit.cx(a, b)
    return circuit


def _directives(n, seed, rng):
    """Barriers (full, partial, one-qubit), measures into a classical
    register, and resets between random gates."""
    base = random_circuit(n, 60, seed=seed, two_qubit_fraction=0.6)
    circuit = QuantumCircuit(n, "directives", n)
    for gate in base.gates:
        circuit.append(gate)
        x = rng.random()
        if x < 0.05:
            circuit.barrier()
        elif x < 0.10:
            circuit.barrier(*rng.sample(range(n), 2))
        elif x < 0.12:
            circuit.barrier(rng.randrange(n))
        elif x < 0.20:
            q = rng.randrange(n)
            circuit.measure(q, q)
        elif x < 0.23:
            circuit.append(Gate("reset", (rng.randrange(n),)))
    return circuit


def _circuit(kind, n, seed, rng):
    if kind == "empty":
        return QuantumCircuit(n, "empty")
    if kind == "1q":
        return random_circuit(n, 30, seed=seed, two_qubit_fraction=0.0)
    if kind == "directives":
        return _directives(n, seed, rng)
    if kind == "wide":
        return _wide_front(n, 6, rng)
    return random_circuit(n, 70, seed=seed, two_qubit_fraction=0.8)


def _weighted(device, rng):
    """A symmetric non-unit matrix: every hop distance scaled by a random
    factor shared by both orientations."""
    flat = bfs_flat_distance(device)
    n = flat.n
    buf = flat.buf
    for a in range(n):
        for b in range(a + 1, n):
            value = buf[a * n + b] * (1.0 + rng.random())
            buf[a * n + b] = value
            buf[b * n + a] = value
    return FlatDistance(n, buf)


def _both_loops(router, ir, layout, seed):
    """One traversal per loop from ``layout`` and a ``seed``-ed RNG:
    ``{loop: (trace, rng state after)}``."""
    runs = {}
    rng = random.Random(seed)
    trace = router._native_search(ir, layout.copy(), rng)
    assert trace is not None and trace.loop == "native"
    runs["native"] = (trace, rng.getstate())
    rng = random.Random(seed)
    trace = router._search(
        ir, layout.copy(), rng, FrontierState(ir, folded=True)
    )
    assert trace.loop == "python"
    runs["python"] = (trace, rng.getstate())
    return runs


def _assert_same(runs):
    (native_trace, native_rng), (python_trace, python_rng) = (
        runs["native"], runs["python"]
    )
    assert native_trace.swaps == python_trace.swaps
    assert native_trace.escapes == python_trace.escapes
    assert native_trace.depth == python_trace.depth
    assert native_trace.num_swaps == python_trace.num_swaps
    assert native_trace.num_forced_escapes == python_trace.num_forced_escapes
    assert native_trace.initial_layout == python_trace.initial_layout
    assert native_trace.final_layout == python_trace.final_layout
    assert native_rng == python_rng


def _fuzz_cases(count, seed):
    rng = random.Random(seed)
    for index in range(count):
        yield pytest.param(
            dict(
                device=rng.choice(sorted(DEVICES)),
                mode=rng.choice(["basic", "lookahead", "decay"]),
                penalty=rng.choice([0.0, 1.0]),
                ext_size=rng.choice([0, 20]),
                stall_limit=rng.choice([None, 1, 2, 3, 4]),
                kind=rng.choice(
                    ["empty", "1q", "directives", "wide", "random", "random"]
                ),
                weighted=rng.random() < 0.3,
                seed=rng.randrange(10**6),
            ),
            id=f"case{index}",
        )


FUZZ_CASES = 120
FUZZ_SEED = 2024


def _case_circuit(case):
    """A fuzz case's device, circuit and the RNG that drew them."""
    rng = random.Random(case["seed"])
    device = DEVICES[case["device"]]()
    n = device.num_qubits
    width = n if rng.random() < 0.5 else n - 1
    return device, _circuit(case["kind"], width, case["seed"], rng), rng


def _case_irs(case):
    """A fuzz case's forward and reverse IRs, freshly lowered."""
    _, circuit, _ = _case_circuit(case)
    return (
        FlatDag.from_circuit(circuit),
        FlatDag.from_circuit(reversed_circuit(circuit)),
    )


def _run_case(case):
    """Yield :func:`_both_loops` of a fuzz case's forward traversal, then
    of its reverse traversal from the forward one's final layout, with
    the router and IR that ran them."""
    device, circuit, rng = _case_circuit(case)
    n = device.num_qubits
    router = SabreRouter(
        device,
        config=HeuristicConfig(
            mode=case["mode"],
            extended_set_size=case["ext_size"],
            swap_cost_penalty=case["penalty"],
        ),
        distance=_weighted(device, rng) if case["weighted"] else None,
        stall_limit=case["stall_limit"],
    )
    layout = Layout.random(n, seed=case["seed"])
    for ir in (
        FlatDag.from_circuit(circuit),
        FlatDag.from_circuit(reversed_circuit(circuit)),
    ):
        runs = _both_loops(router, ir, layout, case["seed"] + 1)
        yield runs, router, ir
        layout = runs["native"][0].final_layout


def _lowered(ir):
    """``sabre_lower``'s tables of a fresh ``ir`` as Python lists, read
    before anything builds the IR's Python views."""
    assert ir._views is None and ir._native is None
    tables = native.ir_tables(ir)
    assert ir._views is None and ir._fold is None
    lists = {name: buf.tolist() for name, buf in tables.arrays.items()}
    struct = tables.struct
    lists["uroots"] = lists["uroots"][: struct.num_uroots]
    lists["roots"] = lists["roots"][: struct.num_roots]
    lists["succ"] = lists["succ"][: lists["succ_off"][-1]]
    lists["fsucc"] = lists["fsucc"][: lists["fsucc_off"][-1]]
    lists["num_two"] = struct.num_two
    return lists


def _csr(rows):
    offsets, flat = native._csr(rows)
    return offsets.tolist(), flat.tolist()


def _assert_lowering_matches_views(ir):
    """``sabre_lower`` builds, field by field, the CSR-flattened Python
    views of ``ir`` and its :class:`FoldedTables`."""
    tables = _lowered(ir)
    fold = ir.folded()
    assert tables["qubit_a"] == ir.qubit_a
    assert tables["qubit_b"] == ir.qubit_b
    assert bytes(tables["two_qubit"]) == ir.two_qubit
    assert tables["num_two"] == sum(ir.two_qubit)
    assert tables["indegree"] == ir.indegree
    assert tables["uroots"] == list(ir.roots)
    assert (tables["succ_off"], tables["succ"]) == _csr(ir.succs)
    assert (tables["fsucc_off"], tables["fsucc"]) == _csr(fold.succs)
    assert tables["fill"] == fold.fill
    assert tables["roots"] == list(fold.roots)
    assert tables["root_depth"] == list(fold.root_depth)
    assert (tables["pair_off"], tables["pair"]) == _csr(ir.pairs)
    # One tail per operand, aligned with the operands; single-qubit
    # nodes have none in the folded tables and zeros in the kernel's.
    off = tables["pair_off"]
    for i, tail in enumerate(fold.tails):
        row = tuple(tables["tail"][off[i] : off[i + 1]])
        assert row == (tail or (0,) * len(ir.pairs[i]))


def _assert_same_replay(router, ir, trace):
    """The kernel's replay of ``trace`` and the Python one emit the same
    gate order, circuit, SWAP positions and final layout."""
    layout = trace.initial_layout
    order = native.replay(router, ir, layout, trace)
    assert order is not None
    assert order == router._replay_order(
        ir, layout.copy(), FrontierState(ir), trace
    )
    assert order.count(native.SWAP) == trace.num_swaps
    kernel = native.kernel
    fast = router._replay(ir, layout.copy(), None, trace)
    native.kernel = None
    try:
        slow = router._replay(ir, layout.copy(), None, trace)
    finally:
        native.kernel = kernel
    assert fast.circuit == slow.circuit
    assert fast.swap_positions == slow.swap_positions
    assert fast.final_layout == slow.final_layout == trace.final_layout


@requires_kernel
class TestNativeEqualsPython:
    @pytest.mark.parametrize("case", _fuzz_cases(FUZZ_CASES, FUZZ_SEED))
    def test_fuzz_case(self, case):
        """A forward and a reverse traversal (the second from the first's
        final layout) leave the same traces and RNG states."""
        for runs, _, _ in _run_case(case):
            _assert_same(runs)

    @pytest.mark.parametrize("case", _fuzz_cases(FUZZ_CASES, FUZZ_SEED))
    def test_fuzz_lowering(self, case):
        for ir in _case_irs(case):
            _assert_lowering_matches_views(ir)

    @pytest.mark.parametrize("case", _fuzz_cases(FUZZ_CASES, FUZZ_SEED))
    def test_fuzz_replay(self, case):
        """Both traversals' traces, escape spans included, replay to the
        same circuit in the kernel and in Python."""
        for runs, router, ir in _run_case(case):
            _assert_same_replay(router, ir, runs["native"][0])

    def test_fuzz_reaches_every_path(self):
        """The fuzz cases draw tie-breaks, fire the escape hatch and
        score fronts of five gates or more."""
        escapes = draws = wide = 0
        for param in _fuzz_cases(FUZZ_CASES, FUZZ_SEED):
            case = param.values[0]
            for runs, _, _ in _run_case(case):
                trace, state = runs["native"]
                escapes += trace.num_forced_escapes
                draws += state != random.Random(case["seed"] + 1).getstate()
                wide += case["kind"] == "wide" and trace.num_swaps > 0
        assert escapes > 0 and draws > 0 and wide > 0

    def test_table_ii_row_with_escapes(self, tokyo):
        from repro.bench_circuits import build_benchmark

        circuit = decompose_to_cx_basis(build_benchmark("rd84_142"))
        router = SabreRouter(tokyo, stall_limit=1)
        ir = FlatDag.from_circuit(circuit)
        escapes = 0
        for seed in range(3):
            runs = _both_loops(router, ir, Layout.random(20, seed=seed), seed)
            _assert_same(runs)
            _assert_same_replay(router, ir, runs["native"][0])
            escapes += runs["native"][0].num_forced_escapes
        assert escapes > 0

    def test_non_integer_limits(self):
        """Float stall, decay-reset and look-ahead limits pass the
        Python loop's ``>=`` tests at the same counts in the kernel."""
        device = ring_device(8)
        router = SabreRouter(
            device,
            config=HeuristicConfig(
                extended_set_size=7.5, decay_reset_interval=2.5
            ),
            stall_limit=2.5,
        )
        escapes = 0
        for seed in range(4):
            circuit = random_circuit(8, 60, seed=seed, two_qubit_fraction=1.0)
            ir = FlatDag.from_circuit(circuit)
            runs = _both_loops(router, ir, Layout.random(8, seed=seed), seed)
            _assert_same(runs)
            escapes += runs["native"][0].num_forced_escapes
        assert escapes > 0

    def test_buffers_grow_and_the_call_reruns(self):
        """More SWAPs and escape spans than the first buffers hold: the
        kernel reports the overflow, untouched, and reruns larger."""
        device = line_device(60)
        circuit = QuantumCircuit(60, "far")
        for k in range(20):
            circuit.cx(k, 59 - k)
        router = SabreRouter(device, stall_limit=1)
        ir = FlatDag.from_circuit(circuit)
        runs = _both_loops(router, ir, Layout.trivial(60), 0)
        trace = runs["native"][0]
        assert trace.num_swaps > 2 * 20 + 64
        assert trace.num_forced_escapes > 16
        _assert_same(runs)
        _assert_same_replay(router, ir, trace)

    def test_layout_search_runs_native(self, tokyo):
        """Every traversal of a production layout search runs in the
        kernel, and its span says so."""
        tracer = Tracer()
        with tracing(tracer):
            compile_circuit(
                random_circuit(12, 80, seed=1, two_qubit_fraction=0.7),
                tokyo,
                seed=0,
            )
        loops = [
            s["attrs"]["loop"]
            for s in tracer.export()
            if s["name"] == "layout.traversal"
        ]
        assert loops and set(loops) == {"native"}


def _table_ii_circuits():
    from repro.bench_circuits import TABLE_II

    return [
        pytest.param(spec, id=spec.name) for spec in TABLE_II
    ]


def _awkward_circuits():
    empty = QuantumCircuit(4, "empty")
    singles = random_circuit(5, 30, seed=1, two_qubit_fraction=0.0)
    directives = QuantumCircuit(4, "directives", 4)
    directives.h(0)
    directives.measure(0, 0)
    directives.cx(0, 1)
    directives.barrier()
    directives.measure(1, 1)
    directives.append(Gate("reset", (2,)))
    directives.barrier(2, 3)
    directives.cx(2, 3)
    directives.measure(3, 3)
    wide_barrier = random_circuit(6, 40, seed=2, two_qubit_fraction=0.6)
    wide_barrier.barrier(0, 2, 4)
    wide_barrier.cx(4, 5)
    wide_barrier.barrier(5, 1, 3, 0)
    wide_barrier.h(5)
    return {
        "empty": empty, "1q-only": singles, "directives": directives,
        "wide-barrier": wide_barrier,
    }


@requires_kernel
class TestLowering:
    """``sabre_lower`` against the IR's Python views and folded tables."""

    @pytest.mark.parametrize("spec", _table_ii_circuits())
    def test_table_ii_row(self, spec):
        circuit = decompose_to_cx_basis(spec.build())
        _assert_lowering_matches_views(FlatDag.from_circuit(circuit))
        _assert_lowering_matches_views(
            FlatDag.from_circuit(reversed_circuit(circuit))
        )

    @pytest.mark.parametrize("kind", sorted(_awkward_circuits()))
    def test_awkward_circuit(self, kind, tokyo):
        circuit = _awkward_circuits()[kind]
        _assert_lowering_matches_views(FlatDag.from_circuit(circuit))
        result = compile_circuit(circuit, tokyo, seed=3)
        ir = FlatDag.from_circuit(decompose_to_cx_basis(circuit))
        router = SabreRouter(tokyo)
        _assert_same_replay(
            router, ir, router.search(ir, result.initial_layout, seed=3)
        )


def _compile_row(monkeypatch, name="rd84_142"):
    """Compile a Table II row on tokyo with a cold engine cache; returns
    the result and every IR the compile lowered."""
    from repro.bench_circuits import build_benchmark
    from repro.engine.cache import clear_cache

    lowered = []
    init = FlatDag.__init__

    def recording(self, circuit):
        init(self, circuit)
        lowered.append(self)

    monkeypatch.setattr(FlatDag, "__init__", recording)
    clear_cache()
    result = compile_circuit(build_benchmark(name), ibm_q20_tokyo(), seed=0)
    monkeypatch.setattr(FlatDag, "__init__", init)
    return result, lowered


class TestNoPythonDagOnTheKernelPath:
    @requires_kernel
    def test_kernel_compile_builds_no_python_view(self, monkeypatch):
        """A compile on the kernel lowers both directions natively and
        never builds an IR's Python views or folded tables."""
        built = []
        monkeypatch.setattr(
            FlatDag, "_build_views", lambda self: built.append(self)
        )
        _, lowered = _compile_row(monkeypatch)
        assert len(lowered) == 2
        for ir in lowered:
            assert ir._views is None and ir._fold is None
            assert ir._native is not None
        assert built == []

    def test_python_loop_builds_views_and_routes_identically(
        self, monkeypatch
    ):
        kernel_result, _ = _compile_row(monkeypatch)
        monkeypatch.setattr(native, "kernel", None)
        python_result, lowered = _compile_row(monkeypatch)
        assert len(lowered) == 2
        for ir in lowered:
            assert ir._views is not None and ir._fold is not None
            assert ir._native is None
        assert python_result.routing.circuit == kernel_result.routing.circuit
        assert (
            python_result.routing.swap_positions
            == kernel_result.routing.swap_positions
        )


class TestPythonLoopSelection:
    """Only these run a traversal on the Python loop: no kernel, an
    asymmetric matrix, an active profiler, an ``on_winner_set`` hook."""

    @staticmethod
    def _trace(router):
        circuit = random_circuit(8, 40, seed=2, two_qubit_fraction=0.8)
        return router.search(circuit, initial_layout=Layout.trivial(8))

    def test_no_kernel(self, python_loop):
        assert self._trace(SabreRouter(line_device(8))).loop == "python"

    def test_asymmetric_matrix(self):
        flat = bfs_flat_distance(line_device(8))
        flat.buf[1] += 0.5
        router = SabreRouter(line_device(8), distance=FlatDistance(8, flat.buf))
        assert not router.flat_dist.symmetric
        assert self._trace(router).loop == "python"

    def test_profiler(self):
        with profiled_routing() as prof:
            trace = self._trace(SabreRouter(line_device(8)))
        assert trace.loop == "python"
        assert prof.steps > 0
        assert prof.to_dict()["loop"] == "python"

    def test_winner_set_hook(self):
        router = SabreRouter(line_device(8))
        seen = []
        router.on_winner_set = seen.append
        assert self._trace(router).loop == "python"
        assert seen

    @requires_kernel
    def test_default_is_native(self):
        assert self._trace(SabreRouter(line_device(8))).loop == "native"

    def test_traversal_spans_name_the_python_loop(self, python_loop, tokyo):
        tracer = Tracer()
        with tracing(tracer):
            compile_circuit(
                random_circuit(8, 40, seed=1, two_qubit_fraction=0.7),
                tokyo,
                seed=0,
                num_trials=1,
            )
        loops = {
            s["attrs"]["loop"]
            for s in tracer.export()
            if s["name"] == "layout.traversal"
        }
        assert loops == {"python"}


# ----------------------------------------------------------------------
# Loader
# ----------------------------------------------------------------------


def _digest(kernel, monkeypatch):
    """Routed gate lists of a few circuits on tokyo with ``kernel`` as
    the loaded kernel (``None``: the Python loop)."""
    monkeypatch.setattr(native, "kernel", kernel)
    circuits = [
        random_circuit(14, 120, seed=seed, two_qubit_fraction=0.7)
        for seed in range(3)
    ]
    return [
        [
            (g.name, tuple(g.qubits))
            for g in compile_circuit(c, ibm_q20_tokyo(), seed=5).routing.circuit
        ]
        for c in circuits
    ]


@pytest.fixture
def python_digest(monkeypatch):
    return _digest(None, monkeypatch)


def _private_dir(path):
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    os.chmod(path, 0o700)
    return path


def _copy_build(directory):
    """Put a copy of the working build where ``directory`` expects it."""
    target = native.library_path(str(directory))
    shutil.copyfile(native.library_path(), target)
    os.chmod(target, 0o700)
    return target


class TestLoader:
    def test_no_compiler(self, tmp_path, monkeypatch, python_digest):
        monkeypatch.setenv("CC", str(tmp_path / "no-such-cc"))
        cache = _private_dir(tmp_path / "cache")
        kernel = native.load(str(cache))
        assert kernel is None
        assert _digest(kernel, monkeypatch) == python_digest

    @pytest.mark.skipif(
        hasattr(os, "geteuid") and os.geteuid() == 0,
        reason="permission bits do not bind the superuser",
    )
    def test_read_only_cache_directory(
        self, tmp_path, monkeypatch, python_digest
    ):
        monkeypatch.setenv("CC", str(tmp_path / "no-such-cc"))
        cache = _private_dir(tmp_path / "cache")
        os.chmod(cache, 0o500)
        try:
            kernel = native.load(str(cache))
        finally:
            os.chmod(cache, 0o700)
        assert kernel is None
        assert _digest(kernel, monkeypatch) == python_digest

    def test_cache_path_not_a_directory(
        self, tmp_path, monkeypatch, python_digest
    ):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        kernel = native.load(str(blocker / "repro"))
        assert kernel is None
        assert _digest(kernel, monkeypatch) == python_digest

    @requires_kernel
    def test_group_writable_directory_refused(
        self, tmp_path, monkeypatch, python_digest
    ):
        cache = _private_dir(tmp_path / "cache")
        _copy_build(cache)
        os.chmod(cache, 0o770)
        kernel = native.load(str(cache))
        assert kernel is None
        assert _digest(kernel, monkeypatch) == python_digest

    @requires_kernel
    def test_foreign_directory_refused(
        self, tmp_path, monkeypatch, python_digest
    ):
        if os.geteuid() == 0:
            cache = _private_dir(tmp_path / "cache")
            _copy_build(cache)
            os.chown(cache, 65534, 65534)
        else:
            cache = Path("/")  # owned by the superuser, not this user
        kernel = native.load(str(cache))
        assert kernel is None
        assert _digest(kernel, monkeypatch) == python_digest

    @requires_kernel
    def test_truncated_build_is_rebuilt_or_skipped(
        self, tmp_path, monkeypatch, python_digest
    ):
        cache = _private_dir(tmp_path / "cache")
        target = _copy_build(cache)
        with open(target, "r+b") as handle:
            handle.truncate(64)
        kernel = native.load(str(cache))
        if kernel is not None:
            assert os.path.getsize(target) > 64
        assert _digest(kernel, monkeypatch) == python_digest

    def test_concurrent_builds_leave_one_loadable_library(self, tmp_path):
        """Two fresh interpreters build into one empty cache at once."""
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=str(SRC))
        code = (
            "from repro.core import native; "
            "print(native.kernel is not None)"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", code],
                env=env,
                stdout=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        outs = [p.communicate(timeout=300)[0].strip() for p in procs]
        assert all(p.returncode == 0 for p in procs)
        cache = tmp_path / "repro"
        names = sorted(os.listdir(cache))
        if native.kernel is None:
            assert outs == ["False", "False"]
            return
        assert outs == ["True", "True"]
        assert names == [os.path.basename(native.library_path(str(cache)))]
        assert native.load(str(cache)) is not None

    @requires_kernel
    def test_cache_hit_imports_no_build_modules(self):
        """A warm import loads the kernel without the modules only a
        build needs."""
        code = (
            "import sys, repro.core.native as n; "
            "assert n.kernel is not None; "
            "print(sorted(m for m in ('hashlib', 'sysconfig', 'shlex') "
            "if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
            timeout=300,
            check=True,
        ).stdout.strip()
        assert out == "[]"
