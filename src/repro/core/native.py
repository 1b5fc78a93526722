"""Loader and glue of the native kernel (``_search.c``).

``_search.c`` holds SABRE's per-compile work in plain C, in three entry
points that share one source, one shared object and one loader:

- ``sabre_lower`` builds every per-IR table the other two read — the
  full and folded successor CSR, counts, roots and depth tails — from
  one flat operand array of a :class:`~repro.circuits.flatdag.FlatDag`
  (:func:`ir_tables`), so a compile on the kernel never builds the
  IR's Python DAG views or :meth:`~repro.circuits.flatdag.FlatDag.folded`.
- ``sabre_search`` is a port of :meth:`SabreRouter._search
  <repro.core.router.SabreRouter._search>`, SABRE's hot loop — the
  worklist cascade over the folded frontier, the look-ahead walk, the
  bounded delta scorer, decay, stall and the escape hatch — that runs
  one whole traversal per call and hands back the SWAP record
  (:func:`search`).
- ``sabre_replay`` walks a recorded traversal over the unfolded DAG as
  :meth:`SabreRouter._replay <repro.core.router.SabreRouter._replay>`
  does and returns the emission order, node ids with SWAP markers
  between them (:func:`replay`); Python only turns that order into
  gates.

Build and load happen once, on import:

- The shared object lives in a per-user cache directory
  (:func:`cache_dir`) under a name keyed by the source's CRC-32, the
  compiler flags, the ``CC`` environment variable and the machine type,
  so an edited source or another architecture never loads a stale
  build.  A cache hit imports no module that ``import repro`` does not
  already load.
- On a miss the source is compiled with ``$CC`` (or ``sysconfig``'s
  ``CC``) into a temporary file that ``os.replace`` moves into place, so
  concurrent builders race safely and a reader never sees half a file.
- The directory must be owned by the current user and writable by no
  one else; so must the file.  Anything else — a refused directory, no
  compiler, a failed build, a file that does not load — leaves
  :data:`kernel` at ``None`` and the router on its Python loop and
  replay.  So does a shared object that lacks one of the entry points.
  Loading never raises.

Exactness is the C file's contract (its header comment): scores in
``score_scalar``'s float order, compiled with ``-ffp-contract=off`` and
without ``-ffast-math``; tie-breaks drawn from CPython's own MT19937
stream, whose state goes in from ``rng.getstate()`` and comes back
through ``rng.setstate``.  The kernel keeps no global state and ctypes
releases the GIL for the call, so concurrent traversals stay
independent.
"""

from __future__ import annotations

import ctypes
import math
import os
import platform
import subprocess
import tempfile
import zlib
from array import array
from itertools import accumulate, chain
from operator import attrgetter
from typing import List, Optional, Sequence

from repro.circuits.depth import _DIRECTIVE_NAMES

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_search.c")

#: Compiler flags.  ``-ffp-contract=off`` keeps GCC from fusing
#: multiply-adds (its default on aarch64), which would change rounding.
FLAGS = ("-O2", "-ffp-contract=off", "-std=c99", "-shared", "-fPIC")

# Return codes of the entry points (see _search.c).
_OK = 0
_SWAPS_FULL = 1
_ESCAPES_FULL = 2

#: The SWAP marker in :func:`replay`'s emission order.
SWAP = -1


class _Device(ctypes.Structure):
    _fields_ = [
        ("n", ctypes.c_int),
        ("dist", ctypes.c_void_p),
        ("nb_off", ctypes.c_void_p),
        ("nb", ctypes.c_void_p),
        ("adj", ctypes.c_void_p),
        ("spread", ctypes.c_double),
    ]


class _Config(ctypes.Structure):
    _fields_ = [
        ("basic", ctypes.c_int),
        ("uses_lookahead", ctypes.c_int),
        ("uses_decay", ctypes.c_int),
        ("ext_size", ctypes.c_int),
        ("decay_interval", ctypes.c_int),
        ("stall_limit", ctypes.c_int),
        ("weight", ctypes.c_double),
        ("penalty", ctypes.c_double),
        ("decay_delta", ctypes.c_double),
    ]


class _Ir(ctypes.Structure):
    _fields_ = [
        ("num_nodes", ctypes.c_int),
        ("num_qubits", ctypes.c_int),
        ("num_two", ctypes.c_int),
        ("qubit_a", ctypes.c_void_p),
        ("qubit_b", ctypes.c_void_p),
        ("two_qubit", ctypes.c_void_p),
        ("indegree", ctypes.c_void_p),
        ("uroots", ctypes.c_void_p),
        ("num_uroots", ctypes.c_int),
        ("succ_off", ctypes.c_void_p),
        ("succ", ctypes.c_void_p),
        ("fsucc_off", ctypes.c_void_p),
        ("fsucc", ctypes.c_void_p),
        ("fill", ctypes.c_void_p),
        ("roots", ctypes.c_void_p),
        ("num_roots", ctypes.c_int),
        ("pair_off", ctypes.c_void_p),
        ("pair", ctypes.c_void_p),
        ("tail", ctypes.c_void_p),
        ("root_depth", ctypes.c_void_p),
    ]


_INT_MAX = 2**31 - 1


def _limit(value) -> int:
    """The C ``int`` ``k`` with ``count >= k`` exactly when
    ``count >= value`` for every count the kernel can reach."""
    if value != value:  # NaN: no count reaches it
        return _INT_MAX
    return math.ceil(max(-_INT_MAX, min(_INT_MAX, value)))


def _addr(buf: array) -> int:
    return buf.buffer_info()[0]


def _ints(count: int) -> array:
    """``count`` zeroed C ints."""
    return array("i", bytes(4 * count))


def _csr(rows: Sequence[Sequence[int]]):
    """Offsets and flat entries of a list of int rows, built in C."""
    return (
        array("i", accumulate(map(len, rows), initial=0)),
        array("i", chain.from_iterable(rows)),
    )


class _Tables:
    """A ctypes struct plus the arrays its pointers point into."""

    __slots__ = ("struct", "arrays")

    def __init__(self, struct, arrays):
        self.struct = struct
        self.arrays = arrays


def ir_tables(ir) -> Optional[_Tables]:
    """The kernel's tables of one :class:`~repro.circuits.flatdag.FlatDag`,
    built by ``sabre_lower`` on first use and kept on the IR (dropped
    from its pickles, like the folded tables).  Racing first calls build
    equal tables; either one is kept.

    Reads only the IR's eager fields: the operands of every gate go to
    the kernel as one flat array, with each gate's arity and a flag for
    directives (``measure``, ``reset``, ``barrier``).  The kernel fills
    arrays allocated here, sized by node, operand and qubit counts (no
    node has more successors, folded or not, than operands).  Needs a
    loaded :data:`kernel`; returns ``None`` when the kernel refuses the
    IR (an operand out of range, or no memory), and the Python loop
    then runs on the IR's own views.
    """
    tables = ir._native
    if tables is not None:
        return tables
    pairs = ir.pairs
    n = ir.num_nodes
    pair = array("i", chain.from_iterable(pairs))
    arrays = {
        "pair": pair,
        "two_qubit": array("B", bytes(n)),
        "root_depth": _ints(ir.num_qubits),
    }
    for name in ("qubit_a", "qubit_b", "indegree", "uroots", "fill", "roots"):
        arrays[name] = _ints(n)
    for name in ("succ_off", "fsucc_off", "pair_off"):
        arrays[name] = _ints(n + 1)
    for name in ("succ", "fsucc", "tail"):
        arrays[name] = _ints(len(pair))
    arity = array("i", map(len, pairs))
    directive = bytes(
        map(_DIRECTIVE_NAMES.__contains__, map(attrgetter("name"), ir.gates))
    )
    struct = _Ir(
        num_nodes=ir.num_nodes,
        num_qubits=ir.num_qubits,
        **{name: _addr(buf) for name, buf in arrays.items()},
    )
    if kernel.sabre_lower(ctypes.byref(struct), _addr(arity), directive) != _OK:
        return None
    tables = _Tables(struct, arrays)
    ir._native = tables
    return tables


def device_tables(router) -> _Tables:
    """The kernel's tables of one router's device, built on first use
    and kept on the router."""
    tables = router._native_device
    if tables is not None:
        return tables
    flat = router.flat_dist
    n = flat.n
    nb_off, nb = _csr(router.neighbors)
    adj = array("B", bytes(n * n))
    for p, nbs in enumerate(router.neighbors):
        for q in nbs:
            adj[p * n + q] = 1
    keep = [flat.buf, nb_off, nb, adj]
    struct = _Device(n, *map(_addr, keep), router._vdev.spread)
    tables = router._native_device = _Tables(struct, keep)
    return tables


def search(router, ir, layout, rng):
    """One search-mode traversal of ``ir`` by ``router`` in the kernel.

    The contract of :meth:`SabreRouter._search
    <repro.core.router.SabreRouter._search>` minus the frontier: mutates
    ``layout`` into the final layout, advances ``rng`` exactly as the
    Python loop would, and returns ``(swaps, escapes, depth)`` — the
    SWAP record, the escape spans and the routed depth.  Needs a loaded
    :data:`kernel`.  Returns ``None``, with ``layout`` and ``rng``
    untouched, when the kernel declines the traversal (no winner, no
    escape path, no memory); the Python loop then runs it and raises
    whatever it raises.
    """
    irt = ir_tables(ir)
    if irt is None:
        return None
    dev = device_tables(router)
    config = router.config
    conf = _Config(
        config.mode == "basic",
        config.uses_lookahead,
        config.uses_decay,
        _limit(min(config.extended_set_size, ir.num_nodes)),
        _limit(config.decay_reset_interval),
        _limit(router.stall_limit),
        config.extended_set_weight,
        config.swap_cost_penalty,
        config.decay_delta,
    )
    l2p = array("i", layout.l2p)
    p2l = array("i", layout.p2l)
    version, internal, gauss = rng.getstate()
    mt = array("I", internal)
    out = array("i", bytes(12))
    # The SWAP and escape buffers grow and the call reruns on overflow;
    # the kernel writes the layout and RNG state back only on success.
    swap_cap = 2 * irt.struct.num_two + 64
    escape_cap = 16
    while True:
        swaps = array("i", bytes(8 * swap_cap))
        escapes = array("i", bytes(8 * escape_cap))
        rc = kernel.sabre_search(
            dev.struct, conf, irt.struct, _addr(l2p), _addr(p2l), _addr(mt),
            _addr(swaps), swap_cap, _addr(escapes), escape_cap, _addr(out),
        )
        if rc == _SWAPS_FULL:
            swap_cap *= 4
        elif rc == _ESCAPES_FULL:
            escape_cap *= 4
        elif rc == _OK:
            break
        else:
            return None
    layout.l2p[:] = l2p
    layout.p2l[:] = p2l
    rng.setstate((version, tuple(mt), gauss))
    num_swaps, num_escapes, depth = out
    it = iter(swaps[: 2 * num_swaps].tolist())
    rec = list(zip(it, it))
    it = iter(escapes[: 2 * num_escapes].tolist())
    return rec, list(zip(it, it)), depth


def replay(router, ir, layout, trace) -> Optional[List[int]]:
    """The gate order of ``trace`` replayed over ``ir`` from ``layout``.

    The order :meth:`SabreRouter._replay
    <repro.core.router.SabreRouter._replay>` emits in: node ids, and
    :data:`SWAP` wherever the next SWAP of ``trace.swaps`` goes.  Each
    ready batch runs ascending, then the non-routing cascade it
    released; the front gates released since are checked after the
    next SWAP or batch; an escape span's SWAPs go back to back.  Leaves
    ``layout`` untouched.  Needs a loaded :data:`kernel`; returns
    ``None`` when the kernel declines (no memory, or a trace that runs
    out of SWAPs before every gate is out).
    """
    irt = ir_tables(ir)
    if irt is None:
        return None
    dev = device_tables(router)
    swaps = array("i", chain.from_iterable(trace.swaps))
    escapes = array("i", chain.from_iterable(trace.escapes))
    num_swaps = len(trace.swaps)
    l2p = array("i", layout.l2p)
    order = _ints(ir.num_nodes + num_swaps)
    out = _ints(1)
    rc = kernel.sabre_replay(
        dev.struct, irt.struct, _addr(l2p),
        _addr(swaps), num_swaps, _addr(escapes), len(trace.escapes),
        _addr(order), _addr(out),
    )
    if rc != _OK:
        return None
    return order[: ir.num_nodes + out[0]].tolist()


# ----------------------------------------------------------------------
# Build and load
# ----------------------------------------------------------------------


def cache_dir() -> str:
    """``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``, else a
    per-user directory under the system temp directory."""
    base = os.environ.get("XDG_CACHE_HOME")
    if not base:
        home = os.path.expanduser("~")
        if home != "~":
            base = os.path.join(home, ".cache")
    if base:
        return os.path.join(base, "repro")
    uid = os.getuid() if hasattr(os, "getuid") else os.getpid()
    return os.path.join(tempfile.gettempdir(), f"repro-{uid}")


def _private(path: str) -> bool:
    """True when ``path`` is owned by this user and writable by no one
    else (no check where the platform has no uids)."""
    st = os.stat(path)
    if hasattr(os, "getuid") and st.st_uid != os.getuid():
        return False
    return not st.st_mode & 0o022


def _open(path: str):
    """The shared object at ``path`` with its entry points' signatures
    set, or None."""
    try:
        if not _private(path):
            return None
        lib = ctypes.CDLL(path)
        search, lower, replay = (
            lib.sabre_search, lib.sabre_lower, lib.sabre_replay
        )
    except (OSError, AttributeError):
        return None
    ptr = ctypes.c_void_p
    search.restype = lower.restype = replay.restype = ctypes.c_int
    search.argtypes = [
        ctypes.POINTER(_Device), ctypes.POINTER(_Config), ctypes.POINTER(_Ir),
        ptr, ptr, ptr, ptr, ctypes.c_int, ptr, ctypes.c_int, ptr,
    ]
    lower.argtypes = [ctypes.POINTER(_Ir), ptr, ctypes.c_char_p]
    replay.argtypes = [
        ctypes.POINTER(_Device), ctypes.POINTER(_Ir),
        ptr, ptr, ctypes.c_int, ptr, ctypes.c_int, ptr, ptr,
    ]
    return lib


def _build(path: str, directory: str) -> None:
    """Compile the source to ``path`` via a temporary file in the same
    directory (raises on any failure)."""
    import shlex
    import sysconfig

    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    fd, tmp = tempfile.mkstemp(prefix=".search-", suffix=".so", dir=directory)
    os.close(fd)
    try:
        subprocess.run(
            shlex.split(cc) + list(FLAGS) + ["-o", tmp, SOURCE],
            check=True,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=300,
        )
        os.chmod(tmp, 0o700)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def library_path(directory: Optional[str] = None) -> str:
    """Where the shared object for this source, compiler and machine
    lives in ``directory`` (default :func:`cache_dir`)."""
    with open(SOURCE, "rb") as handle:
        source = handle.read()
    signature = "\0".join((os.environ.get("CC", ""),) + FLAGS).encode()
    key = zlib.crc32(signature, zlib.crc32(source))
    return os.path.join(
        directory or cache_dir(), f"search-{key:08x}-{platform.machine()}.so"
    )


def load(directory: Optional[str] = None):
    """The kernel library, built into ``directory`` (default
    :func:`cache_dir`) on a miss; ``None`` on any failure."""
    try:
        if array("i").itemsize != 4 or array("I").itemsize != 4:
            return None
        path = library_path(directory)
        directory = os.path.dirname(path)
        os.makedirs(directory, mode=0o700, exist_ok=True)
        if not _private(directory):
            return None
        fn = _open(path) if os.path.exists(path) else None
        if fn is None:
            _build(path, directory)
            fn = _open(path)
        return fn
    except Exception:
        return None


#: The loaded kernel library (``sabre_lower``, ``sabre_search`` and
#: ``sabre_replay``), or ``None`` when the router runs its Python loop
#: and replay.  Tests set it to ``None`` to pin a compile to those.
kernel = load()
