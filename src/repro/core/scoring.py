"""Flat distance buffer and the batched ``vector`` scorer for SABRE's hot loop.

The reference scorer (:func:`repro.core.heuristic.score_layout`) rescores
the *entire* front layer ``F`` and extended set ``E`` for every candidate
SWAP, making each search step ``O(|candidates| * (|F| + |E|))`` over a
list-of-lists distance matrix.  A SWAP only moves two qubits, though, so
every Eq. 2 term not touching those two qubits is unchanged.  This module
exploits that:

- :class:`FlatDistance` flattens ``D[][]`` into one contiguous 1-D
  ``array('d')`` buffer (``D[a][b] == buf[a * n + b]``), removing a level
  of pointer chasing from every distance lookup and making the matrix
  cheap to cache, copy, and ship to worker processes.
- :class:`VectorDevice` holds the device-constant edge tables and the
  per-front-home candidate memo.
- :class:`VectorBlock` holds ``K`` trials' scoring state.  Narrow fronts
  are scored by a scalar ``O(deg_F + deg_E)`` delta loop
  (:meth:`VectorBlock.score_scalar`) that adjusts only the terms whose
  qubits actually move; wider fronts by one batched numpy kernel call
  per step (:meth:`VectorBlock.score_rows`).

Exactness: a gate *between* the two swapped qubits keeps its distance
(``D`` is symmetric for every matrix this project produces; the router
falls back to the reference scorer otherwise), so its term is skipped
entirely.  All remaining terms are adjusted by the difference of two
matrix entries.  Sums therefore agree with the reference scorer up to
float-addition ordering, which the differential suite
(``tests/core/test_differential.py``) pins down to identical winner sets
and identical routed circuits.
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.heuristic import HeuristicConfig
from repro.exceptions import MappingError

#: Shared empty tuple so ``partners.get(q, _NO_PARTNERS)`` never allocates.
_NO_PARTNERS: Tuple[int, ...] = ()

#: Shared empty index array (vector scorer's "no front/extended set").
_EMPTY_IDX = np.zeros(0, dtype=np.intp)

#: Size bound of :attr:`VectorDevice.cand_memo` (home tuples held).
_CAND_MEMO_MAX = 1 << 16

#: Scores within this tolerance are considered tied (random tie-break).
#: Single source of truth for every scorer (the router imports it).
SCORE_EPSILON = 1e-9
_SCORE_EPSILON = SCORE_EPSILON


def device_edge_arrays(
    neighbors: Sequence[Sequence[int]],
) -> Tuple[np.ndarray, np.ndarray]:
    """All device edges as two parallel intp arrays, ``pa < pb``, sorted.

    The vector scorer derives each step's candidate list by masking
    this fixed edge list with the front-home mask — the lexicographic
    order matches :meth:`SabreRouter._swap_candidates` exactly, so
    winner indices (and hence tie-break RNG draws) line up with the
    reference scorer.  Built once per router and shared read-only by every run.
    """
    pairs = sorted(
        {
            (p, nb) if p < nb else (nb, p)
            for p, nbs in enumerate(neighbors)
            for nb in nbs
        }
    )
    pa = np.fromiter((e[0] for e in pairs), dtype=np.intp, count=len(pairs))
    pb = np.fromiter((e[1] for e in pairs), dtype=np.intp, count=len(pairs))
    return pa, pb


class FlatDistance:
    """A distance matrix flattened into a single 1-D ``array('d')``.

    ``buf[a * n + b]`` is ``D[a][b]``.  Instances are picklable (workers
    in the trial/batch engine receive them directly) and cheap to copy.

    Attributes:
        n: matrix dimension (number of physical qubits).
        buf: the flat row-major buffer, length ``n * n``.
        symmetric: True when ``D[a][b] == D[b][a]`` everywhere.  Every
            matrix built by :mod:`repro.hardware.distance` is symmetric;
            the flag exists so the vector scorer can refuse (fall back
            to the reference scorer) on exotic asymmetric inputs.
    """

    __slots__ = ("n", "buf", "symmetric", "_np")

    def __init__(self, n: int, buf: array, symmetric: Optional[bool] = None):
        if len(buf) != n * n:
            raise MappingError(
                f"flat distance buffer has {len(buf)} entries, expected {n * n}"
            )
        self.n = n
        self.buf = buf
        self._np: Optional[np.ndarray] = None
        if symmetric is None:
            symmetric = all(
                buf[i * n + j] == buf[j * n + i]
                for i in range(n)
                for j in range(i + 1, n)
            )
        self.symmetric = symmetric

    @classmethod
    def from_matrix(cls, rows: Sequence[Sequence[float]]) -> "FlatDistance":
        """Flatten a nested ``N x N`` matrix (validates row lengths)."""
        if isinstance(rows, FlatDistance):
            return rows
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise MappingError("distance matrix must be square")
        return cls(n, array("d", chain.from_iterable(rows)))

    def as_array(self) -> np.ndarray:
        """Zero-copy ``(n, n)`` numpy view of the flat buffer.

        Built with ``np.frombuffer`` over the ``array('d')`` storage —
        no copy, and the pickle format (:meth:`__getstate__`) is
        untouched.  The view is marked read-only: every consumer (the
        vector scorer, benchmarks, reports) treats distances as frozen,
        and an accidental in-place write would corrupt all of them.
        Cached after the first call.
        """
        if self._np is None:
            view = np.frombuffer(self.buf, dtype=np.float64).reshape(
                self.n, self.n
            )
            view.flags.writeable = False
            self._np = view
        return self._np

    def row(self, i: int) -> Sequence[float]:
        """Row ``i`` as a zero-copy (read-only) view.

        Previously allocated a fresh list per call, which made repeated
        row reads on large devices an accidental O(n) copy each time;
        callers that need a mutable list can wrap it in ``list(...)``
        (:meth:`to_matrix` does).
        """
        return self.as_array()[i]

    def to_matrix(self) -> List[List[float]]:
        """Rebuild the nested list-of-lists view (fresh, mutable)."""
        n = self.n
        buf = self.buf
        return [list(buf[i * n : (i + 1) * n]) for i in range(n)]

    def copy(self) -> "FlatDistance":
        return FlatDistance(self.n, array("d", self.buf), self.symmetric)

    def __getstate__(self):
        return (self.n, self.buf.tobytes(), self.symmetric)

    def __setstate__(self, state):
        n, raw, symmetric = state
        buf = array("d")
        buf.frombytes(raw)
        self.n = n
        self.buf = buf
        self.symmetric = symmetric
        self._np = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlatDistance):
            return NotImplemented
        return self.n == other.n and self.buf == other.buf

    def __repr__(self) -> str:
        return f"FlatDistance(n={self.n}, symmetric={self.symmetric})"


class VectorDevice:
    """Device-constant arrays for the batched ``vector`` scorer.

    Built once per router (vector mode only) and shared read-only by
    every :class:`VectorBlock`.  The kernel compacts each call to the
    candidate lanes it actually scores (via one boolean gather +
    ``nonzero`` — numpy-side, so python stays out of the hot loop), and
    everything here is laid out "stacked" to make those lane gathers
    one `take` each: index ``j`` in ``[0, 2E)`` is side ``j // E`` of
    edge ``j % E`` — all a-sides first, then all b-sides, giving each
    edge two directed half-views with no per-step packing.

    Attributes:
        n: physical qubit count.
        num_edges: ``E``, undirected device edges (sorted, ``pa < pb``).
        dist: the flat ``(n*n,)`` float64 distance buffer.
        epa / epb: edge endpoint arrays, lexicographically sorted — the
            same order as :meth:`SabreRouter._swap_candidates`, so
            winner indices (hence tie-break RNG draws) line up with the
            reference scorer.
        ep_s / ep_o: stacked "self" / "other" endpoints, ``(2E,)``.
        row_s / row_o: premultiplied row offsets (``ep * n``).
        ep_cat: ``(4E,)`` fused gather index into a ``[l2p | PF]``
            per-trial table: first ``2E`` entries read occupants,
            second ``2E`` read the occupants' front-partner homes.
        gcat: ``(10E,)`` concatenation ``[ep_cat | row_s | row_o |
            ep_o]`` — every per-edge constant the kernel gathers,
            fused so one ``take`` per call replaces four.
        pen_base: ``D[edge] - 1.0`` per edge (the SWAP-cost penalty
            term's layout-independent factor).
        neighbors: the adjacency lists the device was built from.
        cand_memo: narrow-front candidate lists for
            :meth:`VectorBlock.score_scalar`, keyed by the front's home
            tuple (see :meth:`narrow_candidates`).
    """

    __slots__ = (
        "n",
        "num_edges",
        "dist",
        "epa",
        "epb",
        "ep_s",
        "ep_o",
        "row_s",
        "row_o",
        "ep_cat",
        "gcat",
        "pen_base",
        "neighbors",
        "cand_memo",
        "_edge_cands",
    )

    def __init__(
        self, flat: FlatDistance, neighbors: Sequence[Sequence[int]]
    ) -> None:
        n = flat.n
        self.n = n
        self.dist = flat.as_array().reshape(-1)
        self.epa, self.epb = device_edge_arrays(neighbors)
        E = len(self.epa)
        self.num_edges = E
        self.ep_s = np.concatenate([self.epa, self.epb])
        self.ep_o = np.concatenate([self.epb, self.epa])
        self.row_s = self.ep_s * n
        self.row_o = self.ep_o * n
        self.ep_cat = np.concatenate([self.ep_s, self.ep_s + n])
        self.gcat = np.concatenate(
            [self.ep_cat, self.row_s, self.row_o, self.ep_o]
        )
        self.pen_base = self.dist[self.epa * n + self.epb] - 1.0
        self.neighbors = neighbors
        self.cand_memo: dict = {}
        # One shared candidate tuple per edge: memoised lists only
        # reference these, so each memo entry costs a list, not tuples.
        self._edge_cands = {
            (pa, pb): (pa, pb, pa * n, pb * n)
            for pa, pb in zip(self.epa.tolist(), self.epb.tolist())
        }

    def narrow_candidates(
        self, homes: Tuple[int, ...]
    ) -> List[Tuple[int, int, int, int]]:
        """Candidate SWAPs of a narrow front, memoised by its homes.

        ``homes`` lists the physical homes of the front's qubits (order
        and repeats do not matter).  Returns every device edge touching
        a home as ``(pa, pb, pa * n, pb * n)``, lexicographically sorted
        — the order all scorers walk.  A compile revisits the same few
        hundred home tuples thousands of times, so the sorted list is
        built once per tuple; the memo is dropped wholesale once it
        holds ``_CAND_MEMO_MAX`` tuples, bounding its size.
        """
        memo = self.cand_memo
        cand = memo.get(homes)
        if cand is None:
            if len(memo) >= _CAND_MEMO_MAX:
                memo.clear()
            edge_cands = self._edge_cands
            neighbors = self.neighbors
            cand = memo[homes] = [
                edge_cands[edge]
                for edge in sorted(
                    {
                        (p, nb) if p < nb else (nb, p)
                        for p in homes
                        for nb in neighbors[p]
                    }
                )
            ]
        return cand


class VectorBlock:
    """Trial-major stacked router state for the batched ``vector`` scorer.

    Holds ``K`` trials' scoring state as rows of ``(K, ·)`` arrays and
    scores all of them in one numpy kernel call per search step.  Solo
    routing is simply ``K == 1``; with ``K > 1`` one call steps every
    stuck row, amortising numpy dispatch overhead (the dominant cost at
    device-sized arrays) across rows.

    Per-trial state (row ``t``):

    - ``pl[t]``: fused ``[p2l | PF]`` table, length ``2n``, both halves
      indexed by *physical* qubit — the occupant table followed by the
      front-partner-home table (``PF[p]`` = home of the front partner
      of the occupant of ``p``, ``-1`` when the occupant has no front
      gate).  One fused gather via :attr:`VectorDevice.ep_cat` yields
      both the occupant and its partner's home for every edge side.
    - ``l2p[t]``: the logical-to-physical mirror (partner-home gathers
      and the router's batched ready scan index by logical qubit).
    - ``pfq[t]`` (qubit -> front partner), ``hm[t]``
      (front-home mask), ``ecnt[t]`` / ``eoff[t]`` + a per-trial
      partner stream (extended-set CSR keyed by logical qubit).
    - ``dv[t]``: the decay table — handed to each trial's
      :class:`~repro.core.heuristic.DecayArray` as a row view.

    Scoring modes per front refresh: fronts with at most
    ``scalar_max_front`` gates are scored by a scalar delta loop
    (:meth:`score_scalar`; numpy dispatch would dominate).  Its state is
    installed by :meth:`set_narrow_front` from logical-qubit pairs: the
    extended pairs usually arrive as the frontier's memoised tuple
    (walked once per distinct front per layout search), and the
    partner tables are per-row lists indexed by logical qubit (front
    partner or ``-1``, extended partners or a shared empty tuple) of
    which only the entries the previous narrow front touched are reset.
    Candidate lists come from the device's per-home-tuple memo.  Wider
    fronts are installed by :meth:`set_wide_front` and use the kernel
    (:meth:`score_rows`).  Either way the layout mirrors stay current;
    front-shaped arrays are rebuilt wholesale at each refresh, so stale
    state can never leak across modes.

    Exactness: kernel scores agree with :meth:`score_scalar` and the
    reference scorer up to float-addition order (see the module
    docstring) and winner sets are recovered by the epsilon-gap rule of
    :meth:`_winners`, with an exact sequential replay on the rare
    boundary case — the differential suite pins all of it down.
    """

    def __init__(
        self,
        device: VectorDevice,
        config: HeuristicConfig,
        buf: List[float],
        rows: int = 1,
        scalar_max_front: int = 4,
    ) -> None:
        self.device = device
        self.config = config
        self.buf = buf
        self.rows = K = rows
        self.scalar_max_front = scalar_max_front
        self._basic = config.mode == "basic"
        self._weight = config.extended_set_weight
        self._penalty = config.swap_cost_penalty
        self._uses_decay = config.uses_decay
        n = device.n
        E = device.num_edges
        E2 = 2 * E
        # --- per-trial state ------------------------------------------
        self.pl = np.zeros((K, 2 * n), dtype=np.intp)
        self.l2p = np.zeros((K, n), dtype=np.intp)
        self.pfq = np.full((K, n), -1, dtype=np.intp)
        self.hm = np.zeros((K, n), dtype=bool)
        self.ecnt = np.zeros((K, n), dtype=np.intp)
        self.eoff = np.zeros((K, n), dtype=np.intp)
        self.dv = np.ones((K, n))
        self._pl_flat = self.pl.reshape(-1)
        self._l2p_flat = self.l2p.reshape(-1)
        self._ecnt_flat = self.ecnt.reshape(-1)
        self._eoff_flat = self.eoff.reshape(-1)
        self._dv_flat = self.dv.reshape(-1)
        self._hm_flat = self.hm.reshape(-1)
        # Per-trial python-side state (index = row).
        self.narrow = [True] * K
        # Running Eq.-2 sums and front-size coefficients are (K,)
        # arrays so the kernel preamble is a handful of fused takes
        # over the active rows instead of a python loop.
        self.sum_f = np.zeros(K)
        self.sum_e = np.zeros(K)
        self._lf_f = np.ones(K)
        self._le = np.zeros(K, dtype=np.intp)
        self._c1_row = np.ones(K)
        self._c2_row = np.zeros(K)
        self.sums_dirty = [False] * K
        self._any_dirty = False
        self._fa = [_EMPTY_IDX] * K
        self._fb = [_EMPTY_IDX] * K
        self._ea = [_EMPTY_IDX] * K
        self._eb = [_EMPTY_IDX] * K
        self._stream: List[np.ndarray] = [_EMPTY_IDX] * K
        # Narrow-front scalar structures: per-row partner tables indexed
        # by logical qubit (front partner or -1; extended partners or the
        # shared empty tuple), undone entry by entry at the next refresh.
        self._front_pairs: List[Sequence[Tuple[int, int]]] = [()] * K
        self._ext_pairs: List[Sequence[Tuple[int, int]]] = [()] * K
        self._pf: List[List[int]] = [[-1] * n for _ in range(K)]
        self._pe: List[List[Sequence[int]]] = [
            [_NO_PARTNERS] * n for _ in range(K)
        ]
        self._touched: List[List[int]] = [[] for _ in range(K)]
        #: Candidate count of the last :meth:`score_scalar` call.
        self.scalar_candidates = 0
        # --- kernel scratch (written with out= every call) ------------
        # Lane dimension: the kernel compacts each call to the active
        # rows' *candidate* lanes (edges touching a front home), C of
        # them, C <= A*E <= K*E — every element op below runs over C
        # (or 2C/4C side-stacked) entries, not K*E dense lanes.
        L = K * E
        self._actn = np.zeros((K, E2), dtype=np.intp)  # hm gather idx
        self._hv = np.zeros((K, E2), dtype=bool)
        self._cm = np.zeros((K, E), dtype=bool)
        self._ce10 = np.zeros(10 * L, dtype=np.intp)
        self._q4 = np.zeros(4 * L, dtype=np.intp)
        self._g10 = np.zeros(10 * L, dtype=np.intp)
        self._g4 = np.zeros(4 * L)
        self._d2 = np.zeros(2 * L)
        self._m2 = np.zeros(2 * L, dtype=bool)
        self._mb2 = np.zeros(2 * L, dtype=bool)
        self._ix2 = np.zeros(2 * L, dtype=np.intp)
        self._cnts2 = np.zeros(2 * L, dtype=np.intp)
        self._soff2 = np.zeros(2 * L, dtype=np.intp)
        self._csb2 = np.zeros(2 * L, dtype=np.intp)
        self._starts2 = np.zeros(2 * L, dtype=np.intp)
        self._qo2 = np.zeros(2 * L, dtype=np.intp)
        self._bnl = np.zeros(L, dtype=np.intp)
        self._sbl = np.zeros(L, dtype=np.intp)
        self._dv2 = np.zeros(2 * L)
        self._df = np.zeros(L)
        self._ue = np.zeros(L)
        self._sc = np.zeros(L)
        self._fl = np.zeros(L)
        self._dm = np.zeros(L)
        self._lol = np.zeros(L)
        self._within = np.zeros(L, dtype=bool)
        self._w2b = np.zeros(L, dtype=bool)
        self._wint = np.zeros(L, dtype=np.intp)
        self._j_ar = np.arange(2 * L, dtype=np.intp)
        self._off10 = (np.arange(10, dtype=np.intp) * E)[:, None]
        self._lane_ce = _EMPTY_IDX
        self._lane_c = 0
        self._has_ext = False
        # Per-active-row coefficient / winner scalars (position-indexed).
        self._c1a = np.ones(K)
        self._c2a = np.zeros(K)
        self._ba = np.zeros(K)
        self._sfa = np.zeros(K)
        self._sea = np.zeros(K)
        self._lfa = np.zeros(K)
        self._lea = np.zeros(K, dtype=np.intp)
        self._n1 = np.zeros(K, dtype=np.intp)
        self._n2 = np.zeros(K, dtype=np.intp)
        # Expansion scratch, grown on demand (`tot`-sized working set).
        self._cap = 0
        self._grow(1024)
        self._pen = (
            config.swap_cost_penalty * device.pen_base
            if config.swap_cost_penalty
            else None
        )
        # Concatenated extended-set partner streams (rebuilt lazily).
        self._part_cat = _EMPTY_IDX
        self._stream_base_row = np.zeros(K, dtype=np.intp)
        self._streams_dirty = True

    # ------------------------------------------------------------------
    # Per-trial events
    # ------------------------------------------------------------------

    def bind_layout(self, row: int, l2p: Sequence[int]) -> None:
        """Load a trial's initial layout; reset its front-shaped state."""
        n = self.device.n
        plr = self.pl[row]
        l2r = self.l2p[row]
        l2r[:] = l2p
        plr[:n][l2r] = np.arange(n, dtype=np.intp)
        plr[n:].fill(-1)
        self.pfq[row].fill(-1)
        self.hm[row].fill(False)
        self.ecnt[row].fill(0)
        self._stream[row] = _EMPTY_IDX
        self._streams_dirty = True
        self.set_narrow_front(row, (), ())

    def set_wide_front(
        self,
        row: int,
        front_nodes: Sequence[int],
        ext_nodes: Sequence[int],
        qa_np: np.ndarray,
        qb_np: np.ndarray,
    ) -> None:
        """Install a wide front (more than ``scalar_max_front`` gates)
        in row ``row``: the numpy tables the kernel gathers from.

        ``front_nodes``/``ext_nodes`` are node ids of the trial's
        FlatDag, ``qa_np``/``qb_np`` its operand arrays.  Called only
        when a gate executed, so consecutive SWAP selections share
        everything here.
        """
        lf = len(front_nodes)
        self.narrow[row] = False
        dev = self.device
        n = dev.n
        D = dev.dist
        fidx = np.fromiter(front_nodes, dtype=np.intp, count=lf)
        fa = qa_np[fidx]
        fb = qb_np[fidx]
        plr = self.pl[row]
        l2 = self.l2p[row]
        ha = l2[fa]
        hb = l2[fb]
        pfqr = self.pfq[row]
        pfqr.fill(-1)
        pfqr[fa] = fb
        pfqr[fb] = fa
        pf = plr[n:]
        pf.fill(-1)
        pf[ha] = hb
        pf[hb] = ha
        hmr = self.hm[row]
        hmr.fill(False)
        hmr[ha] = True
        hmr[hb] = True
        self._fa[row] = fa
        self._fb[row] = fb
        self.sum_f[row] = D[ha * n + hb].sum()
        self._lf_f[row] = lf
        if not self._basic:
            self._c1_row[row] = 1.0 / lf
        # Extended-set CSR keyed by logical qubit (counts + offsets
        # rebuilt wholesale each refresh — bincount over n beats the
        # unique/scatter dance at these sizes).
        ecr = self.ecnt[row]
        le = len(ext_nodes)
        self._le[row] = le
        if le:
            eidx = np.fromiter(ext_nodes, dtype=np.intp, count=le)
            ea = qa_np[eidx]
            eb = qb_np[eidx]
            self._ea[row] = ea
            self._eb[row] = eb
            self.sum_e[row] = D[l2[ea] * n + l2[eb]].sum()
            if not self._basic:
                self._c2_row[row] = self._weight / le
            qcat = np.empty(2 * le, dtype=np.intp)
            qcat[:le] = ea
            qcat[le:] = eb
            pcat = np.empty(2 * le, dtype=np.intp)
            pcat[:le] = eb
            pcat[le:] = ea
            order = np.argsort(qcat, kind="stable")
            self._stream[row] = pcat[order]
            counts = np.bincount(qcat, minlength=n)
            ecr[:] = counts
            offs = counts.cumsum()
            offs -= counts
            self.eoff[row][:] = offs
        else:
            self._ea[row] = self._eb[row] = _EMPTY_IDX
            self.sum_e[row] = 0.0
            self._c2_row[row] = 0.0
            self._stream[row] = _EMPTY_IDX
            ecr.fill(0)
        self._streams_dirty = True
        self.sums_dirty[row] = False

    def set_narrow_front(
        self,
        row: int,
        fpairs: Sequence[Tuple[int, int]],
        epairs: Sequence[Tuple[int, int]],
    ) -> None:
        """Install a narrow front (at most ``scalar_max_front`` gates)
        given as logical-qubit pairs, for :meth:`score_scalar`.

        ``epairs`` may be a memoised tuple shared across refreshes (the
        router passes :meth:`FrontierState.extended_pairs
        <repro.circuits.flatdag.FrontierState.extended_pairs>`); it is
        only read.  The partner tables are persistent: the entries the
        previous narrow front installed are undone, then the new ones
        written — ``O(|F| + |E|)`` per refresh, no allocation of
        n-sized tables.
        """
        self.narrow[row] = True
        self._front_pairs[row] = fpairs
        self._ext_pairs[row] = epairs
        pf = self._pf[row]
        pe = self._pe[row]
        touched = self._touched[row]
        for q in touched:
            pf[q] = -1
            pe[q] = _NO_PARTNERS
        touched.clear()
        for a, b in fpairs:
            pf[a] = b
            pf[b] = a
            touched.append(a)
            touched.append(b)
        for a, b in epairs:
            other = pe[a]
            if other is _NO_PARTNERS:
                pe[a] = [b]
                touched.append(a)
            else:
                other.append(b)  # type: ignore[union-attr]
            other = pe[b]
            if other is _NO_PARTNERS:
                pe[b] = [a]
                touched.append(b)
            else:
                other.append(a)  # type: ignore[union-attr]

    def on_swap(self, row: int, qa: int, qb: int, pa: int, pb: int) -> None:
        """Maintain row mirrors after SWAPping ``qa <-> qb``.

        ``pa``/``pb`` are the pre-swap homes.  Narrow rows only track
        the layout (their partner tables are indexed by logical
        qubit, layout-independent); wide rows also fix up the
        front-partner-home table and the home mask — a handful of
        scalar writes, no array traffic.
        """
        n = self.device.n
        plr = self.pl[row]
        l2r = self.l2p[row]
        plr[pa] = qb
        plr[pb] = qa
        l2r[qa] = pb
        l2r[qb] = pa
        if self.narrow[row]:
            return
        pfqr = self.pfq[row]
        x = pfqr[qa]
        y = pfqr[qb]
        plr[n + pb] = l2r[x] if x >= 0 else -1
        plr[n + pa] = l2r[y] if y >= 0 else -1
        if x >= 0:
            plr[n + l2r[x]] = pb
        if y >= 0:
            plr[n + l2r[y]] = pa
        ax = x >= 0
        bx = y >= 0
        if ax != bx:
            hmr = self.hm[row]
            if ax:
                hmr[pa] = False
                hmr[pb] = True
            else:
                hmr[pb] = False
                hmr[pa] = True

    def note_chosen(self, row: int) -> None:
        """Mark a wide row's running sums dirty after an escape-hatch
        SWAP (which bypasses scoring, so no chosen-lane deltas exist).

        Ordinary kernel-scored steps need no notification at all:
        :meth:`_choose` folds the winning lane's front/extended deltas
        into the running sums the moment it picks the lane.
        """
        if not self.narrow[row]:
            self.sums_dirty[row] = True
            self._any_dirty = True

    # ------------------------------------------------------------------
    # Batched kernel
    # ------------------------------------------------------------------

    def _grow(self, cap: int) -> None:
        """Size the expansion scratch to hold ``cap`` stream entries."""
        if cap <= self._cap:
            return
        self._cap = cap
        self._seq = np.arange(cap, dtype=np.intp)
        self._xb1 = np.zeros(cap, dtype=np.intp)
        self._xb2 = np.zeros(cap, dtype=np.intp)
        self._xb3 = np.zeros(cap, dtype=np.intp)
        self._xi = np.zeros(cap, dtype=np.intp)
        self._xf1 = np.zeros(cap)
        self._xg = np.zeros(cap)
        self._xm = np.zeros(cap, dtype=bool)

    def score_rows(
        self,
        active: Sequence[int],
        rngs: Sequence,
        emit_sets: bool = False,
    ) -> dict:
        """Score every candidate SWAP of every active row in one kernel.

        Returns ``{row: (qa, qb, edge_index, winner_pairs)}`` — the
        *chosen* SWAP per row, tie-broken with that row's RNG exactly
        like the scalar loop (``best[0]`` when unique, one ``choice``
        draw otherwise; ``random.Random.choice`` consumes the stream as
        a function of the set size only).  ``winner_pairs`` is the full
        pre-tie-break ``(qa, qb)`` list when ``emit_sets`` (the
        ``on_winner_set`` test seam), else ``None``.

        The kernel is *compacted*: every call gathers only the active
        rows' candidate lanes (edges with a front-layer home endpoint)
        into flat ``(C,)`` working arrays — on real devices candidates
        are a third of the edges, and with only stuck rows active the
        element work tracks exactly what the step needs.
        """
        dev = self.device
        D = dev.dist
        n = dev.n
        E = dev.num_edges
        basic = self._basic
        c1a = self._c1a
        c2a = self._c2a
        ba = self._ba
        A = len(active)
        if self._any_dirty:
            # Escape-hatch swaps invalidated some rows' running sums;
            # recompute from the front tables (rare, python loop fine).
            for t in active:
                if self.sums_dirty[t]:
                    l2 = self.l2p[t]
                    fa = self._fa[t]
                    self.sum_f[t] = D[l2[fa] * n + l2[self._fb[t]]].sum()
                    ea = self._ea[t]
                    if len(ea):
                        self.sum_e[t] = D[l2[ea] * n + l2[self._eb[t]]].sum()
                    self.sums_dirty[t] = False
            self._any_dirty = True in self.sums_dirty
        if A == 1:
            # Solo routing and single-pending multi-row calls are the
            # common tail: a dedicated branch drops all row bookkeeping
            # (per-lane row bases, reduceat segmentation) for ~25% of
            # the dispatch count.
            t = active[0]
            any_ext = self._le[t] > 0
            if basic:
                ba[0] = self.sum_f[t]
            else:
                c1a[0] = self._c1_row[t]
                c2a[0] = self._c2_row[t]
                ba[0] = (
                    self.sum_f[t] / self._lf_f[t]
                    + c2a[0] * self.sum_e[t]
                )
            return {t: self._score_one(t, any_ext, rngs[t], emit_sets)}
        act = np.fromiter(active, dtype=np.intp, count=A)
        sfa = self.sum_f.take(act, out=self._sfa[:A])
        any_ext = bool(self._le.take(act, out=self._lea[:A]).any())
        if basic:
            np.copyto(ba[:A], sfa)
        else:
            # Same float ops as the scalar preamble: sum_f / len_f via
            # true division (not reciprocal multiply), then the
            # precomputed W/len_e coefficient times sum_e.
            self._c1_row.take(act, out=c1a[:A])
            self._c2_row.take(act, out=c2a[:A])
            sea = self.sum_e.take(act, out=self._sea[:A])
            lfa = self._lf_f.take(act, out=self._lfa[:A])
            bav = ba[:A]
            np.divide(sfa, lfa, out=bav)
            np.multiply(c2a[:A], sea, out=sea)
            bav += sea
        actn = act * n
        # Candidate lanes: an edge qualifies iff either endpoint is a
        # front-layer home.  nonzero() is row-major, so lanes arrive
        # grouped by row in ascending edge order — the scalar loops'
        # candidate order, which keeps tie-break RNG draws aligned.
        gidx = self._actn[:A]
        np.add(dev.ep_s[None, :], actn[:, None], out=gidx)
        hv = self._hv[:A]
        self._hm_flat.take(gidx, out=hv, mode="clip")
        cm = self._cm[:A]
        np.logical_or(hv[:, :E], hv[:, E:], out=cm)
        rwl, ce = cm.nonzero()
        C = len(ce)
        C2 = 2 * C
        C4 = 4 * C
        counts = cm.sum(axis=1)
        offs = counts.cumsum()
        starts_a = offs - counts
        self._lane_ce = ce
        self._lane_c = C
        C10 = 10 * C
        # Fully fused per-edge gather: one take over gcat yields the
        # [occupant_u | occupant_v | partner_home_u | partner_home_v]
        # table indices plus the row_s / row_o / ep_o edge constants.
        ce10 = self._ce10[:C10].reshape(10, C)
        np.add(ce, self._off10, out=ce10)
        bnl = self._bnl[:C]
        actn.take(rwl, out=bnl)
        g10 = self._g10[:C10]
        dev.gcat.take(self._ce10[:C10], out=g10, mode="clip")
        gi4 = g10[:C4]
        sn2 = g10[C4 : C4 + C2]
        on2 = g10[C4 + C2 : C4 + 2 * C2]
        eo2 = g10[C4 + 2 * C2 : C10]
        b2n = self._sbl[:C]
        np.multiply(bnl, 2, out=b2n)
        gi4v = gi4.reshape(4, C)
        gi4v += b2n[None, :]
        q4 = self._q4[:C4]
        self._pl_flat.take(gi4, out=q4, mode="clip")
        qu = q4[:C]
        qv = q4[C:C2]
        f2 = q4[C2:C4]  # front-partner homes, side-stacked [u | v]
        # Front-layer deltas: occupant moves across its edge; gates
        # between the two swapped qubits keep their distance (masked).
        m2 = self._m2[:C2]
        np.greater_equal(f2, 0, out=m2)
        mb2 = self._mb2[:C2]
        np.not_equal(f2, eo2, out=mb2)
        m2 &= mb2
        np.add(on2, f2, out=gi4[:C2])
        np.add(sn2, f2, out=gi4[C2:C4])
        g4 = self._g4[:C4]
        D.take(gi4, out=g4, mode="clip")
        d2 = self._d2[:C2]
        np.subtract(g4[:C2], g4[C2:C4], out=d2)
        d2 *= m2
        df = self._df[:C]
        np.add(d2[:C], d2[C:], out=df)
        # Per-occupant flat keys (decay gather + extended-set CSR).
        ix2 = self._ix2[:C2]
        np.add(q4[:C2].reshape(2, C), bnl[None, :], out=ix2.reshape(2, C))
        # Extended-set deltas via CSR expansion over every candidate
        # lane side at once.
        has_ext = False
        if any_ext:
            cnts2 = self._cnts2[:C2]
            self._ecnt_flat.take(ix2, out=cnts2, mode="clip")
            tot = int(cnts2.sum())
            has_ext = tot > 0
        self._has_ext = has_ext
        if has_ext:
            if self._streams_dirty:
                self._rebuild_streams()
            if 2 * tot > self._cap:
                self._grow(4 * tot)
            soff2 = self._soff2[:C2]
            self._eoff_flat.take(ix2, out=soff2, mode="clip")
            sb_a = self._stream_base_row.take(act)
            sbl = self._sbl[:C]
            sb_a.take(rwl, out=sbl)
            soff2v = soff2.reshape(2, C)
            soff2v += sbl[None, :]
            cs = cnts2.cumsum(out=self._csb2[:C2])
            starts2 = self._starts2[:C2]
            np.subtract(cs, cnts2, out=starts2)
            reps = self._j_ar[:C2].repeat(cnts2)
            b1 = self._xb1[:tot]
            b2 = self._xb2[:tot]
            b3 = self._xb3[:tot]
            # Stream position of every expanded (lane-side, partner)
            # slot: seq - group_start + csr_offset + stream_base.
            starts2.take(reps, out=b1, mode="clip")
            np.subtract(self._seq[:tot], b1, out=b1)
            soff2.take(reps, out=b2, mode="clip")
            b1 += b2
            self._part_cat.take(b1, out=b2, mode="clip")  # partner qubit
            bn2 = starts2  # consumed above; reuse as [bnl | bnl]
            bn2v = bn2.reshape(2, C)
            np.copyto(bn2v[0], bnl)
            np.copyto(bn2v[1], bnl)
            bn2.take(reps, out=b1, mode="clip")
            b1 += b2
            self._l2p_flat.take(b1, out=b3, mode="clip")  # partner home
            # Fused D gather for the moved/unmoved distance pair.
            xi = self._xi[: 2 * tot]
            io = xi[:tot]
            is_ = xi[tot:]
            on2.take(reps, out=io, mode="clip")
            io += b3
            sn2.take(reps, out=is_, mode="clip")
            is_ += b3
            xg = self._xg[: 2 * tot]
            D.take(xi, out=xg, mode="clip")
            f1 = self._xf1[:tot]
            np.subtract(xg[:tot], xg[tot:], out=f1)
            # Gates whose partner rides the *other* side of the SWAP
            # keep their distance — exclude them.
            qo2 = self._qo2[:C2]
            qo2v = qo2.reshape(2, C)
            np.copyto(qo2v[0], qv)
            np.copyto(qo2v[1], qu)
            qo2.take(reps, out=b1, mode="clip")
            m = self._xm[:tot]
            np.not_equal(b2, b1, out=m)
            f1 *= m
            ue_sides = np.bincount(reps, weights=f1, minlength=C2)
            ue = self._ue[:C]
            np.add(ue_sides[:C], ue_sides[C:C2], out=ue)
        # Compose Eq. 2: base + df/|F| + W*ue/|E|, then decay + penalty.
        sc = self._sc[:C]
        fl = self._fl[:C]
        c1a[:A].take(rwl, out=fl)
        np.multiply(df, fl, out=sc)
        if has_ext:
            c2a[:A].take(rwl, out=fl)
            fl *= self._ue[:C]
            sc += fl
        ba[:A].take(rwl, out=fl)
        sc += fl
        if self._uses_decay:
            dv2 = self._dv2[:C2]
            self._dv_flat.take(ix2, out=dv2, mode="clip")
            dm = self._dm[:C]
            np.maximum(dv2[:C], dv2[C:], out=dm)
            sc *= dm
        if self._pen is not None:
            self._pen.take(ce, out=fl, mode="clip")
            sc += fl
        # Winner sets per row segment (epsilon-tied, scalar-rule
        # compatible) via reduceat over the row-grouped lanes.
        mins = np.minimum.reduceat(sc, starts_a)
        mins += _SCORE_EPSILON
        lol = self._lol[:C]
        mins.take(rwl, out=lol)
        within = self._within[:C]
        np.less_equal(sc, lol, out=within)
        wint = self._wint[:C]
        np.copyto(wint, within)
        n1 = np.add.reduceat(wint, starts_a)
        mins += _SCORE_EPSILON
        mins.take(rwl, out=lol)
        w2 = self._w2b[:C]
        np.less_equal(sc, lol, out=w2)
        np.copyto(wint, w2)
        n2 = np.add.reduceat(wint, starts_a)
        # One bulk conversion per array beats per-row numpy-scalar
        # int() casts; winner lanes come from a single flatnonzero
        # instead of per-row argmax/nonzero slices.
        wl = np.flatnonzero(within).tolist()
        starts_l = starts_a.tolist()
        offs_l = offs.tolist()
        n1_l = n1.tolist()
        n2_l = n2.tolist()
        out = {}
        wo = 0
        for a in range(A):
            t = active[a]
            k1 = n1_l[a]
            out[t] = self._choose(
                t,
                starts_l[a],
                offs_l[a],
                k1,
                n2_l[a],
                rngs[t],
                emit_sets,
                wl,
                wo,
            )
            wo += k1
        return out

    def _score_one(self, t, any_ext, rng, emit_sets):
        """Single-row kernel: :meth:`score_rows` minus row bookkeeping.

        Same lane pipeline and identical arithmetic, but row bases are
        python scalars (zero for the solo block), coefficients multiply
        as scalars, and the winner set falls out of ``min`` +
        ``count_nonzero`` instead of segmented reduceat.
        """
        dev = self.device
        D = dev.dist
        n = dev.n
        E = dev.num_edges
        base_n = t * n
        gidx = self._actn[0]
        np.add(dev.ep_s, base_n, out=gidx)
        hv = self._hv[0]
        self._hm_flat.take(gidx, out=hv, mode="clip")
        cm = self._cm[0]
        np.logical_or(hv[:E], hv[E:], out=cm)
        ce = cm.nonzero()[0]
        C = len(ce)
        C2 = 2 * C
        C4 = 4 * C
        C10 = 10 * C
        self._lane_ce = ce
        self._lane_c = C
        ce10 = self._ce10[:C10].reshape(10, C)
        np.add(ce, self._off10, out=ce10)
        g10 = self._g10[:C10]
        dev.gcat.take(self._ce10[:C10], out=g10, mode="clip")
        gi4 = g10[:C4]
        sn2 = g10[C4 : C4 + C2]
        on2 = g10[C4 + C2 : C4 + 2 * C2]
        eo2 = g10[C4 + 2 * C2 : C10]
        if base_n:
            gi4 += 2 * base_n
        q4 = self._q4[:C4]
        self._pl_flat.take(gi4, out=q4, mode="clip")
        qu = q4[:C]
        qv = q4[C:C2]
        f2 = q4[C2:C4]
        m2 = self._m2[:C2]
        np.greater_equal(f2, 0, out=m2)
        mb2 = self._mb2[:C2]
        np.not_equal(f2, eo2, out=mb2)
        m2 &= mb2
        np.add(on2, f2, out=gi4[:C2])
        np.add(sn2, f2, out=gi4[C2:C4])
        g4 = self._g4[:C4]
        D.take(gi4, out=g4, mode="clip")
        d2 = self._d2[:C2]
        np.subtract(g4[:C2], g4[C2:C4], out=d2)
        d2 *= m2
        df = self._df[:C]
        np.add(d2[:C], d2[C:], out=df)
        if base_n:
            ix2 = self._ix2[:C2]
            np.add(q4[:C2], base_n, out=ix2)
        else:
            ix2 = q4[:C2]
        has_ext = False
        if any_ext:
            cnts2 = self._cnts2[:C2]
            self._ecnt_flat.take(ix2, out=cnts2, mode="clip")
            tot = int(cnts2.sum())
            has_ext = tot > 0
        self._has_ext = has_ext
        if has_ext:
            if self._streams_dirty:
                self._rebuild_streams()
            if 2 * tot > self._cap:
                self._grow(4 * tot)
            soff2 = self._soff2[:C2]
            self._eoff_flat.take(ix2, out=soff2, mode="clip")
            sb = int(self._stream_base_row[t])
            if sb:
                soff2 += sb
            cs = cnts2.cumsum(out=self._csb2[:C2])
            starts2 = self._starts2[:C2]
            np.subtract(cs, cnts2, out=starts2)
            reps = self._j_ar[:C2].repeat(cnts2)
            b1 = self._xb1[:tot]
            b2 = self._xb2[:tot]
            b3 = self._xb3[:tot]
            starts2.take(reps, out=b1, mode="clip")
            np.subtract(self._seq[:tot], b1, out=b1)
            soff2.take(reps, out=b2, mode="clip")
            b1 += b2
            self._part_cat.take(b1, out=b2, mode="clip")  # partner qubit
            if base_n:
                np.add(b2, base_n, out=b1)
                self._l2p_flat.take(b1, out=b3, mode="clip")
            else:
                self._l2p_flat.take(b2, out=b3, mode="clip")
            xi = self._xi[: 2 * tot]
            io = xi[:tot]
            is_ = xi[tot:]
            on2.take(reps, out=io, mode="clip")
            io += b3
            sn2.take(reps, out=is_, mode="clip")
            is_ += b3
            xg = self._xg[: 2 * tot]
            D.take(xi, out=xg, mode="clip")
            f1 = self._xf1[:tot]
            np.subtract(xg[:tot], xg[tot:], out=f1)
            qo2 = self._qo2[:C2]
            qo2v = qo2.reshape(2, C)
            np.copyto(qo2v[0], qv)
            np.copyto(qo2v[1], qu)
            qo2.take(reps, out=b1, mode="clip")
            m = self._xm[:tot]
            np.not_equal(b2, b1, out=m)
            f1 *= m
            ue_sides = np.bincount(reps, weights=f1, minlength=C2)
            ue = self._ue[:C]
            np.add(ue_sides[:C], ue_sides[C:C2], out=ue)
        sc = self._sc[:C]
        np.multiply(df, self._c1a[0], out=sc)
        if has_ext:
            fl = self._fl[:C]
            np.multiply(self._ue[:C], self._c2a[0], out=fl)
            sc += fl
        sc += self._ba[0]
        if self._uses_decay:
            dv2 = self._dv2[:C2]
            self._dv_flat.take(ix2, out=dv2, mode="clip")
            dm = self._dm[:C]
            np.maximum(dv2[:C], dv2[C:], out=dm)
            sc *= dm
        if self._pen is not None:
            fl = self._fl[:C]
            self._pen.take(ce, out=fl, mode="clip")
            sc += fl
        lo = sc.min() + _SCORE_EPSILON
        within = self._within[:C]
        np.less_equal(sc, lo, out=within)
        n1 = int(np.count_nonzero(within))
        w2 = self._w2b[:C]
        np.less_equal(sc, lo + _SCORE_EPSILON, out=w2)
        n2 = int(np.count_nonzero(w2))
        wl = np.flatnonzero(within).tolist() if n1 == n2 else None
        return self._choose(t, 0, C, n1, n2, rng, emit_sets, wl, 0)

    def _rebuild_streams(self) -> None:
        """Re-concatenate per-trial partner streams after a front change."""
        streams = self._stream
        if self.rows == 1:
            self._part_cat = streams[0]
            # stream_base_row stays all-zero for the solo block.
        else:
            self._part_cat = np.concatenate(streams)
            base = 0
            sb = self._stream_base_row
            for i, s in enumerate(streams):
                sb[i] = base
                base += len(s)
        self._streams_dirty = False

    def _choose(self, t, s, e, n1, n2, rng, emit_sets, wl, wo):
        """Row ``t``'s tie-broken ``(qa, qb, eidx, winner_pairs)`` from
        its lane segment ``[s, e)`` of the last kernel call.

        ``wl``/``wo`` hand over the call-wide winner-lane list (global
        lane indices from one ``flatnonzero``) and this row's offset
        into it — its ``n1`` winners are ``wl[wo:wo + n1]``.

        The scalar loop's running-best rule equals ``{i : s_i <= min +
        eps}`` unless some score lies in ``(min+eps, min+2eps]`` (only
        then can a collected near-tie be evicted later); that rare
        boundary case falls back to an exact sequential replay.  Ties
        draw one ``rng.choice`` over an equal-length sequence — the
        same stream consumption as the scalar loop's
        ``rng.choice(best)``.

        Picking the lane also folds its front/extended deltas into the
        row's running sums right here — the lane buffers are
        overwritten next call, and by then the SWAP has been applied.
        """
        C = self._lane_c
        q4 = self._q4
        if n1 != n2:
            best_score = float("inf")
            best: List[int] = []
            for i, score in enumerate(self._sc[s:e].tolist()):
                if score < best_score - _SCORE_EPSILON:
                    best_score = score
                    best = [i]
                elif score <= best_score + _SCORE_EPSILON:
                    best.append(i)
            lane = s + (best[0] if len(best) == 1 else rng.choice(best))
            pairs = (
                [(int(q4[s + k]), int(q4[C + s + k])) for k in best]
                if emit_sets
                else None
            )
        elif n1 == 1:
            lane = wl[wo]
            pairs = (
                [(int(q4[lane]), int(q4[C + lane]))] if emit_sets else None
            )
        else:
            best = wl[wo : wo + n1]
            lane = rng.choice(best)
            pairs = (
                [(int(q4[k]), int(q4[C + k])) for k in best]
                if emit_sets
                else None
            )
        self.sum_f[t] += self._df[lane]
        if self._has_ext:
            self.sum_e[t] += self._ue[lane]
        return (
            int(q4[lane]),
            int(q4[C + lane]),
            int(self._lane_ce[lane]),
            pairs,
        )

    # ------------------------------------------------------------------
    # Narrow-front scalar scoring
    # ------------------------------------------------------------------

    def score_scalar(
        self,
        row: int,
        l2p: Sequence[int],
        p2l: Sequence[int],
        decay_values,
        uses_decay: bool,
    ) -> List[Tuple[int, int, None]]:
        """Scalar delta scoring for a narrow front (see class docstring).

        Walks the same candidate order as the kernel and the reference
        scorer, adjusting the step's base sums by per-candidate deltas,
        so narrow and wide fronts are scored interchangeably.  The
        candidate list comes from the device's per-home-tuple memo
        (:meth:`VectorDevice.narrow_candidates`); the winner triples
        carry ``eidx=None`` since the kernel's delta buffers were not
        involved.  The size of the candidate list is left in
        :attr:`scalar_candidates` for the router profiler.
        """
        buf = self.buf
        n = self.device.n
        fpairs = self._front_pairs[row]
        epairs = self._ext_pairs[row]
        pf = self._pf[row]
        pe = self._pe[row]
        if len(fpairs) == 1:
            a, b = fpairs[0]
            homes = (l2p[a], l2p[b])
        else:
            homes = tuple([l2p[q] for pair in fpairs for q in pair])
        cand = self.device.narrow_candidates(homes)
        self.scalar_candidates = len(cand)
        sum_f = 0.0
        for a, b in fpairs:
            sum_f += buf[l2p[a] * n + l2p[b]]
        sum_e = 0.0
        for a, b in epairs:
            sum_e += buf[l2p[a] * n + l2p[b]]
        len_f = len(fpairs)
        len_e = len(epairs)
        weight = self._weight
        basic = self._basic
        penalty = self._penalty
        ext_const = weight * (sum_e + 0.0) / len_e if len_e else 0.0
        if uses_decay:
            dvl = decay_values.tolist()
        best_score = float("inf")
        best: List[Tuple[int, int, None]] = []
        for pa, pb, row_a, row_b in cand:
            qa = p2l[pa]
            qb = p2l[pb]
            delta = 0.0
            other = pf[qa]
            if other >= 0 and other != qb:
                po = l2p[other]
                delta += buf[row_b + po] - buf[row_a + po]
            other = pf[qb]
            if other >= 0 and other != qa:
                po = l2p[other]
                delta += buf[row_a + po] - buf[row_b + po]
            if basic:
                score = sum_f + delta
            else:
                score = (sum_f + delta) / len_f
                if len_e:
                    pe_a = pe[qa]
                    pe_b = pe[qb]
                    if pe_a or pe_b:
                        delta = 0.0
                        for other in pe_a:
                            if other != qb:
                                po = l2p[other]
                                delta += buf[row_b + po] - buf[row_a + po]
                        for other in pe_b:
                            if other != qa:
                                po = l2p[other]
                                delta += buf[row_a + po] - buf[row_b + po]
                        score += weight * (sum_e + delta) / len_e
                    else:
                        score += ext_const
            if uses_decay:
                da = dvl[qa]
                db = dvl[qb]
                score *= da if da >= db else db
            if penalty:
                score += penalty * (buf[row_a + pb] - 1.0)
            if score < best_score - _SCORE_EPSILON:
                best_score = score
                best = [(qa, qb, None)]
            elif score <= best_score + _SCORE_EPSILON:
                best.append((qa, qb, None))
        return best
