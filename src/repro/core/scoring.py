"""Flat distance buffer and the ``vector`` scorer for SABRE's hot loop.

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
- :class:`VectorDevice` holds the per-front-home candidate memo, shared
  by every traversal on one router.
- :class:`VectorBlock` holds one traversal's scoring state: partner
  tables for the current front and look-ahead set, and the
  ``O(deg_F + deg_E)`` delta loop (:meth:`VectorBlock.score_scalar`)
  that adjusts only the terms whose qubits actually move.  On the
  paper's devices nearly every front has four gates or fewer, and a
  scalar loop over a few candidates beats array dispatch at any front
  width that occurs there.

Exactness: a gate *between* the two swapped qubits keeps its distance
(``D`` is symmetric for every matrix this project produces; the router
falls back to the reference scorer otherwise), so its term is skipped
entirely.  All remaining terms are adjusted by the difference of two
matrix entries.  Sums therefore agree with the reference scorer up to
float-addition ordering, which the differential suite
(``tests/core/test_differential.py``) pins down to identical winner sets
and identical routed circuits.

The look-ahead sum is also *bounded*.  One SWAP moves each look-ahead
term by at most the device's ``spread`` (:func:`device_spread`), so
before walking a candidate's look-ahead partners the scorer computes
its exact front term plus ``W * (sum_E - spread * k) / |E|`` (``k``
partners) plus its exact penalty term.  That is a lower bound on its
score: the decay factor is at least 1 (``decay_delta >= 0``) and
multiplies a non-negative sum (a matrix with a negative entry gets an
infinite spread, which disables the bound).  A candidate whose bound
exceeds the best score so far by more than ``2 * SCORE_EPSILON`` would
neither reset nor join the winner list, so skipping it leaves the
list, its order, and hence the RNG draws unchanged; the second epsilon
absorbs float rounding.
"""

from __future__ import annotations

from array import array
from itertools import chain
from operator import sub
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.heuristic import HeuristicConfig
from repro.exceptions import MappingError

#: Shared empty tuple so ``partners.get(q, _NO_PARTNERS)`` never allocates.
_NO_PARTNERS: Tuple[int, ...] = ()

#: Size bound of :attr:`VectorDevice.cand_memo` (home tuples held).
_CAND_MEMO_MAX = 1 << 16

#: Scores within this tolerance are considered tied (random tie-break).
#: Single source of truth for every scorer (the router imports it).
SCORE_EPSILON = 1e-9


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
        untouched.  The view is marked read-only: every consumer
        (benchmarks, reports) treats distances as frozen,
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


def device_spread(
    flat: FlatDistance, edges: Iterable[Tuple[int, int]]
) -> float:
    """The largest ``|D[a][x] - D[b][x]|`` over device edges ``(a, b)``
    and physical qubits ``x``.

    A SWAP on edge ``(a, b)`` moves a look-ahead gate's qubit from ``a``
    to ``b`` while its partner stays at ``x``, so each look-ahead term
    changes by at most this much.  It is 1.0 on every unit-hop matrix
    and is read off the actual matrix, so weighted (noise-aware)
    matrices stay exact.  A matrix with a negative entry gets ``inf``,
    which disables the bound.  The row differences run in C through
    ``map`` rather than numpy, whose first reductions in a process add
    a few hundred KB of resident memory to every pool worker.
    """
    buf = flat.buf
    n = flat.n
    if min(buf, default=0.0) < 0.0:
        return float("inf")
    rows = [buf[q * n : (q + 1) * n] for q in range(n)]
    return max(
        (max(map(abs, map(sub, rows[a], rows[b]))) for a, b in edges),
        default=0.0,
    )


class VectorDevice:
    """Device-constant candidate tables for the ``vector`` scorer.

    Built once per router (vector mode only) and shared read-only by
    every :class:`VectorBlock`.

    Attributes:
        n: physical qubit count.
        neighbors: the adjacency lists the device was built from.
        cand_memo: candidate lists for :meth:`VectorBlock.score_scalar`,
            keyed by the front's home tuple (see :meth:`front_candidates`).
        spread: the most one SWAP can move one look-ahead term (see
            :func:`device_spread`); bounds a candidate's look-ahead sum.
    """

    __slots__ = ("n", "neighbors", "cand_memo", "spread", "_edge_cands")

    def __init__(
        self, flat: FlatDistance, neighbors: Sequence[Sequence[int]]
    ) -> None:
        n = flat.n
        self.n = n
        self.neighbors = neighbors
        self.cand_memo: dict = {}
        # One shared candidate tuple per edge: memoised lists only
        # reference these, so each memo entry costs a list, not tuples.
        self._edge_cands = {
            (a, b): (a, b, a * n, b * n)
            for a, b in (
                (p, nb) if p < nb else (nb, p)
                for p, nbs in enumerate(neighbors)
                for nb in nbs
            )
        }
        self.spread = device_spread(flat, self._edge_cands)

    def front_candidates(
        self, homes: Tuple[int, ...]
    ) -> List[Tuple[int, int, int, int]]:
        """Candidate SWAPs of a front, memoised by its homes.

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
    """One traversal's scoring state for the ``vector`` scorer.

    :meth:`set_front` installs a front and its look-ahead set as
    logical-qubit pairs.  The look-ahead pairs usually arrive as the
    frontier's memoised tuple (walked once per distinct front per
    layout search).  The partner tables are lists indexed by logical
    qubit: ``_pf`` holds the front partner or ``-1``, ``_pe`` the
    look-ahead partners or a shared empty tuple.  Only the entries the
    previous front touched are reset, so a refresh costs
    ``O(|F| + |E|)``.  :meth:`score_scalar` then scores every candidate
    SWAP against the current layout; candidate lists come from the
    device's per-home-tuple memo.
    """

    def __init__(
        self,
        device: VectorDevice,
        config: HeuristicConfig,
        buf: List[float],
    ) -> None:
        self.device = device
        self.buf = buf
        self._basic = config.mode == "basic"
        self._weight = config.extended_set_weight
        self._penalty = config.swap_cost_penalty
        n = device.n
        self._front_pairs: Sequence[Tuple[int, int]] = ()
        self._ext_pairs: Sequence[Tuple[int, int]] = ()
        self._pf: List[int] = [-1] * n
        self._pe: List[Sequence[int]] = [_NO_PARTNERS] * n
        self._touched: List[int] = []
        #: Candidate count of the last :meth:`score_scalar` call.
        self.scalar_candidates = 0
        #: Candidates of that call whose look-ahead loops the lower
        #: bound skipped.
        self.scalar_bounded = 0

    def set_front(
        self,
        fpairs: Sequence[Tuple[int, int]],
        epairs: Sequence[Tuple[int, int]],
    ) -> None:
        """Install a front and its look-ahead set, given as logical-qubit
        pairs, for :meth:`score_scalar`.

        ``epairs`` may be a memoised tuple shared across refreshes (the
        router passes :meth:`FrontierState.extended_pairs
        <repro.circuits.flatdag.FrontierState.extended_pairs>`); it is
        only read.  The partner tables are persistent: the entries the
        previous front installed are undone, then the new ones written
        — no allocation of n-sized tables.
        """
        self._front_pairs = fpairs
        self._ext_pairs = epairs
        pf = self._pf
        pe = self._pe
        touched = self._touched
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

    def score_scalar(
        self,
        l2p: Sequence[int],
        p2l: Sequence[int],
        decay: Sequence[float],
        uses_decay: bool,
    ) -> List[Tuple[int, int]]:
        """The best-scoring candidate SWAPs ``(qa, qb)`` of the installed
        front under layout ``l2p``/``p2l``, before the tie-break.

        Walks the same candidate order as the reference scorer,
        adjusting the step's base sums by per-candidate deltas.  The
        candidate list comes from the device's per-home-tuple memo
        (:meth:`VectorDevice.front_candidates`).  ``decay`` is the
        per-logical-qubit decay table (read only when ``uses_decay``).
        The size of the candidate list is left in
        :attr:`scalar_candidates` for the router profiler.

        A candidate with look-ahead partners first gets a lower bound
        from its exact front and penalty terms and the device's
        ``spread`` (see the module docstring); when that bound is more
        than ``2 * SCORE_EPSILON`` above the best score so far, the
        candidate cannot join the winner list and its partner loops are
        skipped.  How many were skipped is left in
        :attr:`scalar_bounded`.
        """
        buf = self.buf
        n = self.device.n
        fpairs = self._front_pairs
        epairs = self._ext_pairs
        pf = self._pf
        pe = self._pe
        if len(fpairs) == 1:
            a, b = fpairs[0]
            homes = (l2p[a], l2p[b])
        else:
            homes = tuple([l2p[q] for pair in fpairs for q in pair])
        cand = self.device.front_candidates(homes)
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
        # Per look-ahead partner, the most a SWAP can lower the E sum's
        # weighted mean (inf disables the bound; see device_spread).
        slack = weight * self.device.spread / len_e if len_e else 0.0
        best_score = float("inf")
        cutoff = best_score
        bounded = 0
        best: List[Tuple[int, int]] = []
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
            if penalty:
                cost = penalty * (buf[row_a + pb] - 1.0)
            if basic:
                score = sum_f + delta
            else:
                score = (sum_f + delta) / len_f
                if len_e:
                    pe_a = pe[qa]
                    pe_b = pe[qb]
                    if pe_a or pe_b:
                        # Lower bound (module docstring): every partner
                        # term drops by at most ``spread``.
                        low = score + ext_const - slack * (
                            len(pe_a) + len(pe_b)
                        )
                        if penalty:
                            low += cost
                        if low > cutoff:
                            bounded += 1
                            continue
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
                da = decay[qa]
                db = decay[qb]
                score *= da if da >= db else db
            if penalty:
                score += cost
            if score < best_score - SCORE_EPSILON:
                best_score = score
                cutoff = score + 2.0 * SCORE_EPSILON
                best = [(qa, qb)]
            elif score <= best_score + SCORE_EPSILON:
                best.append((qa, qb))
        self.scalar_bounded = bounded
        return best
