"""The local-site runtime (§4's participant S_i, §6's implementation).

A :class:`LocalSite` owns one horizontal partition ``D_i`` of the
global uncertain database and implements every per-site obligation of
the DSUD/e-DSUD protocol:

* **Local computing phase** — compute the qualified local skyline
  ``SKY(D_i) = { t : P_sky(t, D_i) ≥ q }`` (BBS over the PR-tree, §6.2,
  or the sort-based fallback) and keep it sorted by descending local
  skyline probability as the *candidate queue*.
* **To-Server phase** — surrender the queue head as a
  :class:`~repro.net.message.Quaternion` on request.
* **Server-Delivery phase** — answer a probe for a foreign tuple ``t``
  with the factor ``P_sky(t, D_i) = ∏_{t'∈D_i, t'≺t}(1 − P(t'))``
  (Eq. 9) through the §6.3 window query, one tuple at a time or as a
  batch (:meth:`probe_and_prune_batch`) when the coordinator ships
  several feedback quaternions per round.
* **Local-Pruning phase** — fold each received feedback tuple into the
  pruning set and expunge queue candidates whose global-probability
  upper bound ``P_sky(s, D_i) × ∏_{f ≺ s}(1 − P(f))`` sinks below the
  threshold.  Pruned tuples stay in ``D_i`` (they still dominate) —
  only their candidacy dies.
* **§5.4 maintenance** — apply inserts/deletes to the PR-tree, the
  candidate queue, and the replicated copy of ``SKY(H)``.

Hot paths run on the columnar kernels of :mod:`repro.core.kernels` by
default: the candidate queue is kept as a small column store (values
matrix + bound vector + alive mask), so one feedback broadcast tightens
*every* candidate's bound in a single masked multiply, and un-indexed
probes and local skylines use the vectorized Eq. 9 / SFS kernels.
``SiteConfig.vectorized=False`` selects the scalar reference path —
same queue discipline, same accounting, pure-Python arithmetic — which
the exactness tests diff against the kernels.

Sites never talk to each other; everything flows through the
coordinator, exactly as in the paper.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from ..core.dominance import Preference, dominates
from ..core.kernels import ColumnStore, _project_matrix
from ..core.kernels import prob_skyline_sfs as columnar_prob_skyline_sfs
from ..core.partition_index import PartitionIndex
from ..core.prob_skyline import ProbabilisticSkyline, SkylineMember, prob_skyline_sfs
from ..core.probability import (
    feedback_pruning_bound,
    foreign_skyline_probability,
    skyline_probability,
)
from ..core.tuples import UncertainTuple, validate_database
from ..index.bbs import bbs_prob_skyline
from ..index.prtree import PRTree
from ..net.message import Quaternion

if TYPE_CHECKING:
    from .workers import TableWorkerPool

__all__ = ["SiteConfig", "ProbeReply", "BatchProbeReply", "LocalSite"]


@dataclass(frozen=True)
class SiteConfig:
    """Per-site execution knobs.

    ``use_index``        — build an index (§6) or fall back to scans.
    ``index_kind``       — "prtree" (the paper's §6.1 structure) or
                           "grid" (the uniform-grid rival; probes only,
                           local skylines fall back to sorting).
    ``feedback_pruning`` — enable the Local-Pruning phase (ablation
                           switch; disabling it never affects the
                           answer, only bandwidth).
    ``max_entries``      — PR-tree node capacity.
    ``store_products``   — keep non-occurrence products in the tree
                           (the §6.3 probe optimization; ablation
                           switch).
    ``vectorized``       — run the un-indexed probe/skyline kernels and
                           the Local-Pruning scan on the columnar numpy
                           layer (:mod:`repro.core.kernels`).  False
                           selects the scalar reference path, which the
                           exactness suite diffs against the kernels.
    ``all_probs_table``  — precompute the full P_sky table with the
                           output-sensitive partition index
                           (:mod:`repro.core.partition_index`).  Local
                           skylines become a table filter, probes and
                           §5.4 maintenance read/invalidate cells, and
                           :meth:`LocalSite.fork` shares the table
                           zero-copy.  Supersedes the PR-tree (no tree
                           is built).  Off by default: the table's
                           cell-aggregated products match the flat
                           kernels to ~1e-12, not bit-for-bit, so the
                           historical paths stay byte-stable unless a
                           deployment opts in.
    ``table_occupancy``  — target rows per grid cell for the table
                           build (``None`` = kernel default).
    """

    use_index: bool = True
    index_kind: str = "prtree"
    feedback_pruning: bool = True
    max_entries: int = 16
    store_products: bool = True
    vectorized: bool = True
    all_probs_table: bool = False
    table_occupancy: Optional[int] = None


@dataclass(frozen=True)
class ProbeReply:
    """Answer to a feedback/probe broadcast."""

    factor: float
    pruned: int
    queue_remaining: int


@dataclass(frozen=True)
class BatchProbeReply:
    """Answer to a batched feedback broadcast: one factor per probe tuple.

    ``factors`` aligns with the request order; ``pruned`` totals the
    Local-Pruning drops across the whole batch.
    """

    factors: List[float]
    pruned: int
    queue_remaining: int


@dataclass
class _Candidate:
    tuple: UncertainTuple
    local_probability: float
    bound: float  # local probability × accumulated feedback factors


class LocalSite:
    """One participant S_i holding partition D_i."""

    def __init__(
        self,
        site_id: int,
        database: Sequence[UncertainTuple],
        preference: Optional[Preference] = None,
        config: Optional[SiteConfig] = None,
    ) -> None:
        self.site_id = site_id
        self.preference = preference
        self.config = config or SiteConfig()
        validate_database(list(database))  # unique keys, consistent d
        self.database: Dict[int, UncertainTuple] = {t.key: t for t in database}
        self.tree = None
        #: Shared box holding the all-probabilities partition index.
        #: A dict (not a bare attribute) for the same reason as
        #: ``_skyline_cache``: :meth:`fork` shares it by reference, so
        #: a template's lazily-built table — and every §5.4 cell
        #: invalidation applied to it — is observed by all forks.
        self._table_box: Dict[str, PartitionIndex] = {}
        if self.config.use_index and not self.config.all_probs_table:
            if self.config.index_kind == "prtree":
                self.tree = PRTree.build(
                    database,
                    preference=preference,
                    max_entries=self.config.max_entries,
                    store_products=self.config.store_products,
                )
            elif self.config.index_kind == "grid":
                from ..index.grid import GridIndex

                self.tree = GridIndex.build(database, preference=preference)
            else:
                raise ValueError(
                    f"unknown index kind {self.config.index_kind!r}; "
                    f"expected 'prtree' or 'grid'"
                )
        self.threshold: Optional[float] = None
        self._popped_keys: set = set()
        self.pruned_total = 0
        # The candidate queue: parallel to ``_cands`` run a cursor
        # (``_q_head``), an alive mask, a bound vector, and — on the
        # vectorized path — the candidates' min-space coordinate matrix.
        # Front-pops advance the cursor in O(1); feedback pruning flips
        # alive bits instead of rebuilding lists.
        self._cands: List[_Candidate] = []
        self._q_head = 0
        self._q_alive = np.zeros(0, dtype=bool)
        self._q_bounds = np.zeros(0, dtype=np.float64)
        self._q_values: Optional[np.ndarray] = None
        #: Shared box holding the columnar view of the whole partition
        #: for un-indexed probes; rebuilt lazily after §5.4 updates.  A
        #: box like ``_table_box``, so forks share one view and an
        #: update's invalidation reaches them.
        self._columns_box: Dict[str, ColumnStore] = {}
        self._feedback: List[UncertainTuple] = []
        #: Replica of the global result set for §5.4 updates: key →
        #: (tuple, global skyline probability).  Replicating SKY(H) at
        #: every participant is what lets most updates resolve without
        #: touching the network.
        self.sky_h_replica: Dict[int, "tuple[UncertainTuple, float]"] = {}
        #: Optional shared ``threshold → ProbabilisticSkyline`` cache.
        #: ``None`` (the solo default) recomputes on every ``prepare``
        #: — bit-identical to the historical behaviour.  The serving
        #: layer installs one dict on a template site and every
        #: :meth:`fork` shares it, so repeated ``prepare(q)`` across
        #: sessions costs one local-skyline computation per distinct
        #: threshold.  §5.4 updates clear it (in place, so every fork
        #: sees the invalidation).
        self._skyline_cache: Optional[Dict[float, ProbabilisticSkyline]] = None
        #: Optional shared Eq. 9 memo: probed tuple → factor, one dict
        #: per call form (``probe`` / ``probe_batch``).  ``None`` (the
        #: solo default) probes the backend every time.  Installed and
        #: shared exactly like ``_skyline_cache``; a factor depends
        #: only on the stored partition and the probed tuple, never on
        #: the session, so a hit returns the float a miss would compute.
        self._probe_memo: Optional[Dict[UncertainTuple, float]] = None
        self._probe_batch_memo: Optional[Dict[UncertainTuple, float]] = None

    # ------------------------------------------------------------------
    # local computing phase
    # ------------------------------------------------------------------

    def prepare(self, threshold: float) -> int:
        """Compute and enqueue ``SKY(D_i)``; returns its size.

        Idempotent per threshold: calling again resets the queue and
        clears accumulated feedback, which is what a fresh query run
        needs.
        """
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold q must be in (0, 1], got {threshold!r}")
        self.threshold = threshold
        answer = self._local_skyline(threshold)
        self._cands = [
            _Candidate(tuple=m.tuple, local_probability=m.probability, bound=m.probability)
            for m in answer  # ProbabilisticSkyline iterates descending
        ]
        k = len(self._cands)
        self._q_head = 0
        self._q_alive = np.ones(k, dtype=bool)
        self._q_bounds = np.array(
            [c.local_probability for c in self._cands], dtype=np.float64
        )
        if self.config.vectorized and k:
            store = ColumnStore.from_tuples(
                [c.tuple for c in self._cands], self.preference
            )
            self._q_values = store.values
        else:
            self._q_values = None
        self._feedback = []
        self._popped_keys = set()
        self.pruned_total = 0
        return k

    def _local_skyline(self, threshold: float) -> ProbabilisticSkyline:
        cache = self._skyline_cache
        if cache is not None:
            hit = cache.get(threshold)
            if hit is not None:
                return hit
        if self.config.all_probs_table:
            answer = self._table_skyline(threshold)
        elif isinstance(self.tree, PRTree):
            answer = bbs_prob_skyline(self.tree, threshold)
        elif self.config.vectorized:
            answer = columnar_prob_skyline_sfs(
                list(self.database.values()), threshold, self.preference
            )
        else:
            answer = prob_skyline_sfs(
                list(self.database.values()), threshold, self.preference
            )
        if cache is not None:
            cache[threshold] = answer
        return answer

    # ------------------------------------------------------------------
    # the all-probabilities table (output-sensitive kernel)
    # ------------------------------------------------------------------

    def _table_point(self, t: UncertainTuple) -> np.ndarray:
        """One tuple's canonical min-space coordinates for table probes."""
        return _project_matrix(
            np.asarray(t.values, dtype=np.float64).reshape(1, -1), self.preference
        )[0]

    def _ensure_table(self) -> PartitionIndex:
        """The shared partition index, building it inline if absent."""
        index = self._table_box.get("index")
        if index is None:
            index = PartitionIndex.build(
                self._partition_columns(), occupancy=self.config.table_occupancy
            )
            self._table_box["index"] = index
        return index

    def build_all_probs_table(self, pool: Optional["TableWorkerPool"] = None) -> PartitionIndex:
        """Precompute the full P_sky table (idempotent; returns the index).

        Without a pool the build runs inline.  With a
        :class:`~repro.distributed.workers.TableWorkerPool` the
        expensive product pass runs in a worker process and only the
        result arrays come back — bit-identical to the inline build,
        verified by the payload's grid-parameter check.
        """
        index = self._table_box.get("index")
        if index is None:
            store = self._partition_columns()
            if pool is not None:
                payload = pool.build_payload(
                    store, occupancy=self.config.table_occupancy
                )
                index = PartitionIndex.from_payload(store, payload)
            else:
                index = PartitionIndex.build(
                    store, occupancy=self.config.table_occupancy
                )
                index.refresh()
            self._table_box["index"] = index
        else:
            index.refresh()
        return index

    async def build_all_probs_table_async(self, pool: "TableWorkerPool") -> PartitionIndex:
        """Worker-process table build that never blocks the event loop.

        The serving layer's prewarm path: the asyncio loop stays free
        to multiplex other sessions while a real core burns on the
        product pass.
        """
        index = self._table_box.get("index")
        if index is None:
            store = self._partition_columns()
            payload = await pool.build_payload_async(
                store, occupancy=self.config.table_occupancy
            )
            index = PartitionIndex.from_payload(store, payload)
            self._table_box["index"] = index
        return index

    def _table_skyline(self, threshold: float) -> ProbabilisticSkyline:
        """``SKY(D_i)`` as a table filter: one vector compare + gather."""
        index = self._ensure_table()
        psky = index.p_sky()
        rows = np.nonzero(index.alive & (psky >= threshold))[0]
        members = [
            SkylineMember(self.database[int(index.keys[r])], float(psky[r]))
            for r in rows
        ]
        return ProbabilisticSkyline(threshold, members)

    def enable_skyline_cache(self) -> None:
        """Memoize ``prepare``'s local skyline per threshold and Eq. 9
        probe factors per probed tuple.

        Meant for standing sites serving many queries; forks created
        afterwards share both memos, so one computation serves every
        session at the same threshold or probing the same tuple.
        """
        if self._skyline_cache is None:
            self._skyline_cache = {}
        if self._probe_memo is None:
            self._probe_memo = {}
            # The flat columnar scan folds a single probe over the
            # masked rows and a batch over an (n, b) matrix; nothing
            # promises those two reductions round alike, so each call
            # form keeps its own memo there.  Every other backend's
            # batch is a loop over the single probe.
            columnar = (
                not self.config.all_probs_table
                and self.tree is None
                and self.config.vectorized
            )
            self._probe_batch_memo = {} if columnar else self._probe_memo

    def _invalidate(self) -> None:
        """§5.4: drop derived state, in place so every fork observes it."""
        self._columns_box.clear()
        for memo in (self._skyline_cache, self._probe_memo, self._probe_batch_memo):
            if memo is not None:
                memo.clear()

    def fork(self) -> "LocalSite":
        """A per-session view over this site's partition.

        The fork shares everything a query only *reads* — the database
        dict, the PR-tree/grid index, the columnar partition view, and
        the skyline and probe memos — and owns everything a query
        *mutates*: the candidate queue (cursor, alive mask, bounds,
        values), feedback history, and pop/prune accounting.  Two forks therefore run
        concurrent queries over one stored partition without observing
        each other, and each is bit-identical to a fresh
        :class:`LocalSite` over the same data.  Forks are for serving
        reads: §5.4 updates must go to the template site, never a fork.
        """
        clone = object.__new__(LocalSite)
        clone.site_id = self.site_id
        clone.preference = self.preference
        clone.config = self.config
        clone.database = self.database
        clone.tree = self.tree
        clone.threshold = None
        clone._popped_keys = set()
        clone.pruned_total = 0
        clone._cands = []
        clone._q_head = 0
        clone._q_alive = np.zeros(0, dtype=bool)
        clone._q_bounds = np.zeros(0, dtype=np.float64)
        clone._q_values = None
        clone._columns_box = self._columns_box
        clone._table_box = self._table_box
        clone._feedback = []
        clone.sky_h_replica = {}
        clone._skyline_cache = self._skyline_cache
        clone._probe_memo = self._probe_memo
        clone._probe_batch_memo = self._probe_batch_memo
        return clone

    # ------------------------------------------------------------------
    # to-server phase
    # ------------------------------------------------------------------

    @property
    def _queue(self) -> List[_Candidate]:
        """The live candidates, in queue order, with current bounds.

        A materialised read-only view — synopsis building and tests
        iterate it; the mutable state lives in the cursor/mask/bound
        arrays.
        """
        return [
            _Candidate(
                tuple=self._cands[i].tuple,
                local_probability=self._cands[i].local_probability,
                bound=float(self._q_bounds[i]),
            )
            for i in range(self._q_head, len(self._cands))
            if self._q_alive[i]
        ]

    def pop_representative(self) -> Optional[Quaternion]:
        """Hand the most promising remaining candidate to the server.

        Candidates whose feedback-tightened bound has already fallen
        below the threshold are silently skipped (they were pruned
        lazily); ``None`` signals exhaustion.
        """
        self._require_prepared()
        while self._q_head < len(self._cands):
            idx = self._q_head
            self._q_head += 1
            if not self._q_alive[idx]:
                continue  # pruned or deleted earlier; already accounted
            self._q_alive[idx] = False  # consumed either way
            cand = self._cands[idx]
            if float(self._q_bounds[idx]) < self.threshold:
                self.pruned_total += 1
                continue
            self._popped_keys.add(cand.tuple.key)
            return Quaternion(
                site=self.site_id,
                tuple=cand.tuple,
                local_probability=cand.local_probability,
            )
        return None

    def queue_size(self) -> int:
        return int(self._q_alive.sum())

    def fast_forward(self, keys: Sequence[int]) -> int:
        """Mark candidates as already delivered (failover catch-up).

        After a failover the promoted replica re-runs ``prepare`` and
        holds a fresh, deterministic copy of the failed twin's queue;
        the coordinator then replays *which* representatives were
        already surrendered so the replacement never re-serves them.
        Marked candidates count as consumed, not pruned.  Returns the
        number skipped.
        """
        self._require_prepared()
        wanted = set(keys)
        skipped = 0
        for idx in range(self._q_head, len(self._cands)):
            if self._q_alive[idx] and self._cands[idx].tuple.key in wanted:
                self._q_alive[idx] = False
                self._popped_keys.add(self._cands[idx].tuple.key)
                skipped += 1
        return skipped

    def ship_all(self) -> List[UncertainTuple]:
        """Surrender the whole partition (the §3.2 ship-all baseline)."""
        return list(self.database.values())

    def partition_digest(self) -> str:
        """A deterministic fingerprint of ``D_i`` for anti-entropy checks.

        Computed site-side; only the hex digest travels the wire, so a
        digest exchange costs zero tuples under the §3.2 metric.
        """
        h = hashlib.sha256()
        for key in sorted(self.database):
            t = self.database[key]
            h.update(repr((t.key, t.values, t.probability)).encode("utf-8"))
        return h.hexdigest()

    def ship_local_skyline(self, threshold: float) -> List[Quaternion]:
        """Surrender the entire qualified local skyline in one burst.

        The §5.1 'important improvement' strawman: compute ``SKY(D_i)``
        and transmit all of it, ordered by descending local skyline
        probability.
        """
        answer = self._local_skyline(threshold)
        return [
            Quaternion(site=self.site_id, tuple=m.tuple, local_probability=m.probability)
            for m in answer
        ]

    # ------------------------------------------------------------------
    # server-delivery + local-pruning phases
    # ------------------------------------------------------------------

    def _partition_columns(self) -> ColumnStore:
        store = self._columns_box.get("store")
        if store is None:
            store = self._columns_box["store"] = ColumnStore.from_tuples(
                list(self.database.values()), self.preference
            )
        return store

    def probe(self, t: UncertainTuple) -> float:
        """Eq. 9: the exact factor this site contributes for foreign ``t``."""
        memo = self._probe_memo
        if memo is None:
            return self._probe_uncached(t)
        factor = memo.get(t)
        if factor is None:
            factor = memo[t] = self._probe_uncached(t)
        return factor

    def _probe_uncached(self, t: UncertainTuple) -> float:
        if self.config.all_probs_table:
            return float(
                self._ensure_table().dominator_product(
                    self._table_point(t), exclude_key=t.key
                )
            )
        if self.tree is not None:
            return self.tree.dominators_product(t)
        if self.config.vectorized:
            store = self._partition_columns()
            return store.dominator_product(
                store.project_point(t, self.preference), exclude_key=t.key
            )
        return foreign_skyline_probability(t, self.database.values(), self.preference)

    def probe_batch(self, ts: Sequence[UncertainTuple]) -> List[float]:
        """Eq. 9 for many foreign tuples at once (one kernel dispatch).

        With the probe memo on, only the tuples it misses reach the
        kernel.  Each factor of a batch is computed independently of
        the others, so a smaller batch yields the same floats.
        """
        ts = list(ts)
        memo = self._probe_batch_memo
        if memo is None:
            return self._probe_batch_uncached(ts)
        misses = [t for t in dict.fromkeys(ts) if t not in memo]
        if misses:
            memo.update(zip(misses, self._probe_batch_uncached(misses)))
        return [memo[t] for t in ts]

    def _probe_batch_uncached(self, ts: List[UncertainTuple]) -> List[float]:
        if self.config.all_probs_table and ts:
            index = self._ensure_table()
            points = np.stack([self._table_point(t) for t in ts])
            factors = index.dominator_products(
                points, exclude_keys=[t.key for t in ts]
            )
            return [float(f) for f in factors]
        if self.tree is not None:
            batch = getattr(self.tree, "dominators_products", None)
            if batch is not None:
                return [float(f) for f in batch(ts)]
            return [self.tree.dominators_product(t) for t in ts]
        if self.config.vectorized and ts:
            store = self._partition_columns()
            points = np.stack(
                [store.project_point(t, self.preference) for t in ts]
            )
            factors = store.dominator_products(
                points, exclude_keys=[t.key for t in ts]
            )
            return [float(f) for f in factors]
        return [self._probe_uncached(t) for t in ts]

    def apply_feedback(self, t: UncertainTuple) -> int:
        """Local-Pruning phase: expunge candidates the feedback disqualifies.

        Tightens every queued candidate dominated by ``t`` with the
        factor ``(1 − P(t))`` and drops those whose bound sinks below
        ``q``.  Returns the number dropped.  On the vectorized path the
        whole queue tightens in one masked multiply; the scalar path
        walks it candidate by candidate.  With pruning disabled the
        feedback is recorded (for update maintenance) but nothing is
        dropped.
        """
        self._require_prepared()
        self._feedback.append(t)
        if not self.config.feedback_pruning:
            return 0
        if not self._q_alive.any():
            return 0
        if self.config.vectorized and self._q_values is not None:
            return self._apply_feedback_columnar(t)
        pruned = 0
        factor = 1.0 - t.probability
        for idx in range(self._q_head, len(self._cands)):
            if not self._q_alive[idx]:
                continue
            if dominates(t, self._cands[idx].tuple, self.preference):
                self._q_bounds[idx] *= factor
                if float(self._q_bounds[idx]) < self.threshold:
                    self._q_alive[idx] = False
                    pruned += 1
        self.pruned_total += pruned
        return pruned

    def _apply_feedback_columnar(self, t: UncertainTuple) -> int:
        """One broadcast → one masked multiply over the candidate columns."""
        point = np.asarray(t.values, dtype=np.float64).reshape(1, -1)
        if self.preference is not None:
            from ..core.kernels import _project_matrix

            point = _project_matrix(point, self.preference)
        point = point[0]
        dominated = (
            self._q_alive
            & (self._q_values >= point).all(axis=1)
            & (self._q_values > point).any(axis=1)
        )
        if not dominated.any():
            return 0
        self._q_bounds[dominated] *= 1.0 - t.probability
        dead = dominated & (self._q_bounds < self.threshold)
        pruned = int(dead.sum())
        if pruned:
            self._q_alive[dead] = False
            self.pruned_total += pruned
        return pruned

    def probe_and_prune(self, t: UncertainTuple) -> ProbeReply:
        """The combined Server-Delivery message handler."""
        factor = self.probe(t)
        pruned = self.apply_feedback(t)
        return ProbeReply(
            factor=factor, pruned=pruned, queue_remaining=self.queue_size()
        )

    def probe_and_prune_batch(self, ts: Sequence[UncertainTuple]) -> BatchProbeReply:
        """Batched Server-Delivery: k feedback tuples in, k factors out.

        Factors are Eq. 9 against the stored partition, which feedback
        never mutates — so probing everything first and pruning after is
        exactly equivalent to k sequential :meth:`probe_and_prune`
        calls.
        """
        ts = list(ts)
        factors = self.probe_batch(ts)
        pruned = 0
        for t in ts:
            pruned += self.apply_feedback(t)
        return BatchProbeReply(
            factors=factors, pruned=pruned, queue_remaining=self.queue_size()
        )

    # ------------------------------------------------------------------
    # §5.4 update maintenance hooks
    # ------------------------------------------------------------------

    def contains(self, key: int) -> bool:
        return key in self.database

    def insert_tuple(self, t: UncertainTuple) -> None:
        """Add ``t`` to ``D_i`` (index included); candidacy is handled
        by the maintenance protocol, not here."""
        if t.key in self.database:
            raise ValueError(f"tuple {t.key} already stored at site {self.site_id}")
        self.database[t.key] = t
        self._invalidate()
        index = self._table_box.get("index")
        if index is not None:
            if len(index) == 0 or index.dimensionality != len(t.values):
                # Degenerate geometry (table built over an empty or
                # mismatched partition): drop it and rebuild lazily.
                self._table_box.pop("index", None)
            else:
                index.apply_insert(self._table_point(t), t.probability, t.key)
        if self.tree is not None:
            self.tree.add(t)

    def delete_tuple(self, key: int) -> UncertainTuple:
        """Remove the tuple with ``key`` from ``D_i`` (index included)."""
        t = self.database.pop(key, None)
        if t is None:
            raise KeyError(f"tuple {key} not stored at site {self.site_id}")
        self._invalidate()
        index = self._table_box.get("index")
        if index is not None:
            index.apply_delete(key)
        if self.tree is not None:
            self.tree.remove(t)
        for idx in range(self._q_head, len(self._cands)):
            if self._q_alive[idx] and self._cands[idx].tuple.key == key:
                self._q_alive[idx] = False
        return t

    def local_skyline_probability(self, t: UncertainTuple, floor: float = 0.0) -> float:
        """Eq. 3 for a tuple of this site (includes its own P(t)).

        With a nonzero ``floor`` the value is exact whenever it is ≥
        ``floor`` and otherwise merely guaranteed below it — the usual
        threshold-test contract.
        """
        if t.probability <= 0.0:
            return 0.0
        inner_floor = floor / t.probability if floor > 0.0 else 0.0
        if self.config.all_probs_table:
            return t.probability * float(
                self._ensure_table().dominator_product(
                    self._table_point(t), exclude_key=t.key
                )
            )
        if self.tree is not None:
            return t.probability * self.tree.dominators_product(t, floor=inner_floor)
        if self.config.vectorized:
            store = self._partition_columns()
            return t.probability * store.dominator_product(
                store.project_point(t, self.preference),
                exclude_key=t.key,
                floor=inner_floor,
            )
        return skyline_probability(
            t, self.database.values(), self.preference, floor=floor
        )

    def dominated_local_candidates(
        self,
        t: UncertainTuple,
        threshold: float,
        pruners: Optional[List[UncertainTuple]] = None,
    ) -> List["tuple[UncertainTuple, float]"]:
        """Local tuples dominated by ``t`` whose local probability reaches ``q``.

        The §5.4 delete path needs exactly these: when a dominating
        tuple disappears somewhere, only locally-qualified tuples it
        dominated can newly qualify globally.  Returns ``(tuple,
        local_probability)`` pairs.

        ``pruners`` (typically the current SKY(H) replica contents)
        cheapen the scan enormously: any tuple whose existential
        probability, multiplied by the non-occurrence of the pruners
        dominating it, already misses ``q`` can be skipped before the
        exact (and comparatively expensive) index probe — each pruner
        is a real stored tuple somewhere, so the product is a sound
        upper bound on the global probability.  On uniform data a
        random deleted tuple dominates ``N/2^d`` others; without the
        precheck every one of them would be probed.
        """
        out = []
        for s in self.database.values():
            if s.key == t.key or s.probability < threshold:
                continue
            if not dominates(t, s, self.preference):
                continue
            if pruners is not None:
                bound = feedback_pruning_bound(
                    s.probability,
                    (
                        f
                        for f in pruners
                        if f.key != s.key and dominates(f, s, self.preference)
                    ),
                    floor=threshold,
                )
                if bound < threshold:
                    continue
            p = self.local_skyline_probability(s, floor=threshold)
            if p >= threshold:
                out.append((s, p))
        return out

    def set_replica(self, entries: Dict[int, "tuple[UncertainTuple, float]"]) -> None:
        """Install the coordinator's SKY(H) replica (§5.4 bootstrap)."""
        self.sky_h_replica = dict(entries)

    def replica_dominators(self, t: UncertainTuple) -> List[UncertainTuple]:
        """Replicated global results dominating ``t`` (§5.4 insert check)."""
        return [
            other
            for other, _prob in self.sky_h_replica.values()
            if other.key != t.key and dominates(other, t, self.preference)
        ]

    def _require_prepared(self) -> None:
        if self.threshold is None:
            raise RuntimeError(
                f"site {self.site_id} used before prepare(); call prepare(q) first"
            )
