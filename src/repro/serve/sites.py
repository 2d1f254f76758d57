"""Shared site state: standing partitions serving many queries at once.

A solo :func:`~repro.distributed.query.distributed_skyline` call builds
fresh :class:`~repro.distributed.site.LocalSite`\\ s, runs one query, and
throws everything away.  A service cannot: the partitions, PR-trees,
and local skylines are the expensive standing state, while each query
only needs its own *candidate queue* over them.

* :class:`SharedSiteHost` owns one partition and hands out per-session
  :meth:`~repro.distributed.site.LocalSite.fork` views.  Templates are
  cached per :class:`~repro.core.dominance.Preference` (dominance
  direction/subspace changes the index and the local skyline), each
  with the shared ``prepare`` and probe memos enabled — so N concurrent
  sessions at the same threshold cost one local-skyline computation,
  not N, and a tuple probed by many sessions costs one Eq. 9 probe.
* :class:`StandingReplicaBook` plays the same trick for replication:
  instead of re-shipping every partition to its buddies per query, a
  session's :class:`~repro.replica.manager.ReplicaManager` is injected
  with pre-provisioned replica forks.  Placement and replica contents
  are bit-identical to solo provisioning (a solo replica is built from
  ``primary.ship_all()`` — the same tuples, in the same order, as the
  host template), so query-visible accounting does not change: solo
  provisioning bills the manager's *standing* ledger, never the query.

Hosts serve reads.  §5.4 maintenance must be applied to the templates
(which clears their shared memos) between queries, never to a
session fork.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..core.dominance import Preference
from ..core.tuples import UncertainTuple
from ..distributed.site import LocalSite, SiteConfig
from ..net.transport import SiteEndpoint
from ..replica.manager import ReplicaManager

if TYPE_CHECKING:
    from ..distributed.workers import TableWorkerPool

__all__ = ["SharedSiteHost", "StandingReplicaBook"]


class SharedSiteHost:
    """One standing partition D_i; a fork factory for sessions."""

    def __init__(
        self,
        site_id: int,
        partition: Sequence[UncertainTuple],
        site_config: Optional[SiteConfig] = None,
    ) -> None:
        self.site_id = site_id
        self._partition = list(partition)
        self.site_config = site_config
        self._templates: Dict[Optional[Preference], LocalSite] = {}
        #: Observability: forks handed out and template (index + cache)
        #: builds actually paid.
        self.forks_served = 0

    def __len__(self) -> int:
        return len(self._partition)

    @property
    def templates_built(self) -> int:
        return len(self._templates)

    def template(self, preference: Optional[Preference] = None) -> LocalSite:
        """The standing site for one dominance preference (built once).

        Bit-identical to ``LocalSite(site_id, partition, preference,
        config)`` — the constructor a solo run uses — plus the shared
        skyline and probe memos, which never change an answer, only
        skip recomputation.
        """
        site = self._templates.get(preference)
        if site is None:
            site = LocalSite(
                self.site_id,
                self._partition,
                preference=preference,
                config=self.site_config,
            )
            site.enable_skyline_cache()
            self._templates[preference] = site
        return site

    def view(self, preference: Optional[Preference] = None) -> LocalSite:
        """A fresh per-session fork over the standing template."""
        self.forks_served += 1
        return self.template(preference).fork()

    def prewarm_tables(
        self,
        preference: Optional[Preference] = None,
        pool: Optional["TableWorkerPool"] = None,
    ) -> None:
        """Build the template's all-probabilities table ahead of traffic.

        Meaningful only when the host's ``site_config`` opts into
        ``all_probs_table``; a no-op otherwise.  With a ``pool`` the
        product pass runs in a worker process (bit-identical result).
        Every subsequent :meth:`view` fork shares the table zero-copy.
        """
        site = self.template(preference)
        if site.config.all_probs_table:
            site.build_all_probs_table(pool)

    async def prewarm_tables_async(
        self,
        pool: "TableWorkerPool",
        preference: Optional[Preference] = None,
    ) -> None:
        """Worker-process prewarm that never blocks the serving loop."""
        site = self.template(preference)
        if site.config.all_probs_table:
            await site.build_all_probs_table_async(pool)

    def apply_insert(self, t: UncertainTuple) -> None:
        """§5.4 insert against every standing template (cache-clearing)."""
        self._partition.append(t)
        for site in self._templates.values():
            site.insert_tuple(t)

    def apply_delete(self, key: int) -> None:
        """§5.4 delete against every standing template (cache-clearing)."""
        self._partition = [t for t in self._partition if t.key != key]
        for site in self._templates.values():
            site.delete_tuple(key)


class StandingReplicaBook:
    """Pre-provisioned replicas, reused across every session's manager.

    A solo replicated run ships each partition to its buddies once per
    query.  The book amortizes that: a session gets a normal
    :class:`ReplicaManager` (same placement seed, so the same buddy
    assignment and the same ``replica-i@site-j`` wire names) whose
    replica set is *injected* as forks of the standing host templates —
    already provisioned, nothing to ship.  The query-side books cannot
    tell the difference, because solo provisioning happens before
    :meth:`~repro.replica.manager.ReplicaManager.bind_stats` re-points
    billing at the query.
    """

    def __init__(self, hosts: Sequence[SharedSiteHost], seed: int = 0) -> None:
        self._hosts = {host.site_id: host for host in hosts}
        self.seed = seed
        self.managers_issued = 0

    def manager_for(
        self,
        session_sites: Sequence[SiteEndpoint],
        replication_factor: int,
        preference: Optional[Preference] = None,
    ) -> ReplicaManager:
        """A per-session manager over pre-provisioned replica forks."""
        site_config = next(iter(self._hosts.values())).site_config
        manager = ReplicaManager(
            session_sites,
            replication_factor,
            preference=preference,
            site_config=site_config,
            seed=self.seed,
        )
        replicas: Dict[int, List[Tuple[int, LocalSite]]] = {}
        for sid in sorted(manager.placement):
            template = self._hosts[sid].template(preference)
            replicas[sid] = [
                (buddy, template.fork()) for buddy in manager.placement[sid]
            ]
        manager._replicas = replicas
        manager._provisioned = True
        self.managers_issued += 1
        return manager
