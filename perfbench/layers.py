"""Which public methods make up each layer, and the span each one records.

A span's layer is its name up to the first dot.  Work counts (``n`` on
the span) come from the call's arguments or result.
"""

from __future__ import annotations

from typing import Any

from tracer import Tracer


def _one(args: Any, kwargs: Any, result: Any) -> int:
    return 1


def _batch(args: Any, kwargs: Any, result: Any) -> int:
    return len(args[1])


def _result(args: Any, kwargs: Any, result: Any) -> int:
    return int(result)


def _size(args: Any, kwargs: Any, result: Any) -> int:
    return len(result)


def install(tracer: Tracer) -> None:
    """Wrap every traced method; ``tracer.uninstall()`` restores them."""
    from repro.core.kernels import ColumnStore
    from repro.distributed import query
    from repro.distributed.coordinator import Coordinator
    from repro.distributed.site import LocalSite
    from repro.net.aio import AsyncRemoteSiteProxy
    from repro.net.stats import NetworkStats
    from repro.serve import service as service_module
    from repro.serve.service import SkylineService
    from repro.serve.session import QuerySession
    from repro.stream.coordinator import ContinuousCoordinator
    from repro.stream.site import StreamSite

    wrap = tracer.wrap
    # site: LocalSite over the repro.index PR-tree/BBS and repro.core.kernels columns.
    wrap(LocalSite, "__init__", "site.build")
    wrap(ColumnStore, "from_tuples", "site.columns")
    wrap(LocalSite, "prepare", "site.prepare", _result)
    wrap(LocalSite, "ship_local_skyline", "site.prepare", _size)
    wrap(LocalSite, "pop_representative", "site.pop")
    wrap(LocalSite, "fast_forward", "site.pop")
    wrap(LocalSite, "probe", "site.probe", _one)
    wrap(LocalSite, "probe_batch", "site.probe", _batch)
    wrap(LocalSite, "probe_and_prune", "site.probe", _one)
    wrap(LocalSite, "probe_and_prune_batch", "site.probe", _batch)
    wrap(LocalSite, "apply_feedback", "site.feedback", _result)
    wrap(LocalSite, "insert_tuple", "site.write")
    wrap(LocalSite, "delete_tuple", "site.write")
    # coordinator: the front door and every step of a DSUD/e-DSUD run.
    wrap(query, "distributed_skyline", "coordinator.query")
    tracer.wrap_steps(Coordinator, "steps", "coordinator.step")
    tracer.wrap_steps(Coordinator, "asteps", "coordinator.step")
    # net: the NetworkStats books and the wire.
    tracer.count_books(NetworkStats)
    for method in (
        "prepare",
        "pop_representative",
        "probe_and_prune",
        "probe_and_prune_batch",
        "queue_size",
        "ship_all",
        "ship_local_skyline",
        "ping",
    ):
        wrap(AsyncRemoteSiteProxy, method, "net.rpc")
    wrap(AsyncRemoteSiteProxy, "close", "net.close")
    wrap(service_module, "connect_async_sites", "net.dial")
    # serve: admission, session steps, endpoint release.
    wrap(SkylineService, "submit", "serve.submit")
    wrap(SkylineService, "ingest", "serve.ingest")
    wrap(QuerySession, "step", "serve.step", query=id)
    wrap(QuerySession, "release_endpoints", "serve.release")
    # stream: ingest, epoch close at the coordinator and at the sites, delivery.
    wrap(ContinuousCoordinator, "ingest", "stream.ingest")
    wrap(ContinuousCoordinator, "close_epoch", "stream.epoch")
    wrap(StreamSite, "close_epoch", "stream.site_epoch")
    wrap(StreamSite, "sync_candidates", "stream.site_epoch")
    wrap(SkylineService, "publish", "stream.deliver")
