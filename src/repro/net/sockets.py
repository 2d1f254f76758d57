"""A real TCP transport for the coordinator↔site protocol.

The experiments run in-process (bandwidth accounting is exact either
way), but a reproduction of a *distributed* system should also actually
run distributed.  This module hosts each :class:`LocalSite` behind a
TCP server and exposes a :class:`RemoteSiteProxy` implementing the same
:class:`~repro.net.transport.SiteEndpoint` surface over the wire, so
any coordinator runs unchanged against real sockets — see
``examples/sensor_fusion_live.py`` and the transport integration tests.

Framing is a 4-byte big-endian length prefix followed by a UTF-8 JSON
document; payload encoding reuses :mod:`repro.net.message` so the wire
format and the accounting model describe the same objects.
"""

from __future__ import annotations

import json
import multiprocessing
import socket
import socketserver
import struct
import threading
import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from ..core.dominance import Preference
from ..core.tuples import UncertainTuple
from ..fault.errors import SiteTimeout

if TYPE_CHECKING:  # typing only — net must not import distributed at runtime
    from ..distributed.site import BatchProbeReply, LocalSite, ProbeReply, SiteConfig
from .message import Quaternion, decode_tuple, encode_tuple

__all__ = [
    "SiteServer",
    "RemoteSiteProxy",
    "host_sites",
    "SiteCluster",
    "ProcessSiteCluster",
    "host_sites_in_processes",
]

_LENGTH = struct.Struct(">I")


def _send_frame(sock: socket.socket, payload: Dict[str, Any]) -> None:
    raw = json.dumps(payload).encode("utf-8")
    sock.sendall(_LENGTH.pack(len(raw)) + raw)


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None
        buf += chunk
    return buf


def _recv_frame(sock: socket.socket) -> Optional[Dict[str, Any]]:
    header = _recv_exact(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    body = _recv_exact(sock, length)
    if body is None:
        return None
    return json.loads(body.decode("utf-8"))


class _SiteRequestHandler(socketserver.BaseRequestHandler):
    """Serves RPCs against the hosted LocalSite until the peer hangs up."""

    def handle(self) -> None:
        site = self.server.session_site()  # type: ignore[attr-defined]
        delay = getattr(self.server, "rpc_delay", 0.0)
        while True:
            request = _recv_frame(self.request)
            if request is None:
                return
            try:
                if delay > 0.0:
                    # Simulated WAN service time, applied before the
                    # dispatch so it covers cache hits too.
                    time.sleep(delay)
                result = self._dispatch(site, request)
                _send_frame(self.request, {"ok": True, "result": result})
            except Exception as exc:  # surfaced to the caller, not swallowed
                _send_frame(self.request, {"ok": False, "error": repr(exc)})

    @staticmethod
    def _dispatch(site: "LocalSite", request: Dict[str, Any]) -> Any:
        method = request["method"]
        if method == "prepare":
            return site.prepare(float(request["threshold"]))
        if method == "pop_representative":
            quaternion = site.pop_representative()
            return None if quaternion is None else quaternion.to_dict()
        if method == "probe_and_prune":
            reply = site.probe_and_prune(decode_tuple(request["tuple"]))
            return {
                "factor": reply.factor,
                "pruned": reply.pruned,
                "queue_remaining": reply.queue_remaining,
            }
        if method == "probe_and_prune_batch":
            reply = site.probe_and_prune_batch(
                [decode_tuple(d) for d in request["tuples"]]
            )
            return {
                "factors": list(reply.factors),
                "pruned": reply.pruned,
                "queue_remaining": reply.queue_remaining,
            }
        if method == "queue_size":
            return site.queue_size()
        if method == "ship_all":
            return [encode_tuple(t) for t in site.ship_all()]
        if method == "ship_local_skyline":
            return [
                q.to_dict() for q in site.ship_local_skyline(float(request["threshold"]))
            ]
        if method == "ping":
            return "pong"
        raise ValueError(f"unknown RPC method {method!r}")


class SiteServer(socketserver.ThreadingTCPServer):
    """Hosts one LocalSite on a TCP port (127.0.0.1, ephemeral by default).

    By default every connection shares the one hosted site — the
    historical single-query behaviour.  ``fork_per_connection`` makes
    the hosted site a *template*: each connection is served by a fresh
    :meth:`LocalSite.fork`, so many concurrent query sessions get
    independent queue/feedback state over the same partition (the
    remote twin of :class:`repro.serve.sites.SharedSiteHost`).  Enable
    the template's skyline cache first so forks amortise the local
    computing phase and repeated probes.  ``rpc_delay`` adds a
    per-RPC service-time sleep — a deterministic stand-in for WAN
    latency, used by the serving bench to make socket-wait overlap
    measurable on localhost.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        site: "LocalSite",
        host: str = "127.0.0.1",
        port: int = 0,
        fork_per_connection: bool = False,
        rpc_delay: float = 0.0,
    ) -> None:
        super().__init__((host, port), _SiteRequestHandler)
        self.site = site
        self.fork_per_connection = fork_per_connection
        self.rpc_delay = rpc_delay
        self.forks_served = 0

    def session_site(self) -> "LocalSite":
        """The site one incoming connection should talk to."""
        if not self.fork_per_connection:
            return self.site
        self.forks_served += 1
        return self.site.fork()

    @property
    def address(self) -> Tuple[str, int]:
        return self.server_address  # type: ignore[return-value]

    def serve_in_thread(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread


class RemoteSiteProxy:
    """SiteEndpoint implementation speaking the TCP protocol.

    ``timeout`` is a *real* socket deadline applied to connect, send,
    and receive: a site that accepts the connection but never answers
    surfaces as :class:`~repro.fault.errors.SiteTimeout` after
    ``timeout`` seconds instead of hanging the query.  Timeouts are
    never retried here — whether the lost answer is worth another
    round trip is the coordinator's :class:`RetryPolicy` decision, and
    after a timeout the stream position is ambiguous anyway, so the
    connection is re-dialed before any further use.

    ``retries`` controls transparent reconnection: a dropped connection
    (transient network fault, site restart behind the same address) is
    re-dialed and the *idempotent* RPC re-issued up to that many times.
    Every protocol method is safe to retry except ``pop_representative``
    — re-popping after an ambiguous failure could skip a candidate — so
    that one is never retried and an ambiguous drop surfaces as
    :class:`ConnectionError` for the coordinator to handle.
    """

    _NON_IDEMPOTENT = frozenset({"pop_representative"})

    def __init__(
        self,
        site_id: int,
        address: Tuple[str, int],
        timeout: float = 30.0,
        retries: int = 0,
    ) -> None:
        self.site_id = site_id
        self.address = address
        self.timeout = timeout
        self.retries = retries
        self.reconnects = 0
        self.timeouts = 0
        self._sock = socket.create_connection(address, timeout=timeout)
        self._needs_redial = False

    def _reconnect(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass
        self._sock = socket.create_connection(self.address, timeout=self.timeout)
        self._needs_redial = False
        self.reconnects += 1

    def _call(self, method: str, **kwargs: Any) -> Any:
        attempts = 1 + (0 if method in self._NON_IDEMPOTENT else self.retries)
        last_error: Optional[Exception] = None
        for attempt in range(attempts):
            try:
                if attempt > 0 or self._needs_redial:
                    self._reconnect()
                _send_frame(self._sock, {"method": method, **kwargs})
                response = _recv_frame(self._sock)
                if response is None:
                    raise ConnectionError(
                        f"site {self.site_id} closed the connection"
                    )
                if not response["ok"]:
                    # An application error is authoritative — no retry.
                    raise RuntimeError(
                        f"site {self.site_id} RPC failed: {response['error']}"
                    )
                return response["result"]
            except socket.timeout as exc:
                # A late reply may still be in flight; the stream is
                # unusable until re-dialed.  Escalate immediately.
                self.timeouts += 1
                self._needs_redial = True
                raise SiteTimeout(
                    self.site_id,
                    f"no answer to {method!r} within {self.timeout}s",
                ) from exc
            except (ConnectionError, OSError) as exc:
                last_error = exc
        raise last_error  # type: ignore[misc]

    def prepare(self, threshold: float) -> int:
        return int(self._call("prepare", threshold=threshold))

    def pop_representative(self) -> Optional[Quaternion]:
        result = self._call("pop_representative")
        return None if result is None else Quaternion.from_dict(result)

    def probe_and_prune(self, t: UncertainTuple) -> "ProbeReply":
        from ..distributed.site import ProbeReply

        result = self._call("probe_and_prune", tuple=encode_tuple(t))
        return ProbeReply(
            factor=float(result["factor"]),
            pruned=int(result["pruned"]),
            queue_remaining=int(result["queue_remaining"]),
        )

    def probe_and_prune_batch(self, ts: Sequence[UncertainTuple]) -> "BatchProbeReply":
        from ..distributed.site import BatchProbeReply

        result = self._call(
            "probe_and_prune_batch", tuples=[encode_tuple(t) for t in ts]
        )
        return BatchProbeReply(
            factors=[float(f) for f in result["factors"]],
            pruned=int(result["pruned"]),
            queue_remaining=int(result["queue_remaining"]),
        )

    def queue_size(self) -> int:
        return int(self._call("queue_size"))

    def ship_all(self) -> List[UncertainTuple]:
        return [decode_tuple(d) for d in self._call("ship_all")]

    def ship_local_skyline(self, threshold: float) -> List[Quaternion]:
        return [
            Quaternion.from_dict(d)
            for d in self._call("ship_local_skyline", threshold=threshold)
        ]

    def ping(self) -> bool:
        return self._call("ping") == "pong"

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


class SiteCluster:
    """A set of locally hosted TCP sites plus proxies, with clean teardown.

    Use as a context manager::

        with host_sites(partitions, preference) as cluster:
            result = EDSUD(cluster.proxies, threshold=0.3).run()
    """

    def __init__(self, servers: List[SiteServer], proxies: List[RemoteSiteProxy]) -> None:
        self.servers = servers
        self.proxies = proxies

    def __enter__(self) -> "SiteCluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        for proxy in self.proxies:
            proxy.close()
        _shutdown_servers(self.servers)


def _shutdown_servers(servers: Sequence[SiteServer]) -> None:
    """Stop every server at once, then close their sockets.

    ``shutdown()`` blocks until ``serve_forever`` notices the request,
    up to one 0.5 s poll; issuing all of them concurrently makes a
    cluster's teardown cost one poll, not one per site.
    """
    stoppers = [threading.Thread(target=server.shutdown) for server in servers]
    for stopper in stoppers:
        stopper.start()
    for stopper in stoppers:
        stopper.join()
    for server in servers:
        server.server_close()


def host_sites(
    partitions: Sequence[Sequence[UncertainTuple]],
    preference: Optional[Preference] = None,
    site_config: "Optional[SiteConfig]" = None,
    timeout: float = 30.0,
) -> SiteCluster:
    """Spin up one TCP-hosted LocalSite per partition on localhost.

    ``timeout`` is each proxy's per-RPC socket deadline (seconds).
    """
    from ..distributed.site import LocalSite

    servers: List[SiteServer] = []
    proxies: List[RemoteSiteProxy] = []
    try:
        for i, partition in enumerate(partitions):
            site = LocalSite(
                site_id=i, database=partition, preference=preference, config=site_config
            )
            server = SiteServer(site)
            server.serve_in_thread()
            servers.append(server)
            proxies.append(
                RemoteSiteProxy(site_id=i, address=server.address, timeout=timeout)
            )
    except Exception:
        for proxy in proxies:
            proxy.close()
        _shutdown_servers(servers)
        raise
    return SiteCluster(servers, proxies)


def _serve_partition_process(
    site_id: int,
    partition: Sequence[UncertainTuple],
    preference: Optional[Preference],
    site_config: "Optional[SiteConfig]",
    fork_per_connection: bool,
    rpc_delay: float,
    port_queue: "multiprocessing.Queue[int]",
) -> None:
    """Child-process entry point: host one partition until terminated."""
    server = _standing_server(
        site_id, partition, preference, site_config, fork_per_connection, rpc_delay
    )
    port_queue.put(server.address[1])
    server.serve_forever()


def _standing_server(
    site_id: int,
    partition: Sequence[UncertainTuple],
    preference: Optional[Preference] = None,
    site_config: "Optional[SiteConfig]" = None,
    fork_per_connection: bool = True,
    rpc_delay: float = 0.0,
) -> SiteServer:
    """The (not yet serving) server a site process hosts its partition on."""
    from ..distributed.site import LocalSite

    site = LocalSite(
        site_id=site_id, database=partition, preference=preference, config=site_config
    )
    if fork_per_connection:
        # Standing template: one local-computing phase serves every
        # session at the same threshold, and one Eq. 9 probe every
        # session probing the same tuple, across connections.
        site.enable_skyline_cache()
    return SiteServer(
        site, fork_per_connection=fork_per_connection, rpc_delay=rpc_delay
    )


class ProcessSiteCluster:
    """TCP site servers in their own OS processes, with clean teardown.

    The genuinely distributed deployment: each partition lives in a
    separate Python process (own GIL, own memory), reachable only
    through the wire protocol.  ``addresses`` is ready to hand to
    :func:`repro.net.aio.connect_async_sites` or to
    :class:`RemoteSiteProxy`.
    """

    def __init__(
        self,
        processes: List[multiprocessing.Process],
        addresses: List[Tuple[int, Tuple[str, int]]],
    ) -> None:
        self.processes = processes
        self.addresses = addresses

    def __enter__(self) -> "ProcessSiteCluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        for process in self.processes:
            process.terminate()
        for process in self.processes:
            process.join(timeout=10.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=10.0)


def host_sites_in_processes(
    partitions: Sequence[Sequence[UncertainTuple]],
    preference: Optional[Preference] = None,
    site_config: "Optional[SiteConfig]" = None,
    fork_per_connection: bool = True,
    rpc_delay: float = 0.0,
    startup_timeout: float = 30.0,
) -> ProcessSiteCluster:
    """Spin up one site-server *process* per partition on localhost.

    Each child binds an ephemeral port and reports it back through a
    queue; the call returns once every server is accepting.  Uses the
    ``fork`` start method where available (no pickling of numpy-backed
    partitions through spawn), falling back to the platform default.
    """
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    processes: List[multiprocessing.Process] = []
    addresses: List[Tuple[int, Tuple[str, int]]] = []
    try:
        for i, partition in enumerate(partitions):
            port_queue: "multiprocessing.Queue[int]" = ctx.Queue(maxsize=1)
            process = ctx.Process(
                target=_serve_partition_process,
                args=(
                    i,
                    list(partition),
                    preference,
                    site_config,
                    fork_per_connection,
                    rpc_delay,
                    port_queue,
                ),
                daemon=True,
            )
            process.start()
            processes.append(process)
            port = port_queue.get(timeout=startup_timeout)
            addresses.append((i, ("127.0.0.1", port)))
    except Exception:
        for process in processes:
            process.terminate()
        for process in processes:
            process.join(timeout=10.0)
        raise
    return ProcessSiteCluster(processes, addresses)
