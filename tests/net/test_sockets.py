"""TCP transport: RPC semantics and full-protocol integration."""

import pytest

from repro.core.prob_skyline import prob_skyline_sfs
from repro.distributed.dsud import DSUD
from repro.distributed.edsud import EDSUD
from repro.distributed.site import LocalSite
from repro.net.sockets import host_sites

from ..conftest import make_random_database


@pytest.fixture
def cluster():
    db = make_random_database(240, 2, seed=1, grid=10)
    partitions = [db[i::3] for i in range(3)]
    with host_sites(partitions) as c:
        yield c, db


class TestRpcSurface:
    def test_ping(self, cluster):
        c, _ = cluster
        assert all(p.ping() for p in c.proxies)

    def test_prepare_matches_local(self, cluster):
        c, db = cluster
        local = LocalSite(0, db[0::3])
        assert c.proxies[0].prepare(0.3) == local.prepare(0.3)

    def test_pop_representative_roundtrip(self, cluster):
        c, db = cluster
        proxy = c.proxies[0]
        proxy.prepare(0.3)
        q = proxy.pop_representative()
        assert q is not None
        assert q.site == 0
        assert q.tuple.key in {t.key for t in db[0::3]}

    def test_exhaustion_returns_none(self, cluster):
        c, _ = cluster
        proxy = c.proxies[1]
        proxy.prepare(0.99)
        while proxy.pop_representative() is not None:
            pass
        assert proxy.pop_representative() is None

    def test_probe_and_prune_matches_local(self, cluster):
        c, db = cluster
        proxy = c.proxies[2]
        proxy.prepare(0.3)
        local = LocalSite(2, db[2::3])
        local.prepare(0.3)
        foreign = db[0]
        remote_reply = proxy.probe_and_prune(foreign)
        local_reply = local.probe_and_prune(foreign)
        assert remote_reply.factor == pytest.approx(local_reply.factor)
        assert remote_reply.pruned == local_reply.pruned

    def test_ship_all(self, cluster):
        c, db = cluster
        shipped = c.proxies[0].ship_all()
        assert {t.key for t in shipped} == {t.key for t in db[0::3]}

    def test_ship_local_skyline_sorted(self, cluster):
        c, _ = cluster
        burst = c.proxies[0].ship_local_skyline(0.3)
        probs = [q.local_probability for q in burst]
        assert probs == sorted(probs, reverse=True)

    def test_unknown_method_raises(self, cluster):
        c, _ = cluster
        with pytest.raises(RuntimeError, match="RPC failed"):
            c.proxies[0]._call("frobnicate")


class TestFramingRobustness:
    """A hostile or buggy peer must never take the site server down."""

    @pytest.fixture
    def server(self):
        db = make_random_database(50, 2, seed=20)
        with host_sites([db]) as cluster:
            yield cluster

    def _raw_connection(self, server):
        import socket

        return socket.create_connection(server.servers[0].address, timeout=5)

    def test_garbage_bytes_then_clean_client_still_served(self, server):
        import struct

        sock = self._raw_connection(server)
        # A frame whose body is not JSON: handler answers an error or
        # drops the connection — either way it must not crash the server.
        body = b"\xff\xfenot json at all"
        sock.sendall(struct.pack(">I", len(body)) + body)
        try:
            sock.recv(4096)
        except OSError:
            pass
        sock.close()
        assert server.proxies[0].ping()

    def test_truncated_frame_then_disconnect(self, server):
        import struct

        sock = self._raw_connection(server)
        sock.sendall(struct.pack(">I", 1_000)[:2])  # half a length prefix
        sock.close()
        assert server.proxies[0].ping()

    def test_valid_json_wrong_schema_gets_error_reply(self, server):
        import json
        import struct

        sock = self._raw_connection(server)
        body = json.dumps({"not_method": True}).encode()
        sock.sendall(struct.pack(">I", len(body)) + body)
        header = sock.recv(4)
        (length,) = struct.unpack(">I", header)
        reply = json.loads(sock.recv(length))
        assert reply["ok"] is False
        sock.close()
        assert server.proxies[0].ping()

    def test_many_hostile_connections(self, server):
        import struct

        for payload in (b"", b"\x00" * 7, b"{", b"[1,2,3]"):
            sock = self._raw_connection(server)
            sock.sendall(struct.pack(">I", len(payload)) + payload)
            try:
                sock.recv(1024)
            except OSError:
                pass
            sock.close()
        assert server.proxies[0].ping()


class TestEndToEnd:
    @pytest.mark.parametrize("coordinator_cls", [DSUD, EDSUD])
    def test_full_query_over_tcp_matches_central(self, coordinator_cls):
        db = make_random_database(300, 2, seed=2, grid=10)
        partitions = [db[i::4] for i in range(4)]
        central = prob_skyline_sfs(db, 0.3)
        with host_sites(partitions) as c:
            result = coordinator_cls(c.proxies, 0.3).run()
        assert result.answer.agrees_with(central, tol=1e-9)

    def test_parallel_broadcast_over_tcp(self):
        """Concurrent probes: same answer, same books, threads live."""
        db = make_random_database(300, 2, seed=5, grid=10)
        partitions = [db[i::5] for i in range(5)]
        with host_sites(partitions) as c:
            sequential = EDSUD(c.proxies, 0.3).run()
        with host_sites(partitions) as c:
            parallel = EDSUD(c.proxies, 0.3, parallel_broadcast=True)
            result = parallel.run()
        assert result.answer.agrees_with(sequential.answer, tol=1e-12)
        assert result.bandwidth == sequential.bandwidth

    def test_parallel_broadcast_in_process(self):
        db = make_random_database(200, 2, seed=6, grid=10)
        partitions = [db[i::3] for i in range(3)]
        central = prob_skyline_sfs(db, 0.3)
        sites = [LocalSite(i, partitions[i]) for i in range(3)]
        result = DSUD(sites, 0.3, parallel_broadcast=True).run()
        assert result.answer.agrees_with(central, tol=1e-9)

    def test_site_crash_mid_query_degrades_and_discloses(self):
        """A dead site must never hang the query or silently corrupt the
        answer: the run completes degraded and the coverage report says
        exactly which site was lost (Corollary-1 upper-bound mode)."""
        db = make_random_database(200, 2, seed=7, grid=10)
        partitions = [db[i::3] for i in range(3)]
        cluster = host_sites(partitions)
        try:
            # A process crash kills the listener *and* its established
            # connections; shutdown() alone leaves handler threads
            # serving, so sever the proxy's socket as the crash would.
            victim = cluster.servers[1]
            victim.shutdown()
            victim.server_close()
            cluster.proxies[1]._sock.close()
            result = EDSUD(cluster.proxies, 0.3).run()
            assert result.coverage is not None
            assert not result.coverage.complete
            assert 1 in result.coverage.down_sites
        finally:
            cluster.close()

    def test_retry_reconnects_after_connection_drop(self):
        """With retries enabled, a severed connection self-heals for
        idempotent RPCs (the server still listens)."""
        from repro.net.sockets import RemoteSiteProxy

        db = make_random_database(80, 2, seed=9, grid=10)
        cluster = host_sites([db])
        try:
            proxy = RemoteSiteProxy(
                site_id=0, address=cluster.servers[0].address, retries=2
            )
            assert proxy.ping()
            proxy._sock.close()  # transient fault
            assert proxy.prepare(0.3) >= 1  # idempotent -> retried
            assert proxy.reconnects == 1
            proxy.close()
        finally:
            cluster.close()

    def test_pop_is_never_retried(self):
        """An ambiguous drop during pop must surface, not silently re-pop."""
        from repro.net.sockets import RemoteSiteProxy

        db = make_random_database(80, 2, seed=10, grid=10)
        cluster = host_sites([db])
        try:
            proxy = RemoteSiteProxy(
                site_id=0, address=cluster.servers[0].address, retries=5
            )
            proxy.prepare(0.3)
            proxy._sock.close()
            with pytest.raises((ConnectionError, OSError)):
                proxy.pop_representative()
            proxy.close()
        finally:
            cluster.close()

    def test_connection_drop_during_rpc(self):
        """Closing the proxy's socket mid-conversation raises cleanly."""
        db = make_random_database(60, 2, seed=8)
        cluster = host_sites([db])
        try:
            proxy = cluster.proxies[0]
            assert proxy.ping()
            proxy._sock.close()
            with pytest.raises(OSError):
                proxy.prepare(0.3)
        finally:
            cluster.close()

    def test_teardown_releases_ports(self):
        db = make_random_database(30, 2, seed=3)
        with host_sites([db]) as c:
            port = c.servers[0].address[1]
        # After close the same port can be bound again (SO_REUSEADDR
        # mirrors what the server itself sets, so a lingering TIME_WAIT
        # from the test connection does not matter).
        import socket

        s = socket.socket()
        s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        s.bind(("127.0.0.1", port))
        s.close()

    def test_cluster_closes_its_servers_in_parallel(self):
        """Each server's shutdown waits out one 0.5 s serve_forever
        poll; stopping them together costs one poll, not four."""
        import time

        db = make_random_database(80, 2, seed=4)
        cluster = host_sites([db[i::4] for i in range(4)])
        start = time.perf_counter()
        cluster.close()
        elapsed = time.perf_counter() - start
        assert elapsed < 1.2, f"closing 4 sites took {elapsed:.2f}s"


class TestProcessHosting:
    """Site servers in their own OS processes (the distributed deploy)."""

    def test_process_cluster_serves_full_queries(self):
        from repro.net.sockets import RemoteSiteProxy, host_sites_in_processes

        db = make_random_database(200, 2, seed=11, grid=10)
        partitions = [db[i::3] for i in range(3)]
        central = prob_skyline_sfs(db, 0.3)
        with host_sites_in_processes(partitions) as cluster:
            proxies = [
                RemoteSiteProxy(site_id=i, address=addr)
                for i, addr in cluster.addresses
            ]
            try:
                result = DSUD(proxies, 0.3).run()
            finally:
                for proxy in proxies:
                    proxy.close()
        assert result.answer.agrees_with(central, tol=1e-9)

    def test_fork_per_connection_isolates_concurrent_queries(self):
        """Two connections to one server must not share queue state:
        each gets a private fork, so both pop the same representative
        first — exactly what per-session isolation requires."""
        from repro.net.sockets import RemoteSiteProxy, host_sites_in_processes

        db = make_random_database(120, 2, seed=12, grid=10)
        with host_sites_in_processes([db], fork_per_connection=True) as cluster:
            (site_id, address) = cluster.addresses[0]
            a = RemoteSiteProxy(site_id=site_id, address=address)
            b = RemoteSiteProxy(site_id=site_id, address=address)
            try:
                assert a.prepare(0.3) == b.prepare(0.3)
                first_a = a.pop_representative()
                first_b = b.pop_representative()
                assert first_a is not None and first_b is not None
                assert first_a.tuple.key == first_b.tuple.key
            finally:
                a.close()
                b.close()

    def test_rpc_delay_is_applied_per_request(self):
        """The deterministic WAN stand-in: every RPC takes at least the
        configured service delay."""
        import time

        from repro.net.sockets import RemoteSiteProxy, host_sites_in_processes

        db = make_random_database(40, 2, seed=13)
        with host_sites_in_processes([db], rpc_delay=0.05) as cluster:
            (site_id, address) = cluster.addresses[0]
            proxy = RemoteSiteProxy(site_id=site_id, address=address)
            try:
                start = time.perf_counter()
                assert proxy.ping()
                assert time.perf_counter() - start >= 0.05
            finally:
                proxy.close()

    def test_close_terminates_all_site_processes(self):
        from repro.net.sockets import host_sites_in_processes

        db = make_random_database(30, 2, seed=14)
        cluster = host_sites_in_processes([db[0::2], db[1::2]])
        assert all(p.is_alive() for p in cluster.processes)
        cluster.close()
        assert all(not p.is_alive() for p in cluster.processes)
