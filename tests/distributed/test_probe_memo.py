"""The standing sites' Eq. 9 probe memo.

A template with ``enable_skyline_cache()`` memoizes probe factors per
probed tuple and every fork shares the memo.  A hit must return the
float an uncached site computes for the same call, on every backend,
and §5.4 maintenance on the template must invalidate it for forks that
already exist.
"""

import pytest

from repro.core.tuples import UncertainTuple
from repro.distributed.site import LocalSite, SiteConfig
from repro.net.sockets import RemoteSiteProxy, _standing_server

from ..conftest import make_random_database

BACKENDS = {
    "prtree": SiteConfig(),
    "grid": SiteConfig(index_kind="grid"),
    "vectorized": SiteConfig(use_index=False),
    "scalar": SiteConfig(use_index=False, vectorized=False),
    "all_probs_table": SiteConfig(all_probs_table=True),
}


def _bits(values):
    return [float(v).hex() for v in values]


def _data(seed=3):
    stored = make_random_database(150, 3, seed=seed)
    foreign = make_random_database(40, 3, seed=seed + 100, start_key=10_000)
    # Stored tuples are probed too: their own row must stay excluded.
    return stored, foreign + stored[:10]


def _template(stored, config):
    site = LocalSite(0, stored, config=config)
    site.enable_skyline_cache()
    return site


@pytest.fixture(params=sorted(BACKENDS))
def config(request):
    return BACKENDS[request.param]


def test_memoized_probes_on_forks_match_uncached_probes(config):
    stored, probes = _data()
    fresh = LocalSite(0, stored, config=config)
    template = _template(stored, config)
    singles, batched, mixed = template.fork(), template.fork(), template.fork()

    # One fork fills the memo with single probes of half the tuples.
    first = probes[::2]
    assert _bits(singles.probe(t) for t in first) == _bits(fresh.probe(t) for t in first)
    # Another probes overlapping batches: some hits, some misses, and a
    # repeated tuple inside one batch.
    for request in (probes[:7], probes[5:30] + probes[5:8], probes, probes[::-1]):
        assert _bits(batched.probe_batch(request)) == _bits(fresh.probe_batch(request))
    # A third alternates forms over tuples the others already probed.
    for i, t in enumerate(probes):
        if i % 2:
            assert _bits([mixed.probe(t)]) == _bits([fresh.probe(t)])
        else:
            pair = [t, probes[-1 - i]]
            assert _bits(mixed.probe_batch(pair)) == _bits(fresh.probe_batch(pair))


def test_forks_share_one_memo_and_skip_the_backend_on_hits(config, monkeypatch):
    stored, probes = _data(seed=4)
    template = _template(stored, config)
    warm = template.fork()
    for t in probes[:20]:
        warm.probe(t)
    warm.probe_batch(probes[:20])

    single_calls, batch_calls = [], []
    real_single = LocalSite._probe_uncached
    real_batch = LocalSite._probe_batch_uncached
    monkeypatch.setattr(
        LocalSite,
        "_probe_uncached",
        lambda self, t: single_calls.append(t) or real_single(self, t),
    )
    monkeypatch.setattr(
        LocalSite,
        "_probe_batch_uncached",
        lambda self, ts: batch_calls.append(list(ts)) or real_batch(self, ts),
    )
    later = template.fork()
    for t in probes[:20]:
        later.probe(t)
    later.probe_batch(probes[:20])
    assert single_calls == [] and batch_calls == []
    # A batch sends only its misses to the kernel.
    later.probe_batch(probes[15:25])
    assert batch_calls == [probes[20:25]]


def test_solo_sites_keep_no_memo():
    stored, probes = _data()
    site = LocalSite(0, stored)
    site.probe(probes[0])
    site.probe_batch(probes[:3])
    assert site._probe_memo is None and site._probe_batch_memo is None
    assert site.fork()._probe_memo is None


@pytest.mark.parametrize("update", ["insert", "delete"])
def test_template_updates_invalidate_existing_forks(config, update):
    stored, probes = _data(seed=5)
    template = _template(stored, config)
    # The same update on a memo-less site gives the uncached factors (a
    # freshly built index may round differently from a maintained one).
    plain = LocalSite(0, stored, config=config)
    fork = template.fork()
    target = probes[0]
    before = fork.probe(target)
    fork.probe_batch(probes[:5])
    if update == "insert":
        # Dominates the target, so its factor must shrink.
        dominator = UncertainTuple(
            99_999, tuple(v - 1.0 for v in target.values), 0.5
        )
        template.insert_tuple(dominator)
        plain.insert_tuple(dominator)
    else:
        victim = next(
            s for s in stored if all(a < b for a, b in zip(s.values, target.values))
        )
        template.delete_tuple(victim.key)
        plain.delete_tuple(victim.key)
    after = fork.probe(target)
    assert after != before
    assert _bits([after]) == _bits([plain.probe(target)])
    assert _bits(fork.probe_batch(probes[:5])) == _bits(plain.probe_batch(probes[:5]))


def test_remote_fork_per_connection_host_shares_one_memo():
    stored, probes = _data(seed=6)
    server = _standing_server(0, stored, fork_per_connection=True)
    server.serve_in_thread()
    fresh = LocalSite(0, stored)
    a = RemoteSiteProxy(0, server.address)
    b = RemoteSiteProxy(0, server.address)
    try:
        a.prepare(0.3)
        b.prepare(0.3)
        for t in probes[:10]:
            assert a.probe_and_prune(t).factor == fresh.probe(t)
        assert len(server.site._probe_memo) == 10
        # The second connection's fork hits the entries the first filled.
        for t in probes[5:15]:
            assert b.probe_and_prune(t).factor == fresh.probe(t)
        assert len(server.site._probe_memo) == 15
        assert server.forks_served == 2
    finally:
        a.close()
        b.close()
        server.shutdown()
        server.server_close()


def test_concurrent_forks_fill_one_memo_consistently():
    """Threads serving a ``fork_per_connection`` host share the memo;
    racing fills must never hand any thread a wrong factor."""
    import sys
    import threading

    stored, probes = _data(seed=7)
    fresh = LocalSite(0, stored)
    want = {t: fresh.probe(t) for t in probes}
    template = _template(stored, SiteConfig())
    wrong = []

    def serve(offset):
        fork = template.fork()
        order = probes[offset:] + probes[:offset]
        for i, t in enumerate(order):
            if i % 3:
                got = [fork.probe(t)]
                batch = [t]
            else:
                batch = order[i : i + 4]
                got = fork.probe_batch(batch)
            wrong.extend(t for t, g in zip(batch, got) if g != want[t])

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=serve, args=(k * 5,)) for k in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(worker.is_alive() for worker in workers)
    assert wrong == []
    assert set(template._probe_memo) == set(probes)
