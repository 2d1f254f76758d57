"""The four benchmark workloads: inputs, set-up, timed loop, output check.

The query workloads keep one database and one query mix per workload
(``DATA_SEED``, ``MIX_SEED``) and the workload seed orders the mix, in a
fresh order for every pass over it; on ``oneshot-large`` the seed also
scatters the database over the sites.  On databases of a few thousand
tuples a fresh draw per seed moved tuples per query by 40% between
seeds, which would drown any change a later optimisation makes.  The
served workloads keep one placement as well: their two clients share
every scheduling pass, and a fresh placement per seed moved the
first-result median on ``served-anticorr`` by 23%.
The stream workload draws its whole arrival schedule from the seed: a
run replays about a hundred thousand arrivals, enough to average the
draw out.

A run is a whole number of passes over the workload's input (its query
mix, or a block of epochs), sized from ``--seconds`` by the workload's
nominal rate on a 2-vCPU machine, so every run at a given ``--seconds``
does the same work and runs for about that long, and the exact counts
(tuples, messages, uplink) repeat exactly for a seed.
"""

from __future__ import annotations

import asyncio
import itertools
import random
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from common import Measurement, Op, first_result_at, first_result_probe, region

from repro.core import kernels
from repro.core.dominance import Preference
from repro.core.prob_skyline import ProbabilisticSkyline
from repro.data.partition import partition_uniform
from repro.data.workload import make_synthetic_stream, make_synthetic_workload, sample_query_mix
from repro.distributed import query as front_door
from repro.distributed.query import build_sites
from repro.fault.retry import RetryPolicy
from repro.fault.schedule import FaultSchedule
from repro.net.sockets import host_sites_in_processes
from repro.serve import AdmissionPolicy, AdmissionRejected, QuerySession, QuerySpec, SessionState, SkylineService
from repro.stream import StandingQuery, make_window
from repro.stream.site import streaming_site_config

DATA_SEED = 20100621
MIX_SEED = 707
#: Set-ups per run: the first half before the timed phase, the rest after
#: it, so that their median samples the host over the whole run rather
#: than in one burst at its start.
SETUP_REPS = 6
#: Share of the served-anticorr mix that runs a private crash schedule.
CHAOS_FRACTION = 0.15
CLIENTS = 2

#: Per-workload sizes.  ``pass`` ops make one pass over the input;
#: ``rate`` is the nominal ops per second that sizes a run.  ``tiny`` is
#: for the benchmark's own tests.
SCALES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "oneshot-large": {
        "full": {"n": 100_000, "sites": 8, "pass": 12, "rate": 0.55},
        "tiny": {"n": 2_000, "sites": 4, "pass": 12, "rate": 25},
    },
    "served-anticorr": {
        "full": {"n": 6_000, "sites": 6, "pass": 48, "rate": 4.8, "checks": 6},
        "tiny": {"n": 600, "sites": 3, "pass": 14, "rate": 60, "checks": 3},
    },
    "served-remote": {
        "full": {"n": 1_200, "sites": 4, "pass": 120, "rate": 22, "checks": 16},
        "tiny": {"n": 300, "sites": 2, "pass": 14, "rate": 80, "checks": 3},
    },
    "stream-sliding": {
        "full": {"sites": 4, "window": 250, "epoch": 50, "warm": 500, "pass": 200, "rate": 95, "check_every": 20},
        "tiny": {"sites": 3, "window": 60, "epoch": 20, "warm": 120, "pass": 12, "rate": 250, "check_every": 4},
    },
}


def _preference(subspace: Optional[Tuple[int, ...]]) -> Optional[Preference]:
    return Preference(subspace=subspace) if subspace else None


def _split(reps: int) -> Tuple[int, int]:
    """Set-ups to time before and after the timed phase."""
    return reps - reps // 2, reps // 2


def run_length(scale: Dict[str, Any], seconds: float) -> int:
    """Ops in a run of about ``seconds``: a whole number of passes, at least one."""
    return scale["pass"] * max(1, round(seconds * scale["rate"] / scale["pass"]))


def _database(distribution: str, scale: Dict[str, Any], placement: int) -> Tuple[List[Any], List[List[Any]]]:
    """The workload's pinned database, scattered over the sites by ``placement``."""
    database = make_synthetic_workload(distribution, n=scale["n"], d=3, sites=scale["sites"], seed=DATA_SEED).global_database
    return database, partition_uniform(database, scale["sites"], rng=random.Random(placement))


def _passes(size: int, count: int, seed: int) -> List[int]:
    """Indices into a mix of ``size`` for a run of ``count`` ops.

    Each pass visits the whole mix in its own order drawn from ``seed``,
    so on the served workloads every pass pairs the two clients' queries
    differently and a run's latencies average over many pairings.
    """
    rng = random.Random(seed)
    order: List[int] = []
    while len(order) < count:
        chunk = list(range(size))
        rng.shuffle(chunk)
        order.extend(chunk)
    return order[:count]


def _fingerprint(result: Any) -> Dict[str, Any]:
    """Everything observable about a query run, down to the message books."""
    coverage = result.coverage
    return {
        "answer": [(m.key, m.probability) for m in result.answer],
        "emissions": [
            (e.key, e.global_probability, e.tuples_transmitted) for e in result.progress.events
        ],
        "tuples": result.stats.tuples_transmitted,
        "messages": result.stats.messages,
        "by_kind": dict(result.stats.by_kind),
        "complete": coverage.complete if coverage else None,
    }


def _solo(partitions: Sequence[Sequence[Any]], spec: QuerySpec) -> Any:
    return front_door.distributed_skyline(
        partitions,
        spec.threshold,
        algorithm=spec.algorithm,
        preference=spec.preference,
        limit=spec.limit,
        batch_size=spec.batch_size,
    )


# ----------------------------------------------------------------------
# oneshot-large
# ----------------------------------------------------------------------


def oneshot_inputs(seed: int, scale: Dict[str, Any], count: int) -> Dict[str, Any]:
    database, partitions = _database("independent", scale, placement=seed)
    return {
        "partitions": partitions,
        "database": database,
        "mix": sample_query_mix(scale["pass"], 3, seed=MIX_SEED),
        "order": _passes(scale["pass"], count, seed),
    }


def oneshot_measure(inputs: Dict[str, Any], count: int, reps: int, tracer: Any = None) -> Measurement:
    partitions, mix = inputs["partitions"], inputs["mix"]
    pre, post = _split(reps)
    setup: List[float] = []

    def set_up(times: int) -> None:
        for _ in range(times):
            start = time.perf_counter()
            build_sites(partitions)
            setup.append(time.perf_counter() - start)

    with region(tracer, "bench.setup"):
        set_up(pre)
    ops: List[Op] = []
    with first_result_probe(), region(tracer, "bench.run"):
        started = time.perf_counter()
        for i in range(count):
            draw = mix[inputs["order"][i]]
            token = tracer.query(i + 1) if tracer is not None else None
            t0 = time.perf_counter()
            try:
                result = front_door.distributed_skyline(
                    partitions,
                    draw.threshold,
                    algorithm=draw.algorithm,
                    preference=_preference(draw.subspace),
                    limit=draw.limit,
                    batch_size=draw.batch_size,
                )
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ops.append(Op(latency=0.0, notify=0.0, failed=True, payload=(i, None)))
                continue
            finally:
                if token is not None:
                    tracer.end_query(token)
            t1 = time.perf_counter()
            first = first_result_at(result.progress)
            ops.append(
                Op(
                    latency=t1 - t0,
                    notify=t1 - t0,
                    first=None if first is None else first - t0,
                    tuples=result.stats.tuples_transmitted,
                    messages=result.stats.messages,
                    uplink=result.stats.tuples_to_server,
                    payload=(i, result),
                )
            )
        elapsed = time.perf_counter() - started
    set_up(post)
    ledger = {
        op.payload[0] + 1: (op.payload[1].stats.messages, op.payload[1].stats.tuples_transmitted)
        for op in ops
        if op.payload[1] is not None
    }
    return Measurement(setup, elapsed, ops, len(ops), ledger=ledger)


def oneshot_check(inputs: Dict[str, Any], meas: Measurement) -> int:
    """Answers must agree with the centralized skyline (top-k: its head)."""
    database, mix = inputs["database"], inputs["mix"]
    refs: Dict[Tuple[float, Any], ProbabilisticSkyline] = {}
    wrong = 0
    for op in meas.ops:
        i, result = op.payload
        if result is None:
            continue
        draw = mix[inputs["order"][i]]
        key = (draw.threshold, draw.subspace)
        if key not in refs:
            refs[key] = kernels.prob_skyline_sfs(database, draw.threshold, _preference(draw.subspace))
        want = refs[key]
        if draw.limit is not None:
            want = ProbabilisticSkyline(want.threshold, want.members[: draw.limit])
        if not result.answer.agrees_with(want, tol=1e-9):
            print(f"oneshot: query {i} ({draw}) disagrees with the centralized skyline", file=sys.stderr)
            wrong += 1
            op.failed = True
    return wrong


# ----------------------------------------------------------------------
# the served workloads: a closed loop of clients against SkylineService
# ----------------------------------------------------------------------


def served_specs(draws: Sequence[Any], sites: int, in_process: bool) -> List[QuerySpec]:
    """Lift sampled draws into specs, as ``repro.bench.service`` does.

    In process, a ``CHAOS_FRACTION`` of the queries get a private
    crash-and-return schedule on one site and a fast retry policy.
    Remote sites fail for real and bake their preference in when they
    are hosted, so remote specs keep only what the wire can express:
    no preference, no fault schedule.
    """
    chaos_rng = random.Random(MIX_SEED + 1)
    specs = []
    for draw in draws:
        schedule = retry = None
        if in_process and chaos_rng.random() < CHAOS_FRACTION:
            victim = chaos_rng.randrange(sites)
            schedule = FaultSchedule(seed=chaos_rng.randrange(1 << 20)).crash(victim, at_call=8, until_call=24)
            retry = RetryPolicy(max_attempts=2, base_backoff=1e-4, max_backoff=1e-3)
        specs.append(
            QuerySpec(
                threshold=draw.threshold,
                algorithm=draw.algorithm,
                preference=_preference(draw.subspace) if in_process else None,
                limit=draw.limit,
                batch_size=draw.batch_size,
                fault_schedule=schedule,
                retry_policy=retry,
                tenant=draw.tenant,
            )
        )
    return specs


@dataclass
class _Served:
    #: None when admission refused the query.
    session: Optional[QuerySession]
    #: Position in the run's order.
    index: int
    woke_at: float = 0.0


async def _closed_loop(
    service: SkylineService,
    specs: Sequence[QuerySpec],
    order: Sequence[int],
    books: Dict[str, float],
) -> Tuple[List[_Served], float]:
    """``CLIENTS`` clients, each submitting its next query on completion.

    A client waits on an event the session sets when it goes terminal,
    so waiting costs one wakeup per query instead of a poll loop.
    """
    served: List[_Served] = []
    counter = itertools.count()
    started = time.perf_counter()

    async def client() -> None:
        while True:
            i = next(counter)
            if i >= len(order):
                return
            try:
                session = await service.submit(specs[order[i]], wait=True)
            except AdmissionRejected:
                served.append(_Served(None, i))
                continue
            done = asyncio.Event()
            step, abort = session.step, session.abort

            async def signal_step() -> bool:
                finished = await step()
                if finished:
                    done.set()
                return finished

            async def signal_abort(reason: str) -> None:
                await abort(reason)
                done.set()

            session.step = signal_step  # type: ignore[method-assign]
            session.abort = signal_abort  # type: ignore[method-assign]
            record = _Served(session, i)
            served.append(record)
            while not session.done:
                await done.wait()
                books["client_wakeups"] += 1
            record.woke_at = time.perf_counter()

    await asyncio.gather(*(client() for _ in range(CLIENTS)))
    return served, time.perf_counter() - started


def _served_ops(served: List[_Served]) -> List[Op]:
    ops = []
    for record in served:
        session = record.session
        if session is None:
            ops.append(Op(latency=0.0, notify=0.0, failed=True, payload=record))
            continue
        stats = session.coordinator.stats
        first = first_result_at(session.coordinator.progress)
        ops.append(
            Op(
                latency=session.latency or 0.0,
                notify=record.woke_at - session.submitted_at,
                first=None if first is None else first - session.submitted_at,
                tuples=session.transmitted_tuples,
                messages=stats.messages,
                uplink=stats.tuples_to_server,
                failed=session.state is not SessionState.FINISHED,
                payload=record,
            )
        )
    return ops


def _served_measurement(setup: List[float], served: List[_Served], elapsed: float, books: Dict[str, float]) -> Measurement:
    # Keyed by session identity: two remote submissions that dial at the
    # same time can be handed the same query_id.
    ledger = {
        id(r.session): (r.session.coordinator.stats.messages, r.session.coordinator.stats.tuples_transmitted)
        for r in served
        if r.session is not None
    }
    return Measurement(setup, elapsed, _served_ops(served), len(served), books, ledger)


def _session_books(served: List[_Served], service: SkylineService, books: Dict[str, float]) -> None:
    for record in served:
        session = record.session
        if session is None:
            continue
        stats = session.coordinator.stats
        books["retries"] += stats.rpc_retries
        books["failures"] += stats.rpc_failures
        if session.result is not None and session.result.coverage is not None:
            books["degraded"] += 0 if session.result.coverage.complete else 1
        if session.started_at is not None:
            books["queue_wait_s"] += session.started_at - session.submitted_at
            if session.finished_at is not None:
                books["run_s"] += session.finished_at - session.started_at
    books["passes"] += service.passes


def _new_books() -> Dict[str, float]:
    return dict.fromkeys(("client_wakeups", "retries", "failures", "degraded", "queue_wait_s", "run_s", "passes"), 0.0)


def anticorr_inputs(seed: int, scale: Dict[str, Any], count: int) -> Dict[str, Any]:
    _, partitions = _database("anticorrelated", scale, placement=DATA_SEED)
    # Top-k and subspace queries finish in tens of milliseconds, full
    # skylines in hundreds.  At the service bench's rates (0.3, 0.25)
    # the two kinds split the mix about evenly and the median latency
    # jumps between them from run to run; at half those rates it falls
    # among the full skylines.
    draws = sample_query_mix(
        scale["pass"], 3, seed=MIX_SEED, tenants=("alpha", "beta"), limit_fraction=0.15, subspace_fraction=0.1
    )
    return {
        "partitions": partitions,
        "specs": served_specs(draws, scale["sites"], in_process=True),
        "order": _passes(scale["pass"], count, seed),
        "checks": scale["checks"],
        "seed": seed,
    }


def anticorr_measure(inputs: Dict[str, Any], count: int, reps: int, tracer: Any = None) -> Measurement:
    partitions, specs = inputs["partitions"], inputs["specs"]
    preferences = list(dict.fromkeys(spec.preference for spec in specs))
    books = _new_books()

    pre, post = _split(reps)

    def ready() -> SkylineService:
        service = SkylineService(partitions, policy=AdmissionPolicy(max_inflight=8, max_queued=len(specs)))
        for host in service.hosts:
            for preference in preferences:
                host.template(preference)
        service.start()
        return service

    async def main() -> Tuple[List[float], List[_Served], float]:
        setup = []
        with region(tracer, "bench.setup"):
            for _ in range(pre):
                start = time.perf_counter()
                service = ready()
                setup.append(time.perf_counter() - start)
                if len(setup) < pre:
                    await service.close()
        try:
            with region(tracer, "bench.run"):
                served, elapsed = await _closed_loop(service, specs, inputs["order"][:count], books)
        finally:
            await service.close()
        _session_books(served, service, books)
        for _ in range(post):
            start = time.perf_counter()
            spare = ready()
            setup.append(time.perf_counter() - start)
            await spare.close()
        return setup, served, elapsed

    with first_result_probe():
        setup, served, elapsed = asyncio.run(main())
    return _served_measurement(setup, served, elapsed, books)


def served_check(inputs: Dict[str, Any], meas: Measurement) -> int:
    """Sampled fault-free sessions must equal a solo run exactly."""
    specs, order = inputs["specs"], inputs["order"]
    fault_free = sorted(
        {order[op.payload.index] for op in meas.ops if specs[order[op.payload.index]].fault_schedule is None}
    )
    picked = set(random.Random(inputs["seed"]).sample(fault_free, min(inputs["checks"], len(fault_free))))
    wrong = 0
    solo: Dict[int, Dict[str, Any]] = {}
    for op in meas.ops:
        index = order[op.payload.index]
        if index not in picked or op.failed:
            continue
        if index not in solo:
            solo[index] = _fingerprint(_solo(inputs["partitions"], specs[index]))
        if _fingerprint(op.payload.session.result) != solo[index]:
            print(f"served: session for spec {index} differs from its solo run", file=sys.stderr)
            wrong += 1
            op.failed = True
    return wrong


def remote_inputs(seed: int, scale: Dict[str, Any], count: int) -> Dict[str, Any]:
    _, partitions = _database("independent", scale, placement=DATA_SEED)
    draws = sample_query_mix(scale["pass"], 3, seed=MIX_SEED, tenants=("alpha", "beta"))
    return {
        "partitions": partitions,
        "specs": served_specs(draws, scale["sites"], in_process=False),
        "order": _passes(scale["pass"], count, seed),
        "checks": scale["checks"],
        "seed": seed,
    }


def remote_measure(inputs: Dict[str, Any], count: int, reps: int, tracer: Any = None) -> Measurement:
    partitions, specs = inputs["partitions"], inputs["specs"]
    books = _new_books()

    pre, post = _split(reps)

    def ready() -> Tuple[Any, SkylineService]:
        cluster = host_sites_in_processes(partitions, rpc_delay=0.0)
        try:
            service = SkylineService(
                remote_sites=cluster.addresses,
                policy=AdmissionPolicy(max_inflight=8, max_queued=len(specs)),
            )
            service.start()
        except BaseException:
            cluster.close()
            raise
        return cluster, service

    async def main() -> Tuple[List[float], List[_Served], float]:
        setup = []
        cluster = service = None
        try:
            with region(tracer, "bench.setup"):
                for _ in range(pre):
                    start = time.perf_counter()
                    cluster, service = ready()
                    setup.append(time.perf_counter() - start)
                    if len(setup) < pre:
                        await service.close()
                        cluster.close()
            assert service is not None
            try:
                with region(tracer, "bench.run"):
                    served, elapsed = await _closed_loop(service, specs, inputs["order"][:count], books)
            finally:
                await service.close()
            _session_books(served, service, books)
        finally:
            if cluster is not None:
                cluster.close()
        for _ in range(post):
            start = time.perf_counter()
            cluster, service = ready()
            setup.append(time.perf_counter() - start)
            try:
                await service.close()
            finally:
                cluster.close()
        return setup, served, elapsed

    with first_result_probe():
        setup, served, elapsed = asyncio.run(main())
    return _served_measurement(setup, served, elapsed, books)


# ----------------------------------------------------------------------
# stream-sliding
# ----------------------------------------------------------------------


STANDING = (
    StandingQuery(threshold=0.4),
    StandingQuery(threshold=0.3, preference=Preference(subspace=(0, 1))),
    StandingQuery(threshold=0.25, limit=8),
)


def stream_inputs(seed: int, scale: Dict[str, Any], count: int) -> Dict[str, Any]:
    """A schedule long enough to fill the windows and run ``count`` epochs."""
    n = scale["warm"] + count * scale["epoch"]
    arrivals = make_synthetic_stream(n=n, d=3, sites=scale["sites"], seed=seed)
    # The time span that holds about ``window`` live tuples in all.
    span = scale["window"] * arrivals[-1].stamp / len(arrivals)
    return {"arrivals": arrivals, "span": span, "scale": scale}


class _Subscribers:
    """A stream-plane service, its standing queries, and one consumer task each.

    Consumers wait on their subscription's queue; the load generator waits on an
    event the last expected consumer sets, so nobody polls.
    """

    def __init__(self, span: float, sites: int, books: Dict[str, float]) -> None:
        self.service = SkylineService(
            stream_windows=[make_window("sliding-time", span) for _ in range(sites)],
            auto_publish=False,
            policy=AdmissionPolicy(max_subscriptions=8),
        )
        self.books = books
        self.epoch = 0
        self.waiting = 0
        self.first = self.last = 0.0
        self.delivered = asyncio.Event()
        self.sessions: List[Any] = []
        self.consumers: List["asyncio.Task[None]"] = []

    async def start(self) -> None:
        self.service.start()
        self.sessions = [await self.service.subscribe(query) for query in STANDING]
        self.consumers = [asyncio.ensure_future(self._consume(s)) for s in self.sessions]

    async def _consume(self, session: Any) -> None:
        while True:
            batch = await session.next_batch()
            self.books["client_wakeups"] += 1
            if batch is None:
                return
            if batch[0].epoch != self.epoch:
                raise RuntimeError(f"batch of epoch {batch[0].epoch} arrived during epoch {self.epoch}")
            self.last = time.perf_counter()
            self.first = self.first or self.last
            self.waiting -= 1
            if self.waiting == 0:
                self.delivered.set()

    async def epoch_of(self, arrivals: Sequence[Any]) -> Tuple[float, float]:
        """Feed arrivals back to back, publish, wait for every notified consumer.

        Returns when the last arrival was ingested and when publish returned.
        """
        for arrival in arrivals:
            self.service.ingest(arrival.site_id, arrival.tuple, arrival.stamp)
        ingested = time.perf_counter()
        self.epoch += 1
        self.first = self.last = 0.0
        self.delivered.clear()
        # publish queues every batch before any consumer can run, so the
        # count of expected receivers is set before the first one lands.
        deltas = await self.service.publish()
        published = time.perf_counter()
        self.waiting = len({d.query_id for d in deltas})
        if self.waiting:
            await self.delivered.wait()
            self.books["client_wakeups"] += 1
        return ingested, published

    async def close(self) -> None:
        await self.service.close()
        await asyncio.gather(*self.consumers)


def stream_measure(inputs: Dict[str, Any], count: int, reps: int, tracer: Any = None) -> Measurement:
    arrivals, scale = inputs["arrivals"], inputs["scale"]
    per_epoch, warm = scale["epoch"], scale["warm"]
    books = _new_books()

    async def ready() -> _Subscribers:
        """Service, subscriptions, and windows filled to steady state."""
        plane = _Subscribers(inputs["span"], scale["sites"], books)
        await plane.start()
        for cursor in range(0, warm, per_epoch):
            await plane.epoch_of(arrivals[cursor : cursor + per_epoch])
        return plane

    pre, post = _split(reps)

    async def main() -> Tuple[List[float], List[Op], float, List[Any], Dict[str, float]]:
        setup = []
        with region(tracer, "bench.setup"):
            for _ in range(pre):
                start = time.perf_counter()
                plane = await ready()
                setup.append(time.perf_counter() - start)
                if len(setup) < pre:
                    await plane.close()
        stream = plane.service.stream
        assert stream is not None
        base = (stream.candidates_shipped, stream.replicas_shipped, stream.arrivals_total)
        ops: List[Op] = []
        snapshots: List[Any] = []
        paused = 0.0
        cursor = warm
        try:
            with region(tracer, "bench.run"):
                started = time.perf_counter()
                while len(ops) < count:
                    stats = stream.stats
                    before = (stats.tuples_transmitted, stats.messages, stream.candidates_shipped + stream.replicas_shipped)
                    token = tracer.query(len(ops) + 1) if tracer is not None else None
                    ingested, published = await plane.epoch_of(arrivals[cursor : cursor + per_epoch])
                    if token is not None:
                        tracer.end_query(token)
                    cursor += per_epoch
                    ops.append(
                        Op(
                            latency=published - ingested,
                            notify=(plane.last or published) - ingested,
                            first=(plane.first or published) - ingested,
                            tuples=stats.tuples_transmitted - before[0],
                            messages=stats.messages - before[1],
                            uplink=stream.candidates_shipped + stream.replicas_shipped - before[2],
                        )
                    )
                    if len(ops) % scale["check_every"] == 0:
                        pause = time.perf_counter()
                        standing = [(q, stream.result(s.query_id)) for q, s in zip(STANDING, plane.sessions)]
                        snapshots.append((len(ops) - 1, stream.live_partitions(), standing))
                        paused += time.perf_counter() - pause
                elapsed = time.perf_counter() - started - paused
        finally:
            await plane.close()
        totals = {
            "candidates": stream.candidates_shipped - base[0],
            "replicas": stream.replicas_shipped - base[1],
            "arrivals": stream.arrivals_total - base[2],
            "messages": stream.stats.messages,
            "tuples": stream.stats.tuples_transmitted,
        }
        for _ in range(post):
            start = time.perf_counter()
            spare = await ready()
            setup.append(time.perf_counter() - start)
            await spare.close()
        return setup, ops, elapsed, snapshots, totals

    setup, ops, elapsed, snapshots, totals = asyncio.run(main())
    books.update(totals)
    ledger: Dict[Optional[int], Tuple[int, int]] = {i + 1: (op.messages, op.tuples) for i, op in enumerate(ops)}
    ledger[None] = (
        int(books["messages"]) - sum(op.messages for op in ops),
        int(books["tuples"]) - sum(op.tuples for op in ops),
    )
    return Measurement(setup, elapsed, ops, len(ops) * per_epoch, books, ledger, snapshots)


def stream_check(inputs: Dict[str, Any], meas: Measurement) -> int:
    """Sampled epochs must equal a fresh run over the live windows, bit for bit."""
    wrong = 0
    for index, live, standing in meas.check:
        for query, got in standing:
            want = front_door.distributed_skyline(
                live,
                query.threshold,
                algorithm="edsud",
                preference=query.preference,
                site_config=streaming_site_config(),
            ).answer.members
            if query.limit is not None:
                want = want[: query.limit]
            if [(m.key, m.probability) for m in got.members] != [(m.key, m.probability) for m in want]:  # skylint: ignore[SKY301] the epoch contract is bitwise
                print(f"stream: standing query {query} differs from a fresh run", file=sys.stderr)
                wrong += 1
                meas.ops[index].failed = True
    return wrong


@dataclass(frozen=True)
class Workload:
    name: str
    #: (seed, scale, ops in the run) -> inputs
    inputs: Callable[[int, Dict[str, Any], int], Dict[str, Any]]
    measure: Callable[..., Measurement]
    check: Callable[[Dict[str, Any], Measurement], int]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("oneshot-large", oneshot_inputs, oneshot_measure, oneshot_check),
        Workload("served-anticorr", anticorr_inputs, anticorr_measure, served_check),
        Workload("served-remote", remote_inputs, remote_measure, served_check),
        Workload("stream-sliding", stream_inputs, stream_measure, stream_check),
    )
}

__all__ = ["WORKLOADS", "SCALES", "SETUP_REPS", "run_length"]
