"""Admission control, backpressure, and per-tenant bandwidth budgets."""

from __future__ import annotations

import asyncio
import types
from typing import Any, Awaitable, Generator, List, Tuple

import pytest

from repro.serve import (
    AdmissionPolicy,
    AdmissionRejected,
    QuerySpec,
    SessionState,
    SkylineService,
    TenantLedger,
)

from ..conftest import make_random_database

SITES = 3
DB = make_random_database(90, 2, seed=17, grid=8)
PARTITIONS = [DB[i::SITES] for i in range(SITES)]
SPEC = QuerySpec(threshold=0.4)


# ----------------------------------------------------------------------
# AdmissionPolicy / TenantLedger units


def test_admission_policy_validates_its_limits():
    with pytest.raises(ValueError):
        AdmissionPolicy(max_inflight=0)
    with pytest.raises(ValueError):
        AdmissionPolicy(max_queued=-1)


def test_tenant_ledger_meters_only_listed_tenants():
    ledger = TenantLedger({"metered": 100.0})
    assert ledger.within_budget("anonymous")  # unmetered: infinite budget
    assert ledger.charge("anonymous", 1e9)
    assert ledger.remaining("anonymous") is None
    assert ledger.charge("metered", 60.0)
    assert ledger.remaining("metered") == 40.0
    assert not ledger.charge("metered", 60.0)  # over: charge lands, gate trips
    assert ledger.spent["metered"] == 120.0
    assert not ledger.within_budget("metered")


def test_tenant_ledger_budgets_can_be_raised_and_lifted():
    ledger = TenantLedger({"t": 10.0})
    ledger.charge("t", 15.0)
    assert not ledger.within_budget("t")
    ledger.set_budget("t", 100.0)
    assert ledger.within_budget("t")
    ledger.set_budget("t", None)
    assert ledger.remaining("t") is None


# ----------------------------------------------------------------------
# concurrency caps and queue backpressure


def test_inflight_never_exceeds_the_admission_cap():
    async def drive() -> int:
        policy = AdmissionPolicy(max_inflight=2, max_queued=16)
        peak = 0
        async with SkylineService(PARTITIONS, policy=policy) as service:
            for _ in range(6):
                await service.submit(SPEC)
            while service.queue_depth or service.inflight:
                peak = max(peak, service.inflight)
                await asyncio.sleep(0)
            assert len(service.finished) == 6
        return peak

    peak = asyncio.run(drive())
    assert 1 <= peak <= 2


def test_full_queue_rejects_when_asked_not_to_wait():
    async def drive() -> None:
        policy = AdmissionPolicy(max_inflight=1, max_queued=1)
        async with SkylineService(PARTITIONS, policy=policy) as service:
            # The scheduler has not run yet: the first submit fills the
            # only queue slot, so an impatient second submit sheds.
            await service.submit(SPEC)
            with pytest.raises(AdmissionRejected, match="queue full"):
                await service.submit(SPEC, wait=False)
            await service.drain()

    asyncio.run(drive())


def test_full_queue_blocks_then_admits_when_asked_to_wait():
    async def drive() -> List[SessionState]:
        policy = AdmissionPolicy(max_inflight=1, max_queued=1)
        async with SkylineService(PARTITIONS, policy=policy) as service:
            sessions = []
            for _ in range(4):  # 4 queries through a 1-deep queue
                sessions.append(await service.submit(SPEC, wait=True))
            await service.drain()
        return [s.state for s in sessions]

    states = asyncio.run(drive())
    assert states == [SessionState.FINISHED] * 4


@types.coroutine
def _counting_suspensions(awaitable: Awaitable[Any], box: List[int]) -> Generator[Any, Any, Any]:
    """Await ``awaitable``, counting each time it suspends to the loop."""
    inner = awaitable.__await__()
    sent = None
    while True:
        try:
            yielded = inner.send(sent)
        except StopIteration as stop:
            return stop.value
        box[0] += 1
        sent = yield yielded


def test_drain_sleeps_instead_of_polling():
    async def drive() -> Tuple[int, int, List[SessionState]]:
        policy = AdmissionPolicy(max_inflight=2, max_queued=8)
        async with SkylineService(PARTITIONS, policy=policy) as service:
            sessions = [
                await service.submit(QuerySpec(threshold=0.2, algorithm=algorithm))
                for algorithm in ("dsud", "edsud", "dsud")
            ]
            wakeups = [0]
            await _counting_suspensions(service.drain(), wakeups)
            assert not service.queue_depth and not service.inflight
        return wakeups[0], service.passes, [s.state for s in sessions]

    wakeups, passes, states = asyncio.run(drive())
    assert states == [SessionState.FINISHED] * 3
    # Many scheduling passes, one wait: a sleep(0) poll would suspend
    # at least once per pass.
    assert passes >= 10
    assert wakeups <= 2


def test_submitting_to_a_stopped_service_is_an_error():
    async def drive() -> None:
        service = SkylineService(PARTITIONS)
        with pytest.raises(RuntimeError, match="not started"):
            await service.submit(SPEC)

    asyncio.run(drive())


def test_close_finishes_inflight_work_first():
    async def drive() -> List[SessionState]:
        service = SkylineService(PARTITIONS)
        async with service:
            sessions = [await service.submit(SPEC) for _ in range(3)]
        # __aexit__ drains before stopping: nothing left half-run.
        return [s.state for s in sessions]

    assert asyncio.run(drive()) == [SessionState.FINISHED] * 3


# ----------------------------------------------------------------------
# tenant budgets


def test_over_budget_tenant_is_aborted_and_then_rejected():
    async def drive() -> None:
        async with SkylineService(
            PARTITIONS, tenant_budgets={"metered": 40.0}
        ) as service:
            metered = QuerySpec(threshold=0.3, tenant="metered")
            sessions = [await service.submit(metered) for _ in range(4)]
            await service.drain()
            states = {s.state for s in sessions}
            # The budget is far below four runs' bandwidth: at least one
            # session was cut off mid-flight at a step boundary.
            assert SessionState.ABORTED in states
            aborted = [s for s in sessions if s.state is SessionState.ABORTED]
            assert all("budget" in (s.abort_reason or "") for s in aborted)
            assert service.ledger.spent["metered"] >= 40.0
            # ... and new submissions shed at the door.
            with pytest.raises(AdmissionRejected, match="budget"):
                await service.submit(metered)
            # Raising the budget reopens admission.
            service.ledger.set_budget("metered", 1e9)
            reopened = await service.submit(metered)
            await service.drain()
            assert reopened.state is SessionState.FINISHED

    asyncio.run(drive())


def test_budgets_are_per_tenant_not_global():
    async def drive() -> None:
        async with SkylineService(
            PARTITIONS, tenant_budgets={"capped": 1.0}
        ) as service:
            capped = await service.submit(QuerySpec(threshold=0.4, tenant="capped"))
            free = await service.submit(QuerySpec(threshold=0.4, tenant="free"))
            await service.drain()
            assert capped.state is SessionState.ABORTED
            assert free.state is SessionState.FINISHED

    asyncio.run(drive())


def test_aborted_sessions_release_their_coordinator():
    async def drive() -> None:
        async with SkylineService(
            PARTITIONS, tenant_budgets={"capped": 1.0}
        ) as service:
            session = await service.submit(QuerySpec(threshold=0.3, tenant="capped"))
            await service.drain()
            assert session.state is SessionState.ABORTED
            # The abort closed the stepping generator, which runs the
            # coordinator's finally: close() — no half-open pools.
            assert session.result is None
            assert session.latency is not None

    asyncio.run(drive())
