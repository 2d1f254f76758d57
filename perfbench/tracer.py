"""In-memory span tracing from outside the program.

The benchmark never edits ``src/``: it measures each layer by wrapping
the layer's public methods for the duration of a traced run and
restoring them afterwards.  Every wrapped call records one span (name,
start, end, parent, query id); counts ride on the span (``n``).  Spans
stay in memory and are written out when the run ends.

Parents follow a context variable, so spans opened inside asyncio tasks
nest under the span that was current when the task was created.  A task
created long before (the service scheduler starts during set-up) would
inherit a span that has since closed; such spans fall back to the root
of the region being traced.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["Span", "Tracer", "self_times", "blocking_path"]


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    query: Optional[int]
    #: Work done inside the call (targets probed, candidates found, ...).
    n: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> Dict[str, Any]:
        return {
            "id": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "query": self.query,
            "n": self.n,
        }


Counter = Callable[[Tuple[Any, ...], Dict[str, Any], Any], int]


class Tracer:
    """Records spans around patched callables; restores them on ``uninstall``."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: Dict[int, Span] = {}
        self._current: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._query: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
            "perfbench_query", default=None
        )
        self._region: Optional[int] = None
        #: The latest span of each region name (``bench.setup``, ``bench.run``).
        self.roots: Dict[str, Span] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        #: Messages and tuples seen by ``NetworkStats.record``, per query id.
        self.books: Dict[Optional[int], List[int]] = {}

    # ------------------------------------------------------------------
    # span bookkeeping
    # ------------------------------------------------------------------

    def begin(self, name: str) -> Tuple[Span, "contextvars.Token[Optional[int]]"]:
        parent = self._current.get()
        if parent not in self._open:
            parent = self._region
        span = Span(
            sid=len(self.spans) + 1,
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=parent,
            query=self._query.get(),
        )
        self.spans.append(span)
        self._open[span.sid] = span
        return span, self._current.set(span.sid)

    def finish(self, span: Span, token: "contextvars.Token[Optional[int]]") -> None:
        span.end = time.perf_counter()
        self._open.pop(span.sid, None)
        self._current.reset(token)

    def region(self, name: str) -> "_Region":
        """A root span that every span opened meanwhile falls under."""
        return _Region(self, name)

    def query(self, query_id: int) -> "contextvars.Token[Optional[int]]":
        return self._query.set(query_id)

    def end_query(self, token: "contextvars.Token[Optional[int]]") -> None:
        self._query.reset(token)

    def _in_same_span(self, name: str) -> bool:
        current = self._open.get(self._current.get() or 0)
        return current is not None and current.name == name

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        count: Optional[Counter] = None,
        query: Optional[Callable[[Any], int]] = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``.

        A call made while a span of the same name is already current
        (``probe_and_prune`` calling ``probe``) is folded into that span,
        so calls and work are counted once.  ``query`` maps the call's
        first argument to the query id the call and its children carry.
        """
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        tracer = self

        if inspect.iscoroutinefunction(func):

            @functools.wraps(func)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                if tracer._in_same_span(name):
                    return await func(*args, **kwargs)
                qtoken = tracer.query(query(args[0])) if query is not None else None
                span, token = tracer.begin(name)
                try:
                    result = await func(*args, **kwargs)
                finally:
                    tracer.finish(span, token)
                    if qtoken is not None:
                        tracer.end_query(qtoken)
                if count is not None:
                    span.n = count(args, kwargs, result)
                return result

            wrapper: Any = async_wrapper
        else:

            @functools.wraps(func)
            def sync_wrapper(*args: Any, **kwargs: Any) -> Any:
                if tracer._in_same_span(name):
                    return func(*args, **kwargs)
                span, token = tracer.begin(name)
                try:
                    result = func(*args, **kwargs)
                finally:
                    tracer.finish(span, token)
                if count is not None:
                    span.n = count(args, kwargs, result)
                return result

            wrapper = sync_wrapper
        self._set(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def wrap_steps(self, owner: Any, attr: str, name: str) -> None:
        """Record one span per item drawn from a (sync or async) generator."""
        func = owner.__dict__[attr]
        tracer = self

        if inspect.isasyncgenfunction(func):

            @functools.wraps(func)
            async def agen_wrapper(*args: Any, **kwargs: Any) -> Any:
                inner = func(*args, **kwargs)
                try:
                    while True:
                        span, token = tracer.begin(name)
                        try:
                            await inner.__anext__()
                        except StopAsyncIteration:
                            return
                        finally:
                            tracer.finish(span, token)
                        yield
                finally:
                    await inner.aclose()

            self._set(owner, attr, agen_wrapper)
            return

        @functools.wraps(func)
        def gen_wrapper(*args: Any, **kwargs: Any) -> Any:
            inner = func(*args, **kwargs)
            try:
                while True:
                    span, token = tracer.begin(name)
                    try:
                        next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.finish(span, token)
                    yield
            finally:
                inner.close()

        self._set(owner, attr, gen_wrapper)

    def count_books(self, owner: Any, attr: str = "record") -> None:
        """Count what ``NetworkStats.record`` books, per query id, spanless."""
        func = owner.__dict__[attr]
        tracer = self

        @functools.wraps(func)
        def record(stats: Any, message: Any) -> None:
            book = tracer.books.setdefault(tracer._query.get(), [0, 0])
            book[0] += 1
            book[1] += message.tuple_count or 0
            func(stats, message)

        self._set(owner, attr, record)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")


class _Region:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        tracer = self.tracer
        span, self._token = tracer.begin(self.name)
        span.parent = None
        self._outer = tracer._region
        tracer._region = span.sid
        tracer.roots[self.name] = span
        self.span = span
        return span

    def __exit__(self, *exc: object) -> None:
        assert self.span is not None
        self.tracer.finish(self.span, self._token)
        self.tracer._region = self._outer


def _children(spans: Iterable[Span]) -> Dict[Optional[int], List[Span]]:
    kids: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        kids.setdefault(span.parent, []).append(span)
    return kids


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children that overlap each other (sessions stepping concurrently,
    broadcasts fanned out to a thread pool) are counted once: the union
    of their intervals is subtracted, not their sum.
    """
    kids = _children(spans)
    out: Dict[int, float] = {}
    for span in spans:
        intervals = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in kids.get(span.sid, ())
        ]
        out[span.sid] = span.duration - _covered([i for i in intervals if i[1] > i[0]])
    return out


def blocking_path(spans: List[Span], root: Span) -> Tuple[Dict[str, float], float]:
    """Self time per span name along what blocks ``root``.

    Walking back from a span's end, the blocking child is the one that
    ends last; before its start, the one that ends last before that, and
    so on.  A child that overlaps one already chosen ran beside it: only
    its part before the chosen child's start counts, so concurrent work
    is never counted twice.  Every instant of ``root`` is attributed to
    exactly one span, so the values sum to ``root.duration``; a child
    that does not lie inside its parent shows as a negative self time,
    the lowest of which is returned beside the totals.
    """
    kids = _children(spans)
    out: Dict[str, float] = {}
    lowest = 0.0
    stack = [(root, root.end)]
    while stack:
        span, end = stack.pop()
        cursor = end
        busy = 0.0
        for child in sorted(kids.get(span.sid, ()), key=lambda c: c.end, reverse=True):
            if child.start >= cursor:
                continue
            child_end = min(child.end, cursor)
            busy += child_end - child.start
            stack.append((child, child_end))
            cursor = child.start
        own = (end - span.start) - busy
        out[span.name] = out.get(span.name, 0.0) + own
        lowest = min(lowest, own)
    return out, lowest
