"""Shared measurement helpers: percentiles, memory, provenance, op records."""

from __future__ import annotations

import contextlib
import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

#: The root of the checkout the benchmark runs in.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Seed reserved for confirming a claimed gain; never tune on it.
HELD_OUT_SEED = 9173
#: Samples a tail percentile must have beyond it.
TAIL_BEYOND = 10
#: Ops per block.  Tails are taken per block of consecutive ops and the
#: median over blocks is reported, so the tail stays at the 95th
#: percentile however long a run is, and a stretch of host contention
#: moves one block's tail instead of the run's.
BLOCK = 200


def tail_percentile(values: Sequence[float], beyond: int = TAIL_BEYOND) -> Tuple[float, float, int]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(percentile, value, samples)``.  With ``n`` samples sorted
    ascending, that is the sample of rank ``n - beyond`` (1-based),
    i.e. the ``100 * (n - beyond) / n`` th percentile by nearest rank.
    Raises ``ValueError`` when fewer than ``beyond + 1`` samples exist.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(f"a tail needs more than {beyond} samples, got {n}")
    rank = n - beyond
    return 100.0 * rank / n, sorted(values)[rank - 1], n


def blocks(values: Sequence[float], size: int = BLOCK) -> List[Sequence[float]]:
    """``values`` cut into consecutive blocks of ``size``.

    The remainder joins the last block; fewer than two blocks' worth is
    one block.
    """
    count = max(1, len(values) // size)
    return [values[i * size : (i + 1) * size if i < count - 1 else len(values)] for i in range(count)]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def provenance() -> Dict[str, Any]:
    """Where a result came from: source, machine, interpreter."""
    import numpy

    try:
        # The ceiling keeps git from reporting an enclosing repository
        # when the checkout itself is not one.
        sha: Optional[str] = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "argv": sys.argv[1:],
    }


@dataclass
class Op:
    """One unit of work: a query, or for the stream workload an epoch."""

    latency: float
    notify: float
    first: Optional[float] = None
    tuples: int = 0
    messages: int = 0
    uplink: int = 0
    failed: bool = False
    #: What the output check compares (a RunResult, a session, ...).
    payload: Any = None


@dataclass
class Measurement:
    """One set-up-then-measure pass of a workload."""

    setup_s: List[float]
    elapsed: float
    ops: List[Op]
    arrivals: int
    #: Workload-specific books the per-layer report reads.
    books: Dict[str, float] = field(default_factory=dict)
    #: (messages, tuples) each query's NetworkStats booked, by query id.
    ledger: Dict[Optional[int], Tuple[int, int]] = field(default_factory=dict)
    #: Work the output check needs (references, snapshots, sessions).
    check: Any = None


def region(tracer: Any, name: str) -> Any:
    """The tracer's region of that name, or nothing when not tracing."""
    return contextlib.nullcontext() if tracer is None else tracer.region(name)


@contextlib.contextmanager
def first_result_probe() -> Iterator[None]:
    """Stamp the wall-clock moment each query reports its first result.

    Wraps ``ProgressLog.report``, which every progressive coordinator
    calls once per emitted result; the first call's ``perf_counter`` is
    kept on the log as ``perfbench_first_at``.
    """
    from repro.net.stats import ProgressLog

    original = ProgressLog.__dict__["report"]

    def report(self: Any, key: int, probability: float, stats: Any) -> None:
        if "perfbench_first_at" not in self.__dict__:
            self.__dict__["perfbench_first_at"] = time.perf_counter()
        original(self, key, probability, stats)

    ProgressLog.report = report  # type: ignore[method-assign]
    try:
        yield
    finally:
        ProgressLog.report = original  # type: ignore[method-assign]


def first_result_at(progress: Any) -> Optional[float]:
    return progress.__dict__.get("perfbench_first_at")
