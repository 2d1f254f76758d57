"""The repository benchmark: one workload per invocation.

Run from the root of a checkout::

    python3 perfbench/run.py --workload served-anticorr --seed 1 --seconds 15 --trace 0

``--trace 0`` measures and prints every end-to-end metric.  ``--trace 1``
runs one pass of the workload untraced and the same pass again with every
layer's public methods wrapped in spans, then prints every per-layer
metric and the tracing overhead.  Either way the outputs are checked, the
full record is written under ``.perfbench/`` and the last line of standard
output is::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every check passed and no op failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

from common import HELD_OUT_SEED, ROOT, provenance
from layers import install
from report import end_to_end, per_layer
from tracer import Tracer

SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

#: ``served-remote`` runs on demand; BENCHMARK.json leaves it out (see README.md).
WORKLOAD_NAMES = ("oneshot-large", "served-anticorr", "served-remote", "stream-sliding")


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Measure one workload; returns the result line and the full record."""
    # Imported here: it imports the program, which main() checks is present.
    from workloads import SCALES, SETUP_REPS, WORKLOADS, run_length

    chosen = WORKLOADS[workload]
    sizes = SCALES[workload][scale]
    count = run_length(sizes, seconds)
    inputs = chosen.inputs(seed, sizes, count)
    record: Dict[str, Any] = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace), "scale": scale}
    problems: List[str] = []
    tracer: Optional[Tracer] = None
    if not trace:
        meas = chosen.measure(inputs, count, SETUP_REPS)
    else:
        # One pass untraced, then the same pass traced: the gap is the
        # tracing overhead.
        untraced = chosen.measure(inputs, sizes["pass"], 1)
        tracer = Tracer()
        install(tracer)
        try:
            meas = chosen.measure(inputs, sizes["pass"], 1, tracer)
        finally:
            tracer.uninstall()
    wrong = chosen.check(inputs, meas)
    if trace:
        assert tracer is not None
        metrics, detail, problems = per_layer(tracer, tracer.roots["bench.run"], meas, untraced)
    else:
        metrics, detail = end_to_end(meas)
    failed = sum(1 for op in meas.ops if op.failed)
    record.update(
        provenance=provenance(),
        detail=detail,
        wrong_answers=wrong,
        problems=problems,
        metrics=metrics,
    )
    out = os.path.join(ROOT, ".perfbench")
    os.makedirs(out, exist_ok=True)
    stem = os.path.join(out, f"{workload}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=2, default=str)
    if tracer is not None:
        tracer.dump(stem + ".spans.jsonl")
    result = {
        "correct": wrong == 0 and not problems,
        "attempted": len(meas.ops),
        "failed": failed,
        "metrics": metrics,
    }
    return result, record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True, help=f"workload seed; {HELD_OUT_SEED} is held out for confirming claims")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{args.workload:16s} {name:28s} {metric['value']:>14.6g} {metric['unit']}")
    for problem in record["problems"]:
        print(f"RECONCILIATION FAILED: {problem}")
    print(json.dumps({k: record[k] for k in ("provenance", "detail", "wrong_answers")}, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
