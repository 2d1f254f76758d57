"""The benchmark's own tests: helpers, declarations, and a tiny run of each workload.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import re

import pytest
from common import ROOT, blocks, tail_percentile
from report import END_TO_END, PER_LAYER
from run import WORKLOAD_NAMES, run
from tracer import Span, blocking_path, self_times

NAME = re.compile(r"[A-Za-z0-9_.-]+")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    DECLARED = json.load(fh)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    values = [float(v) for v in range(1, 101)]
    percentile, value, samples = tail_percentile(values[::-1])
    assert (percentile, value, samples) == (90.0, 90.0, 100)
    assert sum(1 for v in values if v > value) == 10
    percentile, value, _ = tail_percentile(values[:11])
    assert sum(1 for v in values[:11] if v > value) == 10
    assert percentile == pytest.approx(100 / 11)


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 10)


def test_blocks_fold_the_remainder_into_the_last_block():
    assert [len(b) for b in blocks(list(range(650)))] == [200, 200, 250]
    assert [len(b) for b in blocks(list(range(399)))] == [399]
    assert [len(b) for b in blocks(list(range(5)))] == [5]


def test_self_time_subtracts_overlapping_children_once():
    root = Span(1, "bench.run", 0.0, 10.0, None, None)
    spans = [
        root,
        Span(2, "serve.step", 1.0, 6.0, 1, None),
        Span(3, "serve.step", 4.0, 9.0, 1, None),
        Span(4, "site.probe", 2.0, 3.0, 2, None),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(4.0)
    path, lowest = blocking_path(spans, root)
    assert lowest == 0.0
    # The later step blocks from 4 to 9; only 1..4 of the earlier one counts.
    assert path["serve.step"] == pytest.approx(5.0 + 2.0)
    assert path["site.probe"] == pytest.approx(1.0)
    assert sum(path.values()) == pytest.approx(root.duration)


def test_declarations_match_benchmark_json():
    assert DECLARED["workloads"] and {w["name"] for w in DECLARED["workloads"]} <= set(WORKLOAD_NAMES)
    declared = [(m["name"], m["unit"]) for m in DECLARED["end_to_end"]]
    assert declared == END_TO_END
    assert [(m["name"], m["unit"]) for m in DECLARED["per_layer"]] == PER_LAYER
    names = [name for name, _ in END_TO_END + PER_LAYER] + list(WORKLOAD_NAMES)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in DECLARED["end_to_end"])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_passes_its_checks_and_emits_every_metric(workload, trace):
    result, record = run(workload, seed=3, seconds=0.3, trace=trace, scale="tiny")
    assert result["correct"], record["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 11
    declared = PER_LAYER if trace else END_TO_END
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == declared
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
