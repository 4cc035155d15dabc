"""The layout of the committed benchmark records, `BENCH_*.json` at the root:
the seven keys, a claim that names a workload and an end-to-end metric of
`BENCHMARK.json`, and summaries whose pair counts match the runs listed."""

import json
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
KEYS = {"what", "command", "machine", "pairs", "claim", "summary", "runs"}
SIDES = ("parent", "new")  # the parent commit and the change


def benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_layout(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert set(record) == KEYS
    spec = benchmark()
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"]}
    workload, metric = record["claim"].split()
    assert workload in workloads and metric in metrics
    assert workload in record["summary"]
    runs = Counter((run["workload"], run["side"]) for run in record["runs"])
    assert {side for _, side in runs} <= set(SIDES)
    for name, summary in record["summary"].items():
        assert name in workloads
        assert set(summary) <= metrics
        for stats in summary.values():
            assert stats["pairs"] == runs[name, "parent"] == runs[name, "new"]
