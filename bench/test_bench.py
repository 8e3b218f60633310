"""Self-tests of the benchmark: tiny workload shapes pass their checks, broken
reports fail them, and the tracer's self-time arithmetic holds for nested spans.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    AnalyzeCalendar,
    AnalyzeOrder8,
    CheckFailed,
    ShufflePool,
    SimulateFgn,
    prepare,
    recount,
)

TINY = {
    "analyze-calendar-1m": AnalyzeCalendar(parts=(1, 2)),
    "simulate-fgn": SimulateFgn(hursts=(0.3, 0.7), length=500, reps=4),
    "shuffle-pool": ShufflePool(weeks=300, reps=12, jobs=2),
    "analyze-order8": AnalyzeOrder8(points=3000, order=6),
}


def _span(sid, parent, start, end, name="x"):
    return {"id": sid, "parent": parent, "name": name, "start": start, "end": end, "attrs": None}


def test_self_time_of_nested_and_overlapping_spans():
    spans = [
        _span("root", None, 0.0, 10.0),
        _span("a", "root", 1.0, 4.0),
        _span("b", "root", 3.0, 6.0),  # overlaps a, as parallel pool tasks do
        _span("c", "a", 2.0, 3.0),
        _span("d", "root", 8.0, 12.0),  # ends after its parent: clipped
    ]
    own = tracer.self_times(spans)
    assert own == pytest.approx({"root": 3.0, "a": 2.0, "b": 3.0, "c": 1.0, "d": 4.0})


def test_recorder_links_nested_calls_and_self_times_add_up():
    rec = tracer.Recorder("run-1")
    inner = tracer._wrap(rec, lambda: sum(range(20_000)), "inner")
    outer = tracer._wrap(rec, lambda: [inner() for _ in range(3)], "outer")
    handle = rec.open("root")
    outer()
    rec.close(handle)
    spans = rec.as_records()
    by_name = {s["name"]: s for s in spans}
    assert {s["run"] for s in spans} == {"run-1"}
    assert by_name["outer"]["parent"] == by_name["root"]["id"]
    assert [s["parent"] for s in spans if s["name"] == "inner"] == [by_name["outer"]["id"]] * 3
    own = tracer.self_times(spans)
    root = by_name["root"]
    assert sum(own.values()) == pytest.approx(root["end"] - root["start"], rel=1e-9)
    assert tracer.paths(spans)[spans[0]["id"]] == "root/outer/inner"


def test_recount_matches_enumerated_ranks():
    windows = np.array([[0.3, 0.1, 0.2], [1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
    hist, matrix = recount(windows)
    # digit strings 120, 012, 210 are ids 4, 1 and 6 of order 3
    assert hist.tolist() == [1, 0, 0, 1, 0, 1]
    # rows are days, columns rank positions from worst to best
    assert matrix.tolist() == [[1, 0, 2], [1, 2, 0], [1, 1, 1]]


def test_tail_is_never_below_the_median():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, "max of 3 (fewer than 21 samples)")
    value, label = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and label.startswith("p75.0 of 40")


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {n: w.why for n, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_workload_passes_its_checks_and_a_broken_report_fails(name, tmp_path):
    workload = TINY[name]
    prepared, _ = prepare(workload, 3, tmp_path / "inputs")
    again, _ = prepare(workload, 3, tmp_path / "inputs")
    assert again == prepared  # cached per (workload, seed)
    runner = run.Runner(workload, prepared, tmp_path / "run")
    runner.workdir.mkdir()
    reference = workload.reference_argv(prepared)
    if reference is not None:
        assert runner.run(reference).failure is None
    first = runner.run(prepared.argv)
    assert first.failure is None and first.wall_s > 0 and first.peak_rss_mb > 0
    assert runner.run(prepared.argv).failure is None  # equal bytes on a repeat

    doc = json.loads(runner.expected)
    _break(name, doc)
    with pytest.raises((CheckFailed, KeyError)):
        workload.check(json.dumps(doc).encode(), prepared)


def _break(name: str, doc: dict) -> None:
    """Alter one number that the workload's check must notice."""
    if name == "simulate-fgn":
        doc["rows"][0]["h2"][1]["rejections"]["at_01"] = 99
    elif name == "shuffle-pool":
        doc["aggregate"]["h1"]["rejections"]["at_10"] += 1
    else:
        doc["sections"][-1]["pattern_counts"][7]["count"] += 1


def test_traced_tiny_shuffle_records_pool_tasks_under_the_pool(tmp_path):
    workload = TINY["shuffle-pool"]
    prepared, _ = prepare(workload, 5, tmp_path / "inputs")
    runner = run.Runner(workload, prepared, tmp_path / "run")
    runner.workdir.mkdir()
    inv = runner.run(prepared.argv, traced=True)
    assert inv.failure is None
    doc = json.loads(inv.spans_path.read_text())
    metrics = run.layer_metrics(doc)
    assert metrics["cli.pool.tasks"] == workload.reps and metrics["cli.pool.workers"] == 2
    assert metrics["patterns.count.calls"] == workload.reps
    assert metrics["stats.chi2_sf.calls"] == workload.reps * 11
    paths = set(tracer.paths(doc["spans"]).values())
    assert "cli.report/cli.pool/patterns.count" in paths
    assert "cli.report/cli.pool/stats.tests/patterns.family" in paths
    assert {s["run"] for s in doc["spans"]} == {doc["run_id"]}


def test_traced_tiny_simulate_counts_draws_and_times_generation(tmp_path):
    workload = TINY["simulate-fgn"]
    prepared, _ = prepare(workload, 5, tmp_path / "inputs")
    runner = run.Runner(workload, prepared, tmp_path / "run")
    runner.workdir.mkdir()
    inv = runner.run(prepared.argv, traced=True)
    assert inv.failure is None
    metrics = run.layer_metrics(json.loads(inv.spans_path.read_text()))
    assert metrics["fgn.draws"] == 8 and metrics["fgn.hosking_fallbacks"] == 0
    assert metrics["patterns.count.calls"] == 8 and metrics["fgn.generate.per_draw_ms"] > 0


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    got = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "simulate-fgn", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert got.returncode != 0 and got.stdout == ""
