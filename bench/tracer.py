"""Span recorder for traced CLI runs, and the launcher that installs it.

The recorder wraps the public functions that ``ordinal_seasonality.cli``,
``.fgn`` and ``.stats`` call through their own module namespaces, plus the
process-pool executor they import.  Nothing under ``src/`` changes: the
wrappers replace module attributes in the traced process only.  Every span
has a name, start, end and parent and shares the run id; spans stay in
memory and are written out once the command has finished.  Pool workers
are forked from the traced process, so they inherit the wrappers; each task
ships its spans back with its result.

Run a traced command (``--no-trace`` runs the same launcher without
wrappers, for the overhead comparison)::

    python bench/tracer.py --out spans.json -- analyze --input x.csv --column ret
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
import uuid
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor

_ACTIVE: "Recorder | None" = None  # the recorder of this process, set by install()


class Recorder:
    """In-memory spans and counters of one traced command."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (id, parent, name, start, end, attrs)
        self.counters: Counter = Counter()
        self._stack: list[str | None] = [None]
        self._pid = os.getpid()
        self._next = 0

    def _new_id(self) -> str:
        self._next += 1
        return f"{self._pid}.{self._next}"

    def open(self, name: str) -> tuple:
        sid = self._new_id()
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent, name, time.perf_counter()

    def close(self, handle: tuple, attrs: dict | None = None) -> None:
        end = time.perf_counter()
        sid, parent, name, start = handle
        self._stack.remove(sid)
        self.spans.append((sid, parent, name, start, end, attrs))

    def start_task(self, parent: str) -> None:
        """Reset for one pool task in a forked worker: its spans hang under ``parent``."""
        self.spans = []
        self.counters = Counter()
        self._stack = [parent]
        self._pid = os.getpid()

    def merge(self, spans: list[tuple], counters: dict) -> None:
        self.spans.extend(spans)
        self.counters.update(counters)

    def as_records(self) -> list[dict]:
        return [
            {"id": s[0], "parent": s[1], "name": s[2], "start": s[3], "end": s[4], "run": self.run_id, "attrs": s[5]}
            for s in self.spans
        ]


def _wrap(rec: Recorder, fn, name: str, attrs=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        handle = rec.open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            rec.close(handle, attrs(args, result) if attrs and result is not None else None)

    return traced


def _count(rec: Recorder, fn, name: str):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        rec.counters[name] += 1
        return fn(*args, **kwargs)

    return counted


def _traced_task(job):
    """Runs in a pool worker: one task with its spans and counters returned."""
    fn, parent, args = job
    _ACTIVE.start_task(parent)
    result = fn(*args)
    return result, _ACTIVE.spans, dict(_ACTIVE.counters)


class TracedExecutor:
    """The ``with``/``map`` surface of ProcessPoolExecutor, recorded as ``cli.pool``."""

    def __init__(self, *args, **kwargs):
        self._pool = ProcessPoolExecutor(*args, **kwargs)
        self._handle = _ACTIVE.open("cli.pool")
        self._attrs = {"workers": self._pool._max_workers, "tasks": 0}

    def __enter__(self):
        self._pool.__enter__()
        return self

    def __exit__(self, *exc):
        try:
            return self._pool.__exit__(*exc)
        finally:
            _ACTIVE.close(self._handle, self._attrs)

    def map(self, fn, *iterables, chunksize=1):
        jobs = [(fn, self._handle[0], args) for args in zip(*iterables)]
        self._attrs["tasks"] += len(jobs)
        results = self._pool.map(_traced_task, jobs, chunksize=chunksize)

        def collect():
            for result, spans, counters in results:
                _ACTIVE.merge(spans, counters)
                yield result

        return collect()


def _ensemble_attrs(args, report):
    cfg = args[0]
    return {
        "draws": cfg.replications,
        "hosking": int(report.generator == "hosking"),
        "hurst": cfg.base.hurst,
        "length": cfg.base.length,
    }


# (namespace module, attribute) -> (span name, attrs from (args, result))
SPANS = {
    ("cli", "load_csv"): ("ingest.load_csv", lambda a, r: {"rows": len(r)}),
    ("cli", "log_returns"): ("ingest.log_returns", None),
    ("cli", "calendar_weeks"): ("ingest.calendar_weeks", None),
    ("cli", "split_subperiods"): ("ingest.split_subperiods", None),
    ("cli", "count_patterns"): ("patterns.count", lambda a, r: {"windows": r.windows}),
    ("cli", "count_windows"): ("patterns.count", lambda a, r: {"windows": r.windows}),
    ("cli", "pattern_family"): ("patterns.family", None),
    ("cli", "position_matrix"): ("stats.position_matrix", None),
    ("cli", "test_h1_pattern_uniformity"): ("stats.tests", None),
    ("cli", "test_h2_day_rows"): ("stats.tests", None),
    ("cli", "test_h3_position_columns"): ("stats.tests", None),
    ("cli", "test_h4_monday_largest"): ("stats.tests", None),
    ("cli", "test_h5_monday_worst_friday_best"): ("stats.tests", None),
    ("cli", "estimate_hurst"): ("hurst.estimate", lambda a, r: {"window_sizes": len(r.window_sizes)}),
    ("cli", "run_ensemble"): ("fgn.ensemble", _ensemble_attrs),
    ("cli", "dumps"): ("cli.dumps", lambda a, r: {"bytes": len(r.encode())}),
    ("cli", "to_flat_csv"): ("cli.dumps", lambda a, r: {"bytes": len(r.encode())}),
    ("fgn", "count_patterns"): ("patterns.count", lambda a, r: {"windows": r.windows}),
    ("fgn", "pattern_family"): ("patterns.family", None),
    ("fgn", "position_matrix"): ("stats.position_matrix", None),
    ("fgn", "test_h1_pattern_uniformity"): ("stats.tests", None),
    ("fgn", "test_h4_monday_largest"): ("stats.tests", None),
    ("fgn", "test_h5_monday_worst_friday_best"): ("stats.tests", None),
    ("fgn", "chi2_statistic"): ("stats.tests", None),
    ("fgn", "binomial_test"): ("stats.tests", None),
    ("stats", "pattern_family"): ("patterns.family", None),
}
# counted, not timed: too small and too frequent for a span each
COUNTERS = {("stats", "chi2_sf"): "stats.chi2_sf", ("fgn", "chi2_sf"): "stats.chi2_sf"}
EXECUTORS = ("cli", "fgn")
DRAWS_PER_SHAPE = 20  # fgn_generate calls timed per (H, length) the command simulated


def install(rec: Recorder) -> None:
    """Replace the traced names in the cli, fgn and stats namespaces."""
    global _ACTIVE
    from ordinal_seasonality import cli, fgn, stats

    modules = {"cli": cli, "fgn": fgn, "stats": stats}
    _ACTIVE = rec
    for (mod, attr), (name, attrs) in SPANS.items():
        setattr(modules[mod], attr, _wrap(rec, getattr(modules[mod], attr), name, attrs))
    for (mod, attr), name in COUNTERS.items():
        setattr(modules[mod], attr, _count(rec, getattr(modules[mod], attr), name))
    for mod in EXECUTORS:
        modules[mod].ProcessPoolExecutor = TracedExecutor


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the part of it that its child spans cover.

    Children may overlap (pool tasks run in parallel); the covered part is
    the union of their intervals, so self time is never negative.
    """
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - covered_length(children[s["id"]], s["start"], s["end"])
        for s in spans
    }


def paths(spans: list[dict]) -> dict[str, str]:
    """Span id -> slash-joined names from the root down to the span."""
    by_id = {s["id"]: s for s in spans}
    out: dict[str, str] = {}

    def path(sid):
        if sid not in out:
            s = by_id[sid]
            parent = s["parent"]
            out[sid] = s["name"] if parent not in by_id else f"{path(parent)}/{s['name']}"
        return out[sid]

    for sid in by_id:
        path(sid)
    return out


# ---------------------------------------------------------------------------
# launcher
# ---------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="where to write spans and timings (JSON)")
    parser.add_argument("--no-trace", action="store_true", help="time the command without wrappers")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args

    t0 = time.perf_counter()
    import scipy.special  # noqa: F401  (the package's heaviest import, timed on its own)

    scipy_s = time.perf_counter() - t0
    from ordinal_seasonality import cli

    rec = Recorder(uuid.uuid4().hex)
    if not opts.no_trace:
        install(rec)
    handle = rec.open("cli.report")
    code = cli.main(cli_args)
    rec.close(handle)
    cli_s = rec.spans[-1][4] - rec.spans[-1][3]

    # after the command, so it is outside every span: the public sampler alone
    per_draw_ms = 0.0
    shapes = {(s[5]["hurst"], s[5]["length"]) for s in rec.spans if s[2] == "fgn.ensemble" and s[5]}
    if shapes:
        from ordinal_seasonality.fgn import FgnConfig, fgn_generate

        t0 = time.perf_counter()
        for h, n in sorted(shapes):
            for i in range(DRAWS_PER_SHAPE):
                fgn_generate(FgnConfig(hurst=h, length=n, seed=i))
        per_draw_ms = (time.perf_counter() - t0) * 1000.0 / (DRAWS_PER_SHAPE * len(shapes))

    with open(opts.out, "w", encoding="utf-8") as handle_out:
        json.dump(
            {
                "run_id": rec.run_id,
                "exit_code": code,
                "cli_s": cli_s,
                "scipy_special_import_s": scipy_s,
                "per_draw_ms": per_draw_ms,
                "counters": dict(rec.counters),
                "spans": rec.as_records() if not opts.no_trace else [],
            },
            handle_out,
        )
    return code


if __name__ == "__main__":
    import tracer  # run from the module, so pool tasks pickle as tracer._traced_task

    sys.exit(tracer.main(sys.argv[1:]))
