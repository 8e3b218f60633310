"""End-to-end and per-layer benchmark of the ordinal-seasonality CLI.

Each invocation is a fresh ``python -m ordinal_seasonality ...`` process,
as a user runs it, writing its report to a file; the benchmark checks every
report and times the process from spawn to exit.  One client runs
invocations back to back (a closed loop) for ``--seconds``.

    python3 bench/run.py --workload simulate-fgn --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from traced invocations (see tracer.py) alternating with untraced
ones, which give the tracing overhead.  ``--workload all`` runs every
workload in turn.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  Inputs, reports,
spans and a full record of each run (environment included) go under
``.bench_work/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from tracer import paths, self_times
from workloads import WORKLOADS, CheckFailed, prepare

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = Path(".bench_work")  # relative to ROOT, the working directory of every run

SETUP_SAMPLES = 5  # fresh interpreters importing the CLI, per run
INVOKE_TIMEOUT_S = 90.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "PYTHONHASHSEED",
)

# name -> unit; the same names and units as BENCHMARK.json
END_TO_END = {
    "wall_p50_s": "s",
    "wall_tail_s": "s",
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "output_bytes": "bytes",
}
PER_LAYER = {
    "ingest.load_csv.self_s": "s",
    "ingest.rows": "count",
    "ingest.rows_per_s": "1/s",
    "ingest.log_returns.self_s": "s",
    "ingest.calendar_weeks.self_s": "s",
    "ingest.split_subperiods.self_s": "s",
    "patterns.count.self_s": "s",
    "patterns.count.calls": "count",
    "patterns.windows": "count",
    "patterns.family.calls": "count",
    "stats.position_matrix.self_s": "s",
    "stats.position_matrix.calls": "count",
    "stats.tests.self_s": "s",
    "stats.chi2_sf.calls": "count",
    "setup.scipy_special_import_s": "s",
    "fgn.ensemble.self_s": "s",
    "fgn.draws": "count",
    "fgn.hosking_fallbacks": "count",
    "fgn.generate.per_draw_ms": "ms",
    "hurst.estimate.self_s": "s",
    "hurst.window_sizes": "count",
    "cli.report.self_s": "s",
    "cli.dumps.self_s": "s",
    "cli.output_bytes": "bytes",
    "cli.pool.wall_s": "s",
    "cli.pool.workers": "count",
    "cli.pool.tasks": "count",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Invocation:
    wall_s: float
    peak_rss_mb: float
    failure: str | None  # None when the exit code and the report check passed
    spans_path: Path | None = None


class Runner:
    """Starts CLI processes for one workload and checks their reports."""

    def __init__(self, workload, prepared, workdir: Path):
        self.workload = workload
        self.prepared = prepared
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.expected: bytes | None = None  # first report that passed the check
        self.invocations: list[Invocation] = []

    def spawn(self, cmd: list[str]) -> tuple[float, float, int | None]:
        """Run to exit; wall seconds, peak RSS (MB) of its largest process, exit code."""
        with open(self.workdir / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=err, start_new_session=True,
            )
            timed_out = threading.Event()

            def kill():
                timed_out.set()
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

            timer = threading.Timer(INVOKE_TIMEOUT_S, kill)
            timer.start()
            try:
                # wait4 reports the child's peak RSS, folded with that of the
                # pool workers it reaped
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, None if timed_out.is_set() else proc.returncode

    def run(self, argv: list[str], traced: bool | None = None) -> Invocation:
        """One invocation; ``traced`` None runs the plain CLI, else the tracer launcher."""
        out = self.workdir / "report.out"
        out.unlink(missing_ok=True)
        spans = None
        if traced is None:
            cmd = [sys.executable, "-m", "ordinal_seasonality", *argv, "--output", str(out)]
        else:
            spans = self.workdir / f"spans-{len(self.invocations)}.json"
            cmd = [sys.executable, str(BENCH / "tracer.py"), "--out", str(spans)]
            cmd += ([] if traced else ["--no-trace"]) + ["--", *argv, "--output", str(out)]
        wall, rss, code = self.spawn(cmd)
        failure = self._verdict(code, out)
        inv = Invocation(wall, rss, failure, spans)
        self.invocations.append(inv)
        return inv

    def _verdict(self, code: int | None, out: Path) -> str | None:
        if code is None:
            return f"timed out after {INVOKE_TIMEOUT_S:g} s"
        if code != 0:
            tail = (self.workdir / "stderr.txt").read_text(errors="replace").strip().splitlines()[-1:]
            return f"exit code {code}: {' '.join(tail)}"
        if not out.exists():
            return "no report written"
        data = out.read_bytes()
        if self.expected is not None:
            # every report of one seed is deterministic, so equal bytes pass
            return None if data == self.expected else "report differs from the first report of this run"
        try:
            self.workload.check(data, self.prepared)
        except (CheckFailed, KeyError, TypeError, ValueError) as exc:
            return f"check failed: {type(exc).__name__}: {exc}"
        self.expected = data
        return None

    @property
    def failures(self) -> list[str]:
        return [inv.failure for inv in self.invocations if inv.failure]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(walls: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, and which one it is.

    Below 21 samples that percentile would not lie above the median, so the
    tail is the slowest invocation instead.
    """
    xs = sorted(walls)
    n = len(xs)
    if n < 21:
        return xs[-1], f"max of {n} (fewer than 21 samples)"
    return xs[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n} (nearest rank, 10 beyond)"


def end_to_end(runner: Runner, timed: list[Invocation], setup: list[float]) -> tuple[dict, dict]:
    ok = [inv for inv in timed if inv.failure is None]
    walls = [inv.wall_s for inv in (ok or timed)]
    tail_s, tail_label = tail(walls)
    metrics = {
        "wall_p50_s": statistics.median(walls),
        "wall_tail_s": tail_s,
        "items_per_s": runner.prepared.items * len(ok) / sum(walls) if ok else 0.0,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(inv.peak_rss_mb for inv in (ok or timed)),
        "output_bytes": len(runner.expected or b""),
    }
    detail = {
        "samples": len(walls),
        "wall_tail": tail_label,
        "walls_s": walls,
        "setup_samples_s": setup,
        "items_per_invocation": runner.prepared.items,
    }
    return metrics, detail


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer metrics of one traced invocation."""
    spans = doc["spans"]
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def self_s(name):
        return sum(own[s["id"]] for s in by_name[name])

    def total(name, key):
        return sum((s["attrs"] or {}).get(key, 0) for s in by_name[name])

    load_s, rows = self_s("ingest.load_csv"), total("ingest.load_csv", "rows")
    return {
        "ingest.load_csv.self_s": load_s,
        "ingest.rows": rows,
        "ingest.rows_per_s": rows / load_s if load_s else 0.0,
        "ingest.log_returns.self_s": self_s("ingest.log_returns"),
        "ingest.calendar_weeks.self_s": self_s("ingest.calendar_weeks"),
        "ingest.split_subperiods.self_s": self_s("ingest.split_subperiods"),
        "patterns.count.self_s": self_s("patterns.count"),
        "patterns.count.calls": len(by_name["patterns.count"]),
        "patterns.windows": total("patterns.count", "windows"),
        "patterns.family.calls": len(by_name["patterns.family"]),
        "stats.position_matrix.self_s": self_s("stats.position_matrix"),
        "stats.position_matrix.calls": len(by_name["stats.position_matrix"]),
        "stats.tests.self_s": self_s("stats.tests"),
        "stats.chi2_sf.calls": doc["counters"].get("stats.chi2_sf", 0),
        "setup.scipy_special_import_s": doc["scipy_special_import_s"],
        "fgn.ensemble.self_s": self_s("fgn.ensemble"),
        "fgn.draws": total("fgn.ensemble", "draws"),
        "fgn.hosking_fallbacks": total("fgn.ensemble", "hosking"),
        "fgn.generate.per_draw_ms": doc["per_draw_ms"],
        "hurst.estimate.self_s": self_s("hurst.estimate"),
        "hurst.window_sizes": total("hurst.estimate", "window_sizes"),
        "cli.report.self_s": self_s("cli.report"),
        "cli.dumps.self_s": self_s("cli.dumps"),
        "cli.output_bytes": total("cli.dumps", "bytes"),
        "cli.pool.wall_s": sum(s["end"] - s["start"] for s in by_name["cli.pool"]),
        "cli.pool.workers": max((s["attrs"]["workers"] for s in by_name["cli.pool"]), default=0),
        "cli.pool.tasks": total("cli.pool", "tasks"),
        "trace.overhead_ratio": 0.0,  # set from the untraced invocations
    }


def self_time_table(doc: dict) -> list[str]:
    """Self time per call path of one traced invocation, in tree order."""
    own = self_times(doc["spans"])
    rows: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for sid, path in paths(doc["spans"]).items():
        rows[path][0] += 1
        rows[path][1] += own[sid]
    whole = doc["cli_s"]
    lines = [f"{'self time by call path':<58} {'calls':>7} {'self_s':>9} {'share':>7}"]
    for path in sorted(rows):
        calls, secs = rows[path]
        label = "  " * path.count("/") + path.rsplit("/", 1)[-1]
        lines.append(f"{label:<58} {calls:>7} {secs:>9.4f} {secs / whole:>7.1%}")
    for name, count in sorted(doc["counters"].items()):
        lines.append(f"{name + ' (counted)':<58} {count:>7}")
    return lines


def measure_end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Plain CLI invocations back to back for ``seconds``.

    The first invocations are each followed by one set-up sample, so that
    set-up is sampled across the run rather than in one burst.
    """
    import_cli = [sys.executable, "-c", "import ordinal_seasonality.cli"]
    setup: list[float] = []
    timed: list[Invocation] = []
    deadline = time.perf_counter() + seconds
    while not timed or time.perf_counter() < deadline:
        timed.append(runner.run(runner.prepared.argv))
        if len(setup) < SETUP_SAMPLES:
            setup.append(runner.spawn(import_cli)[0])
    while len(setup) < SETUP_SAMPLES:
        setup.append(runner.spawn(import_cli)[0])
    return end_to_end(runner, timed, setup)


def measure_traced(runner: Runner, seconds: float, trace_file: Path) -> tuple[dict, dict]:
    """Traced and untraced launcher invocations in turn for ``seconds``; medians per metric.

    Each pair swaps which of the two runs first, so that neither side
    always follows the other.
    """
    runs: dict[bool, list[Invocation]] = {True: [], False: []}
    deadline = time.perf_counter() + seconds
    while not runs[True] or time.perf_counter() < deadline:
        first = len(runs[True]) % 2 == 0
        for traced in (first, not first):
            runs[traced].append(runner.run(runner.prepared.argv, traced=traced))
    traced, plain = runs[True], runs[False]
    docs = [json.loads(inv.spans_path.read_text()) for inv in traced if inv.failure is None]
    plain_s = [json.loads(inv.spans_path.read_text())["cli_s"] for inv in plain if inv.failure is None]
    per_run = [layer_metrics(doc) for doc in docs]
    metrics = {key: statistics.median(m[key] for m in per_run) if per_run else 0.0 for key in PER_LAYER}
    if docs and plain_s:
        metrics["trace.overhead_ratio"] = statistics.median(d["cli_s"] for d in docs) / statistics.median(plain_s) - 1.0
    detail = {"traced_invocations": len(traced), "untraced_invocations": len(plain)}
    if docs:
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(json.dumps(docs[-1]))
        detail["trace_file"] = str(trace_file)
        detail["self_time_table"] = self_time_table(docs[-1])
    return metrics, detail


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def environment(seed: int) -> dict:
    cpu = next(
        (line.split(":", 1)[1].strip() for line in _read_lines("/proc/cpuinfo") if line.startswith("model name")),
        platform.processor() or None,
    )
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = got.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": commit,
        "seed": seed,
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "loadavg_before": os.getloadavg(),
    }


def _fmt(value: float) -> str:
    return f"{value:.0f}" if float(value).is_integer() else f"{value:.6g}"


def _read_lines(path: str) -> list[str]:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read().splitlines()
    except OSError:
        return []


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Measure one workload; returns the result object and lines to print."""
    env = environment(seed)
    workload = WORKLOADS[name]
    prepared, workdir = prepare(workload, seed, WORK / "inputs")
    runner = Runner(workload, prepared, WORK / "runs" / name)
    runner.workdir.mkdir(parents=True, exist_ok=True)

    reference = workload.reference_argv(prepared)
    if reference is not None:  # untimed; its report is the one the timed runs must equal
        runner.run(reference)

    record: dict = {"workload": name, "why": workload.why, "shape": workload.shape(), "trace": int(trace)}
    record["input"] = {"dir": str(workdir), "rows": prepared.rows, "bytes": prepared.file_bytes}
    if trace:
        metrics, detail = measure_traced(runner, seconds, WORK / "traces" / f"{name}-seed{seed}.json")
        units = PER_LAYER
    else:
        metrics, detail = measure_end_to_end(runner, seconds)
        units = END_TO_END

    env["loadavg_after"] = os.getloadavg()
    attempted = len(runner.invocations)
    failed = len(runner.failures)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    record.update(result=result, detail=detail, failures=runner.failures[:5], environment=env)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))

    lines = [f"== {name} (seed {seed}, {'traced' if trace else 'end to end'}): {workload.why}"]
    lines.append(f"input: {prepared.rows} rows, {prepared.file_bytes} bytes; {prepared.items} items per invocation")
    for key, unit in units.items():
        note = f"  [{detail['wall_tail']}]" if key == "wall_tail_s" else ""
        lines.append(f"  {key:<34} {_fmt(metrics[key]):>16} {unit}{note}")
    lines.append(f"  {'failed_ratio':<34} {failed / attempted:>16.6g} ratio  [{failed} of {attempted} invocations]")
    if not trace:
        lines.append(f"  samples: {detail['samples']} timed invocations, {len(detail['setup_samples_s'])} setup imports")
    lines.extend(detail.get("self_time_table", []))
    lines.extend(f"  FAILED: {f}" for f in runner.failures[:5])
    lines.append(
        f"environment: {env['nproc']} CPUs ({env['cpu_model']}), Python {env['python']}, numpy {env['numpy']}, "
        f"scipy {env['scipy']}, commit {env['git_commit']}, threads {env['thread_env']}, "
        f"load {env['loadavg_before'][0]:.2f} -> {env['loadavg_after'][0]:.2f}"
    )
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)

    if not (ROOT / "src" / "ordinal_seasonality" / "cli.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))

    names = list(WORKLOADS) if opts.workload == "all" else [opts.workload]
    results = {}
    for name in names:
        result, lines = run_workload(name, opts.seed, opts.seconds, bool(opts.trace))
        print("\n".join(lines), flush=True)
        results[name] = result
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
