"""Workloads of the CLI benchmark: seeded inputs, command lines and output checks.

Every workload is a fixed shape; the benchmark seed changes only the
generated values.  Inputs are built from the bundled NYSE fixture and
numpy, outside any timed region, and cached per (workload, shape, seed).
Each workload knows the exact answer its report must contain, computed by
code of the benchmark's own (``recount``), not by the package under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import zlib
from dataclasses import asdict, dataclass, field
from itertools import permutations
from pathlib import Path

import numpy as np

# weeks in the bundled NYSE fixture series (2,710 five-day blocks)
FIXTURE_WEEKS = 2710
# bump when a builder changes what it writes, so cached inputs are rebuilt
BUILDER_VERSION = 1
# input directories kept per workload; the 1M-row price CSV is about 38 MB
CACHE_KEEP = 2


class CheckFailed(Exception):
    """A report does not hold what the workload's oracle says it must."""


@dataclass
class Prepared:
    """Inputs of one (workload, seed): the CLI arguments and what to expect."""

    argv: list[str]  # CLI arguments, without --output
    items: int  # returns (analyze) or replications per invocation
    rows: int  # data rows written to input files
    file_bytes: int  # bytes of input files
    oracle: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# independent pattern arithmetic
# ---------------------------------------------------------------------------


def pattern_table(order: int) -> list[tuple[int, ...]]:
    """All patterns in id order: ids are the 1-based lexicographic rank."""
    return sorted(permutations(range(order)))


def recount(windows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pattern histogram and day-by-position matrix of tie-free windows.

    Pattern ids come from a lookup in the enumerated permutation table, not
    from the package's Lehmer ranking.
    """
    n, order = windows.shape
    digits = np.argsort(windows, axis=1)
    index = {perm: k for k, perm in enumerate(pattern_table(order))}
    ids = np.fromiter((index[tuple(row)] for row in digits.tolist()), dtype=np.int64, count=n)
    hist = np.bincount(ids, minlength=math.factorial(order))
    matrix = np.zeros((order, order), dtype=np.int64)
    np.add.at(matrix, (digits, np.broadcast_to(np.arange(order), digits.shape)), 1)
    return hist, matrix


def _fixture_weeks() -> np.ndarray:
    """The bundled NYSE series as (2710, 5) weeks of evenly spaced levels."""
    from ordinal_seasonality.fixtures import nyse_fixture_distribution, series_from_distribution

    weeks = series_from_distribution(nyse_fixture_distribution()).values.reshape(-1, 5)
    if weeks.shape[0] != FIXTURE_WEEKS:
        raise RuntimeError(f"fixture has {weeks.shape[0]} weeks, expected {FIXTURE_WEEKS}")
    return weeks


def _nyse_like_returns(rng: np.random.Generator, weeks: int) -> np.ndarray:
    """Continuous returns whose week patterns are the fixture's, weeks permuted.

    Each week gets five sorted Student-t(3) draws placed by the fixture week's
    ranks, so the series has the NYSE pattern mix and no ties.
    """
    fixture = _fixture_weeks()
    order = np.argsort(fixture, axis=1)
    draws = np.sort(rng.standard_t(3, size=(FIXTURE_WEEKS, 5)) * 0.01, axis=1)
    out = np.empty_like(draws)
    np.put_along_axis(out, order, draws, axis=1)
    return out[rng.permutation(FIXTURE_WEEKS)[:weeks]].ravel()


def _write_csv(path: Path, header: str, columns: list[list[str]]) -> tuple[int, int]:
    lines = [header] + [",".join(cells) for cells in zip(*columns)]
    text = "\n".join(lines) + "\n"
    path.write_text(text, encoding="ascii")
    return len(lines) - 1, len(text)


def _floats(values: np.ndarray) -> list[str]:
    return [repr(x) for x in values.tolist()]  # shortest round-trip text


def _load_report(data: bytes) -> dict:
    try:
        return json.loads(data)
    except ValueError as exc:
        raise CheckFailed(f"report is not JSON: {exc}") from None


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _check_section(section: dict, hist: np.ndarray, matrix: np.ndarray, what: str) -> None:
    order = matrix.shape[0]
    table = pattern_table(order)
    counts = section["pattern_counts"]
    _expect(len(counts) == len(table), f"{what}: {len(counts)} pattern rows, want {len(table)}")
    for k, (row, perm) in enumerate(zip(counts, table)):
        _expect(row["id"] == k + 1, f"{what}: pattern row {k} has id {row['id']}")
        if row["pattern"] != "".join(map(str, perm)) or row["count"] != hist[k]:
            raise CheckFailed(
                f"{what}: pattern {k + 1} reported {row['pattern']}={row['count']}, "
                f"recount {''.join(map(str, perm))}={hist[k]}"
            )
    _expect(section["weeks"] == int(hist.sum()), f"{what}: weeks {section['weeks']} != {hist.sum()}")
    rows = section["position_matrix"]["rows"]
    got = np.array([r["counts"] for r in rows], dtype=np.int64)
    _expect(np.array_equal(got, matrix), f"{what}: day-by-position matrix differs from the recount")
    for test in section["tests"].values():
        _expect(0.0 <= test["p_value"] <= 1.0, f"{what}: p-value {test['p_value']} outside [0, 1]")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """One CLI command line at a fixed shape; subclasses build and check."""

    name: str
    why: str

    def shape(self) -> dict:
        return {k: v for k, v in vars(self).items() if not k.startswith("_")}

    def build(self, rng: np.random.Generator, workdir: Path) -> Prepared:
        raise NotImplementedError

    def check(self, data: bytes, prepared: Prepared) -> None:
        raise NotImplementedError

    def reference_argv(self, prepared: Prepared) -> list[str] | None:
        """An untimed command whose report the timed ones must equal byte for byte."""
        return None


class AnalyzeCalendar(Workload):
    name = "analyze-calendar-1m"
    why = "ingest-bound: 1M dated prices from CSV, calendar weeks, 5 subperiods and Hurst; patterns and stats run as one bulk call each"

    def __init__(self, parts: tuple[int, ...] = (15, 15, 15, 15, 14)):
        self.parts = tuple(parts)  # fixture tiles per subperiod

    def build(self, rng, workdir):
        tiles = sum(self.parts)
        weeks = _fixture_weeks()
        blocks = [weeks[rng.permutation(FIXTURE_WEEKS)] * rng.uniform(0.5, 2.0) for _ in range(tiles)]
        returns = np.concatenate(blocks).ravel()
        log_prices = math.log(rng.uniform(50.0, 500.0)) + np.concatenate([[0.0], np.cumsum(returns)])
        # a Friday price, then Monday..Friday weeks with no holidays
        days = np.arange(5) + 7 * np.arange(returns.size // 5)[:, None]
        dates = np.concatenate([[np.datetime64("1899-12-29")], np.datetime64("1900-01-01") + days.ravel()])
        volume = rng.integers(100_000, 10_000_000, size=dates.size)
        path = workdir / "prices.csv"
        rows, size = _write_csv(
            path,
            "date,close,volume",
            [np.datetime_as_string(dates).tolist(), _floats(np.exp(log_prices)), [str(v) for v in volume.tolist()]],
        )
        hist, matrix = recount(weeks)
        lengths = [k * FIXTURE_WEEKS * 5 for k in self.parts]
        return Prepared(
            argv=[
                "analyze", "--input", str(path), "--price-column", "close", "--date-column", "date",
                "--weeks", "calendar", "--subperiods", ",".join(map(str, lengths)), "--hurst",
            ],
            items=int(returns.size),
            rows=rows,
            file_bytes=size,
            oracle={"tile_hist": hist.tolist(), "tile_matrix": matrix.tolist(), "lengths": lengths},
        )

    def check(self, data, prepared):
        doc = _load_report(data)
        sections = doc["sections"]
        _expect(len(sections) == len(self.parts), f"{len(sections)} sections, want {len(self.parts)}")
        _expect(doc["input"]["points"] == prepared.items, f"input points {doc['input']['points']}")
        tile_hist = np.asarray(prepared.oracle["tile_hist"])
        tile_matrix = np.asarray(prepared.oracle["tile_matrix"])
        for i, (section, tiles) in enumerate(zip(sections, self.parts)):
            what = f"section {i + 1}"
            _expect(section["points"] == prepared.oracle["lengths"][i], f"{what}: points {section['points']}")
            _expect(section["skipped_weeks"] == 0, f"{what}: skipped_weeks {section['skipped_weeks']}")
            _check_section(section, tiles * tile_hist, tiles * tile_matrix, what)
            _expect(math.isfinite(section["hurst"]["h"]), f"{what}: Hurst estimate not finite")


class SimulateFgn(Workload):
    name = "simulate-fgn"
    why = "fGn generation and 600 small pattern and stats calls in one process: the replication engine with no ingest and no pool"

    def __init__(self, hursts: tuple[float, ...] = (0.1, 0.5, 0.9), length: int = 10_000, reps: int = 200):
        self.hursts = tuple(hursts)
        self.length = length
        self.reps = reps

    def build(self, rng, workdir):
        return Prepared(
            argv=[
                "simulate", "--hurst", ",".join(map(str, self.hursts)), "--length", str(self.length),
                "--reps", str(self.reps), "--seed", str(int(rng.integers(0, 2**31))), "--jobs", "1",
            ],
            items=self.reps * len(self.hursts),
            rows=0,
            file_bytes=0,
        )

    def check(self, data, prepared):
        doc = _load_report(data)
        rows = doc["rows"]
        _expect([r["hurst"] for r in rows] == list(self.hursts), "rows do not follow the --hurst list")
        for row in rows:
            what = f"H={row['hurst']}"
            _expect(row["weeks"] == self.length // 5, f"{what}: weeks {row['weeks']}")
            _expect(row["generator"] == "circulant", f"{what}: generator {row['generator']}")
            for agg in [row["h1"], *row["h2"], *row["h3"], row["h4"], row["h5"]]:
                p = agg["averaged"]["p_value"]
                rej = agg["rejections"]
                _expect(0.0 <= p <= 1.0, f"{what}: p-value {p} outside [0, 1]")
                _expect(
                    0 <= rej["at_01"] <= rej["at_05"] <= rej["at_10"] <= self.reps,
                    f"{what}: rejection counts {rej} not nested within {self.reps}",
                )


class ShufflePool(Workload):
    name = "shuffle-pool"
    why = "the paper's surrogate experiment, the only workload through the process pool (--jobs 2 on 2 cores), 0.44 MB of output"

    def __init__(self, weeks: int = FIXTURE_WEEKS, reps: int = 1000, jobs: int = 2):
        self.weeks = weeks
        self.reps = reps
        self.jobs = jobs

    def build(self, rng, workdir):
        returns = _nyse_like_returns(rng, self.weeks)
        path = workdir / "returns.csv"
        rows, size = _write_csv(path, "ret", [_floats(returns)])
        seed = int(rng.integers(0, 2**31))
        return Prepared(
            argv=[
                "shuffle", "--input", str(path), "--column", "ret",
                "--reps", str(self.reps), "--seed", str(seed), "--jobs", str(self.jobs),
            ],
            items=self.reps,
            rows=rows,
            file_bytes=size,
        )

    def reference_argv(self, prepared):
        argv = list(prepared.argv)
        argv[argv.index("--jobs") + 1] = "1"
        return argv

    def check(self, data, prepared):
        doc = _load_report(data)
        reps = doc["per_replication"]
        _expect(len(reps) == self.reps, f"{len(reps)} replications, want {self.reps}")
        _expect([r["replication"] for r in reps] == list(range(self.reps)), "replications out of order")
        alpha = doc["config"]["alpha"]
        agg = doc["aggregate"]

        def levels(ps):
            return {"at_10": sum(p < 0.10 for p in ps), "at_05": sum(p < 0.05 for p in ps), "at_01": sum(p < 0.01 for p in ps)}

        for key in ("h1", "h4", "h5"):
            ps = [r[f"{key}_p"] for r in reps]
            _expect(all(0.0 <= p <= 1.0 for p in ps), f"{key}: p-value outside [0, 1]")
            _expect(agg[key]["rejections"] == levels(ps), f"{key}: aggregate {agg[key]['rejections']} != recount {levels(ps)}")
            rate = sum(p < alpha for p in ps) / self.reps
            _expect(agg[key]["rate_at_alpha"] == rate, f"{key}: rate {agg[key]['rate_at_alpha']} != {rate}")
            _expect(
                all(r[f"{key}_reject"] == (r[f"{key}_p"] < alpha) for r in reps),
                f"{key}: per-replication decision disagrees with its p-value",
            )
        for key, flags in (("h2_days", "h2_reject_days"), ("h3_positions", "h3_reject_positions")):
            for i, entry in enumerate(agg[key]):
                at_alpha = sum(r[flags][i] for r in reps)
                _expect(entry["rejections"]["at_05"] == at_alpha, f"{key}[{i}]: at_05 != recount {at_alpha}")


class AnalyzeOrder8(Workload):
    name = "analyze-order8"
    why = "sparse order-8 histogram (1.7k windows over 40,320 patterns): report building and 4 MB of JSON dominate, ingest is small"

    def __init__(self, points: int = 13_550, order: int = 8):
        self.points = points
        self.order = order

    def build(self, rng, workdir):
        returns = rng.standard_t(4, size=self.points) * 0.01
        path = workdir / "returns.csv"
        rows, size = _write_csv(path, "ret", [_floats(returns)])
        windows = returns[: self.points // self.order * self.order].reshape(-1, self.order)
        _expect(np.all(np.diff(np.sort(windows, axis=1), axis=1) > 0), "generated windows contain ties")
        hist, matrix = recount(windows)
        nonzero = np.flatnonzero(hist)
        return Prepared(
            argv=["analyze", "--input", str(path), "--column", "ret", "--d", str(self.order)],
            items=self.points,
            rows=rows,
            file_bytes=size,
            oracle={"ids": nonzero.tolist(), "counts": hist[nonzero].tolist(), "matrix": matrix.tolist()},
        )

    def check(self, data, prepared):
        doc = _load_report(data)
        (section,) = doc["sections"]
        hist = np.zeros(math.factorial(self.order), dtype=np.int64)
        hist[prepared.oracle["ids"]] = prepared.oracle["counts"]
        _expect(section["dropped_points"] == self.points % self.order, f"dropped {section['dropped_points']}")
        _check_section(section, hist, np.asarray(prepared.oracle["matrix"]), "section 1")


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (AnalyzeCalendar(), SimulateFgn(), ShufflePool(), AnalyzeOrder8())
}


# ---------------------------------------------------------------------------
# cached inputs
# ---------------------------------------------------------------------------


def prepare(workload: Workload, seed: int, cache_root: Path) -> tuple[Prepared, Path]:
    """Inputs for (workload, seed), built once and reused; returns them and their directory."""
    key = json.dumps([BUILDER_VERSION, workload.name, workload.shape(), seed], sort_keys=True)
    digest = hashlib.sha256(key.encode()).hexdigest()[:12]
    base = cache_root / workload.name
    workdir = base / f"seed{seed}-{digest}"
    meta = workdir / "prepared.json"
    if meta.exists():
        meta.touch()
        return Prepared(**json.loads(meta.read_text())), workdir
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
    prepared = workload.build(rng, workdir)
    meta.write_text(json.dumps(asdict(prepared)))
    _evict(base, keep=CACHE_KEEP)
    return prepared, workdir


def _evict(base: Path, keep: int) -> None:
    entries = [p for p in base.iterdir() if (p / "prepared.json").exists()]
    entries.sort(key=lambda p: (p / "prepared.json").stat().st_mtime, reverse=True)
    for stale in entries[keep:]:
        shutil.rmtree(stale)
