"""Command-line interface: analyze, simulate, shuffle, patterns, hurst.

Reports are emitted as JSON (canonical: stable key order, every float
with at least five decimal places) or as flat CSV.  All randomness flows
from an explicit ``--seed``; ``simulate`` and ``shuffle`` refuse to run
without one.  The ``ORDINAL_SEASONALITY_LOG`` environment variable sets
the diagnostic log level (DEBUG, INFO, WARNING, ...).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import traceback
from functools import partial
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateSeriesError,
    InvalidInputError,
    OrderError,
    RejectedRowError,
    SchemaError,
)
from .fgn import (
    EnsembleConfig,
    FgnConfig,
    run_ensemble,
    run_replications,
    shuffle_replication,
    tally_rejections,
)
from .hurst import HurstEstimate, HurstMethod, estimate_hurst
from .ingest import (
    ReturnSeries,
    SubperiodSpec,
    calendar_weeks,
    load_csv,
    log_returns,
    split_subperiods,
)
from .patterns import (
    PatternDistribution,
    PatternFamily,
    count_patterns,
    count_windows,
    pattern_family,
    pattern_strings,
)
from .stats import (
    EXPECTED_FREQUENCY_FLOOR,
    TestOutcome,
    position_matrix,
    test_h1_pattern_uniformity,
    test_h2_day_rows,
    test_h3_position_columns,
    test_h4_monday_largest,
    test_h5_monday_worst_friday_best,
)

log = logging.getLogger(__name__)

_INPUT_ERRORS = (
    InvalidInputError,
    SchemaError,
    OrderError,
    RejectedRowError,
    DegenerateSeriesError,
    OSError,  # missing, unreadable or directory paths, corrupt gzip
    UnicodeDecodeError,
)


# ---------------------------------------------------------------------------
# serialization: canonical JSON and flat CSV
# ---------------------------------------------------------------------------


def format_float(x: float) -> str:
    """Shortest round-trip decimal, padded to at least five decimal places."""
    if not math.isfinite(x):
        raise ValueError("non-finite floats must be mapped to null before serialization")
    text = repr(float(x))
    if "e" in text or "E" in text:
        return text
    if "." in text and len(text.split(".", 1)[1]) >= 5:
        return text
    return f"{float(x):.5f}"


def _emit_json(obj, out: list[str], pad: str, indent: str) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        out.append("null" if not math.isfinite(x) else format_float(x))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        inner = pad + indent
        for i, (key, value) in enumerate(obj.items()):
            out.append(f"{inner}{json.dumps(str(key))}: ")
            _emit_json(value, out, inner, indent)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            out.append("[]")
            return
        out.append("[\n")
        inner = pad + indent
        for i, value in enumerate(obj):
            out.append(inner)
            _emit_json(value, out, inner, indent)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj) -> str:
    """Canonical JSON: insertion-ordered keys, >= 5 decimals on floats."""
    out: list[str] = []
    _emit_json(obj, out, "", "  ")
    out.append("\n")
    return "".join(out)


def _csv_scalar(value) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, (float, np.floating)):
        return format_float(float(value)) if math.isfinite(float(value)) else ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    text = str(value)
    if any(ch in text for ch in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def flatten_for_csv(obj, prefix: str = "") -> list[tuple[str, str]]:
    """Depth-first (key path, scalar) rows of a report document."""
    rows: list[tuple[str, str]] = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            rows.extend(flatten_for_csv(value, path))
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            rows.extend(flatten_for_csv(value, f"{prefix}[{i}]"))
    else:
        rows.append((prefix, _csv_scalar(obj)))
    return rows


def to_flat_csv(doc: dict) -> str:
    lines = ["key,value"]
    for path, value in flatten_for_csv(doc):
        lines.append(f"{_csv_scalar(path)},{value}")
    return "\n".join(lines) + "\n"


def _outcome_dict(outcome: TestOutcome, alpha: float) -> dict:
    statistic = outcome.statistic if math.isfinite(outcome.statistic) else None
    doc = {
        "statistic": statistic,
        "df": outcome.df,
        "p_value": outcome.p_value,
        "stars": outcome.stars(),
        "reject_10": outcome.reject_10,
        "reject_05": outcome.reject_05,
        "reject_01": outcome.reject_01,
        "reject_at_alpha": bool(outcome.p_value < alpha),
    }
    doc.update({k: v for k, v in outcome.observed.items() if k not in doc})
    return doc


# ---------------------------------------------------------------------------
# shared input handling
# ---------------------------------------------------------------------------


def _load_series(args) -> ReturnSeries:
    if (args.column is None) == (args.price_column is None):
        raise InvalidInputError("exactly one of --column and --price-column is required")
    series = load_csv(
        args.input,
        date_column=args.date_column,
        price_column=args.price_column,
        return_column=args.column,
    )
    if args.price_column is not None:
        series = log_returns(series)
    return series


def _input_meta(args, series: ReturnSeries) -> dict:
    return {
        "path": str(args.input),
        "label": series.label,
        "points": len(series),
        "column_kind": "price" if args.price_column else "return",
        "dated": series.dates is not None,
    }


def _write_output(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _analyze_distribution(part: ReturnSeries, args) -> tuple[PatternDistribution, int | None]:
    if args.weeks == "calendar":
        grouped = calendar_weeks(part)
        if grouped.windows.shape[0] == 0:
            raise InvalidInputError(f"{part.label}: no complete Monday-Friday weeks")
        dist = count_windows(grouped.windows, label=part.label)
        return dist, grouped.skipped_weeks
    stride = args.stride if args.stride is not None else args.d
    return count_patterns(part, order=args.d, stride=stride), None


def _analyze_section(part: ReturnSeries, args) -> dict:
    dist, skipped_weeks = _analyze_distribution(part, args)
    matrix = position_matrix(dist)
    alpha = args.alpha

    h1 = test_h1_pattern_uniformity(dist)
    rows = test_h2_day_rows(matrix)
    columns = test_h3_position_columns(matrix)
    _log_section_decisions(part.label, dist, [h1, *rows, *columns])

    section = {
        "label": part.label,
        "points": len(part),
        "order": dist.order,
        "weeks": dist.windows,
        "dropped_points": dist.dropped_points,
        "skipped_weeks": skipped_weeks,
        "ties": {
            "windows_with_ties": dist.ties_observed,
            "fraction": dist.ties_observed / dist.windows if dist.windows else 0.0,
        },
        "pattern_counts": [
            {"id": k + 1, "pattern": p, "count": c}
            for k, (p, c) in enumerate(zip(pattern_strings(dist.order), dist.counts.tolist()))
        ],
        "position_matrix": {
            "weeks": dist.windows,
            "rows": [
                {
                    "day": i,
                    "counts": matrix[i, :].tolist(),
                    **_outcome_dict(rows[i], alpha),
                }
                for i in range(dist.order)
            ],
            "columns": [
                {"position": j, **_outcome_dict(columns[j], alpha)}
                for j in range(dist.order)
            ],
        },
        "tests": {
            "h1_pattern_uniformity": _outcome_dict(h1, alpha),
        },
    }
    if dist.order >= 3:
        section["tests"]["h4_monday_largest"] = _outcome_dict(test_h4_monday_largest(dist), alpha)
        section["tests"]["h5_monday_worst_friday_best"] = _outcome_dict(
            test_h5_monday_worst_friday_best(dist), alpha
        )
    if args.hurst:
        estimate = estimate_hurst(part, method=HurstMethod(args.method))
        section["hurst"] = _hurst_dict(estimate)
    return section


def _log_section_decisions(label: str, dist: PatternDistribution, chi_outcomes) -> None:
    """Log the tie and low-expected-frequency decisions that the section reports."""
    if dist.ties_observed:
        log.info(
            "%s: %d of %d windows hold tied values; the earlier day ranks lower",
            label,
            dist.ties_observed,
            dist.windows,
        )
    low = sum(outcome.observed["low_expected_frequency"] for outcome in chi_outcomes)
    if low:
        log.info(
            "%s: %d of %d chi-squared tests expect fewer than %g counts per cell",
            label,
            low,
            len(chi_outcomes),
            EXPECTED_FREQUENCY_FLOOR,
        )


def cmd_analyze(args) -> int:
    if args.weeks == "calendar" and args.d != 5:
        raise InvalidInputError("calendar week partitioning is defined for --d 5")
    if args.weeks == "calendar" and args.stride is not None:
        raise InvalidInputError("--stride applies to --weeks block, not to calendar weeks")
    series = _load_series(args)
    if args.subperiods:
        parts = split_subperiods(series, SubperiodSpec(tuple(args.subperiods)))
    else:
        parts = [series]
    doc = {
        "command": "analyze",
        "input": _input_meta(args, series),
        "weeks_mode": args.weeks,
        "alpha": args.alpha,
        "sections": [_analyze_section(part, args) for part in parts],
    }
    _write_output(dumps(doc) if args.format == "json" else to_flat_csv(doc), args.output)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _rejections_dict(rej) -> dict:
    return {"at_10": rej.at_10, "at_05": rej.at_05, "at_01": rej.at_01}


def _chi_aggregate_dict(agg, alpha: float) -> dict:
    return {
        "averaged": _outcome_dict(agg.averaged, alpha),
        "rejections": _rejections_dict(agg.rejections),
    }


def _binomial_aggregate_dict(agg, alpha: float) -> dict:
    return {
        "expected_frequency": agg.expected_frequency,
        "mean_observed_frequency": agg.mean_observed_frequency,
        "averaged": _outcome_dict(agg.averaged, alpha),
        "rejections": _rejections_dict(agg.rejections),
        "replications_above_expected": agg.replications_above_expected,
    }


def simulation_row(report, alpha: float) -> dict:
    return {
        "hurst": report.hurst,
        "weeks": report.weeks_per_replication,
        "generator": report.generator,
        "z_weeks": report.weeks_per_replication,
        "h1": _chi_aggregate_dict(report.h1, alpha),
        "h2": [_chi_aggregate_dict(a, alpha) for a in report.h2],
        "h3": [_chi_aggregate_dict(a, alpha) for a in report.h3],
        "h4": _binomial_aggregate_dict(report.h4, alpha),
        "h5": _binomial_aggregate_dict(report.h5, alpha),
    }


def cmd_simulate(args) -> int:
    rows = []
    for hurst in args.hurst:
        cfg = EnsembleConfig(
            base=FgnConfig(hurst=hurst, length=args.length),
            replications=args.reps,
            master_seed=args.seed,
        )
        report = run_ensemble(cfg, jobs=args.jobs)
        mean_frequency = report.h1.averaged.observed["mean_expected_frequency"]
        if mean_frequency < EXPECTED_FREQUENCY_FLOOR:
            log.info(
                "H=%g: mean expected pattern frequency %.2f is below %g",
                hurst,
                mean_frequency,
                EXPECTED_FREQUENCY_FLOOR,
            )
        rows.append(simulation_row(report, args.alpha))
    doc = {
        "command": "simulate",
        "config": {
            "length": args.length,
            "replications": args.reps,
            "seed": args.seed,
            "alpha": args.alpha,
        },
        "rows": rows,
    }
    _write_output(dumps(doc) if args.format == "json" else to_flat_csv(doc), args.output)
    return 0


# ---------------------------------------------------------------------------
# shuffle
# ---------------------------------------------------------------------------


def _rate_dict(p_values: np.ndarray, rejections, alpha: float) -> dict | None:
    """Aggregate of one test over the replications; None where the test does not apply."""
    if np.isnan(p_values[0]):
        return None
    return {
        "rejections": _rejections_dict(rejections),
        "rate_at_alpha": int((p_values < alpha).sum()) / float(p_values.size),
    }


def cmd_shuffle(args) -> int:
    series = _load_series(args)
    order = args.d
    if len(series) < order:
        raise InvalidInputError("series shorter than one window")

    replicate = partial(shuffle_replication, series.values, order, args.seed)
    _, p_values = run_replications(replicate, args.reps, args.jobs)
    rejections = tally_rejections(p_values)
    h2 = slice(1, 1 + order)
    h3 = slice(1 + order, 1 + 2 * order)

    alpha = args.alpha
    per_replication = [
        {
            "replication": index,
            "h1_p": ps[0],
            "h1_reject": ps[0] < alpha,
            "h2_reject_days": [p < alpha for p in ps[h2]],
            "h3_reject_positions": [p < alpha for p in ps[h3]],
            "h4_p": ps[-2],
            "h4_reject": None if ps[-2] is None else ps[-2] < alpha,
            "h5_p": ps[-1],
            "h5_reject": None if ps[-1] is None else ps[-1] < alpha,
        }
        for index, ps in enumerate(
            [None if math.isnan(p) else p for p in row] for row in p_values.tolist()
        )
    ]

    doc = {
        "command": "shuffle",
        "input": _input_meta(args, series),
        "config": {"replications": args.reps, "seed": args.seed, "order": order, "alpha": alpha},
        "aggregate": {
            "h1": _rate_dict(p_values[:, 0], rejections[0], alpha),
            "h2_days": [{"rejections": _rejections_dict(r)} for r in rejections[h2]],
            "h3_positions": [{"rejections": _rejections_dict(r)} for r in rejections[h3]],
            "h4": _rate_dict(p_values[:, -2], rejections[-2], alpha),
            "h5": _rate_dict(p_values[:, -1], rejections[-1], alpha),
        },
        "per_replication": per_replication,
    }
    _write_output(dumps(doc) if args.format == "json" else to_flat_csv(doc), args.output)
    return 0


# ---------------------------------------------------------------------------
# patterns
# ---------------------------------------------------------------------------


def cmd_patterns(args) -> int:
    ids = None
    if args.family:
        ids = pattern_family(PatternFamily(args.family), args.d)
    listing = [
        {"id": k + 1, "pattern": p}
        for k, p in enumerate(pattern_strings(args.d))
        if ids is None or (k + 1) in ids
    ]
    if args.format == "json":
        doc = {"command": "patterns", "order": args.d, "family": args.family, "patterns": listing}
        _write_output(dumps(doc), args.output)
    else:
        lines = [f"{entry['id']},{entry['pattern']}" for entry in listing]
        _write_output("\n".join(lines) + "\n", args.output)
    return 0


# ---------------------------------------------------------------------------
# hurst
# ---------------------------------------------------------------------------


def _hurst_dict(estimate: HurstEstimate) -> dict:
    return {
        "h": estimate.h,
        "method": estimate.method.value,
        "r_squared": estimate.r_squared,
        "window_sizes": list(estimate.window_sizes),
        "fit_points": [[a, b] for a, b in estimate.fit_points],
    }


def cmd_hurst(args) -> int:
    series = _load_series(args)
    estimate = estimate_hurst(series, method=HurstMethod(args.method))
    doc = {
        "command": "hurst",
        "input": _input_meta(args, series),
        "estimate": _hurst_dict(estimate),
    }
    _write_output(dumps(doc) if args.format == "json" else to_flat_csv(doc), args.output)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _hurst_list(text: str) -> list[float]:
    values = []
    for token in text.split(","):
        try:
            h = float(token)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {token!r}") from None
        if not 0.0 < h < 1.0:
            raise argparse.ArgumentTypeError(f"hurst exponent {h} outside (0, 1)")
        values.append(h)
    if not values:
        raise argparse.ArgumentTypeError("empty hurst list")
    return values


def _subperiod_list(text: str) -> list[int]:
    try:
        lengths = [int(token) for token in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from None
    if any(n < 1 for n in lengths):
        raise argparse.ArgumentTypeError("subperiod lengths must be positive")
    return lengths


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def _alpha(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"alpha {value} outside (0, 1)")
    return value


def _add_input_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", required=True, help="CSV file (.gz accepted)")
    sub.add_argument("--column", help="name of the return column")
    sub.add_argument("--price-column", help="name of the price column (log returns are derived)")
    sub.add_argument("--date-column", help="name of the date column (ISO dates)")


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--output", help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordinal-seasonality",
        description="Detect day-of-the-week seasonality in return series via ordinal patterns.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser("analyze", help="full seasonality report for a return series")
    _add_input_flags(analyze)
    analyze.add_argument("--weeks", choices=("block", "calendar"), default="block")
    analyze.add_argument("--d", type=int, default=5, help="pattern order (window length)")
    analyze.add_argument("--stride", type=int, default=None, help="window stride (default: --d)")
    analyze.add_argument("--subperiods", type=_subperiod_list, default=None)
    analyze.add_argument("--hurst", action="store_true", help="include a Hurst estimate per section")
    analyze.add_argument("--method", choices=("rs", "dfa"), default="rs")
    analyze.add_argument("--alpha", type=_alpha, default=0.05)
    _add_output_flags(analyze)
    analyze.set_defaults(func=cmd_analyze)

    simulate = commands.add_parser("simulate", help="Monte-Carlo experiment on fractional noise")
    simulate.add_argument("--hurst", type=_hurst_list, required=True, help="comma-separated H values")
    simulate.add_argument("--length", type=int, required=True)
    simulate.add_argument("--reps", type=int, required=True)
    simulate.add_argument("--seed", type=_seed, required=True)
    simulate.add_argument("--jobs", type=int, default=1)
    simulate.add_argument("--alpha", type=_alpha, default=0.05)
    _add_output_flags(simulate)
    simulate.set_defaults(func=cmd_simulate)

    shuffle = commands.add_parser("shuffle", help="seasonality tests on shuffled surrogates")
    _add_input_flags(shuffle)
    shuffle.add_argument("--d", type=int, default=5)
    shuffle.add_argument("--reps", type=int, required=True)
    shuffle.add_argument("--seed", type=_seed, required=True)
    shuffle.add_argument("--jobs", type=int, default=1)
    shuffle.add_argument("--alpha", type=_alpha, default=0.05)
    _add_output_flags(shuffle)
    shuffle.set_defaults(func=cmd_shuffle)

    patterns_cmd = commands.add_parser("patterns", help="dump the pattern id table")
    patterns_cmd.add_argument("--d", type=int, default=5)
    patterns_cmd.add_argument(
        "--family",
        choices=tuple(f.value for f in PatternFamily),
        default=None,
    )
    patterns_cmd.add_argument("--format", choices=("json", "csv"), default="csv")
    patterns_cmd.add_argument("--output", help="write the table here instead of stdout")
    patterns_cmd.set_defaults(func=cmd_patterns)

    hurst_cmd = commands.add_parser("hurst", help="estimate the Hurst exponent of a series")
    _add_input_flags(hurst_cmd)
    hurst_cmd.add_argument("--method", choices=("rs", "dfa"), default="rs")
    _add_output_flags(hurst_cmd)
    hurst_cmd.set_defaults(func=cmd_hurst)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    level = logging.getLevelName(os.environ.get("ORDINAL_SEASONALITY_LOG", "WARNING").upper())
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage errors exit 2, --help exits 0
        return exc.code
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
