"""Command-line interface: analyze, simulate, shuffle, patterns, hurst.

Reports are emitted as JSON (canonical: stable key order, every float
with at least five decimal places) or as flat CSV.  All randomness flows
from an explicit ``--seed``; ``simulate`` and ``shuffle`` refuse to run
without one.  The ``ORDINAL_SEASONALITY_LOG`` environment variable sets
the diagnostic log level (DEBUG, INFO, WARNING, ...).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import re
import sys
import traceback
from enum import Enum
from functools import partial
from itertools import chain, count, islice, repeat
from typing import Sequence

import numpy as np

from .errors import InvalidInputError
from .fgn import (
    EnsembleConfig,
    FgnConfig,
    by_test,
    run_ensemble,
    run_replications,
    shuffle_replication,
    tally_rejections,
)
from .hurst import HurstMethod, estimate_hurst
from .ingest import (
    ReturnSeries,
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
    SIGNIFICANCE_LEVELS,
    TestOutcome,
    position_matrix,
    test_h1_pattern_uniformity,
    test_h2_day_rows,
    test_h3_position_columns,
    test_h4_monday_largest,
    test_h5_monday_worst_friday_best,
)

log = logging.getLogger(__name__)

# OSError: missing, unreadable or directory paths, a .gz that is not gzip
_INPUT_ERRORS = (InvalidInputError, OSError, UnicodeDecodeError)


# ---------------------------------------------------------------------------
# serialization: canonical JSON and flat CSV
# ---------------------------------------------------------------------------


def format_float(x: float) -> str:
    """Shortest round-trip decimal, padded to at least five decimal places."""
    if not math.isfinite(x):
        raise ValueError("non-finite floats must be mapped to null before serialization")
    text = repr(float(x))
    if "e" in text:
        return text
    if "." in text and len(text.split(".", 1)[1]) >= 5:
        return text
    return f"{float(x):.5f}"


def _json_float(x: float) -> str:
    return format_float(x) if math.isfinite(x) else "null"


def _csv_float(x: float) -> str:
    return format_float(x) if math.isfinite(x) else ""


_encode_string = json.encoder.encode_basestring_ascii  # what json.dumps(str) calls
_needs_quotes = re.compile(r'[,"\r\n]').search


def _csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted when it holds a comma, a quote or a line break."""
    if _needs_quotes(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


# JSON and CSV text of the plain value types, looked up by exact type
_JSON_PLAIN = {
    type(None): lambda _: "null",
    bool: lambda b: "true" if b else "false",
    int: int.__repr__,
    float: _json_float,
    str: _encode_string,
}
_CSV_PLAIN = {
    type(None): lambda _: "",
    bool: lambda b: "true" if b else "false",
    int: int.__repr__,
    float: _csv_float,
    str: _csv_field,
}


def _scalar(obj, plain: dict) -> str:
    """Text of a plain value: ``None`` or an exact bool, int, float or str.

    ``plain`` is the writer's table of plain types (``_JSON_PLAIN`` or
    ``_CSV_PLAIN``); any other type, a subclass or numpy number included,
    raises :class:`TypeError`.
    """
    write = plain.get(type(obj))
    if write is None:
        raise TypeError(f"cannot serialize {type(obj)!r}")
    return write(obj)


# _join joins this many fragments at a time, and a table is written this
# many rows at a time, so no report is ever held as many small strings at once
_CHUNK_FRAGMENTS = 1024

# the plain type each table field's values take, by numpy dtype kind
_FIELD_TYPES = {"i": int, "U": str}


def _join(fragments) -> str:
    """The text of an iterable of string fragments.

    Fragments are joined ``_CHUNK_FRAGMENTS`` at a time into chunk strings,
    and the chunks once at the end, so the text is held about twice over
    at its peak and never as many small strings.
    """
    fragments = iter(fragments)
    batches = iter(lambda: list(islice(fragments, _CHUNK_FRAGMENTS)), [])
    return "".join(map("".join, batches))


def _table_blocks(table, plain: dict):
    """Column texts of a 1-D structured array, ``_CHUNK_FRAGMENTS`` rows at a time.

    Returns an iterator of ``(start, texts)``, where ``texts`` holds one
    iterator of value texts per field, in field order, written by the
    ``plain`` writer of the field's type.  Any other array raises
    :class:`TypeError` at once: a plain array, one of no fields or of more
    than one dimension, or a field that is not a signed int or a str.
    """
    names = table.dtype.names or ()
    kinds = [_FIELD_TYPES.get(table.dtype[name].kind) for name in names]
    if table.ndim != 1 or not names or None in kinds:
        raise TypeError(f"cannot serialize {type(table)!r}")
    columns = [(table[name], plain[kind]) for name, kind in zip(names, kinds)]
    return (
        (start, [map(write, column[start : start + _CHUNK_FRAGMENTS].tolist()) for column, write in columns])
        for start in range(0, len(table), _CHUNK_FRAGMENTS)
    )


def _emit_table(table, pad: str):
    """Yield the JSON of a 1-D structured array: a list of one object per row, each on one line.

    Each block of rows is one fragment, a join over the field heads (each
    key's encoded ``"key": ``) interleaved with the column texts.
    """
    blocks = _table_blocks(table, _JSON_PLAIN)
    if not len(table):
        yield "[]"
        return
    heads = [f", {_encode_string(name)}: " for name in table.dtype.names]
    heads[0] = f",\n{pad}  {{{heads[0][2:]}"  # a row opens with its separator, indent, brace and first key
    close = repeat("}")
    yield "["
    for start, texts in blocks:
        parts = [text for head, column in zip(heads, texts) for text in (repeat(head), column)]
        block = "".join(chain.from_iterable(zip(*parts, close)))
        yield block if start else block[1:]  # the first row has no separator
    yield f"\n{pad}]"


def _emit(obj, pad: str):
    """Yield the JSON text of ``obj`` in fragments; recurses into containers only.

    A container's items are ``(head, value)`` pairs: the indent and encoded
    key of a dict entry, the indent alone for a list item.  Each
    item goes out with its separator in front.  Tables go to
    :func:`_emit_table`.
    """
    inner = pad + "  "
    if isinstance(obj, dict):
        braces = "{}"
        items = ((f"{inner}{_encode_string(str(key))}: ", value) for key, value in obj.items())
    elif isinstance(obj, list):
        braces = "[]"
        items = zip(repeat(inner), obj)
    elif isinstance(obj, np.ndarray):
        yield from _emit_table(obj, pad)
        return
    else:
        yield _scalar(obj, _JSON_PLAIN)
        return
    sep = braces[0] + "\n"
    for head, value in items:
        plain = _JSON_PLAIN.get(type(value))
        if plain is not None:
            yield f"{sep}{head}{plain(value)}"
        else:
            yield sep + head
            yield from _emit(value, inner)
        sep = ",\n"
    yield f"\n{pad}{braces[1]}" if obj else braces


def dumps(obj) -> str:
    """Canonical JSON of a report, ending in a newline.

    A report holds ``None``, bools, ints, floats, strs, dicts, lists and
    tables (1-D structured arrays of int and str fields), each of exactly
    that type.  The layout is ``json.dumps(obj, indent=2)``'s: keys in
    insertion order, non-ASCII escaped, ``{}`` and ``[]`` for empty
    containers.  Floats are written by :func:`format_float`, and non-finite
    ones as ``null``.  A table is written as the list of one object per
    row, its fields as keys in field order.  The one exception to the
    layout is a table row: it takes one line, as ``json.dumps(row)`` writes
    it, ``{"id": 1, "pattern": "01234", "count": 0}``.  Any other type
    raises :class:`TypeError`: a tuple, a numpy scalar, a subclass of a
    plain type, a plain array, or a table with a field of another kind.

    Memory: the text is built by :func:`_join`, so writing a report holds
    about twice the length of its text beyond the report itself.
    """
    return _join(chain(_emit(obj, ""), ("\n",)))


def _flatten_table(table, path: str):
    """Yield the ``path[i].field,value`` lines of a 1-D structured array, a block of rows per fragment.

    Each field's keys come from one ``%`` template of the row index, its
    quoting decided once.
    """
    blocks = _table_blocks(table, _CSV_PLAIN)
    prefix = path.replace("%", "%%")
    keys = [_csv_field(f"{prefix}[%d].{name.replace('%', '%%')}") + "," for name in table.dtype.names]
    newline = repeat("\n")
    for start, texts in blocks:
        parts = []
        for key, text in zip(keys, texts):
            parts += (map(key.__mod__, count(start)), text, newline)
        yield "".join(chain.from_iterable(zip(*parts)))


def _flatten(obj, path: str):
    """Yield a ``path,value`` line for each scalar under ``obj``; recurses into containers only."""
    if isinstance(obj, dict):
        items = ((f"{path}.{key}" if path else str(key), value) for key, value in obj.items())
    elif isinstance(obj, list):
        items = ((f"{path}[{i}]", value) for i, value in enumerate(obj))
    elif isinstance(obj, np.ndarray):
        yield from _flatten_table(obj, path)
        return
    else:
        yield f"{_csv_field(path)},{_scalar(obj, _CSV_PLAIN)}\n"
        return
    for sub, value in items:
        plain = _CSV_PLAIN.get(type(value))
        if plain is not None:
            yield f"{_csv_field(sub)},{plain(value)}\n"
        else:
            yield from _flatten(value, sub)


def to_flat_csv(doc) -> str:
    """The report as ``key,value`` lines, one per scalar, depth first.

    The report holds the values :func:`dumps` takes.  A key is the
    scalar's path: ``a.b`` below a dict, ``a[0]`` below a list; empty
    containers write no line.  ``None`` and non-finite floats are empty
    fields, booleans ``true``/``false``, floats as in :func:`format_float`.
    A field holding a comma, a quote or a line break is quoted.  A table is
    written as its list of rows, ``a[0].field`` for each field of each row.
    Any other type raises :class:`TypeError`, as in :func:`dumps`.

    Memory: as for :func:`dumps`, about twice the length of the text beyond
    the report itself.
    """
    return _join(chain(("key,value\n",), _flatten(doc, "")))


def _outcome_dict(outcome: TestOutcome) -> dict:
    """A test outcome with its decisions at the 10/5/1% levels and its stars (* 10%, ** 5%, *** 1%)."""
    rejects = [outcome.p_value < level for level in SIGNIFICANCE_LEVELS]
    doc = {
        "statistic": outcome.statistic,  # non-finite: null in JSON, an empty CSV field
        "df": outcome.df,
        "p_value": outcome.p_value,
        "stars": "*" * sum(rejects),
        "reject_10": rejects[0],
        "reject_05": rejects[1],
        "reject_01": rejects[2],
    }
    doc.update(outcome.observed)
    return doc


def _record(obj):
    """A result record in its report layout.

    A dataclass becomes the dict of its fields in field order, a
    :class:`TestOutcome` goes through :func:`_outcome_dict`, an enum becomes
    its value and a tuple a list; other values pass through unchanged.
    """
    if isinstance(obj, TestOutcome):
        return _outcome_dict(obj)
    if dataclasses.is_dataclass(obj):
        return {field.name: _record(getattr(obj, field.name)) for field in dataclasses.fields(obj)}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, tuple):
        return [_record(item) for item in obj]
    return obj


# ---------------------------------------------------------------------------
# shared input handling
# ---------------------------------------------------------------------------


def _load_series(args) -> ReturnSeries:
    if (args.column is None) == (args.price_column is None):
        raise InvalidInputError("exactly one of --column and --price-column is required")
    column = args.column if args.price_column is None else args.price_column
    series = load_csv(args.input, column=column, date_column=args.date_column)
    if args.price_column is not None:
        series = log_returns(series)
    return series


def _input_meta(args, series: ReturnSeries) -> dict:
    return {
        "path": str(args.input),
        "label": series.label,
        "points": len(series),
        "column_kind": "price" if args.price_column is not None else "return",
        "dated": series.dates is not None,
    }


def _write_output(text: str, output: str | None) -> None:
    if output is not None:
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
            raise InvalidInputError("no complete Monday-Friday weeks")
        dist = count_windows(grouped.windows)
        return dist, grouped.skipped_weeks
    return count_patterns(part, order=args.d), None


def _analyze_section(part: ReturnSeries, args) -> dict:
    dist, skipped_weeks = _analyze_distribution(part, args)
    matrix = position_matrix(dist)

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
            "fraction": dist.ties_observed / dist.windows,
        },
        "pattern_counts": _pattern_listing(dist.order, dist.counts),
        "position_matrix": {
            "weeks": dist.windows,
            "rows": [
                {
                    "day": i,
                    "counts": matrix[i, :].tolist(),
                    **_outcome_dict(rows[i]),
                }
                for i in range(dist.order)
            ],
            "columns": [
                {"position": j, **_outcome_dict(columns[j])}
                for j in range(dist.order)
            ],
        },
        "tests": {
            "h1_pattern_uniformity": _outcome_dict(h1),
            "h4_monday_largest": _outcome_dict(test_h4_monday_largest(dist)),
            "h5_monday_worst_friday_best": _outcome_dict(test_h5_monday_worst_friday_best(dist)),
        },
    }
    if args.hurst is not None:
        section["hurst"] = _record(estimate_hurst(part, method=HurstMethod(args.hurst)))
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
    series = _load_series(args)
    if args.subperiods:
        parts = split_subperiods(series, args.subperiods)
    else:
        parts = [series]
    sections = []
    for part in parts:
        try:
            sections.append(_analyze_section(part, args))
        except InvalidInputError as exc:
            raise InvalidInputError(f"{part.label}: {exc}") from exc
    doc = {
        "command": "analyze",
        "input": _input_meta(args, series),
        "weeks_mode": args.weeks,
        "sections": sections,
    }
    _write_output(dumps(doc) if args.format == "json" else to_flat_csv(doc), args.output)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    rows = []
    for hurst in args.hurst:
        cfg = EnsembleConfig(
            base=FgnConfig(hurst=hurst, length=args.length),
            replications=args.reps,
            master_seed=args.seed,
        )
        report = run_ensemble(cfg, jobs=args.jobs)
        mean_frequency = report.weeks / math.factorial(len(report.h2))
        if mean_frequency < EXPECTED_FREQUENCY_FLOOR:
            log.info(
                "H=%g: mean expected pattern frequency %.2f is below %g",
                hurst,
                mean_frequency,
                EXPECTED_FREQUENCY_FLOOR,
            )
        rows.append(_record(report))
    doc = {
        "command": "simulate",
        "config": {
            "length": args.length,
            "replications": args.reps,
            "seed": args.seed,
        },
        "rows": rows,
    }
    _write_output(dumps(doc) if args.format == "json" else to_flat_csv(doc), args.output)
    return 0


# ---------------------------------------------------------------------------
# shuffle
# ---------------------------------------------------------------------------


def _rate_dict(rejections, reps: int) -> dict:
    """Aggregate of one test over the replications."""
    return {"rejections": _record(rejections), "rate_at_alpha": rejections.at_05 / reps}


def cmd_shuffle(args) -> int:
    series = _load_series(args)
    order = args.d
    if len(series) < order:
        raise InvalidInputError("series shorter than one window")

    replicate = partial(shuffle_replication, series.values, order, args.seed)
    p_values = np.stack(run_replications(replicate, range(args.reps), args.jobs))
    r1, r2, r3, r4, r5 = by_test(tally_rejections(p_values))

    alpha = SIGNIFICANCE_LEVELS[1]  # the per-replication decisions are at 5%
    per_replication = [
        {
            "replication": index,
            "h1_p": h1,
            "h1_reject": h1 < alpha,
            "h2_reject_days": [p < alpha for p in h2],
            "h3_reject_positions": [p < alpha for p in h3],
            "h4_p": h4,
            "h4_reject": h4 < alpha,
            "h5_p": h5,
            "h5_reject": h5 < alpha,
        }
        for index, (h1, h2, h3, h4, h5) in enumerate(map(by_test, p_values.tolist()))
    ]

    doc = {
        "command": "shuffle",
        "input": _input_meta(args, series),
        "config": {"replications": args.reps, "seed": args.seed, "order": order, "alpha": alpha},
        "aggregate": {
            "h1": _rate_dict(r1, args.reps),
            "h2_days": [{"rejections": _record(r)} for r in r2],
            "h3_positions": [{"rejections": _record(r)} for r in r3],
            "h4": _rate_dict(r4, args.reps),
            "h5": _rate_dict(r5, args.reps),
        },
        "per_replication": per_replication,
    }
    _write_output(dumps(doc) if args.format == "json" else to_flat_csv(doc), args.output)
    return 0


# ---------------------------------------------------------------------------
# patterns
# ---------------------------------------------------------------------------


def _pattern_listing(order: int, counts: np.ndarray | None = None) -> np.ndarray:
    """The D! patterns in id order as a table (a 1-D structured array).

    Its fields are ``id``, ``pattern`` (the digit string) and, when
    ``counts`` is given, ``count``.
    """
    strings = pattern_strings(order)
    fields = [("id", np.int64), ("pattern", f"U{order}")]
    listing = np.empty(len(strings), dtype=fields if counts is None else [*fields, ("count", np.int64)])
    listing["id"] = np.arange(1, len(strings) + 1)
    listing["pattern"] = strings
    if counts is not None:
        listing["count"] = counts
    return listing


def cmd_patterns(args) -> int:
    listing = _pattern_listing(args.d)
    if args.family:
        ids = pattern_family(PatternFamily(args.family), args.d)
        listing = listing[np.isin(listing["id"], list(ids))]
    if args.format == "json":
        doc = {"command": "patterns", "order": args.d, "family": args.family, "patterns": listing}
        _write_output(dumps(doc), args.output)
    else:
        blocks = _table_blocks(listing, _CSV_PLAIN)
        rows = (zip(numbers, repeat(","), strings, repeat("\n")) for _, (numbers, strings) in blocks)
        _write_output(_join("".join(chain.from_iterable(block)) for block in rows), args.output)
    return 0


# ---------------------------------------------------------------------------
# hurst
# ---------------------------------------------------------------------------


def cmd_hurst(args) -> int:
    series = _load_series(args)
    estimate = estimate_hurst(series, method=HurstMethod(args.method))
    doc = {
        "command": "hurst",
        "input": _input_meta(args, series),
        "estimate": _record(estimate),
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
    analyze.add_argument("--subperiods", type=_subperiod_list, default=None)
    analyze.add_argument(
        "--hurst", nargs="?", const="rs", choices=tuple(m.value for m in HurstMethod),
        help="include a Hurst estimate per section by this method (rs when none is named)",
    )
    _add_output_flags(analyze)
    analyze.set_defaults(func=cmd_analyze)

    simulate = commands.add_parser("simulate", help="Monte-Carlo experiment on fractional noise")
    simulate.add_argument("--hurst", type=_hurst_list, required=True, help="comma-separated H values")
    simulate.add_argument("--length", type=int, required=True)
    simulate.add_argument("--reps", type=int, required=True)
    simulate.add_argument("--seed", type=_seed, required=True)
    simulate.add_argument("--jobs", type=int, default=1)
    _add_output_flags(simulate)
    simulate.set_defaults(func=cmd_simulate)

    shuffle = commands.add_parser("shuffle", help="seasonality tests on shuffled surrogates")
    _add_input_flags(shuffle)
    shuffle.add_argument("--d", type=int, default=5)
    shuffle.add_argument("--reps", type=int, required=True)
    shuffle.add_argument("--seed", type=_seed, required=True)
    shuffle.add_argument("--jobs", type=int, default=1)
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
    hurst_cmd.add_argument("--method", choices=tuple(m.value for m in HurstMethod), default="rs")
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
