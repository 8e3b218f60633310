"""What callers outside the package rely on: the exported names, the one
exception type, README's library example and the module attributes the
benchmark tracer patches.

The exported names are listed here in full, and so are the parameters of
each exported function, the fields of each exported dataclass and the
options of each CLI command, so adding or dropping a name, a parameter or an
option is a visible edit of this file.  So is a new exception class anywhere
in the package (the ``__main__`` module aside, which runs the CLI when
imported).

``bench/tracer.py`` wraps names in the ``cli``, ``fgn`` and ``stats``
namespaces by ``getattr``, so a refactor that drops one of them breaks
the traced benchmark.  Checking the names here makes that a tier-1
failure.  The tracer module is only read, never installed.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import ordinal_seasonality
from ordinal_seasonality.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent

PUBLIC_NAMES = [
    "EnsembleConfig",
    "FgnConfig",
    "HurstEstimate",
    "HurstMethod",
    "InvalidInputError",
    "PatternDistribution",
    "PatternFamily",
    "ReturnSeries",
    "SimulationReport",
    "TestOutcome",
    "binomial_test",
    "calendar_weeks",
    "chi2_sf",
    "chi2_statistic",
    "count_patterns",
    "count_windows",
    "estimate_hurst",
    "family_share",
    "fgn_autocovariance",
    "fgn_generate",
    "load_csv",
    "log_returns",
    "normal_sf",
    "pattern_family",
    "position_matrix",
    "run_ensemble",
    "split_subperiods",
    "test_h1_pattern_uniformity",
    "test_h2_day_rows",
    "test_h3_position_columns",
    "test_h4_monday_largest",
    "test_h5_monday_worst_friday_best",
]


# function -> parameter names, dataclass -> field names; error and enum classes are pinned by name
PUBLIC_SIGNATURES = {
    "EnsembleConfig": ("base", "replications", "master_seed"),
    "FgnConfig": ("hurst", "length", "seed"),
    "HurstEstimate": ("h", "method", "r_squared", "window_sizes", "fit_points"),
    "PatternDistribution": ("order", "counts", "windows", "ties_observed", "dropped_points"),
    "ReturnSeries": ("values", "dates", "label"),
    "SimulationReport": ("hurst", "weeks", "generator", "h1", "h2", "h3", "h4", "h5"),
    "TestOutcome": ("statistic", "df", "p_value", "observed"),
    "binomial_test": ("p_e", "count", "weeks", "payload"),
    "calendar_weeks": ("series",),
    "chi2_sf": ("x", "df"),
    "chi2_statistic": ("observed",),
    "count_patterns": ("series", "order"),
    "count_windows": ("windows",),
    "estimate_hurst": ("series", "method"),
    "family_share": ("kind", "order"),
    "fgn_autocovariance": ("hurst", "lags"),
    "fgn_generate": ("cfg",),
    "load_csv": ("path", "column", "date_column"),
    "log_returns": ("prices",),
    "normal_sf": ("z",),
    "pattern_family": ("kind", "order"),
    "position_matrix": ("dist",),
    "run_ensemble": ("cfg", "jobs"),
    "split_subperiods": ("series", "lengths"),
    "test_h1_pattern_uniformity": ("dist",),
    "test_h2_day_rows": ("matrix",),
    "test_h3_position_columns": ("matrix",),
    "test_h4_monday_largest": ("dist",),
    "test_h5_monday_worst_friday_best": ("dist",),
}


def test_public_names_are_pinned():
    assert sorted(ordinal_seasonality.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(ordinal_seasonality, name, None) is not None, name


def test_package_defines_one_exception_class():
    names = [m.name for m in pkgutil.iter_modules(ordinal_seasonality.__path__) if m.name != "__main__"]
    modules = [ordinal_seasonality, *(importlib.import_module(f"ordinal_seasonality.{n}") for n in names)]
    defined = {
        f"{obj.__module__}.{obj.__qualname__}"
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == module.__name__
    }
    assert defined == {"ordinal_seasonality.errors.InvalidInputError"}


WHOLE_NUMBER_CALLS = {
    "length": lambda value: ordinal_seasonality.FgnConfig(hurst=0.5, length=value),
    "order": lambda value: ordinal_seasonality.count_patterns(np.arange(50.0), order=value),
    "subperiod length": lambda value: ordinal_seasonality.split_subperiods(
        ordinal_seasonality.ReturnSeries(values=np.arange(5.0)), [value, 1]
    ),
}


@pytest.mark.parametrize("name", WHOLE_NUMBER_CALLS)
@pytest.mark.parametrize(
    ("value", "shown"),
    [("ten", "'ten'"), (None, "None"), ("1000", "'1000'"), (b"4", "b'4'"), (np.float64(2.5), "2.5")],
    ids=["word", "none", "numeral", "bytes", "numpy-fraction"],
)
def test_whole_number_arguments_take_only_numbers(name, value, shown):
    # a string or None is not converted: it fails with the package's error, naming the argument
    message = f"{name} must be a whole number, got {shown}"
    with pytest.raises(ordinal_seasonality.InvalidInputError, match=f"^{re.escape(message)}$"):
        WHOLE_NUMBER_CALLS[name](value)


def _signature(obj) -> tuple[str, ...] | None:
    if dataclasses.is_dataclass(obj):
        return tuple(field.name for field in dataclasses.fields(obj))
    if isinstance(obj, type):
        return None
    return tuple(inspect.signature(obj).parameters)


def test_public_signatures_are_pinned():
    signatures = {name: _signature(getattr(ordinal_seasonality, name)) for name in PUBLIC_NAMES}
    assert {name: sig for name, sig in signatures.items() if sig is not None} == PUBLIC_SIGNATURES


# command -> its option strings in declaration order, --help aside
CLI_OPTIONS = {
    "analyze": (
        "--input", "--column", "--price-column", "--date-column",
        "--weeks", "--d", "--subperiods", "--hurst", "--format", "--output",
    ),
    "simulate": ("--hurst", "--length", "--reps", "--seed", "--jobs", "--format", "--output"),
    "shuffle": (
        "--input", "--column", "--price-column", "--date-column",
        "--d", "--reps", "--seed", "--jobs", "--format", "--output",
    ),
    "patterns": ("--d", "--family", "--format", "--output"),
    "hurst": ("--input", "--column", "--price-column", "--date-column", "--method", "--format", "--output"),
}


def test_cli_options_are_pinned():
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: tuple(
            option
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
            for option in action.option_strings
        )
        for name, sub in commands.choices.items()
    }
    assert options == CLI_OPTIONS


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()
PATCHED = sorted({*TRACER.SPANS, *TRACER.COUNTERS})


@pytest.mark.parametrize(("module", "attribute"), PATCHED, ids=[f"{m}.{a}" for m, a in PATCHED])
def test_tracer_patches_existing_names(module, attribute):
    namespace = importlib.import_module(f"ordinal_seasonality.{module}")
    assert callable(getattr(namespace, attribute, None)), f"ordinal_seasonality.{module}.{attribute}"


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert float(lines[0]) < 0.01  # persistent noise: uniformity rejected
    assert float(lines[1]) > 0.2  # Monday-best share above its uniform 1/5
    matrix = np.array([[int(x) for x in re.findall(r"\d+", line)] for line in lines[2:]])
    assert matrix.shape == (5, 5)
    assert (matrix.sum(axis=0) == 2000).all() and (matrix.sum(axis=1) == 2000).all()
