"""Day-of-the-week seasonality detection via ordinal-pattern statistics."""

from .errors import InvalidInputError
from .fgn import (
    EnsembleConfig,
    FgnConfig,
    SimulationReport,
    fgn_autocovariance,
    fgn_generate,
    run_ensemble,
)
from .hurst import HurstEstimate, HurstMethod, estimate_hurst
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
    family_share,
    pattern_family,
)
from .stats import (
    TestOutcome,
    binomial_test,
    chi2_sf,
    chi2_statistic,
    normal_sf,
    position_matrix,
    test_h1_pattern_uniformity,
    test_h2_day_rows,
    test_h3_position_columns,
    test_h4_monday_largest,
    test_h5_monday_worst_friday_best,
)

__version__ = "0.1.0"

__all__ = [
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
