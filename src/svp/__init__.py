"""Change-point detection via smallest valid partitioning.

The solver returns the segmentation with the fewest segments whose every
segment passes a chosen single-change validity test, breaking ties by
total segment cost.  Includes an optimal-partitioning (PELT) baseline
and a simulation benchmark harness.
"""

from .core import (
    INF_BIPOINT,
    ZERO_BIPOINT,
    BiPoint,
    ConfigError,
    CorruptTableError,
    DomainError,
    DpTable,
    InfeasiblePartitionError,
    InvalidRangeError,
    Segmentation,
    SvpError,
    TimeSeries,
    backtrack,
)
from .costs import CostModel, cost
from .engine import EngineConfig, SvpResult, op_pelt_run, segmentation_is_valid, svp_run
from .validity import (
    ValidityState,
    ValidityTest,
    chi2_quantile_1df,
    glr_scan_naive,
    is_segment_valid,
    mood_scan,
    segment_statistic,
    sidak_threshold,
    wilcoxon_scan,
    wilcoxon_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "BiPoint",
    "ConfigError",
    "CorruptTableError",
    "CostModel",
    "DomainError",
    "DpTable",
    "EngineConfig",
    "INF_BIPOINT",
    "InfeasiblePartitionError",
    "InvalidRangeError",
    "Segmentation",
    "SvpError",
    "SvpResult",
    "TimeSeries",
    "ValidityState",
    "ValidityTest",
    "ZERO_BIPOINT",
    "backtrack",
    "chi2_quantile_1df",
    "cost",
    "glr_scan_naive",
    "is_segment_valid",
    "mood_scan",
    "op_pelt_run",
    "segment_statistic",
    "segmentation_is_valid",
    "sidak_threshold",
    "svp_run",
    "wilcoxon_scan",
    "wilcoxon_threshold",
]
