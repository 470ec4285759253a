"""Experiment runners for every table and figure of the paper.

| Experiment | Runner |
|---|---|
| Table I/II  | dataset ``statistics()`` (see benchmarks) |
| Table III   | :func:`run_fliggy_comparison` |
| Table IV    | :func:`run_lbsn_comparison` |
| Table V     | :func:`run_fliggy_comparison` (efficiency columns) |
| Figure 6(a) | :func:`run_heads_sweep` |
| Figure 6(b) | :func:`run_depth_sweep` |
| Figure 7    | :func:`run_abtest` |
"""

from .abtest import format_abtest, run_abtest
from .comparison import (
    ComparisonResult,
    MethodResult,
    run_fliggy_comparison,
    run_lbsn_comparison,
)
from .comparison import average_results
from .hyperparams import SweepPoint, SweepResult, run_depth_sweep, run_heads_sweep
from .registry import ABTEST_METHODS, ALL_METHODS, LBSN_METHODS, build_method
from .scales import MEDIUM, SMALL, TINY, ExperimentScale, get_scale

__all__ = [
    "ALL_METHODS",
    "LBSN_METHODS",
    "ABTEST_METHODS",
    "build_method",
    "ExperimentScale",
    "get_scale",
    "TINY",
    "SMALL",
    "MEDIUM",
    "ComparisonResult",
    "MethodResult",
    "run_fliggy_comparison",
    "run_lbsn_comparison",
    "SweepResult",
    "SweepPoint",
    "run_heads_sweep",
    "run_depth_sweep",
    "run_abtest",
    "format_abtest",
    "average_results",
]
