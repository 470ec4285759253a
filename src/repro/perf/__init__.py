"""Serving/training performance: frozen-graph cache, micro-batching, bench.

``repro.perf`` is the fast-path subsystem the ROADMAP's "as fast as the
hardware allows" north star calls for:

- :class:`InferenceSession` — the serving-time HSGC embedding cache,
  invalidated by the parameter-version counter (``Module.param_version``);
- :class:`MicroBatcher` — coalesces concurrent requests into one model
  forward with per-request deadline awareness;
- :func:`run_bench` — the reproducible perf baseline, writing
  ``BENCH_serving.json`` / ``BENCH_training.json`` /
  ``BENCH_overload.json`` / ``BENCH_cluster.json``
  (``python -m repro bench``, ``--phase`` to select a subset).
"""

from .bench import (
    BENCH_PHASES,
    BenchConfig,
    quick_bench_config,
    run_bench,
    run_chaos_bench,
    run_cluster_bench,
    run_overload_bench,
    run_serving_bench,
    run_training_bench,
)
from .microbatch import MicroBatchConfig, MicroBatcher
from .session import InferenceSession, supports_fast_path

__all__ = [
    "InferenceSession",
    "supports_fast_path",
    "MicroBatchConfig",
    "MicroBatcher",
    "BenchConfig",
    "quick_bench_config",
    "run_bench",
    "run_chaos_bench",
    "run_cluster_bench",
    "run_overload_bench",
    "run_serving_bench",
    "run_training_bench",
    "BENCH_PHASES",
]
