"""Serving performance: the frozen-graph scoring session and micro-batching.

``repro.perf`` is the fast-path subsystem the ROADMAP's "as fast as the
hardware allows" north star calls for:

- :class:`InferenceSession` — the serving-time HSGC embedding cache,
  invalidated by the parameter-version counter (``Module.param_version``);
- :class:`MicroBatcher` — coalesces concurrent requests into one model
  forward with per-request deadline awareness.

The request path is measured by the repo's benchmark harness, ``bench/``
(see ``bench/README.md``).
"""

from .microbatch import MicroBatchConfig, MicroBatcher
from .session import InferenceSession, supports_fast_path

__all__ = [
    "InferenceSession",
    "supports_fast_path",
    "MicroBatchConfig",
    "MicroBatcher",
]
