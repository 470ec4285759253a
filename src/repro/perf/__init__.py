"""Serving performance: the frozen-graph scoring session.

``repro.perf`` is the fast-path subsystem the ROADMAP's "as fast as the
hardware allows" north star calls for:

- :class:`InferenceSession` — the serving-time HSGC embedding cache,
  invalidated by the parameter-version counter (``Module.param_version``).

The request path is measured by the repo's benchmark harness, ``bench/``
(see ``bench/README.md``).
"""

from .session import InferenceSession, supports_fast_path

__all__ = [
    "InferenceSession",
    "supports_fast_path",
]
