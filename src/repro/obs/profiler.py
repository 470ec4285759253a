"""Profiler hook API invoked by the trainer and the serving facade.

A :class:`Profiler` is the push-style complement to the pull-style
metrics registry: the :class:`~repro.train.trainer.Trainer` calls
``on_batch``/``on_epoch`` and :class:`~repro.serving.platform.FlightRecommender`
calls ``on_request``, passing keyword stats.  The base class ignores
everything, so subclasses override only the hooks they care about.

:class:`RecordingProfiler` appends raw event dicts to ``events`` (handy
in tests and for JSONL dumps).
"""

from __future__ import annotations

__all__ = ["Profiler", "RecordingProfiler"]


class Profiler:
    """No-op base; every hook takes keyword stats and returns nothing."""

    def on_epoch(self, epoch: int, **stats) -> None:
        """End of one training epoch (loss, grad_norm, theta, examples_per_sec)."""

    def on_batch(self, epoch: int, batch_index: int, **stats) -> None:
        """End of one optimiser step (loss, grad_norm, batch_size)."""

    def on_request(self, user_id: int, day: int, **stats) -> None:
        """End of one serving request (latency_ms, num_candidates, k)."""


class RecordingProfiler(Profiler):
    """Keeps every hook invocation as a plain dict in ``events``."""

    def __init__(self) -> None:
        self.events: list[dict] = []

    def on_epoch(self, epoch: int, **stats) -> None:
        self.events.append({"hook": "epoch", "epoch": epoch, **stats})

    def on_batch(self, epoch: int, batch_index: int, **stats) -> None:
        self.events.append(
            {"hook": "batch", "epoch": epoch, "batch_index": batch_index, **stats}
        )

    def on_request(self, user_id: int, day: int, **stats) -> None:
        self.events.append(
            {"hook": "request", "user_id": user_id, "day": day, **stats}
        )
