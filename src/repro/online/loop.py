"""The online learning loop: bus → features/trainer → snapshots → swap.

Two halves, deliberately decoupled by the :class:`SnapshotStore`:

- :class:`OnlineLearningLoop` is the **write side**.  One ``tick()``
  drains the bus into the :class:`~repro.serving.RealTimeFeatureService`
  (every event, always — feature freshness must survive a broken
  trainer) and into the :class:`~repro.online.IncrementalTrainer`
  (bookings as labels), runs SGD over the backlog, and offers candidate
  snapshots to the shadow gate.

- :class:`SnapshotFollower` is the **read side**, and the only
  snapshot-apply in the repo: any serving process (the drills, the
  benchmark, every cluster worker) polls the store's pointer and
  hot-swaps newly promoted versions into its
  :class:`~repro.perf.InferenceSession` through its one verb, ``swap``
  (a bare model gets ``load_state_dict``).  The session builds the next
  frozen scoring state beside live reads and publishes it by reference
  (see :mod:`repro.perf.session`), so a poll never stalls a request for
  the table build and a request never sees two versions.
  Followers never talk to the trainer; a trainer crash is invisible to
  them beyond the pointer going quiet.

Crash containment mirrors the cluster supervisor's philosophy: a
trainer exception (including injected publish faults) costs one token of
a :class:`~repro.cluster.supervisor.RestartBudget`-driven exponential
backoff; the replacement trainer boots from the last *published*
snapshot (its in-flight weights died with it).  A trainer that crash-
loops through the whole budget is **abandoned** — feature ingestion and
serving continue indefinitely on the last shadow-approved version,
which is the degraded-but-correct endgame the drill asserts.
"""

from __future__ import annotations

import time

from ..data.schema import BookingEvent, ClickEvent
from ..obs.registry import get_registry
from ..cluster.supervisor import RestartBudget
from .bus import EventBus
from .snapshots import SnapshotStore
from .trainer import IncrementalTrainer

__all__ = ["SnapshotFollower", "OnlineLearningLoop"]


class SnapshotFollower:
    """Polls the pointer and hot-swaps new versions into one target.

    ``target`` is anything with ``swap(state, touched_users=...)`` — an
    :class:`~repro.perf.InferenceSession`, which gets the touched-user
    union across every version applied by the jump (see
    :meth:`SnapshotStore.touched_union`) for its user-scope rebuild —
    or else any ``Module`` (plain ``load_state_dict``).  The pointer is
    forward-only, so ``poll()`` applies a version at most once and never
    moves backwards.
    """

    def __init__(
        self,
        store: SnapshotStore,
        target,
        name: str = "follower",
        time_source=time.time,
    ):
        self.store = store
        self.target = target
        self.name = name
        self.time_source = time_source
        self.version = 0
        self.swaps = 0
        self.last_pause_ms: float | None = None
        self.last_lag_ms: float | None = None
        #: per-swap history (one entry per applied version — swaps are
        #: rare, so this stays tiny); the drill/bench read these for
        #: their update-lag and swap-pause percentiles.  A pause is the
        #: *exclusive* part of a swap (what the swap API returns), not
        #: the build that ran beside reads (``perf.swap_build_ms``).
        self.lag_history_ms: list[float] = []
        self.pause_history_ms: list[float] = []
        self._published_unix: float | None = None

    # ------------------------------------------------------------------
    @property
    def staleness_s(self) -> float | None:
        """Age of the weights being served (None before the first swap)."""
        if self._published_unix is None:
            return None
        return max(0.0, self.time_source() - self._published_unix)

    def _apply(self, snapshot, touched) -> float:
        if hasattr(self.target, "swap"):
            return self.target.swap(snapshot.state, touched_users=touched)
        start = time.perf_counter()
        self.target.load_state_dict(snapshot.state)
        return (time.perf_counter() - start) * 1000.0

    def poll(self) -> int | None:
        """Swap in the pointer's version if it moved; returns it, else None."""
        registry = get_registry()
        info = self.store.current()
        if info is None or info.version <= self.version:
            if registry.enabled and self._published_unix is not None:
                registry.gauge(
                    "online.staleness_s", labels={"follower": self.name}
                ).set(self.staleness_s)
            return None
        snapshot = self.store.load(info.version)
        # A snapshot's touched_users is the delta since the publish
        # *before it* — on a multi-version jump (trainer published more
        # than once between polls) the skipped deltas must be invalidated
        # too, or rows touched only in a skipped version keep serving the
        # old weights: a cross-version blend.  touched_union degrades to
        # a full refresh whenever a skipped delta is unavailable.
        touched = self.store.touched_union(self.version, snapshot)
        self.last_pause_ms = self._apply(snapshot, touched)
        self.version = info.version
        self.swaps += 1
        self._published_unix = snapshot.published_unix
        # Update lag: publish instant → the swap completing here.  The
        # follower's poll cadence dominates it in practice, which is
        # exactly what the bench budget is meant to bound.
        self.last_lag_ms = max(
            0.0, (self.time_source() - snapshot.published_unix) * 1000.0
        )
        self.lag_history_ms.append(self.last_lag_ms)
        self.pause_history_ms.append(self.last_pause_ms)
        if registry.enabled:
            registry.counter("online.follower_swaps").inc()
            registry.gauge(
                "online.model_version", labels={"follower": self.name}
            ).set(info.version)
            registry.histogram("online.update_lag_ms").observe(
                self.last_lag_ms
            )
            registry.gauge(
                "online.staleness_s", labels={"follower": self.name}
            ).set(self.staleness_s)
        return info.version


class OnlineLearningLoop:
    """Wires bus, features, trainer, and followers into one tickable unit.

    ``tick()`` is the entire control flow — tests and the drill drive it
    synchronously; a daemon thread calling it on an interval is the
    production shape.  Feature ingestion happens *first* within a tick,
    so a booking's own day is already in the RTFS when the trainer (or
    the shadow window) assembles histories — and because histories are
    built strictly *before* the event day, the label still never leaks
    into its own features.
    """

    def __init__(
        self,
        bus: EventBus,
        features,
        trainer: IncrementalTrainer,
        followers=(),
        restart_budget: int = 3,
        restart_backoff_s: float = 0.05,
        restart_backoff_max_s: float = 2.0,
        feature_capacity: int | None = None,
        trainer_capacity: int | None = None,
        time_source=time.monotonic,
    ):
        self.bus = bus
        self.features = features
        self.trainer = trainer
        self.followers = list(followers)
        self.time_source = time_source
        self.budget = RestartBudget(
            restart_budget, restart_backoff_s, restart_backoff_max_s
        )
        self.trainer_crashes = 0
        self.trainer_restarts = 0
        self.abandoned = False
        self.last_error: str | None = None
        self._resume_at: float | None = None
        self._features_sub = bus.subscribe("features", feature_capacity)
        self._trainer_sub = bus.subscribe("trainer", trainer_capacity)

    # ------------------------------------------------------------------
    def _ingest_features(self) -> int:
        events = self._features_sub.poll()
        for event in events:
            if isinstance(event, BookingEvent):
                self.features.record_booking(event)
            elif isinstance(event, ClickEvent):
                self.features.record_click(event)
        return len(events)

    def _train(self) -> tuple[int, int]:
        """Drain the trainer's queue and backlog; returns (steps, publishes)."""
        self.trainer.consume(self._trainer_sub.poll())
        steps = publishes = 0
        while self.trainer.backlog:
            if self.trainer.step() is not None:
                steps += 1
            info, _ = self.trainer.maybe_publish()
            if info is not None:
                publishes += 1
        # One more armed-cadence attempt: the event that made the shadow
        # window ready may have been a holdout (no backlog, no step), and
        # a deferred publish must not wait for the *next* training step.
        info, _ = self.trainer.maybe_publish()
        if info is not None:
            publishes += 1
        return steps, publishes

    def _on_trainer_crash(self, exc: BaseException) -> None:
        self.trainer_crashes += 1
        self.last_error = f"{type(exc).__name__}: {exc}"
        registry = get_registry()
        if registry.enabled:
            registry.counter("online.trainer_crashes").inc()
        delay = self.budget.next_delay_s()
        if delay is None:
            self.abandoned = True
            if registry.enabled:
                registry.counter("online.trainer_abandoned").inc()
            return
        self.budget.consume()
        self._resume_at = self.time_source() + delay

    def tick(self) -> dict:
        """One pump: features always; training under the crash budget."""
        ingested = self._ingest_features()
        steps = publishes = 0
        trained = False
        if self.abandoned:
            # The write side is gone for good; drop its queue so the
            # bounded bus doesn't report phantom backlog forever.
            self._trainer_sub.poll()
        elif self._resume_at is not None:
            if self.time_source() >= self._resume_at:
                # Backoff served: boot the replacement trainer from the
                # last published snapshot and resume this very tick.
                self._resume_at = None
                self.trainer.restart()
                self.trainer_restarts += 1
                registry = get_registry()
                if registry.enabled:
                    registry.counter("online.trainer_restarts").inc()
                trained = True
        else:
            trained = True
        if trained and self._resume_at is None and not self.abandoned:
            try:
                steps, publishes = self._train()
            except Exception as exc:
                self._on_trainer_crash(exc)
        for follower in self.followers:
            follower.poll()
        return {
            "ingested": ingested,
            "steps": steps,
            "publishes": publishes,
            "crashes": self.trainer_crashes,
            "abandoned": self.abandoned,
            "backing_off": self._resume_at is not None,
        }

    # ------------------------------------------------------------------
    def status(self) -> dict:
        """Snapshot for health endpoints and drill reports."""
        return {
            "published": self.bus.published,
            "bus_dropped": self.bus.dropped,
            "trainer": {
                "steps": self.trainer.steps,
                "events_seen": self.trainer.events_seen,
                "events_trained": self.trainer.events_trained,
                "events_held_out": self.trainer.events_held_out,
                "publishes": self.trainer.publishes,
                "rejections": self.trainer.rejections,
                "backlog": self.trainer.backlog,
                "crashes": self.trainer_crashes,
                "restarts": self.trainer_restarts,
                "budget_used": self.budget.used,
                "abandoned": self.abandoned,
                "last_error": self.last_error,
            },
            "followers": {
                follower.name: follower.version for follower in self.followers
            },
            "store_version": self.trainer.store.current_version(),
        }
