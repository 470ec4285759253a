"""Incremental mini-batch SGD on fresh events, with gated publishing.

The trainer owns a *training replica* of the model — serving processes
never share weights with it; they only ever see the immutable snapshots
it publishes through :class:`~repro.online.SnapshotStore` after the
shadow gate approves them.

Update modes
------------
``full``
    Every parameter trains.  A published snapshot carries
    ``touched_users = None`` — followers must treat it as a full-table
    refresh.
``embedding``
    Only the four HSGC embedding tables (user *and* city rows of both
    aware sides) train; the shared propagation/PEC/MMoE weights stay at
    their offline-trained values.  City-row movement propagates into
    every user's HSGC output, so this mode also publishes
    ``touched_users = None``.
``user`` (default)
    Only the two **user** embedding tables train.  Algorithm 1's user
    row ``i`` depends on ``user_embedding[i]`` and the (frozen) city
    tables/layers — never on other users' rows — so exactly the users
    that appeared in training batches have changed serving rows.  The
    snapshot carries that set as ``touched_users`` and
    :meth:`~repro.perf.InferenceSession.swap` can rebuild only their
    rows.  This is the classic production
    split: hot per-user personalisation online, cold global retrain
    offline.  (With ``momentum > 0`` velocity keeps nudging previously
    touched rows after their gradients stop, so the touched set is then
    accumulated across publishes instead of reset — a safe superset.)

Labels come for free from the repo's decision-point machinery: each
booking event becomes a :class:`DecisionPoint` whose history is the
RTFS's point-in-time view *strictly before* the event day, ranked
against the true pair plus seeded distractors —
``ODDataset.batch_for_requests`` derives ``label_o`` / ``label_d`` from
target matches, giving exactly the Table I sample mix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.schema import BookingEvent, ODPair
from ..data.synthetic import DecisionPoint
from ..obs.registry import get_registry
from ..optim import SGD
from .shadow import ShadowDecision, ShadowEvaluator
from .snapshots import SnapshotInfo, SnapshotStore

__all__ = ["OnlineTrainerConfig", "IncrementalTrainer"]

#: parameter names of the user-row-only update mode.
_USER_PARAMS = (
    "origin_hsgc.user_embedding.weight",
    "dest_hsgc.user_embedding.weight",
)
#: parameter names of the embedding-only update mode.
_EMBEDDING_PARAMS = _USER_PARAMS + (
    "origin_hsgc.city_embedding.weight",
    "dest_hsgc.city_embedding.weight",
)


@dataclass(frozen=True)
class OnlineTrainerConfig:
    """Knobs of the incremental trainer."""

    lr: float = 0.05
    momentum: float = 0.0
    grad_clip: float | None = 5.0
    #: booking events per SGD step.
    batch_events: int = 8
    #: distractor OD pairs ranked against each event's true pair.
    negatives_per_event: int = 4
    #: "user" / "embedding" / "full" (see module docstring).
    update_mode: str = "user"
    #: candidate snapshots are offered to the gate every N steps.
    publish_every_steps: int = 4
    #: every Nth booking is withheld from training for the shadow window.
    holdout_every: int = 5
    #: snapshots retained on disk (the pointer's target always survives).
    keep_last: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.update_mode not in ("user", "embedding", "full"):
            raise ValueError(
                f"update_mode must be user|embedding|full, "
                f"got {self.update_mode!r}"
            )
        if self.batch_events < 1:
            raise ValueError(
                f"batch_events must be >= 1, got {self.batch_events}"
            )
        if self.negatives_per_event < 1:
            raise ValueError(
                f"negatives_per_event must be >= 1, "
                f"got {self.negatives_per_event}"
            )
        if self.publish_every_steps < 1:
            raise ValueError(
                f"publish_every_steps must be >= 1, "
                f"got {self.publish_every_steps}"
            )
        if self.holdout_every < 2:
            raise ValueError(
                f"holdout_every must be >= 2 (1 would withhold "
                f"everything), got {self.holdout_every}"
            )


class IncrementalTrainer:
    """Mini-batch SGD over streaming bookings + two-phase publishing.

    Parameters
    ----------
    model:
        The training replica (mutated in place by SGD steps).
    dataset / features:
        Batching machinery and the point-in-time history source.
    store:
        Where approved snapshots are published.
    shadow:
        The promotion gate; built with repo defaults when omitted.
    reference:
        A second model instance holding the currently *published*
        weights (the gate's "serving" side).  Built from the model's
        own class/config when omitted.
    """

    def __init__(
        self,
        model,
        dataset,
        features,
        store: SnapshotStore,
        config: OnlineTrainerConfig | None = None,
        shadow: ShadowEvaluator | None = None,
        reference=None,
    ):
        self.model = model
        self.dataset = dataset
        self.features = features
        self.store = store
        self.config = config or OnlineTrainerConfig()
        self.shadow = shadow if shadow is not None else ShadowEvaluator(
            dataset, features, seed=self.config.seed
        )
        if reference is None:
            reference = type(model)(dataset, getattr(model, "config", None))
        reference.load_state_dict(model.state_dict())
        reference.eval()
        self.reference = reference
        # Attaching to a store that already has published snapshots:
        # serving is on that snapshot, not on the constructor's seed
        # weights, so both the training replica and the gate's
        # "serving" reference must start from it — otherwise the shadow
        # gate compares candidates against weights nobody serves.
        if store.current() is not None:
            published = store.load().state
            self.model.load_state_dict(published)
            self.reference.load_state_dict(published)

        named = dict(model.named_parameters())
        if self.config.update_mode == "user":
            trainable = [named[name] for name in _USER_PARAMS]
        elif self.config.update_mode == "embedding":
            trainable = [named[name] for name in _EMBEDDING_PARAMS]
        else:
            trainable = list(named.values())
        self.optimizer = SGD(
            trainable,
            lr=self.config.lr,
            momentum=self.config.momentum,
            grad_clip=self.config.grad_clip,
        )

        self._rng = np.random.default_rng(self.config.seed)
        self._pending: list[BookingEvent] = []
        self._touched: set[int] = set()
        self.steps = 0
        self.events_seen = 0
        self.events_trained = 0
        self.events_held_out = 0
        self.events_skipped = 0
        self.publishes = 0
        self.rejections = 0
        self.restarts = 0
        self.events_lost = 0
        self.last_loss: float | None = None
        self._steps_since_publish = 0

    # ------------------------------------------------------------------
    def restart(self) -> None:
        """Come back from a crash as the replacement trainer would.

        A trainer process that dies loses its in-flight weights,
        optimizer velocity, and event buffer; its replacement boots from
        the last *published* snapshot — exactly what serving is on — so
        training resumes from a state the shadow gate already approved.
        The store itself is untouched: the two-phase publish guarantees
        it is consistent no matter where the crash landed.
        """
        if self.store.current() is not None:
            state = self.store.load().state
            self.model.load_state_dict(state)
            self.reference.load_state_dict(state)
        self.optimizer = SGD(
            self.optimizer.parameters,
            lr=self.config.lr,
            momentum=self.config.momentum,
            grad_clip=self.config.grad_clip,
        )
        self.events_lost += len(self._pending)
        self._pending.clear()
        self._touched.clear()
        self._steps_since_publish = 0
        self.restarts += 1

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def consume(self, events) -> int:
        """Route a polled batch of bus events; returns bookings buffered.

        Clicks are feature-side signal only (the loop streams them into
        the RTFS directly); bookings are labels.  Every
        ``holdout_every``-th booking goes to the shadow window instead
        of the training buffer, so the gate always judges on events the
        candidate never trained on.
        """
        buffered = 0
        for event in events:
            if not isinstance(event, BookingEvent):
                continue
            self.events_seen += 1
            if self.events_seen % self.config.holdout_every == 0:
                self.shadow.observe(event)
                self.events_held_out += 1
            else:
                self._pending.append(event)
                buffered += 1
        return buffered

    @property
    def backlog(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def _requests_for(
        self, events: list[BookingEvent]
    ) -> list[tuple[DecisionPoint, list[ODPair]]]:
        requests = []
        for event in events:
            try:
                history = self.features.user_history(event.user_id, event.day)
            except KeyError:
                self.events_skipped += 1
                continue
            target = ODPair(event.origin, event.destination)
            candidates = [target] + self.dataset.sample_distractors(
                target, self.config.negatives_per_event, self._rng
            )
            point = DecisionPoint(
                history=history, target=target, day=event.day
            )
            requests.append((point, candidates))
        return requests

    def step(self) -> float | None:
        """One SGD step over up to ``batch_events`` buffered bookings.

        Returns the batch loss, or ``None`` when nothing was trainable.
        """
        if not self._pending:
            return None
        events = self._pending[: self.config.batch_events]
        del self._pending[: self.config.batch_events]
        requests = self._requests_for(events)
        if not requests:
            return None
        batch = self.dataset.batch_for_requests(requests)
        self.model.train()
        try:
            self.model.zero_grad()
            loss = self.model.loss(batch)
            loss.backward()
            self.optimizer.step()
        finally:
            self.model.eval()
        self._touched.update(
            int(point.history.user_id) for point, _ in requests
        )
        self.steps += 1
        self._steps_since_publish += 1
        self.events_trained += len(requests)
        self.last_loss = float(loss.data)
        registry = get_registry()
        if registry.enabled:
            registry.counter("online.train_steps").inc()
            registry.counter("online.events_trained").inc(len(requests))
            registry.gauge("online.train_loss").set(self.last_loss)
        return self.last_loss

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    @property
    def touched_users(self) -> list[int]:
        """Users whose serving rows moved since the last publish."""
        return sorted(self._touched)

    def _snapshot_metadata(
        self, decision: ShadowDecision | None
    ) -> tuple[dict, list[int] | None]:
        # Only the user-row mode changes a knowable row subset; see the
        # module docstring for why city-row movement voids the set.
        touched = (
            self.touched_users
            if self.config.update_mode == "user" else None
        )
        metadata = {
            "mode": self.config.update_mode,
            "touched_users": touched,
            "steps": self.steps,
            "events_trained": self.events_trained,
        }
        if decision is not None:
            metadata["shadow"] = {
                "candidate_mrr": decision.candidate_mrr,
                "serving_mrr": decision.serving_mrr,
                "win_rate": decision.win_rate,
                "window": decision.window,
            }
        return metadata, touched

    def _record_publish(self, info: SnapshotInfo) -> None:
        self.publishes += 1
        self._steps_since_publish = 0
        self.reference.load_state_dict(self.store.load(info.version).state)
        # Momentum keeps moving previously touched rows after their
        # gradients stop, so the set only resets when it is exact.
        if self.config.momentum == 0.0:
            self._touched.clear()

    def publish_baseline(self) -> SnapshotInfo:
        """Publish the current weights ungated (the bootstrap snapshot).

        Serving has to start somewhere: the first snapshot *is* the
        serving baseline the shadow gate will compare every candidate
        against, so there is nothing to gate it with.
        """
        metadata, _ = self._snapshot_metadata(None)
        metadata["bootstrap"] = True
        info = self.store.publish(
            self.model.state_dict(), metadata, keep_last=self.config.keep_last
        )
        self._record_publish(info)
        return info

    def maybe_publish(
        self, force: bool = False
    ) -> tuple[SnapshotInfo | None, ShadowDecision | None]:
        """Offer the current weights to the gate when a cadence is due.

        Returns ``(info, decision)``: ``info`` is ``None`` unless a
        snapshot was actually published.  An un-``ready`` shadow window
        defers (the cadence stays armed); a rejection resets the cadence
        so the candidate re-trains before its next attempt.
        """
        if not force:
            if self._steps_since_publish < self.config.publish_every_steps:
                return None, None
        if self.store.current() is None:
            return self.publish_baseline(), None
        decision = self.shadow.decide(self.model, self.reference)
        if decision.reason == "window":
            return None, decision
        if not decision.promote:
            self.rejections += 1
            self._steps_since_publish = 0
            return None, decision
        metadata, _ = self._snapshot_metadata(decision)
        info = self.store.publish(
            self.model.state_dict(), metadata, keep_last=self.config.keep_last
        )
        self._record_publish(info)
        return info, decision
