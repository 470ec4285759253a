"""OnlineLearningLoop + SnapshotFollower: crash containment, hot-follow."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.schema import BookingEvent, ClickEvent
from repro.online import EventBus, OnlineLearningLoop, SnapshotFollower


def _booking(day: int, user: int = 0) -> BookingEvent:
    return BookingEvent(user_id=user, origin=0, destination=2, day=day,
                        price=25.0)


class FakeFeatures:
    def __init__(self):
        self.bookings: list[BookingEvent] = []
        self.clicks: list[ClickEvent] = []

    def record_booking(self, event):
        self.bookings.append(event)

    def record_click(self, event):
        self.clicks.append(event)


class FakeTrainer:
    """Minimal trainer double with a scriptable crash switch."""

    def __init__(self, store):
        self.store = store
        self.fail = False
        self.steps = 0
        self.backlog = 0
        self.events_seen = 0
        self.events_trained = 0
        self.events_held_out = 0
        self.publishes = 0
        self.rejections = 0
        self.restarts = 0
        self.events_lost = 0
        self.consumed: list = []

    def consume(self, events):
        self.consumed.extend(events)
        self.events_seen += len(events)
        self.backlog += len(events)
        return len(events)

    def step(self):
        if self.fail:
            raise RuntimeError("scripted trainer crash")
        taken = self.backlog
        self.backlog = 0
        self.steps += 1
        self.events_trained += taken
        return 0.5

    def maybe_publish(self, force=False):
        return None, None

    def restart(self):
        self.events_lost += self.backlog
        self.backlog = 0
        self.restarts += 1


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture()
def clock():
    return _Clock()


def _loop(store, clock, budget=2, followers=()):
    bus = EventBus()
    features = FakeFeatures()
    trainer = FakeTrainer(store)
    loop = OnlineLearningLoop(
        bus, features, trainer, followers,
        restart_budget=budget, restart_backoff_s=0.1,
        restart_backoff_max_s=1.0, time_source=clock,
    )
    return bus, features, trainer, loop


class TestHealthyTicks:
    def test_events_fan_out_to_features_and_trainer(self, store, clock):
        bus, features, trainer, loop = _loop(store, clock)
        bus.publish(ClickEvent(user_id=0, origin=0, destination=2, day=1))
        bus.publish(_booking(2))
        result = loop.tick()
        assert result["ingested"] == 2
        assert [e.day for e in features.clicks] == [1]
        assert [e.day for e in features.bookings] == [2]
        # The trainer saw both too (it filters clicks itself).
        assert trainer.events_seen == 2
        assert trainer.steps == 1

    def test_status_shape(self, store, clock):
        _, _, _, loop = _loop(store, clock)
        status = loop.status()
        assert status["trainer"]["abandoned"] is False
        assert status["store_version"] == 0


class TestCrashContainment:
    def test_crash_starts_backoff_and_restart_resumes(self, store, clock):
        bus, features, trainer, loop = _loop(store, clock)
        trainer.fail = True
        bus.publish(_booking(1))
        result = loop.tick()
        assert result["crashes"] == 1
        assert result["backing_off"] is True
        assert not result["abandoned"]
        assert loop.trainer_restarts == 0

        # Still inside the backoff window: no restart, but features keep
        # flowing — freshness must survive a broken trainer.
        trainer.fail = False
        bus.publish(ClickEvent(user_id=0, origin=0, destination=2, day=3))
        result = loop.tick()
        assert result["backing_off"] is True
        assert loop.trainer_restarts == 0
        assert len(features.clicks) == 1

        # Backoff served: the replacement boots and trains this tick.
        clock.now += 10.0
        bus.publish(_booking(4))
        result = loop.tick()
        assert loop.trainer_restarts == 1
        assert trainer.restarts == 1
        assert result["backing_off"] is False
        assert trainer.steps >= 1

    def test_budget_exhaustion_abandons_training(self, store, clock):
        bus, features, trainer, loop = _loop(store, clock, budget=1)
        trainer.fail = True
        bus.publish(_booking(1))
        loop.tick()                     # crash 1: consumes the budget
        clock.now += 10.0
        bus.publish(_booking(2))
        loop.tick()                     # restart, crash 2: budget empty
        assert loop.trainer_crashes == 2
        assert loop.abandoned is True
        assert "scripted trainer crash" in loop.last_error

        # Abandoned is terminal for the write side only: features still
        # ingest, and the trainer queue is drained, not left to rot.
        bus.publish(ClickEvent(user_id=0, origin=0, destination=2, day=9))
        result = loop.tick()
        assert result["abandoned"] is True
        assert len(features.clicks) == 1
        assert loop._trainer_sub.depth == 0
        assert trainer.restarts == 1    # never restarted again


class RecordingTarget:
    def __init__(self):
        self.swaps: list = []

    def swap(self, state, touched_users=None):
        self.swaps.append((sorted(state), touched_users))
        return 0.25


class TestSnapshotFollower:
    def test_applies_each_version_once_forward_only(self, store):
        target = RecordingTarget()
        follower = SnapshotFollower(store, target)
        assert follower.poll() is None          # empty store

        store.publish({"w": np.ones(3)}, {"touched_users": [1, 2]})
        assert follower.poll() == 1
        assert follower.poll() is None          # already applied
        assert target.swaps == [(["w"], [1, 2])]

        store.publish({"w": np.zeros(3)}, {"touched_users": None})
        assert follower.poll() == 2
        assert follower.version == 2
        assert follower.swaps == 2
        assert len(follower.lag_history_ms) == 2
        assert len(follower.pause_history_ms) == 2
        assert follower.staleness_s >= 0.0

    def test_passes_touched_users_to_swap(self, store):
        target = RecordingTarget()
        follower = SnapshotFollower(store, target)
        store.publish({"w": np.ones(3)}, {"touched_users": [7]})
        follower.poll()
        assert target.swaps == [(["w"], [7])]

    def test_jump_unions_touched_users_across_skipped_versions(self, store):
        target = RecordingTarget()
        follower = SnapshotFollower(store, target)
        store.publish({"w": np.ones(3)}, {"touched_users": [1]})
        assert follower.poll() == 1
        # Two publishes land between polls: applying only the newest
        # delta would leave user 2's rows on v1 while the rest serve v3
        # — the cross-version blend the store contract forbids.
        store.publish({"w": np.full(3, 2.0)}, {"touched_users": [2]})
        store.publish({"w": np.full(3, 3.0)}, {"touched_users": [3]})
        assert follower.poll() == 3
        assert target.swaps[-1] == (["w"], [2, 3])

    def test_jump_over_full_refresh_refreshes_fully(self, store):
        target = RecordingTarget()
        follower = SnapshotFollower(store, target)
        store.publish({"w": np.ones(3)}, {"touched_users": [1]})
        follower.poll()
        store.publish({"w": np.full(3, 2.0)}, {"touched_users": None})
        store.publish({"w": np.full(3, 3.0)}, {"touched_users": [3]})
        follower.poll()
        assert target.swaps[-1] == (["w"], None)

    def test_loop_polls_followers_every_tick(self, store, clock):
        target = RecordingTarget()
        follower = SnapshotFollower(store, target)
        bus, _, trainer, loop = _loop(store, clock, followers=[follower])
        store.publish({"w": np.ones(3)})
        loop.tick()
        assert follower.version == 1
        # Followers are read-side: they keep swapping even after the
        # write side is abandoned.
        loop.abandoned = True
        store.publish({"w": np.zeros(3)})
        loop.tick()
        assert follower.version == 2
