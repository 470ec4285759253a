"""AdmissionController: the composed admission sequence and Permit."""

from __future__ import annotations

import pytest

from repro.guard import (
    AdaptiveLimitConfig,
    AdmissionController,
    AdmissionRejected,
    GuardConfig,
    Priority,
    ShedPolicy,
)
from repro.obs import use_registry
from repro.resilience import Deadline


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"max_concurrent": 0}, {"max_queue": -1}, {"queue_timeout_ms": -1.0},
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            GuardConfig(**kwargs)


class TestAdmission:
    def test_admit_and_release(self):
        controller = AdmissionController(GuardConfig(max_concurrent=2))
        with controller.admit() as permit:
            assert permit.priority is Priority.INTERACTIVE
            assert controller.limiter.in_flight == 1
            assert controller.lifecycle.in_flight == 1
        assert controller.limiter.in_flight == 0
        assert controller.lifecycle.in_flight == 0

    def test_permit_release_is_idempotent(self):
        controller = AdmissionController(GuardConfig())
        permit = controller.admit()
        permit.release()
        permit.release()          # second release is a no-op, not a bug
        assert controller.limiter.in_flight == 0

    def test_queue_full_when_slots_and_queue_are_taken(self):
        controller = AdmissionController(
            GuardConfig(max_concurrent=1, max_queue=0, queue_timeout_ms=5.0,
                        shed=ShedPolicy(interactive_at=1.0))
        )
        held = controller.admit()
        with pytest.raises(AdmissionRejected) as excinfo:
            controller.admit()
        # With zero queue the shed check fires at full occupancy first.
        assert excinfo.value.reason in ("queue_full", "shed:interactive")
        held.release()

    def test_background_sheds_before_interactive(self):
        controller = AdmissionController(
            GuardConfig(max_concurrent=2, max_queue=2)
        )
        permits = [controller.admit(), controller.admit()]
        # pressure = 2/4 = 0.5 -> background sheds, interactive admitted.
        with pytest.raises(AdmissionRejected) as excinfo:
            controller.admit(priority=Priority.BACKGROUND)
        assert excinfo.value.reason == "shed:background"
        for permit in permits:
            permit.release()
        controller.admit(priority=Priority.BACKGROUND).release()

    def test_expired_deadline_cannot_wait_in_queue(self):
        controller = AdmissionController(
            GuardConfig(max_concurrent=1, max_queue=4,
                        queue_timeout_ms=10_000.0)
        )
        held = controller.admit()
        deadline_clock = FakeClock()
        dead = Deadline(budget_ms=1.0, clock=deadline_clock)
        deadline_clock.advance(1.0)       # budget fully spent
        with pytest.raises(AdmissionRejected) as excinfo:
            controller.admit(deadline=dead)
        assert excinfo.value.reason == "queue_timeout"
        held.release()

    def test_drain_closes_admission(self):
        controller = AdmissionController(GuardConfig())
        assert controller.drain(timeout_s=1.0) is True
        with pytest.raises(AdmissionRejected) as excinfo:
            controller.admit()
        assert excinfo.value.reason == "draining"

    def test_admitted_latency_feeds_aimd(self):
        clock = FakeClock()
        controller = AdmissionController(
            GuardConfig(
                max_concurrent=4,
                adaptive=AdaptiveLimitConfig(
                    target_latency_ms=100.0, min_limit=1, max_limit=8,
                    window=2,
                ),
            ),
            clock=clock,
        )
        for _ in range(2):
            permit = controller.admit()
            clock.advance(0.4)    # 400ms >> 100ms target
            permit.release()
        assert controller.limiter.limit == 2
        assert controller.limiter.adaptations == 1

    def test_counters(self):
        with use_registry() as registry:
            controller = AdmissionController(GuardConfig(max_concurrent=1))
            controller.admit(priority=Priority.BATCH).release()
            assert registry.counter("guard.admitted").value == 1
            assert registry.counter(
                "guard.admitted", labels={"priority": "batch"}
            ).value == 1
