"""Deadline budgets and expiry."""

import pytest

from repro.resilience import Deadline, DeadlineExceeded


class FakeClock:
    """A manually advanced monotonic clock (seconds)."""

    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance_ms(self, ms: float) -> None:
        self.now += ms / 1000.0


class TestDeadline:
    def test_remaining_counts_down(self):
        clock = FakeClock()
        deadline = Deadline(50.0, clock=clock)
        assert deadline.remaining_ms() == pytest.approx(50.0)
        clock.advance_ms(20)
        assert deadline.remaining_ms() == pytest.approx(30.0)
        assert not deadline.expired

    def test_expiry_and_check(self):
        clock = FakeClock()
        deadline = Deadline(10.0, clock=clock)
        clock.advance_ms(10)
        assert deadline.expired
        assert deadline.remaining_ms() == 0.0
        with pytest.raises(DeadlineExceeded):
            deadline.check("rank")

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline(0.0)
        with pytest.raises(ValueError):
            Deadline(-5.0)
