"""ServerLifecycle: readiness gating, flush hooks, graceful drain."""

from __future__ import annotations

import threading

import pytest

from repro.guard import (
    DRAINED,
    DRAINING,
    READY,
    STARTING,
    AdmissionRejected,
    ServerLifecycle,
)


class TestReadiness:
    def test_starts_not_ready(self):
        lifecycle = ServerLifecycle()
        assert lifecycle.state == STARTING
        assert not lifecycle.ready
        with pytest.raises(AdmissionRejected) as excinfo:
            lifecycle.request_started()
        assert excinfo.value.reason == "not_ready"

    def test_mark_ready_opens_admission(self):
        lifecycle = ServerLifecycle()
        lifecycle.mark_ready()
        assert lifecycle.state == READY and lifecycle.ready
        lifecycle.request_started()
        assert lifecycle.in_flight == 1
        lifecycle.request_finished()

    def test_cannot_revive_a_draining_server(self):
        lifecycle = ServerLifecycle()
        lifecycle.mark_ready()
        lifecycle.drain()
        with pytest.raises(RuntimeError, match="drained"):
            lifecycle.mark_ready()

    def test_health_payload(self):
        lifecycle = ServerLifecycle()
        lifecycle.mark_ready()
        health = lifecycle.health()
        assert health["state"] == READY and health["ready"]
        assert health["in_flight"] == 0 and health["uptime_s"] >= 0

    def test_finish_without_start_is_a_bug(self):
        lifecycle = ServerLifecycle()
        lifecycle.mark_ready()
        with pytest.raises(RuntimeError, match="without a matching"):
            lifecycle.request_finished()


class TestDrain:
    def test_drain_refuses_new_requests(self):
        lifecycle = ServerLifecycle()
        lifecycle.mark_ready()
        assert lifecycle.drain() is True
        assert lifecycle.state == DRAINED
        with pytest.raises(AdmissionRejected) as excinfo:
            lifecycle.request_started()
        assert excinfo.value.reason == "draining"

    def test_drain_waits_for_in_flight(self):
        """drain() must not report drained while a request is running."""
        lifecycle = ServerLifecycle()
        lifecycle.mark_ready()
        lifecycle.request_started()
        drained = threading.Event()

        def drainer():
            assert lifecycle.drain(timeout_s=10.0) is True
            drained.set()

        thread = threading.Thread(target=drainer)
        thread.start()
        # The drainer is blocked on the in-flight request...
        assert not drained.wait(0.05)
        assert lifecycle.state == DRAINING
        # ...and completes only once the request finishes.
        lifecycle.request_finished()
        assert drained.wait(5.0)
        thread.join()
        assert lifecycle.state == DRAINED

    def test_drain_timeout_reports_false_and_stays_draining(self):
        lifecycle = ServerLifecycle()
        lifecycle.mark_ready()
        lifecycle.request_started()
        assert lifecycle.drain(timeout_s=0.02) is False
        assert lifecycle.state == DRAINING      # admission stays closed
        with pytest.raises(AdmissionRejected):
            lifecycle.request_started()
        # A later drain() resumes waiting and can still complete.
        lifecycle.request_finished()
        assert lifecycle.drain(timeout_s=1.0) is True
        assert lifecycle.state == DRAINED

    def test_double_drain_is_idempotent(self):
        lifecycle = ServerLifecycle()
        lifecycle.mark_ready()
        assert lifecycle.drain() is True
        assert lifecycle.drain() is True


class TestDrainConcurrency:
    """The races a cluster rolling-restart actually exercises: health
    probes hammering the lifecycle mid-drain, and drain() called twice
    concurrently (gateway-initiated roll + an operator's manual drain)."""

    def test_drain_under_concurrent_readiness_probes(self):
        lifecycle = ServerLifecycle()
        lifecycle.mark_ready()
        lifecycle.request_started()
        stop = threading.Event()
        snapshots = []

        def probe():
            while not stop.is_set():
                health = lifecycle.health()
                snapshots.append((health["state"], health["ready"],
                                  health["in_flight"]))

        probes = [threading.Thread(target=probe) for _ in range(3)]
        for thread in probes:
            thread.start()

        def finisher():
            # Let the drain enter its wait loop before finishing.
            stop.wait(0.05)
            lifecycle.request_finished()

        finishing = threading.Thread(target=finisher)
        finishing.start()
        try:
            assert lifecycle.drain(timeout_s=10.0) is True
        finally:
            stop.set()
            finishing.join()
            for thread in probes:
                thread.join()
        assert lifecycle.state == DRAINED
        assert snapshots, "probes must have observed the lifecycle"
        for state, ready, in_flight in snapshots:
            # Every snapshot is internally consistent: once the drain
            # starts, no probe may ever see ready=True again.
            assert state in (READY, DRAINING, DRAINED)
            assert ready is (state == READY)
            assert in_flight >= 0
        probed_states = {state for state, _, _ in snapshots}
        assert DRAINING in probed_states or DRAINED in probed_states

    def test_concurrent_drains_both_report_drained(self):
        lifecycle = ServerLifecycle()
        lifecycle.mark_ready()
        lifecycle.request_started()
        barrier = threading.Barrier(2)
        results = []
        lock = threading.Lock()

        def drainer():
            barrier.wait()
            outcome = lifecycle.drain(timeout_s=10.0)
            with lock:
                results.append(outcome)

        drainers = [threading.Thread(target=drainer) for _ in range(2)]
        for thread in drainers:
            thread.start()
        # Both drains are now blocked on the same in-flight request.
        lifecycle.request_finished()
        for thread in drainers:
            thread.join(timeout=15.0)
        assert results == [True, True]
        assert lifecycle.state == DRAINED
