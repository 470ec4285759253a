"""End-to-end drill: the crash matrix must hold under concurrent traffic."""

from __future__ import annotations

import pytest

from repro.obs import MetricsRegistry, use_registry
from repro.online import OnlineDrillConfig, PUBLISH_STAGES, run_online_drill

QUICK = OnlineDrillConfig(
    num_users=60, num_cities=20, events=36, crash_events=24,
    hammer_threads=2, holdout_every=3, shadow_window=24,
    shadow_min_window=4, seed=0,
)


@pytest.fixture(scope="module")
def report():
    with use_registry(MetricsRegistry()):
        return run_online_drill(QUICK)


class TestHappyPath:
    def test_traffic_flowed_and_published(self, report):
        happy = report["happy"]
        assert happy["bookings"] == QUICK.events
        assert happy["steps"] > 0
        assert happy["publishes"] > 0
        assert happy["swaps"] > 0
        assert happy["scored"] > 0
        assert happy["store_version"] >= 2   # baseline + >=1 promotion

    def test_bit_identity_under_hot_swap(self, report):
        happy = report["happy"]
        assert happy["serving_errors"] == 0
        assert happy["torn_reads"] == 0
        # Several distinct versions were actually observed mid-swap —
        # the digest check is only meaningful if scores really changed.
        assert happy["unique_digests"] >= 2


class TestCrashMatrix:
    def test_every_stage_drilled(self, report):
        stages = [entry["stage"] for entry in report["crash_matrix"]]
        assert stages == list(PUBLISH_STAGES)

    @pytest.mark.parametrize("index", range(len(PUBLISH_STAGES)))
    def test_stage_contract(self, report, index):
        entry = report["crash_matrix"][index]
        assert entry["crashed"], entry["stage"]
        assert entry["old_version_preserved"], entry
        assert entry["recovered"], entry
        assert entry["serving_errors"] == 0
        assert entry["torn_reads"] == 0
        assert entry["trainer_restarts"] >= 1


class TestCrashLoop:
    def test_abandoned_within_budget_serving_alive(self, report):
        loop = report["crash_loop"]
        assert loop["abandoned"] is True
        assert loop["crashes"] == QUICK.crash_loop_budget + 1
        assert loop["trainer_restarts"] == QUICK.crash_loop_budget
        # The store never moved past the baseline — and serving kept
        # answering on it the whole time.
        assert loop["store_version"] == 1
        assert loop["serving_errors"] == 0


class TestReportGates:
    def test_totals_are_clean(self, report):
        assert report["torn_reads_total"] == 0
        assert report["serving_errors_total"] == 0
        assert report["versions_monotonic"] is True

    def test_lag_percentiles_recorded(self, report):
        lag = report["update_lag_ms"]
        assert lag["count"] > 0
        assert 0 <= lag["p50"] <= lag["p99"] <= lag["max"]
        pause = report["swap_pause_ms"]
        assert pause["count"] == lag["count"]

    def test_validator_accepts_the_real_report(self, report, monkeypatch):
        # The oracle is the command's own check: ``repro online`` exits 0
        # when its drill returns this real report.
        import repro.online
        from repro.cli import main

        monkeypatch.setattr(repro.online, "run_online_drill",
                            lambda config: report)
        assert main(["online", "--quick"]) == 0
