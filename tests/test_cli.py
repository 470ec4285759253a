"""Command-line interface, and the drill commands' exit-code gates."""

import functools
import threading

import pytest

from repro.cli import build_parser, main, run_experiment
from repro.online import PUBLISH_STAGES


class TestParser:
    def test_rejects_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table99"])

    def test_defaults(self):
        args = build_parser().parse_args(["table3"])
        assert args.scale == "small"
        assert args.seed == 0

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out and "fig7" in out and "obs" in out


class TestDispatch:
    def test_table1_tiny(self, capsys):
        assert main(["table1", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "training_samples" in out

    def test_table2_tiny(self, capsys):
        assert main(["table2", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "foursquare" in out and "gowalla" in out

    def test_unknown_experiment_value_error(self):
        class FakeArgs:
            experiment = "nope"

        with pytest.raises(ValueError):
            run_experiment(FakeArgs())

    def test_obs_from_snapshot(self, tmp_path, capsys):
        from repro.obs import MetricsRegistry, Tracer, write_jsonl

        registry = MetricsRegistry()
        registry.counter("serving.requests").inc(4)
        registry.histogram("serving.latency_ms").observe(2.5)
        tracer = Tracer()
        with tracer.span("recommend"):
            pass
        snapshot = tmp_path / "obs.jsonl"
        write_jsonl(snapshot, registry, tracer)

        assert main(["obs", "--input", str(snapshot)]) == 0
        out = capsys.readouterr().out
        assert "serving.requests" in out
        assert "== spans ==" in out and "recommend" in out

    def test_obs_bad_snapshot_paths(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["obs", "--input", str(tmp_path / "missing.jsonl")])
        garbage = tmp_path / "garbage.jsonl"
        garbage.write_text("not json at all\n")
        with pytest.raises(SystemExit, match="not a JSONL snapshot"):
            main(["obs", "--input", str(garbage)])


def _run(argv):
    """The printed report of one command (a failed gate raises SystemExit)."""
    return run_experiment(build_parser().parse_args(argv))


class TestOverloadGates:
    """``repro chaos --overload`` exits non-zero unless its report holds."""

    @staticmethod
    def _report(**overrides):
        latency = {"count": 4, "p50_ms": 5.0, "p99_ms": 9.0, "max_ms": 9.5}
        report = {
            "offered": 24, "clients": 8, "capacity": 2,
            "offered_multiplier": 4, "admitted": 13, "shed": 11,
            "empty_responses": 0,
            "per_priority": {"interactive": {
                "offered": 24, "shed": 11, "degraded": 11, "empty": 0,
            }},
            "admitted_latency_ms": latency, "shed_latency_ms": latency,
            "drained": True, "post_drain_degraded": True,
            "final_limit": 2, "adaptations": 0,
        }
        report.update(overrides)
        return report

    def test_accepts_healthy_report(self, monkeypatch):
        import repro.guard.overload

        monkeypatch.setattr(repro.guard.overload, "run_overload",
                            lambda config: self._report())
        assert "drained=True" in _run(["chaos", "--overload"])

    @pytest.mark.parametrize("overrides, message", [
        ({"drained": False}, "drain did not complete"),
        ({"empty_responses": 2}, "2 empty responses"),
        ({"admitted": 0, "shed": 24}, "no request was admitted"),
        ({"post_drain_degraded": False}, "after the drain was not degraded"),
    ], ids=["not_drained", "empty_responses", "none_admitted",
            "admitted_after_drain"])
    def test_rejects_broken_contract(self, monkeypatch, overrides, message):
        import repro.guard.overload

        monkeypatch.setattr(repro.guard.overload, "run_overload",
                            lambda config: self._report(**overrides))
        with pytest.raises(SystemExit, match=message):
            _run(["chaos", "--overload"])


class TestChaosClusterGates:
    """``repro chaos --cluster`` exits non-zero unless its report holds."""

    @staticmethod
    def _report(**traffic):
        counters = {name: 0.0 for name in ("routed", "spilled", "retried",
                                            "hedged", "hedge_wins",
                                            "breaker_forced", "rejected")}
        report = {
            "workers": 3,
            "traffic": {"requests": 80, "ok": 80, "degraded": 3, "lost": 0,
                        "errors": []},
            "events": [],
            "supervisor": {"restarts": 2, "abandoned": []},
            "deaths": {"crash": 1.0, "wedged": 1.0},
            "worker_restarts": 2.0,
            "gateway": counters,
        }
        report["traffic"].update(traffic)
        return report

    @pytest.mark.parametrize("traffic, restarts, message", [
        ({}, 2, None),
        ({"requests": 0, "ok": 0, "degraded": 0}, 2, "no request was sent"),
        ({"lost": 2, "errors": ["ConnectionError: gone"]}, 2,
         "2 lost requests"),
        ({}, 1, "both chaos victims"),
    ], ids=["healthy", "no_traffic", "lost_requests", "one_replacement"])
    def test_gates(self, monkeypatch, traffic, restarts, message):
        import repro.cluster

        report = self._report(**traffic)
        report["supervisor"]["restarts"] = restarts
        monkeypatch.setattr(repro.cluster, "run_chaos_drill",
                            lambda config: report)
        if message is None:
            assert "lost=0" in _run(["chaos", "--cluster"])
        else:
            with pytest.raises(SystemExit, match=message):
                _run(["chaos", "--cluster"])


class _FakeCluster:
    """Stands in for ``ServingCluster`` so ``repro cluster``'s exit code is
    tested without worker processes.  The client fails every request after
    the first ``fail_after`` (the drain pass comes second)."""

    gateway_address = ("127.0.0.1", 0)

    def __init__(self, config, drained=True, fail_after=None):
        self.drained = drained
        self.fail_after = fail_after
        self.calls = 0
        self.gateway = self
        self._lock = threading.Lock()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def client(self):
        return self

    def recommend(self, payload):
        with self._lock:
            self.calls += 1
            calls = self.calls
        if self.fail_after is not None and calls > self.fail_after:
            raise ConnectionError("worker went away")
        return {"routed_worker": 0}

    def cluster_health(self):
        return {"ready": 2, "workers": 2,
                "gateway": {"routed": 0.0, "retried": 0.0, "rejected": 0.0}}

    def rolling_restart(self, worker_ids):
        return [{"worker_id": worker_ids[0], "drained": self.drained,
                 "model_version": 2}]


class TestClusterGates:
    """``repro cluster`` exits non-zero unless the rolling drain held."""

    ARGV = ["cluster", "--workers", "2", "--requests", "8"]

    @staticmethod
    def _fake(monkeypatch, **kwargs):
        import repro.cluster

        monkeypatch.setattr(repro.cluster, "ServingCluster",
                            functools.partial(_FakeCluster, **kwargs))

    def test_accepts_clean_drain(self, monkeypatch):
        self._fake(monkeypatch)
        assert "drained=True" in _run(self.ARGV)

    def test_rejects_single_worker(self):
        with pytest.raises(SystemExit, match="must be >= 2"):
            _run(["cluster", "--workers", "1"])

    def test_rejects_lost_requests_during_drain(self, monkeypatch):
        self._fake(monkeypatch, fail_after=8)
        with pytest.raises(SystemExit, match="failed during the rolling"):
            _run(self.ARGV)

    def test_rejects_incomplete_drain(self, monkeypatch):
        self._fake(monkeypatch, drained=False)
        with pytest.raises(SystemExit, match="did not drain"):
            _run(self.ARGV)


def _stage(name, **overrides):
    entry = {
        "stage": name, "crashed": True, "old_version_preserved": True,
        "recovered": True, "serving_errors": 0, "torn_reads": 0,
        "version_at_crash": 3, "version_final": 5, "trainer_restarts": 1,
    }
    entry.update(overrides)
    return entry


def _online_report(**overrides):
    report = {
        "happy": {
            "bookings": 96, "steps": 14, "publishes": 7, "rejections": 0,
            "swaps": 7, "scored": 4000, "serving_errors": 0,
            "torn_reads": 0, "unique_digests": 8, "store_version": 8,
        },
        "crash_matrix": [_stage(s) for s in PUBLISH_STAGES],
        "crash_loop": {
            "crashes": 3, "trainer_restarts": 2, "abandoned": True,
            "store_version": 1, "serving_errors": 0,
        },
        "torn_reads_total": 0,
        "serving_errors_total": 0,
        "versions_monotonic": True,
        "update_lag_budget_ms": 5000.0,
        "update_lag_ms": {"count": 20, "p50": 30.0, "p99": 90.0,
                          "max": 120.0},
        "swap_pause_ms": {"count": 20, "p50": 0.5, "p99": 2.0, "max": 3.0},
    }
    report.update(overrides)
    return report


class TestOnlineGates:
    """``repro online`` exits non-zero unless its report holds."""

    @pytest.fixture
    def check(self, monkeypatch):
        """Run ``repro online --quick`` on a given report and CPU count."""
        import repro.cli
        import repro.online

        def run(report, cpus=4):
            monkeypatch.setattr(repro.online, "run_online_drill",
                                lambda config: report)
            monkeypatch.setattr(repro.cli, "_available_cpus", lambda: cpus)
            return _run(["online", "--quick"])

        return run

    def test_accepts_healthy_report(self, check):
        assert "versions_monotonic=True" in check(_online_report())

    def test_rejects_torn_reads(self, check):
        with pytest.raises(SystemExit, match="torn read"):
            check(_online_report(torn_reads_total=1))

    def test_rejects_serving_errors(self, check):
        with pytest.raises(SystemExit, match="serving error"):
            check(_online_report(serving_errors_total=2))

    def test_rejects_backwards_version(self, check):
        with pytest.raises(SystemExit, match="moved backwards"):
            check(_online_report(versions_monotonic=False))

    def test_rejects_missing_crash_stage(self, check):
        report = _online_report()
        report["crash_matrix"] = report["crash_matrix"][:3]
        with pytest.raises(SystemExit, match="crash matrix covered"):
            check(report)

    def test_rejects_stage_that_never_crashed(self, check):
        report = _online_report()
        report["crash_matrix"][1]["crashed"] = False
        with pytest.raises(SystemExit, match="never crashed"):
            check(report)

    def test_rejects_lost_old_version(self, check):
        report = _online_report()
        report["crash_matrix"][2]["old_version_preserved"] = False
        with pytest.raises(SystemExit, match="unexpected version"):
            check(report)

    def test_rejects_unrecovered_stage(self, check):
        report = _online_report()
        report["crash_matrix"][0]["recovered"] = False
        with pytest.raises(SystemExit, match="did not recover"):
            check(report)

    def test_rejects_crash_loop_that_never_crashed(self, check):
        report = _online_report()
        report["crash_loop"]["crashes"] = 0
        with pytest.raises(SystemExit, match="trainer never crashed"):
            check(report)

    def test_rejects_unabandoned_crash_loop(self, check):
        report = _online_report()
        report["crash_loop"]["abandoned"] = False
        with pytest.raises(SystemExit, match="not abandoned"):
            check(report)

    def test_rejects_lag_over_budget(self, check):
        report = _online_report()
        report["update_lag_ms"]["p99"] = 9000.0
        with pytest.raises(SystemExit, match="exceeds.*budget"):
            check(report)

    def test_single_cpu_skips_lag_gate_only(self, check):
        report = _online_report()
        report["update_lag_ms"]["p99"] = 9000.0
        assert "update-lag gate skipped" in check(report, cpus=1)
        # Consistency contracts are hardware-independent.
        report["torn_reads_total"] = 1
        with pytest.raises(SystemExit, match="torn read"):
            check(report, cpus=1)
