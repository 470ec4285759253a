"""Command-line interface: regenerate any table or figure of the paper.

Usage::

    python -m repro table3 --scale small
    python -m repro fig6b --scale tiny
    python -m repro fig7 --scale small --seed 1
    python -m repro obs --scale tiny
    python -m repro obs --input benchmarks/results/obs_snapshot.jsonl
    python -m repro chaos --seed 0
    python -m repro chaos --overload
    python -m repro chaos --cluster
    python -m repro cluster --workers 2 --requests 16
    python -m repro online --quick
    python -m repro list

The drills (``chaos --overload``, ``chaos --cluster``, ``cluster`` and
``online``) exit non-zero when their report breaks the contract they
exist to show.  Latency and throughput are measured by ``bench/``.
"""

from __future__ import annotations

import argparse
import os
import sys

from .experiments import (
    format_abtest,
    get_scale,
    run_abtest,
    run_depth_sweep,
    run_fliggy_comparison,
    run_heads_sweep,
    run_lbsn_comparison,
)

__all__ = ["main", "build_parser"]

_EXPERIMENTS = {
    "table1": "Fliggy dataset statistics (Table I)",
    "table2": "LBSN dataset statistics (Table II)",
    "table3": "method comparison on Fliggy (Table III)",
    "table4": "single-task comparison on LBSN data (Table IV)",
    "table5": "training/inference efficiency (Table V)",
    "fig6a": "attention-heads sweep (Figure 6a)",
    "fig6b": "exploration-depth sweep (Figure 6b)",
    "fig7": "simulated online A/B test (Figure 7)",
    "obs": "observability summary (live demo run, or --input snapshot.jsonl)",
    "chaos": "seeded fault-injection demo (degraded serving); "
             "--overload runs the admission-control overload scenario, "
             "--cluster the process-level self-healing drill "
             "(SIGKILL + SIGSTOP under traffic); both drills exit "
             "non-zero when their contract fails",
    "cluster": "multi-process serving demo: N workers behind the routing "
               "gateway, then a rolling zero-downtime drain of one worker "
               "under live traffic",
    "online": "online learning drill: streaming events -> incremental "
              "SGD -> shadow-gated two-phase snapshot publishes, "
              "hot-swapped into a live serving session under concurrent "
              "scoring threads, with the publisher crashed at every "
              "protocol stage; exits non-zero on any torn read, serving "
              "error, or failed recovery",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ODNET reproduction — regenerate the paper's tables "
                    "and figures",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_EXPERIMENTS) + ["list"],
        help="experiment id (or 'list' to describe them)",
    )
    parser.add_argument("--scale", default="small",
                        choices=("tiny", "small", "medium"),
                        help="experiment scale preset (default: small)")
    parser.add_argument("--seed", type=int, default=0,
                        help="training/evaluation seed (default: 0)")
    parser.add_argument("--dataset", default="foursquare",
                        choices=("foursquare", "gowalla"),
                        help="LBSN dataset for table4 (default: foursquare)")
    parser.add_argument("--input", default=None, metavar="SNAPSHOT",
                        help="for 'obs': render an existing JSONL snapshot "
                             "instead of running the live demo")
    parser.add_argument("--quick", action="store_true",
                        help="for 'online': CI-smoke sizes "
                             "(seconds, not minutes)")
    parser.add_argument("--overload", action="store_true",
                        help="for 'chaos': run the overload scenario "
                             "(4x capacity, mixed priorities, graceful "
                             "drain) instead of the fault-injection demo; "
                             "exits non-zero unless traffic was admitted, "
                             "no response was empty, and the drain "
                             "completed and degraded later requests")
    parser.add_argument("--cluster", action="store_true",
                        help="for 'chaos': run the process-level "
                             "self-healing drill (SIGKILL one worker, "
                             "SIGSTOP another, under continuous traffic; "
                             "exits non-zero on any lost request)")
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="for 'cluster': number of worker processes "
                             "(default: 2)")
    parser.add_argument("--requests", type=int, default=24, metavar="R",
                        help="for 'cluster': requests to serve through the "
                             "gateway before and during the rolling drain "
                             "(default: 24)")
    return parser


def _table1(args) -> str:
    from .data import generate_fliggy_dataset

    scale = get_scale(args.scale)
    stats = generate_fliggy_dataset(scale.fliggy_config()).statistics()
    return "\n".join(f"{key:<24} {value}" for key, value in stats.items())


def _table2(args) -> str:
    from .data import generate_lbsn_dataset

    scale = get_scale(args.scale)
    lines = []
    for name in ("foursquare", "gowalla"):
        dataset = generate_lbsn_dataset(scale.lbsn_config(name))
        checkins = sum(
            len(b) for b in dataset.bookings_by_user.values()
        ) + len(dataset.bookings_by_user)
        lines.append(
            f"{name:<12} users={dataset.num_users:<6} "
            f"POIs={dataset.num_cities:<6} check-ins={checkins}"
        )
    return "\n".join(lines)


def _obs(args) -> str:
    """Render a telemetry summary.

    With ``--input`` the given JSONL snapshot is parsed back and rendered.
    Otherwise a small end-to-end demo (train ODNET, serve a handful of
    requests) runs under a live registry + tracer and its summary is
    rendered — the quickest way to see what the obs subsystem records.
    """
    from .obs import read_jsonl, render_records, render_summary, use_observability

    if args.input:
        import json

        try:
            records = read_jsonl(args.input)
        except OSError as exc:
            raise SystemExit(f"repro obs: cannot read {args.input}: {exc}")
        except json.JSONDecodeError as exc:
            raise SystemExit(
                f"repro obs: {args.input} is not a JSONL snapshot ({exc})"
            )
        return render_records(records)

    from .core import ODNETConfig, build_odnet
    from .data import ODDataset, generate_fliggy_dataset
    from .experiments import get_scale
    from .serving import FlightRecommender
    from .train import Trainer

    scale = get_scale(args.scale)
    with use_observability() as (registry, tracer):
        dataset = ODDataset(
            generate_fliggy_dataset(scale.fliggy_config(seed=args.seed))
        )
        model = build_odnet(
            dataset, ODNETConfig(dim=16, num_heads=2, depth=2, seed=args.seed)
        )
        Trainer(scale.train_config(seed=args.seed)).fit(model, dataset)
        recommender = FlightRecommender(model, dataset)
        for point in dataset.source.test_points[:10]:
            recommender.recommend(
                user_id=point.history.user_id, day=point.day, k=5
            )
        return render_summary(registry, tracer)


def _exit_on(command: str, failures: list[str]) -> None:
    """Exit non-zero, naming every broken invariant, if there is one."""
    if failures:
        raise SystemExit(
            f"repro {command}: drill failed:\n  " + "\n  ".join(failures)
        )


def _chaos_overload(args) -> str:
    """The overload scenario: 4x capacity offered with mixed priorities.

    A guarded recommender with a deliberately tiny concurrency limit is
    hammered by four times its capacity in concurrent clients (priorities
    cycling interactive/batch/background) while the chaos injector slows
    every ``rank.score`` call.  The report shows what was admitted vs
    shed per priority, that admitted traffic kept a bounded p99, and
    that the final graceful drain completed every in-flight request.

    Exits non-zero (the CI overload-smoke contract) unless some traffic
    was admitted, no response was empty, the drain completed, and a
    request after the drain came back degraded instead of admitted.
    """
    from .guard.overload import OverloadConfig, run_overload
    from .obs import render_summary, use_observability

    with use_observability() as (registry, tracer):
        report = run_overload(OverloadConfig(seed=args.seed))
        summary = render_summary(registry, tracer)
    lines = [
        "== overload (admission control at "
        f"{report['offered_multiplier']}x capacity) ==",
        f"offered={report['offered']}  admitted={report['admitted']}  "
        f"shed={report['shed']}  empty_responses={report['empty_responses']}",
    ]
    for name, entry in sorted(report["per_priority"].items()):
        lines.append(
            f"  {name:<12} offered={entry['offered']:<4} "
            f"shed={entry['shed']:<4} degraded={entry['degraded']:<4} "
            f"empty={entry['empty']}"
        )
    admitted = report["admitted_latency_ms"]
    shed = report["shed_latency_ms"]
    lines.append(
        f"admitted latency: p50={admitted['p50_ms']:.1f}ms "
        f"p99={admitted['p99_ms']:.1f}ms max={admitted['max_ms']:.1f}ms"
    )
    lines.append(
        f"shed latency:     p50={shed['p50_ms']:.1f}ms "
        f"p99={shed['p99_ms']:.1f}ms max={shed['max_ms']:.1f}ms"
    )
    lines.append(
        f"drained={report['drained']}  "
        f"post_drain_degraded={report['post_drain_degraded']}  "
        f"final_limit={report['final_limit']}  "
        f"adaptations={report['adaptations']}"
    )
    failures = []
    if report["admitted"] < 1:
        failures.append("no request was admitted")
    if report["empty_responses"]:
        failures.append(f"{report['empty_responses']} empty responses")
    if not report["drained"]:
        failures.append("the drain did not complete")
    if not report["post_drain_degraded"]:
        failures.append("a request after the drain was not degraded")
    _exit_on("chaos --overload", failures)
    lines.append("")
    lines.append(summary)
    return "\n".join(lines)


def _chaos_cluster(args) -> str:
    """The process-level self-healing drill (the CI chaos-smoke contract).

    Under continuous gateway traffic, one worker is SIGKILLed and
    another SIGSTOP'd; the supervisor must detect both (process liveness
    for the kill, heartbeat staleness for the freeze) and splice fresh
    replicas into the ring.  Exits non-zero if no traffic flowed, any
    request was lost, or either victim was not replaced.
    """
    from .cluster import run_chaos_drill
    from .cluster.chaos import chaos_cluster_config
    from .obs import MetricsRegistry, use_registry

    with use_registry(MetricsRegistry(default_labels={"process": "gateway"})):
        report = run_chaos_drill(chaos_cluster_config(seed=args.seed))
    traffic = report["traffic"]
    gateway = report["gateway"]
    lines = [
        f"== cluster chaos drill ({report['workers']} workers, "
        "SIGKILL + SIGSTOP under traffic) ==",
        f"requests={traffic['requests']}  ok={traffic['ok']}  "
        f"degraded={traffic['degraded']}  lost={traffic['lost']}",
        f"deaths={report['deaths']}  "
        f"worker_restarts={report['worker_restarts']:.0f}  "
        f"abandoned={report['supervisor']['abandoned']}",
        f"hedged={gateway['hedged']:.0f}  "
        f"hedge_wins={gateway['hedge_wins']:.0f}  "
        f"retried={gateway['retried']:.0f}  "
        f"rejected={gateway['rejected']:.0f}",
    ]
    for event in report["events"]:
        lines.append(f"  {event}")
    failures = []
    if traffic["requests"] < 1:
        failures.append("no request was sent during the drill")
    if traffic["lost"]:
        failures.append(f"{traffic['lost']} lost requests")
        failures.extend(traffic["errors"][:5])
    if report["supervisor"]["restarts"] < 2:
        failures.append(
            "expected both chaos victims to be replaced, got "
            f"restarts={report['supervisor']['restarts']}"
        )
    _exit_on("chaos --cluster", failures)
    return "\n".join(lines)


def _chaos(args) -> str:
    """Seeded end-to-end fault-injection demo.

    Serves requests (known, unknown, and deadline-bounded users) while
    half the rank stage's scoring calls fail — and shows that every
    request still got an answer, what degraded, and how the breaker and
    the obs counters saw it.
    """
    if args.overload:
        return _chaos_overload(args)
    if args.cluster:
        return _chaos_cluster(args)

    from .core import ODNETConfig, build_odnet
    from .data import ODDataset, generate_fliggy_dataset
    from .obs import render_summary, use_observability
    from .resilience import FaultInjector, FaultSpec, use_fault_injector
    from .serving import FlightRecommender, ServingResilienceConfig

    scale = get_scale(args.scale)
    lines: list[str] = []
    with use_observability() as (registry, tracer):
        dataset = ODDataset(
            generate_fliggy_dataset(scale.fliggy_config(seed=args.seed))
        )
        model = build_odnet(
            dataset, ODNETConfig(dim=16, num_heads=2, depth=2, seed=args.seed)
        )

        # --- serving under chaos: rank.score failing half the time ----
        serve_chaos = FaultInjector(seed=args.seed)
        serve_chaos.add("rank.score", FaultSpec(error_rate=0.5))
        recommender = FlightRecommender(
            model, dataset,
            resilience=ServingResilienceConfig(
                deadline_ms=500.0, breaker_window=8, breaker_min_calls=4
            ),
        )
        served = degraded = empty = 0
        with use_fault_injector(serve_chaos):
            points = dataset.source.test_points[:15]
            for point in points:
                response = recommender.recommend(
                    user_id=point.history.user_id, day=point.day, k=5
                )
                served += 1
                degraded += response.degraded
                empty += len(response) == 0
            # An unknown (cold-start) user still gets an answer.
            cold = recommender.recommend(user_id=10 ** 9, day=720, k=5)
            served += 1
            degraded += cold.degraded
            empty += len(cold) == 0
        lines.append("== serving under chaos (rank.score 50% failure) ==")
        lines.append(
            f"served={served}  degraded={degraded}  empty_responses={empty}"
        )
        lines.append(
            f"cold_start_fallbacks={[str(e) for e in cold.fallbacks]}  "
            f"breaker={recommender.rank_breaker.state} "
            f"(trips={recommender.rank_breaker.trips})"
        )
        lines.append("")
        lines.append(render_summary(registry, tracer))
    return "\n".join(lines)


def _cluster(args) -> str:
    """Live multi-process demo: serve through the gateway, then roll a
    worker under traffic and show that nothing was lost.

    Exits non-zero if any request failed or the drain did not complete —
    this is the CI cluster-smoke contract.
    """
    from concurrent.futures import ThreadPoolExecutor

    from .cluster import ServingCluster, quick_cluster_config
    from .obs import MetricsRegistry, use_registry

    if args.workers < 2:
        raise SystemExit("repro cluster: --workers must be >= 2 "
                         "(a rolling drain needs a replica to absorb)")
    config = quick_cluster_config(num_workers=args.workers, seed=args.seed)
    lines = []
    with use_registry(
        MetricsRegistry(default_labels={"process": "gateway"})
    ), ServingCluster(config) as cluster:
        client = cluster.client()
        requests = [
            {"user_id": (index * 17 + 1) % config.num_users,
             "day": 720, "k": 5}
            for index in range(max(1, args.requests))
        ]
        with ThreadPoolExecutor(max_workers=4) as pool:
            responses = list(pool.map(client.recommend, requests))
        routed: dict[int, int] = {}
        for response in responses:
            routed[response["routed_worker"]] = (
                routed.get(response["routed_worker"], 0) + 1
            )
        health = cluster.gateway.cluster_health()
        lines.append(
            f"== cluster ({config.num_workers} workers behind "
            f"{cluster.gateway_address[0]}:{cluster.gateway_address[1]}) =="
        )
        lines.append(
            f"served={len(responses)}  routed=" + "  ".join(
                f"w{worker}:{count}" for worker, count in sorted(routed.items())
            )
        )
        lines.append(
            f"ready={health['ready']}/{health['workers']}  "
            f"gateway_routed={health['gateway']['routed']:.0f}  "
            f"retried={health['gateway']['retried']:.0f}"
        )

        # Rolling drain of worker 0 while traffic keeps flowing.
        failures = []
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(client.recommend, item) for item in requests
            ]
            reports = cluster.rolling_restart(worker_ids=[0])
            for future in futures:
                try:
                    future.result()
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    failures.append(f"{type(exc).__name__}: {exc}")
        after = cluster.gateway.cluster_health()
        lines.append(
            f"rolling drain: worker=0 drained={reports[0]['drained']}  "
            f"model_version={reports[0]['model_version']}  "
            f"in_flight_requests={len(requests)}  failed={len(failures)}"
        )
        lines.append(
            f"post-drain ready={after['ready']}/{after['workers']}  "
            f"retried={after['gateway']['retried']:.0f}  "
            f"rejected={after['gateway']['rejected']:.0f}"
        )
    if failures:
        raise SystemExit(
            "repro cluster: requests failed during the rolling drain:\n  "
            + "\n  ".join(failures[:5])
        )
    if not reports[0]["drained"]:
        raise SystemExit("repro cluster: worker 0 did not drain cleanly")
    return "\n".join(lines)


def _available_cpus() -> int:
    """CPUs this process may run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux: no affinity API
        return os.cpu_count() or 1


def _online(args) -> str:
    """Run the online learning drill and report per-phase results.

    Exits non-zero — the CI online-smoke contract — if any serving
    thread saw an error, any observed score was not bit-identical to a
    published version, the served version moved backwards, the crash
    matrix did not cover exactly the publish stages, any stage failed to
    crash, keep the old version or recover, the crash-looping publisher
    never crashed or was not abandoned, or (on a host with at least two
    CPUs, where wall-clock lag means something) the update-lag p99
    exceeded its budget.
    """
    from .obs import MetricsRegistry, use_registry
    from .online import PUBLISH_STAGES, OnlineDrillConfig, run_online_drill

    if args.quick:
        config = OnlineDrillConfig(
            num_users=60, num_cities=20, events=40, crash_events=24,
            shadow_window=24, shadow_min_window=4, holdout_every=3,
            seed=args.seed,
        )
    else:
        config = OnlineDrillConfig(seed=args.seed)
    with use_registry(MetricsRegistry()):
        report = run_online_drill(config)
    happy = report["happy"]
    lines = [
        "== online learning drill (streaming updates, shadow-gated "
        "publishes, hot-swap under traffic) ==",
        f"happy path: bookings={happy['bookings']}  steps={happy['steps']}  "
        f"publishes={happy['publishes']}  rejections={happy['rejections']}  "
        f"swaps={happy['swaps']} -> v{happy['store_version']}",
        f"  scored={happy['scored']} concurrent requests: "
        f"errors={happy['serving_errors']}  torn_reads={happy['torn_reads']}"
        f"  observed_versions={happy['unique_digests']}",
    ]
    for entry in report["crash_matrix"]:
        lines.append(
            f"crash @{entry['stage']:<10} crashed={entry['crashed']}  "
            f"old_version_preserved={entry['old_version_preserved']} "
            f"(v{entry['version_at_crash']})  recovered={entry['recovered']} "
            f"(-> v{entry['version_final']})  torn={entry['torn_reads']}"
        )
    loop = report["crash_loop"]
    lines.append(
        f"crash loop: crashes={loop['crashes']}  "
        f"restarts={loop['trainer_restarts']}  abandoned={loop['abandoned']}"
        f"  serving stayed on v{loop['store_version']} "
        f"(errors={loop['serving_errors']})"
    )
    lag = report["update_lag_ms"]
    pause = report["swap_pause_ms"]
    lines.append(
        f"update lag: p50={lag['p50']:.1f}ms p99={lag['p99']:.1f}ms  "
        f"swap pause: p50={pause['p50']:.2f}ms p99={pause['p99']:.2f}ms  "
        f"versions_monotonic={report['versions_monotonic']}"
    )
    failures = []
    if report["serving_errors_total"]:
        failures.append(
            f"{report['serving_errors_total']} serving errors under swap"
        )
    if report["torn_reads_total"]:
        failures.append(f"{report['torn_reads_total']} torn reads")
    if not report["versions_monotonic"]:
        failures.append("served version moved backwards")
    stages = tuple(entry["stage"] for entry in report["crash_matrix"])
    if stages != PUBLISH_STAGES:
        failures.append(
            f"crash matrix covered {list(stages)}, "
            f"expected {list(PUBLISH_STAGES)}"
        )
    for entry in report["crash_matrix"]:
        stage = entry["stage"]
        if not entry["crashed"]:
            failures.append(f"crash stage {stage} never crashed")
        if not entry["old_version_preserved"]:
            failures.append(
                f"crash at {stage} left the pointer on an unexpected "
                f"version (v{entry['version_at_crash']})"
            )
        if not entry["recovered"]:
            failures.append(f"trainer did not recover after the {stage} crash")
    if loop["crashes"] < 1:
        failures.append("crash-looping trainer never crashed")
    if not loop["abandoned"]:
        failures.append("crash-looping trainer was not abandoned")
    budget = report["update_lag_budget_ms"]
    if _available_cpus() < 2:
        lines.append("single-CPU host: update-lag gate skipped")
    elif lag["p99"] > budget:
        failures.append(
            f"update lag p99 {lag['p99']:.1f}ms exceeds the "
            f"{budget:.0f}ms budget"
        )
    _exit_on("online", failures)
    return "\n".join(lines)


def run_experiment(args) -> str:
    """Dispatch one experiment and return its printable report."""
    if args.experiment == "obs":
        return _obs(args)
    if args.experiment == "chaos":
        return _chaos(args)
    if args.experiment == "cluster":
        return _cluster(args)
    if args.experiment == "online":
        return _online(args)
    if args.experiment == "table1":
        return _table1(args)
    if args.experiment == "table2":
        return _table2(args)
    if args.experiment in ("table3", "table5"):
        result = run_fliggy_comparison(scale=args.scale, seed=args.seed)
        return result.format_table()
    if args.experiment == "table4":
        result = run_lbsn_comparison(
            dataset_name=args.dataset, scale=args.scale, seed=args.seed
        )
        return result.format_table()
    if args.experiment == "fig6a":
        return run_heads_sweep(scale=args.scale, seed=args.seed).format_table()
    if args.experiment == "fig6b":
        return run_depth_sweep(scale=args.scale, seed=args.seed).format_table()
    if args.experiment == "fig7":
        return format_abtest(run_abtest(scale=args.scale, seed=args.seed))
    raise ValueError(f"unknown experiment {args.experiment!r}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        for key in sorted(_EXPERIMENTS):
            print(f"{key:<8} {_EXPERIMENTS[key]}")
        return 0
    print(run_experiment(args))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
