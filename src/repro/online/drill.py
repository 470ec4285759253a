"""Online-loop chaos drill: crash a publisher at every stage, mid-traffic.

``python -m repro online`` runs this end to end and exits non-zero when
any of the contracts below fails.  What it proves, with scoring threads
hammering the serving session the entire time:

- **Happy path** — events stream through the bus, the trainer publishes
  shadow-gated snapshots, the follower hot-swaps them.  Every score any
  thread observed is *bit-identical* to some published version's scores
  (zero torn/blended reads), and the served version only moves forward.
- **Crash matrix** — one run per publish stage (``pre_write``,
  ``mid_write``, ``pre_flip``, ``post_flip``) with a seeded fault
  injected exactly there.  Serving must keep answering with zero errors
  on the old consistent version (or the new one, iff the flip had
  already landed), the loop's restart backoff must fire, and a
  shadow-approved publish must land after recovery.
- **Crash loop** — a deterministically-crashing publisher burns through
  the whole :class:`~repro.cluster.supervisor.RestartBudget` and is
  abandoned; feature ingestion and serving continue on the last good
  version.

The bit-identity check is exact, not statistical: a fixed probe batch
is scored continuously by the hammer threads, and afterwards every
observed score vector's raw bytes must equal the probe scores of one of
the snapshots on disk (recomputed through a scratch model).  A single
score computed from half-swapped weights would produce a digest outside
that set.
"""

from __future__ import annotations

import dataclasses
import itertools
import pathlib
import tempfile
import threading
from dataclasses import dataclass

import numpy as np

from ..data.schema import BookingEvent, ClickEvent, ODPair
from ..obs.registry import tail_summary
from ..resilience.chaos import FaultInjector, use_fault_injector
from .bus import EventBus
from .loop import OnlineLearningLoop, SnapshotFollower
from .shadow import ShadowEvaluator
from .snapshots import SnapshotStore
from .trainer import IncrementalTrainer, OnlineTrainerConfig

__all__ = ["OnlineDrillConfig", "run_online_drill", "PUBLISH_STAGES"]

#: the four publish stages the crash matrix injects at, in order.
PUBLISH_STAGES = ("pre_write", "mid_write", "pre_flip", "post_flip")


@dataclass(frozen=True)
class OnlineDrillConfig:
    """Sizes and knobs of the drill (defaults run in seconds)."""

    num_users: int = 200
    num_cities: int = 40
    dim: int = 16
    num_heads: int = 2
    depth: int = 1
    #: bookings pumped in the happy-path phase.
    events: int = 96
    #: bookings pumped per crash-matrix stage (before AND after crash).
    crash_events: int = 48
    hammer_threads: int = 3
    probe_candidates: int = 12
    batch_events: int = 6
    negatives_per_event: int = 4
    publish_every_steps: int = 2
    holdout_every: int = 4
    shadow_window: int = 48
    shadow_min_window: int = 6
    lr: float = 0.05
    #: bound on ``update_lag_ms`` p99 that ``repro online`` holds on
    #: hosts with at least two CPUs.
    update_lag_budget_ms: float = 5000.0
    restart_budget: int = 3
    crash_loop_budget: int = 2
    keep_last: int = 64
    seed: int = 0


def _drill_dataset(config: OnlineDrillConfig):
    from ..data import ODDataset, generate_fliggy_dataset
    from ..data.synthetic import FliggyConfig
    from ..data.world import WorldConfig

    return ODDataset(generate_fliggy_dataset(FliggyConfig(
        num_users=config.num_users,
        world=WorldConfig(num_cities=config.num_cities),
        train_points_per_user=1,
        seed=config.seed,
    )))


def _event_stream(dataset) -> list:
    """Click+booking pairs derived from the test decision points.

    Each point contributes the click that foreshadows it (the day
    before) and the booking itself — the booking day is strictly after
    the click, and histories are assembled strictly *before* the
    booking day, so replaying the stream never leaks a label.
    """
    events = []
    for point in sorted(dataset.source.test_points, key=lambda p: p.day):
        user = point.history.user_id
        events.append(ClickEvent(
            user_id=user, origin=point.target.origin,
            destination=point.target.destination, day=max(0, point.day - 1),
        ))
        events.append(BookingEvent(
            user_id=user, origin=point.target.origin,
            destination=point.target.destination, day=point.day,
            price=100.0,
        ))
    return events


class _Hammer:
    """Threads scoring a fixed probe batch as fast as they can."""

    def __init__(self, session, probe, threads: int):
        self.session = session
        self.probe = probe
        self.scored = 0
        self.errors: list[str] = []
        self.digests: set[bytes] = set()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._run, daemon=True)
            for _ in range(threads)
        ]

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                scores = self.session.score_pairs(self.probe)
                digest = np.ascontiguousarray(scores).tobytes()
                with self._lock:
                    self.scored += 1
                    self.digests.add(digest)
            except Exception as exc:  # noqa: BLE001 - counted, gated on
                with self._lock:
                    self.errors.append(f"{type(exc).__name__}: {exc}")

    def __enter__(self) -> "_Hammer":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=10.0)


class _OnlineEnv:
    """One fully wired loop instance with a scripted clock."""

    def __init__(
        self,
        dataset,
        config: OnlineDrillConfig,
        directory: pathlib.Path,
        margin: float,
        restart_budget: int,
    ):
        from ..core import ODNETConfig, build_odnet
        from ..perf import InferenceSession
        from ..serving import RealTimeFeatureService

        self.config = config
        self.dataset = dataset
        self._now = 0.0
        model_config = ODNETConfig(
            dim=config.dim, num_heads=config.num_heads,
            depth=config.depth, seed=config.seed,
        )
        # Three independent instances from the same seed: the trainer's
        # mutable replica, the serving replica behind the session, and a
        # scratch model for recomputing per-version expected scores.
        self.trainer_model = build_odnet(dataset, model_config)
        self.serving_model = build_odnet(dataset, model_config)
        self.scratch_model = build_odnet(dataset, model_config)
        self.session = InferenceSession(self.serving_model)
        self.store = SnapshotStore(directory)
        self.features = RealTimeFeatureService(dataset.source.bookings_by_user)
        self.bus = EventBus()
        shadow = ShadowEvaluator(
            dataset, self.features,
            window=config.shadow_window,
            min_window=config.shadow_min_window,
            margin=margin, seed=config.seed,
        )
        self.trainer = IncrementalTrainer(
            self.trainer_model, dataset, self.features, self.store,
            OnlineTrainerConfig(
                lr=config.lr,
                batch_events=config.batch_events,
                negatives_per_event=config.negatives_per_event,
                publish_every_steps=config.publish_every_steps,
                holdout_every=config.holdout_every,
                keep_last=config.keep_last,
                seed=config.seed,
            ),
            shadow=shadow,
        )
        self.follower = SnapshotFollower(self.store, self.session)
        self.loop = OnlineLearningLoop(
            self.bus, self.features, self.trainer, [self.follower],
            restart_budget=restart_budget,
            restart_backoff_s=0.05, restart_backoff_max_s=2.0,
            time_source=lambda: self._now,
        )
        self.swapped_versions: list[int] = []
        self.versions_monotonic = True
        self._events = itertools.cycle(_event_stream(dataset))
        self.probe = self._build_probe()

    # ------------------------------------------------------------------
    def _build_probe(self):
        # Many users' decision points in one batch: the digest is then
        # sensitive to (almost) any published user-row movement, so
        # "every observed digest matches some version" is a real check,
        # not a vacuous one.
        points = self.dataset.source.test_points[:16]
        rng = np.random.default_rng(self.config.seed + 1)
        requests = []
        for point in points:
            candidates = [point.target] + self.dataset.sample_distractors(
                point.target, self.config.probe_candidates - 1, rng
            )
            requests.append((point, candidates))
        return self.dataset.batch_for_requests(requests)

    def bootstrap(self) -> int:
        """Publish the ungated baseline and swap serving onto it."""
        info = self.trainer.publish_baseline()
        self.tick()
        return info.version

    def tick(self) -> None:
        self._now += 0.01
        before = self.follower.version
        self.loop.tick()
        after = self.follower.version
        if after < before:
            self.versions_monotonic = False
        if after != before:
            self.swapped_versions.append(after)

    def advance(self, seconds: float) -> None:
        self._now += seconds

    def pump(self, bookings: int) -> int:
        """Publish events until ``bookings`` bookings flowed; tick as we go."""
        fed = 0
        while fed < bookings:
            event = next(self._events)
            self.bus.publish(event)
            if isinstance(event, BookingEvent):
                fed += 1
                self.tick()
        self.tick()
        return fed

    def pump_until(self, condition, max_bookings: int) -> int:
        fed = 0
        while fed < max_bookings and not condition():
            event = next(self._events)
            self.bus.publish(event)
            if isinstance(event, BookingEvent):
                fed += 1
                self.tick()
        return fed

    # ------------------------------------------------------------------
    def expected_digests(self) -> set[bytes]:
        """Probe-score bytes of every snapshot on disk (+ the pointer's)."""
        digests = set()
        for version in self.store.versions():
            snapshot = self.store.load(version)
            self.scratch_model.load_state_dict(snapshot.state)
            scores = self.scratch_model.score_pairs(self.probe)
            digests.add(np.ascontiguousarray(scores).tobytes())
        return digests

    def traffic_report(self, hammer: _Hammer) -> dict:
        expected = self.expected_digests()
        torn = len(hammer.digests - expected)
        return {
            "scored": hammer.scored,
            "serving_errors": len(hammer.errors),
            "error_samples": hammer.errors[:3],
            "unique_digests": len(hammer.digests),
            "torn_reads": torn,
            "swaps": self.follower.swaps,
            "swapped_versions": list(self.swapped_versions),
            "versions_monotonic": self.versions_monotonic,
            "bus_dropped": self.bus.dropped,
        }


# ----------------------------------------------------------------------
def _run_happy(dataset, config: OnlineDrillConfig, root: pathlib.Path) -> tuple[dict, _OnlineEnv]:
    env = _OnlineEnv(
        dataset, config, root / "happy",
        margin=0.0, restart_budget=config.restart_budget,
    )
    env.bootstrap()
    with _Hammer(env.session, env.probe, config.hammer_threads) as hammer:
        fed = env.pump(config.events)
    report = env.traffic_report(hammer)
    report.update({
        "bookings": fed,
        "steps": env.trainer.steps,
        "events_trained": env.trainer.events_trained,
        "events_held_out": env.trainer.events_held_out,
        "publishes": env.trainer.publishes,
        "rejections": env.trainer.rejections,
        "shadow_window": len(env.trainer.shadow),
        "store_version": env.store.current_version(),
        "crashes": env.loop.trainer_crashes,
    })
    return report, env


def _run_crash_stage(
    dataset, config: OnlineDrillConfig, stage: str, root: pathlib.Path
) -> tuple[dict, "_OnlineEnv"]:
    env = _OnlineEnv(
        dataset, config, root / f"crash_{stage}",
        # Always-approve margin: the crash must land on a *publish*, so
        # the gate cannot be the reason no fault ever fires.
        margin=-1.0, restart_budget=config.restart_budget,
    )
    baseline = env.bootstrap()
    injector = FaultInjector(seed=config.seed)
    injector.add(
        f"online.publish.{stage}", error_rate=1.0, max_faults=1
    )
    with _Hammer(env.session, env.probe, config.hammer_threads) as hammer:
        with use_fault_injector(injector):
            version_before = env.store.current_version()
            env.pump_until(
                lambda: env.loop.trainer_crashes >= 1,
                max_bookings=config.crash_events,
            )
            crashed = env.loop.trainer_crashes >= 1
            version_at_crash = env.store.current_version()
            # Serve the backoff out, then keep pumping: the replacement
            # trainer must come up on the published pointer and land a
            # fresh shadow-approved publish.
            env.advance(5.0)
            env.pump(config.crash_events)
    version_final = env.store.current_version()
    # pre-* crashes must leave the pointer exactly where it was; a
    # post_flip crash happens after the (atomic, durable) flip, so the
    # pointer legitimately moved one version forward.
    if stage == "post_flip":
        consistent = version_at_crash == version_before + 1
    else:
        consistent = version_at_crash == version_before
    report = env.traffic_report(hammer)
    report.update({
        "stage": stage,
        "baseline_version": baseline,
        "version_before_crash": version_before,
        "version_at_crash": version_at_crash,
        "version_final": version_final,
        "crashed": crashed,
        "old_version_preserved": consistent,
        "trainer_restarts": env.loop.trainer_restarts,
        "recovered": version_final > version_at_crash
        and env.loop.trainer_restarts >= 1 and not env.loop.abandoned,
        "last_error": env.loop.last_error,
        "publishes": env.trainer.publishes,
    })
    return report, env


def _run_crash_loop(
    dataset, config: OnlineDrillConfig, root: pathlib.Path
) -> tuple[dict, _OnlineEnv]:
    env = _OnlineEnv(
        dataset, config, root / "crash_loop",
        margin=-1.0, restart_budget=config.crash_loop_budget,
    )
    env.bootstrap()
    injector = FaultInjector(seed=config.seed)
    # No max_faults: every publish attempt dies — the deterministic
    # crash loop the backoff budget exists for.
    injector.add("online.publish.pre_write", error_rate=1.0)
    with _Hammer(env.session, env.probe, config.hammer_threads) as hammer:
        with use_fault_injector(injector):
            budget_cap = (config.crash_loop_budget + 1) * (
                config.crash_events * 4
            )
            fed = 0
            while not env.loop.abandoned and fed < budget_cap:
                fed += env.pump(config.batch_events)
                env.advance(5.0)  # serve out any pending backoff
    report = env.traffic_report(hammer)
    report.update({
        "bookings": fed,
        "crashes": env.loop.trainer_crashes,
        "trainer_restarts": env.loop.trainer_restarts,
        "budget_used": env.loop.budget.used,
        "abandoned": env.loop.abandoned,
        "store_version": env.store.current_version(),
        "serving_alive": not hammer.errors,
    })
    return report, env


def run_online_drill(
    config: OnlineDrillConfig | None = None,
    directory: str | pathlib.Path | None = None,
) -> dict:
    """Run all drill phases; returns the gateable JSON-shaped report."""
    config = config or OnlineDrillConfig()
    if directory is None:
        scratch = tempfile.TemporaryDirectory(prefix="repro-online-drill-")
        root = pathlib.Path(scratch.name)
    else:
        scratch = None
        root = pathlib.Path(directory)
    try:
        dataset = _drill_dataset(config)
        envs: list[_OnlineEnv] = []

        happy, env = _run_happy(dataset, config, root)
        envs.append(env)

        crash_matrix = []
        for stage in PUBLISH_STAGES:
            stage_report, env = _run_crash_stage(dataset, config, stage, root)
            crash_matrix.append(stage_report)
            envs.append(env)

        crash_loop, env = _run_crash_loop(dataset, config, root)
        envs.append(env)

        lags = [
            lag for e in envs for lag in e.follower.lag_history_ms
        ]
        pauses = [
            pause for e in envs for pause in e.follower.pause_history_ms
        ]
        serving_errors = happy["serving_errors"] + crash_loop[
            "serving_errors"
        ] + sum(entry["serving_errors"] for entry in crash_matrix)
        torn = happy["torn_reads"] + crash_loop["torn_reads"] + sum(
            entry["torn_reads"] for entry in crash_matrix
        )
        return {
            "drill": "online",
            "benchmark": "online",
            "drill_config": dataclasses.asdict(config),
            "happy": happy,
            "crash_matrix": crash_matrix,
            "crash_loop": crash_loop,
            "update_lag_ms": tail_summary(lags, 3),
            "swap_pause_ms": tail_summary(pauses, 3),
            "update_lag_budget_ms": config.update_lag_budget_ms,
            "torn_reads_total": torn,
            "serving_errors_total": serving_errors,
            "versions_monotonic": all(e.versions_monotonic for e in envs),
        }
    finally:
        if scratch is not None:
            scratch.cleanup()
