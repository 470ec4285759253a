"""One serving worker process: a `FlightRecommender` behind frames.

:func:`worker_main` is the ``multiprocessing`` entry point.  Each worker
builds its *own* dataset + model deterministically from the shared
:class:`~repro.cluster.config.ClusterConfig` seed (replicas are
identical, so any worker can answer for any user), wraps it in a guarded
:class:`~repro.serving.FlightRecommender`, and serves the verbs of
:mod:`repro.cluster.wire`:

- ``recommend`` — rank for one user.  Replies **503** when the
  worker's :class:`~repro.guard.ServerLifecycle` is draining or not yet
  ready — the signal the gateway retries against a replica — including
  the race where a drain lands *between* the readiness check and the
  request (surfaced as an ``admission:draining`` fallback event).
- ``health`` — lifecycle state + the worker-labelled counter
  snapshot the gateway aggregates.
- ``drain`` — graceful drain (stop admitting, finish in-flight).
- ``reload`` — the model-push swap: drain if still
  admitting, bump the model version, then install a **fresh** guard
  (a drained lifecycle is terminal by design) and admit again.
- ``shutdown`` — stop the accept loop and exit the process.

With ``ClusterConfig.snapshot_dir`` set, the worker polls a
:class:`~repro.online.SnapshotFollower` over its scoring session (or
bare model) at boot and on every reload — the one snapshot-apply every
serving process uses; ``model_version`` *is* the follower's version.

Every metric the worker emits carries a ``worker`` label via the
registry's default labels, so gateway-side aggregation can tell the
replicas apart.
"""

from __future__ import annotations

import ctypes
import threading

from ..guard import GuardConfig
from ..obs.registry import MetricsRegistry, set_registry
from ..resilience import FaultInjector, FaultSpec, set_fault_injector
from ..resilience.chaos import inject
from .config import ClusterConfig
from .wire import BadRequest, FrameServer, recommend_request

__all__ = ["WorkerRuntime", "worker_main"]

#: Admission reasons that mean "this replica cannot take traffic now" —
#: the gateway should retry, not accept a degraded answer.
_UNROUTABLE = ("admission:draining", "admission:not_ready")


def _pin_blas_threads() -> bool:
    """One BLAS thread for this process, whatever the start method or
    environment: finds the OpenBLAS numpy has loaded in
    ``/proc/self/maps`` and tells it through ``ctypes``.  Two worker
    pools on a 2-CPU host stall each other (p99 ~ 100 ms) otherwise.
    False when the library or the symbol is not there."""
    try:
        with open("/proc/self/maps") as maps:
            path = next(
                line.split()[-1] for line in maps if "openblas" in line
            )
        pin = ctypes.CDLL(path).scipy_openblas_set_num_threads64_
        pin.argtypes, pin.restype = [ctypes.c_int], None
        pin(1)
    except (OSError, StopIteration, AttributeError):
        return False
    return True


def _build_recommender(config: ClusterConfig, worker_id: int):
    """Deterministic replica construction (same seed -> same weights)."""
    from ..core import ODNETConfig, build_odnet
    from ..data import ODDataset, generate_fliggy_dataset
    from ..data.synthetic import FliggyConfig
    from ..data.world import WorldConfig
    from ..serving import FlightRecommender

    dataset = ODDataset(generate_fliggy_dataset(FliggyConfig(
        num_users=config.num_users,
        world=WorldConfig(num_cities=config.num_cities),
        train_points_per_user=1,
        seed=config.seed,
    )))
    model = build_odnet(dataset, ODNETConfig(seed=config.seed))
    return FlightRecommender(
        model,
        dataset,
        guard=_guard_config(config, worker_id),
    )


def _guard_config(config: ClusterConfig, worker_id: int) -> GuardConfig:
    return GuardConfig(
        max_concurrent=config.max_concurrent,
        max_queue=config.max_queue,
        queue_timeout_ms=config.queue_timeout_ms,
        site=f"worker.w{worker_id}.admission",
    )


class WorkerRuntime:
    """The in-process state one worker serves from (testable sans wire)."""

    def __init__(self, config: ClusterConfig, worker_id: int,
                 registry: MetricsRegistry | None = None):
        self.config = config
        self.worker_id = worker_id
        self.name = f"w{worker_id}"
        self.model_version = 1
        self._admin_lock = threading.Lock()
        self.registry = registry or MetricsRegistry(
            default_labels={"worker": self.name}
        )
        self.recommender = _build_recommender(config, worker_id)
        self._follower = None
        if config.snapshot_dir is not None:
            # Imported lazily: repro.online.loop imports repro.cluster
            # for its RestartBudget, so a module-level import would cycle.
            from ..online import SnapshotFollower, SnapshotStore

            ranking = self.recommender.ranking
            self._follower = SnapshotFollower(
                SnapshotStore(config.snapshot_dir),
                ranking.session if ranking.session is not None
                else ranking.model,
                name=self.name,
            )
        # Pre-traffic, so the swap's table build delays no request:
        # a replacement spawned by the supervisor or a rolling restart
        # comes up on the online loop's latest approved snapshot, not on
        # the stale seed weights it was built from.
        self._follow_snapshots()

    # ------------------------------------------------------------------
    def _follow_snapshots(self) -> None:
        """Move to the store's published version if it moved
        (:meth:`repro.online.SnapshotFollower.poll`: forward-only, and a
        jump invalidates every skipped version's touched users)."""
        if self._follower is not None and self._follower.poll() is not None:
            self.model_version = self._follower.version
            self.registry.counter("worker.snapshot_loads").inc()

    # ------------------------------------------------------------------
    @property
    def lifecycle(self):
        return self.recommender.lifecycle

    def handle_recommend(self, payload: dict) -> tuple[int, dict]:
        try:
            user_id, day, k = recommend_request(payload, self.config.default_k)
        except BadRequest as exc:
            return 400, {"error": str(exc)}
        # Process-level fault site: with a crash spec armed (see
        # worker_main) the Nth call here kills the process mid-request —
        # the socket dies without a reply, exactly like a segfault.
        inject("cluster.worker.recommend")
        lifecycle = self.lifecycle
        if lifecycle is not None and not lifecycle.admitting:
            return 503, {"error": lifecycle.state, "worker_id": self.worker_id}
        response = self.recommender.recommend(user_id=user_id, day=day, k=k)
        fallbacks = [str(event) for event in response.fallbacks]
        if any(reason in _UNROUTABLE for reason in fallbacks):
            # The drain decision landed after the readiness check above:
            # refuse so the gateway retries a replica instead of shipping
            # the popularity floor for a perfectly healthy cluster.
            return 503, {"error": "draining", "worker_id": self.worker_id}
        return 200, {
            "worker_id": self.worker_id,
            "model_version": self.model_version,
            "user_id": response.user_id,
            "day": response.day,
            "degraded": response.degraded,
            "fallbacks": fallbacks,
            "flights": [
                {
                    "origin": flight.pair.origin,
                    "destination": flight.pair.destination,
                    "score": float(flight.score),
                }
                for flight in response.flights
            ],
        }

    def handle_health(self, payload: dict) -> tuple[int, dict]:
        lifecycle = self.lifecycle
        health = lifecycle.health() if lifecycle is not None else {
            "state": "ready", "ready": True, "in_flight": 0, "uptime_s": 0.0,
        }
        return 200, {
            "worker_id": self.worker_id,
            "model_version": self.model_version,
            **health,
            "counters": [
                {
                    "name": counter.name,
                    "labels": dict(counter.labels),
                    "value": counter.value,
                }
                for counter in self.registry.counters
            ],
        }

    def handle_drain(self, payload: dict) -> tuple[int, dict]:
        timeout_s = payload.get("timeout_s", self.config.drain_timeout_s)
        with self._admin_lock:
            drained = self.recommender.drain(
                None if timeout_s is None else float(timeout_s)
            )
        lifecycle = self.lifecycle
        return 200, {
            "worker_id": self.worker_id,
            "drained": bool(drained),
            "state": lifecycle.state if lifecycle is not None else "drained",
        }

    def handle_reload(self, payload: dict) -> tuple[int, dict]:
        """Drain -> swap -> readmit: the zero-downtime model push."""
        with self._admin_lock:
            drained = self.recommender.drain(self.config.drain_timeout_s)
            if not drained:
                lifecycle = self.lifecycle
                return 503, {
                    "error": "drain_timeout",
                    "worker_id": self.worker_id,
                    "state": lifecycle.state if lifecycle is not None
                    else "unknown",
                }
            # The swap: a refreshed model version goes live behind a fresh
            # lifecycle (a drained one is terminal), and admission reopens.
            # With a snapshot store configured the version *is* the
            # store's published version (unchanged when the store hasn't
            # moved — replicas must converge on it); otherwise a bump.
            self._follow_snapshots()
            if self.config.snapshot_dir is None:
                self.model_version += 1
            self.recommender.install_guard(
                _guard_config(self.config, self.worker_id)
            )
            self.registry.counter("worker.reloads").inc()
        return 200, {
            "worker_id": self.worker_id,
            "drained": True,
            "state": self.lifecycle.state,
            "model_version": self.model_version,
        }

    # ------------------------------------------------------------------
    def routes(self, server_holder: dict):
        def handle_shutdown(payload: dict) -> tuple[int, dict]:
            server = server_holder.get("server")
            if server is not None:
                server.request_stop()
            return 200, {"worker_id": self.worker_id, "stopping": True}

        return {
            "recommend": self.handle_recommend,
            "health": self.handle_health,
            "drain": self.handle_drain,
            "reload": self.handle_reload,
            "shutdown": handle_shutdown,
        }


def worker_main(config: ClusterConfig, worker_id: int, ready_queue) -> None:
    """Process entry point: build the replica, report the port, serve.

    ``ready_queue`` receives exactly one message: ``{"worker_id", "port"}``
    on success or ``{"worker_id", "error"}`` if construction failed — the
    manager turns the latter into a startup failure instead of hanging.
    """
    pinned = _pin_blas_threads()
    try:
        runtime = WorkerRuntime(config, worker_id)
        set_registry(runtime.registry)
        if not pinned:
            runtime.registry.counter("cluster.blas_pin_missing").inc()
        if (
            config.crash_after_requests is not None
            and worker_id == config.crash_worker_id
        ):
            # Crash-on-Nth-request drill: the process dies (os._exit, no
            # cleanup) once this slot has served that many rankings.
            # Replacements spawned by the supervisor re-arm the same spec
            # from the shared config — the deliberate crash *loop* the
            # restart budget is drilled against.
            chaos = FaultInjector(seed=config.seed)
            chaos.add("cluster.worker.recommend", FaultSpec(
                error_rate=1.0,
                after_calls=config.crash_after_requests - 1,
                exit_code=139,  # what a SIGSEGV death reads as
            ))
            set_fault_injector(chaos)
        holder: dict = {}
        server = FrameServer(config.host, runtime.routes(holder))
        holder["server"] = server
    except Exception as exc:
        ready_queue.put({
            "worker_id": worker_id,
            "error": f"{type(exc).__name__}: {exc}",
        })
        return
    ready_queue.put({"worker_id": worker_id, "port": server.port})
    server.serve_forever()
