"""Configuration for the multi-process serving cluster.

One :class:`ClusterConfig` describes the whole deployment: how many
worker processes to launch, the (deterministic) dataset/model every
replica builds from the shared seed, the per-worker guard knobs, and the
gateway's routing/retry policy.  The dataclass is frozen and picklable —
it crosses the ``multiprocessing`` boundary as the single source of
truth for a worker's construction, which is what makes replicas
identical: same seed, same world, same weights.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass

__all__ = ["ClusterConfig", "quick_cluster_config"]


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs for one gateway + N-worker serving cluster."""

    # --- topology -----------------------------------------------------
    num_workers: int = 2
    host: str = "127.0.0.1"
    start_method: str | None = None   # None -> fork when available

    # --- the model every replica builds (deterministic from seed) -----
    num_users: int = 1200
    num_cities: int = 60
    seed: int = 0
    #: directory of a :class:`repro.online.SnapshotStore`.  When set,
    #: workers overlay the latest *published* snapshot onto their
    #: deterministic seed weights at build time and again on every
    #: ``reload`` — so respawned or rolling-restarted replicas
    #: always come up on the online loop's most recent approved version
    #: (reported as ``model_version`` in ``health``).
    snapshot_dir: str | None = None

    # --- per-worker guard (admission + lifecycle/drain) ---------------
    max_concurrent: int = 8
    max_queue: int = 32
    queue_timeout_ms: float = 250.0

    # --- gateway routing ----------------------------------------------
    vnodes: int = 64                  # virtual nodes per worker on the ring
    request_timeout_s: float = 15.0
    health_timeout_s: float = 5.0
    breaker_window: int = 8
    breaker_threshold: float = 0.5
    breaker_min_calls: int = 4
    breaker_recovery_s: float = 1.0

    # --- hedged requests ----------------------------------------------
    # After a hedge delay (p95 of gateway.latency_ms once hedge_min_samples
    # are in, else hedge_delay_ms) the gateway races one extra replica and
    # takes the first success — a wedged worker costs one hedge delay, not
    # a full per-attempt timeout.
    hedge_enabled: bool = True
    hedge_delay_ms: float = 75.0      # static delay until p95 is trustworthy
    hedge_min_delay_ms: float = 20.0  # floor under the p95-derived delay
    hedge_min_samples: int = 32       # latency samples before trusting p95

    # --- supervision (crash/wedge detection + automatic replacement) --
    supervise: bool = True
    supervise_interval_s: float = 0.2
    heartbeat_interval_s: float = 1.0    # health probe cadence per worker
    heartbeat_timeout_s: float = 1.0     # per-probe socket deadline
    heartbeat_stale_s: float = 3.0       # no good probe for this long = wedged
    restart_budget: int = 3              # replacements per worker slot
    restart_backoff_s: float = 0.5       # first respawn delay, doubles each
    restart_backoff_max_s: float = 8.0   # ...up to this cap

    # --- chaos (worker-side process-level fault site) -----------------
    # Arms FaultSpec(after_calls=crash_after_requests, exit_code=...) at
    # the ``cluster.worker.recommend`` site in worker ``crash_worker_id``:
    # the process dies mid-request on the Nth call, as an OOM-kill or
    # segfault would — the crash-loop drill for the restart budget.
    crash_after_requests: int | None = None
    crash_worker_id: int = 0

    # --- lifecycle ----------------------------------------------------
    startup_timeout_s: float = 120.0
    drain_timeout_s: float = 30.0
    default_k: int = 5

    def __post_init__(self):
        if self.num_workers < 1:
            raise ValueError(
                f"num_workers must be >= 1, got {self.num_workers}"
            )
        if self.vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {self.vnodes}")
        for name in ("hedge_delay_ms", "hedge_min_delay_ms",
                     "supervise_interval_s", "heartbeat_interval_s",
                     "heartbeat_timeout_s", "heartbeat_stale_s",
                     "restart_backoff_s", "restart_backoff_max_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.restart_budget < 0:
            raise ValueError(
                f"restart_budget must be >= 0, got {self.restart_budget}"
            )
        if self.crash_after_requests is not None \
                and self.crash_after_requests < 1:
            raise ValueError(
                f"crash_after_requests must be >= 1, "
                f"got {self.crash_after_requests}"
            )
        if self.start_method is not None and \
                self.start_method not in multiprocessing.get_all_start_methods():
            raise ValueError(
                f"start_method {self.start_method!r} not available "
                f"(have {multiprocessing.get_all_start_methods()})"
            )

    def resolved_start_method(self) -> str:
        """``fork`` when the platform offers it (no re-import tax per
        worker), else ``spawn`` — overridable for tests/CI."""
        if self.start_method is not None:
            return self.start_method
        methods = multiprocessing.get_all_start_methods()
        return "fork" if "fork" in methods else "spawn"


def quick_cluster_config(
    num_workers: int = 2, seed: int = 0
) -> ClusterConfig:
    """A smoke-test sized cluster (seconds to boot, not minutes)."""
    return ClusterConfig(
        num_workers=num_workers,
        num_users=300,
        num_cities=30,
        seed=seed,
    )
