"""``repro.cluster`` — multi-process serving with a routing gateway.

The scale-out layer over the single-process serving stack: N worker
processes (each its own :class:`~repro.serving.FlightRecommender` +
frozen-graph cache on its own GIL) behind a gateway that

- routes each request to the replica with the fewest requests in flight,
  the consistent-hash ring's order for the user id breaking ties (so an
  idle cluster keeps stable placement),
- retries against a replica when a worker is draining, not ready, or its
  circuit breaker is open,
- hedges slow attempts: after a p95-derived delay it races one extra
  replica and takes the first success,
- self-heals: a supervisor thread detects dead/wedged workers (process
  liveness + heartbeat staleness), respawns identical replicas under an
  exponential-backoff restart budget, and shrinks the ring when a slot
  crash-loops its budget away,
- aggregates per-worker health and worker-labelled metrics, and
- performs rolling zero-downtime drains: exclude -> drain -> reload
  (model-version bump behind a fresh lifecycle) -> readmit.

Everything is stdlib (``multiprocessing`` + length-prefixed JSON frames
on persistent sockets, :mod:`repro.cluster.wire`); see
``python -m repro cluster`` for the live demo and rolling drain,
``python -m repro chaos --cluster`` for the kill/freeze drill (both
exit non-zero on a lost request), and the ``gateway`` workload of
``bench/`` (``bench/README.md``) for the numbers.
"""

from .chaos import ChaosDrillReport, ProcessChaos, run_chaos_drill
from .client import ClusterProtocolError, WorkerClient, WorkerUnavailable
from .config import ClusterConfig, quick_cluster_config
from .gateway import Gateway, GatewayError, GatewayServer, WorkerHandle
from .hashring import ConsistentHashRing
from .manager import ClusterStartupError, ServingCluster
from .supervisor import ClusterSupervisor, RestartBudget
from .wire import BadRequest
from .worker import WorkerRuntime, worker_main

__all__ = [
    "ClusterConfig",
    "quick_cluster_config",
    "ConsistentHashRing",
    "WorkerClient",
    "WorkerUnavailable",
    "ClusterProtocolError",
    "BadRequest",
    "Gateway",
    "GatewayError",
    "GatewayServer",
    "WorkerHandle",
    "WorkerRuntime",
    "worker_main",
    "ServingCluster",
    "ClusterStartupError",
    "ClusterSupervisor",
    "RestartBudget",
    "ProcessChaos",
    "ChaosDrillReport",
    "run_chaos_drill",
]
