"""Cluster lifecycle: launch workers, front them, roll them, stop them.

:class:`ServingCluster` is the one-stop orchestrator::

    with ServingCluster(ClusterConfig(num_workers=4)) as cluster:
        client = cluster.client()
        client.recommend({"user_id": 7, "day": 720, "k": 5})
        cluster.rolling_restart()          # zero-downtime model push

``start`` spawns ``num_workers`` processes (fork where available), waits
for each to report its ephemeral port and pass a readiness probe, then
serves the gateway from a daemon thread in the calling process.

:meth:`rolling_restart` is the zero-downtime sequence, one worker at a
time: route traffic away at the gateway (*exclude*), gracefully drain
the worker (in-flight requests finish), *reload* it (model-version bump
behind a fresh lifecycle), wait until its health probe reports ready,
then *readmit* it at the gateway.  Traffic keeps flowing the whole time
because the other replicas absorb the hashed-out users.

With ``config.supervise`` (the default) a
:class:`~repro.cluster.supervisor.ClusterSupervisor` watches the worker
processes from a daemon thread and *replaces* the ones that die or
wedge: :meth:`respawn_worker` spawns a fresh deterministic replica into
the dead worker's slot and the supervisor splices it into the gateway
ring under the same name — zero placement remap, fresh breaker.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import time

from .client import WorkerClient, WorkerUnavailable
from .config import ClusterConfig
from .gateway import Gateway, GatewayServer, WorkerHandle
from .worker import worker_main

__all__ = ["ClusterStartupError", "ServingCluster"]


class ClusterStartupError(RuntimeError):
    """A worker failed to come up; the cluster was torn down."""


class ServingCluster:
    """Owns the worker processes and the in-process gateway server."""

    def __init__(self, config: ClusterConfig | None = None):
        self.config = config or ClusterConfig()
        self.processes: dict[int, multiprocessing.process.BaseProcess] = {}
        self.handles: list[WorkerHandle] = []
        #: worker_id -> client of the process now in that slot, spliced
        #: into the gateway or not: whom ``shutdown`` addresses.
        self._clients: dict[int, WorkerClient] = {}
        self.gateway: Gateway | None = None
        self.server: GatewayServer | None = None
        self.supervisor = None
        self._context = None
        self._started = False

    # ------------------------------------------------------------------
    def __enter__(self) -> "ServingCluster":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    @property
    def gateway_address(self) -> tuple[str, int]:
        if self.server is None:
            raise RuntimeError("cluster is not started")
        return self.server.host, self.server.port

    def client(self) -> WorkerClient:
        if self.server is None:
            raise RuntimeError("cluster is not started")
        return self.server.client()

    # ------------------------------------------------------------------
    def start(self) -> "ServingCluster":
        if self._started:
            return self
        config = self.config
        self._context = multiprocessing.get_context(
            config.resolved_start_method()
        )
        ready_queue = self._context.Queue()
        try:
            for worker_id in range(config.num_workers):
                self.processes[worker_id] = self._spawn_process(
                    worker_id, ready_queue
                )
            ports = self._collect_ports(ready_queue)
            self.handles = [
                WorkerHandle(
                    worker_id,
                    WorkerClient(
                        config.host, ports[worker_id],
                        timeout_s=config.request_timeout_s,
                    ),
                    config,
                )
                for worker_id in range(config.num_workers)
            ]
            for handle in self.handles:
                self._clients[handle.worker_id] = handle.client
                self._await_ready(handle.client, handle.name)
            self.gateway = Gateway(self.handles, config)
            self.server = GatewayServer(self.gateway, config.host)
            self.server.start()
            if config.supervise:
                from .supervisor import ClusterSupervisor

                self.supervisor = ClusterSupervisor(self)
                self.supervisor.start()
        except Exception:
            self.shutdown()
            raise
        self._started = True
        return self

    def _spawn_process(self, worker_id: int, ready_queue):
        process = self._context.Process(
            target=worker_main,
            args=(self.config, worker_id, ready_queue),
            name=f"repro-cluster-w{worker_id}",
            daemon=True,
        )
        process.start()
        return process

    def _collect_ports(self, ready_queue) -> dict[int, int]:
        deadline = time.monotonic() + self.config.startup_timeout_s
        ports: dict[int, int] = {}
        while len(ports) < self.config.num_workers:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ClusterStartupError(
                    f"timed out waiting for worker ports "
                    f"(got {sorted(ports)})"
                )
            try:
                message = ready_queue.get(timeout=min(remaining, 1.0))
            except queue_module.Empty:
                self._check_workers_alive()
                continue
            if "error" in message:
                raise ClusterStartupError(
                    f"worker {message['worker_id']} failed to start: "
                    f"{message['error']}"
                )
            ports[message["worker_id"]] = message["port"]
        return ports

    def _check_workers_alive(self) -> None:
        for process in self.processes.values():
            if not process.is_alive() and process.exitcode not in (None, 0):
                raise ClusterStartupError(
                    f"worker process {process.name} exited with "
                    f"code {process.exitcode} during startup"
                )

    def _await_ready(self, client: WorkerClient, name: str,
                     timeout_s: float | None = None) -> dict:
        deadline = time.monotonic() + (
            timeout_s if timeout_s is not None
            else self.config.startup_timeout_s
        )
        last_error = "never probed"
        while time.monotonic() < deadline:
            try:
                health = client.health(
                    timeout_s=self.config.health_timeout_s
                )
                if health.get("ready"):
                    return health
                last_error = f"state={health.get('state')}"
            except WorkerUnavailable as exc:
                last_error = exc.reason
            time.sleep(0.05)
        raise ClusterStartupError(
            f"worker {name} never became ready ({last_error})"
        )

    # ------------------------------------------------------------------
    def process_for(self, worker_id: int):
        """The live :mod:`multiprocessing` handle for one worker slot."""
        return self.processes.get(worker_id)

    def respawn_worker(self, worker_id: int) -> WorkerClient:
        """Spawn a fresh deterministic replica into ``worker_id``'s slot.

        Any remnant of the previous process is reaped first (SIGKILL if
        SIGTERM cannot land — a SIGSTOP'd process ignores everything
        else).  Blocks until the replacement reports its port and passes
        a readiness probe, then returns a client pointed at it; splicing
        that client into the gateway is the caller's (supervisor's) job.
        """
        if self._context is None:
            raise RuntimeError("cluster is not started")
        old = self.processes.get(worker_id)
        if old is not None and old.is_alive():
            old.terminate()
            old.join(timeout=1.0)
            if old.is_alive():
                old.kill()
                old.join(timeout=1.0)
        ready_queue = self._context.Queue()
        process = self._spawn_process(worker_id, ready_queue)
        self.processes[worker_id] = process
        deadline = time.monotonic() + self.config.startup_timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ClusterStartupError(
                    f"timed out waiting for respawned worker "
                    f"w{worker_id}'s port"
                )
            try:
                message = ready_queue.get(timeout=min(remaining, 1.0))
                break
            except queue_module.Empty:
                if not process.is_alive():
                    raise ClusterStartupError(
                        f"respawned worker w{worker_id} exited with "
                        f"code {process.exitcode} during startup"
                    )
        if "error" in message:
            raise ClusterStartupError(
                f"respawned worker w{worker_id} failed to start: "
                f"{message['error']}"
            )
        client = WorkerClient(
            self.config.host, message["port"],
            timeout_s=self.config.request_timeout_s,
        )
        self._clients[worker_id] = client
        self._await_ready(client, f"w{worker_id}")
        return client

    # ------------------------------------------------------------------
    def rolling_restart(
        self,
        worker_ids: list[int] | None = None,
        drain_timeout_s: float | None = None,
    ) -> list[dict]:
        """Drain -> reload -> readmit each worker, one at a time.

        Returns one report per worker: ``{"worker_id", "drained",
        "model_version"}``.  The gateway keeps serving throughout; a
        replica absorbs the excluded worker's users.
        """
        if self.gateway is None:
            raise RuntimeError("cluster is not started")
        if self.config.num_workers < 2:
            raise RuntimeError(
                "rolling restart needs >= 2 workers to stay available"
            )
        targets = (
            list(worker_ids) if worker_ids is not None
            else [handle.worker_id for handle in self.handles]
        )
        timeout_s = (
            drain_timeout_s if drain_timeout_s is not None
            else self.config.drain_timeout_s
        )
        reports = []
        for worker_id in targets:
            handle = self.gateway.worker(worker_id)
            self.gateway.exclude(worker_id)
            try:
                drain_report = handle.client.drain(timeout_s=timeout_s)
                reload_report = handle.client.reload(
                    timeout_s=timeout_s + 5.0
                )
                self._await_ready(
                    handle.client, handle.name, timeout_s=timeout_s
                )
            finally:
                # Readmit even on a partially-failed roll: a worker that
                # drained but failed to reload keeps refusing with 503
                # and the breaker re-isolates it; never leave a healthy
                # worker permanently excluded.
                self.gateway.readmit(worker_id)
            reports.append({
                "worker_id": worker_id,
                "drained": bool(drain_report.get("drained")),
                "model_version": reload_report.get("model_version"),
            })
        return reports

    # ------------------------------------------------------------------
    def shutdown(self, timeout_s: float = 10.0) -> None:
        if self.supervisor is not None:
            self.supervisor.stop()
            self.supervisor = None
        if self.server is not None:
            self.server.stop()
            self.server = None
        self.gateway = None
        for client in self._clients.values():
            try:
                client.shutdown()
            except Exception:
                pass  # a dead worker is already where we want it
        self.handles, self._clients = [], {}
        deadline = time.monotonic() + timeout_s
        for process in self.processes.values():
            process.join(timeout=max(0.1, deadline - time.monotonic()))
        for process in self.processes.values():
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
                if process.is_alive():
                    process.kill()       # a SIGSTOP'd worker shrugs off TERM
                    process.join(timeout=2.0)
        self.processes = {}
        self._started = False
