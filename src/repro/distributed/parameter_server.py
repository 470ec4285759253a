"""Simulated parameter-server training (Section V-A.5's PAI setup).

The production system trains ODNET with TensorFlow's parameter-server
architecture: parameter servers hold shards of the model, workers pull
weights, compute gradients on their data shard, and push gradients back.
We simulate that architecture faithfully on one process:

- :class:`ParameterServer` — holds a shard of parameters and applies
  pushed gradients with a per-shard Adam state;
- :class:`Worker` — holds a data shard; pulls the current weights into a
  local model replica, computes a mini-batch gradient, pushes it;
- :class:`ParameterServerTrainer` — drives synchronous rounds (all
  workers compute on the same weights, gradients are averaged) or
  asynchronous steps (workers apply their gradients one at a time,
  so later workers see fresher weights — and, with ``staleness`` > 0,
  deliberately delayed ones).

Logical workers execute sequentially (one python process), so wall-clock
does not improve — what the simulation reproduces is the *semantics*:
gradient averaging, parameter sharding, and the staleness/throughput
trade-off the paper's "more workers" claim rests on.
"""

from __future__ import annotations

import pathlib
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..data.dataset import ODDataset
from ..guard.errors import reject
from ..guard.ratelimit import TokenBucket
from ..nn.module import Module
from ..obs.registry import get_registry
from ..optim.adam import adam_update
from ..resilience import RetryPolicy, retry_call
from ..resilience.chaos import get_fault_injector
from ..resilience.errors import RetriesExhausted
from ..train.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .sharding import shard_parameters, shard_samples

__all__ = ["ParameterServer", "Worker", "ParameterServerTrainer", "PSConfig"]


@dataclass(frozen=True)
class PSConfig:
    """Distributed-training configuration (paper defaults: 5 PS, 50 workers)."""

    num_servers: int = 5
    num_workers: int = 4
    epochs: int = 5
    batch_size: int = 128
    learning_rate: float = 0.01
    grad_clip: float = 5.0
    mode: str = "sync"          # "sync" or "async"
    staleness: int = 0          # async only: steps of gradient delay
    push_rate: float | None = None   # pushes/sec the cluster accepts
    push_burst: float | None = None  # burst size (default: push_rate)
    seed: int = 0

    def __post_init__(self):
        for name in ("num_servers", "num_workers", "epochs", "batch_size"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.staleness < 0:
            raise ValueError(f"staleness must be >= 0, got {self.staleness}")
        if self.learning_rate <= 0:
            raise ValueError(
                f"learning_rate must be > 0, got {self.learning_rate}"
            )
        if self.mode not in ("sync", "async"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.push_rate is not None and self.push_rate <= 0:
            raise ValueError(
                f"push_rate must be > 0 pushes/sec, got {self.push_rate}"
            )


class ParameterServer:
    """Holds one shard of named parameters and its Adam optimizer state."""

    def __init__(self, server_id: int, learning_rate: float,
                 grad_clip: float | None = 5.0,
                 push_bucket: TokenBucket | None = None):
        self.server_id = server_id
        self.learning_rate = learning_rate
        self.grad_clip = grad_clip
        self.push_bucket = push_bucket
        self.throttled_pushes = 0
        self._store: dict[str, np.ndarray] = {}
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._steps: dict[str, int] = {}
        self.pushes = 0
        self.pulls = 0

    def register(self, name: str, value: np.ndarray) -> None:
        self._store[name] = value.copy()
        self._m[name] = np.zeros_like(value)
        self._v[name] = np.zeros_like(value)
        self._steps[name] = 0

    @property
    def parameter_names(self) -> list[str]:
        return sorted(self._store)

    @property
    def num_elements(self) -> int:
        return sum(v.size for v in self._store.values())

    def restore(self, name: str, value: np.ndarray) -> None:
        """Overwrite an owned parameter (checkpoint recovery).

        Optimizer moments are kept when the shape matches — a resumed run
        continues from warm Adam state rather than a cold restart.
        """
        if name not in self._store:
            raise KeyError(f"server {self.server_id} does not own {name}")
        if self._store[name].shape != value.shape:
            raise ValueError(
                f"shape mismatch restoring {name}: "
                f"{self._store[name].shape} vs {value.shape}"
            )
        self._store[name] = value.copy()

    def pull(self, names: list[str] | None = None) -> dict[str, np.ndarray]:
        """Fetch current weights for ``names`` (default: all).

        The chaos site ``ps.pull`` fires before any state is touched, so
        an injected fault models an RPC that never reached the server.
        """
        get_fault_injector().inject("ps.pull")
        self.pulls += 1
        if names is None:
            names = self.parameter_names
        weights = {name: self._store[name].copy() for name in names}
        registry = get_registry()
        if registry.enabled:
            registry.counter("ps.pulls").inc()
            registry.counter("ps.pull_bytes").inc(
                sum(value.nbytes for value in weights.values())
            )
        return weights

    def push(self, gradients: dict[str, np.ndarray]) -> None:
        """Apply Adam updates for the pushed gradient shard.

        A configured ``push_bucket`` throttles push floods: an
        over-rate push is refused with a typed ``AdmissionRejected``
        *before* any state mutates, so the caller's retry/backoff path
        (which lets the bucket refill) is always safe.  The chaos site
        ``ps.push`` fires next: an injected fault is a dropped push that
        never mutated server state (safe to retry).
        """
        if self.push_bucket is not None and not self.push_bucket.try_acquire():
            self.throttled_pushes += 1
            raise reject("ps.push", "rate_limited")
        get_fault_injector().inject("ps.push")
        self.pushes += 1
        registry = get_registry()
        if registry.enabled:
            registry.counter("ps.pushes").inc()
            registry.counter("ps.push_bytes").inc(
                sum(np.asarray(grad).nbytes for grad in gradients.values())
            )
        for name, grad in gradients.items():
            if name not in self._store:
                raise KeyError(f"server {self.server_id} does not own {name}")
            self._steps[name] += 1
            self._store[name] = adam_update(
                self._store[name], grad, self._m[name], self._v[name],
                self._steps[name], self.learning_rate,
                grad_clip=self.grad_clip,
            )


class Worker:
    """One logical worker: a data shard plus a local model replica."""

    def __init__(self, worker_id: int, model: Module,
                 shard: np.ndarray, batch_size: int, rng: np.random.Generator):
        self.worker_id = worker_id
        self.model = model
        self.shard = shard
        self.batch_size = batch_size
        self._rng = rng
        self._cursor = 0
        self._order = rng.permutation(len(shard))
        self.steps = 0

    def next_batch_indices(self) -> np.ndarray:
        """The next mini-batch of global sample indices from this shard."""
        if self._cursor >= len(self._order):
            self._cursor = 0
            self._order = self._rng.permutation(len(self.shard))
        chunk = self._order[self._cursor:self._cursor + self.batch_size]
        self._cursor += self.batch_size
        return self.shard[chunk]

    def load_weights(self, weights: dict[str, np.ndarray]) -> None:
        params = dict(self.model.named_parameters())
        for name, value in weights.items():
            params[name].data = value
            params[name].bump_version()

    def compute_gradients(self, batch) -> tuple[dict[str, np.ndarray], float]:
        """One forward/backward pass; returns (gradients, loss).

        The chaos site ``worker.compute`` models a worker dying mid-step;
        the trainer re-averages over the surviving workers.
        """
        get_fault_injector().inject("worker.compute")
        self.model.zero_grad()
        loss = self.model.loss(batch)
        loss.backward()
        self.steps += 1
        gradients = {
            name: (param.grad.copy() if param.grad is not None
                   else np.zeros_like(param.data))
            for name, param in self.model.named_parameters()
        }
        return gradients, loss.item()


@dataclass
class _TrainStats:
    epoch_losses: list[float] = field(default_factory=list)
    total_steps: int = 0
    pushes: int = 0
    pulls: int = 0
    start_epoch: int = 0            # > 0 when resumed from a checkpoint
    dropped_pushes: int = 0         # pushes abandoned after retries
    throttled_pushes: int = 0       # push attempts refused by the rate limit
    worker_failures: int = 0        # worker steps lost to injected faults
    checkpoint_failures: int = 0    # epoch checkpoints that could not save


class ParameterServerTrainer:
    """Drives the simulated cluster over an :class:`ODDataset`.

    Pull/push RPCs are retried through :func:`repro.resilience.retry_call`
    (deterministic seeded jitter, no real sleeping — the cluster is
    simulated).  A push whose retries are exhausted is *dropped* and
    training continues; a worker that dies mid-step is skipped and the
    sync round re-averages over the survivors.  ``fit`` can checkpoint
    after every epoch and resume a killed run from the last checkpoint.
    """

    def __init__(self, model: Module, dataset: ODDataset,
                 config: PSConfig | None = None,
                 retry_policy: RetryPolicy | None = None):
        self.config = config or PSConfig()
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=3, base_delay_ms=1.0, max_delay_ms=10.0,
            seed=self.config.seed,
        )
        self.model = model
        self.dataset = dataset
        rng = np.random.default_rng(self.config.seed)
        self._retry_rng = np.random.default_rng(self.config.seed + 104729)

        named = dict(model.named_parameters())
        assignment = shard_parameters(
            [(name, param.size) for name, param in named.items()],
            self.config.num_servers,
        )
        # One shared bucket across servers: the throttle models cluster
        # ingest capacity, not per-shard fairness.
        push_bucket = None
        if self.config.push_rate is not None:
            push_bucket = TokenBucket(
                self.config.push_rate, self.config.push_burst
            )
        self.push_bucket = push_bucket
        self.servers = [
            ParameterServer(i, self.config.learning_rate,
                            self.config.grad_clip, push_bucket=push_bucket)
            for i in range(self.config.num_servers)
        ]
        self._owner: dict[str, ParameterServer] = {}
        for name, server_id in assignment.items():
            self.servers[server_id].register(name, named[name].data)
            self._owner[name] = self.servers[server_id]

        samples = dataset.samples("train")
        shards = shard_samples(len(samples), self.config.num_workers)
        # All logical workers share the single in-process model replica —
        # weights are re-loaded from the servers before each computation,
        # which is exactly the pull-compute-push contract.
        self.workers = [
            Worker(i, model, shard, self.config.batch_size,
                   np.random.default_rng(self.config.seed + i))
            for i, shard in enumerate(shards)
        ]
        self._samples = samples

    # ------------------------------------------------------------------
    def _pull_all(self) -> dict[str, np.ndarray]:
        """Retried pull from every server; raises RetriesExhausted if a
        server stays unreachable (training cannot proceed blind)."""
        weights: dict[str, np.ndarray] = {}
        for server in self.servers:
            weights.update(retry_call(
                server.pull, policy=self.retry_policy, site="ps.pull",
                sleep=None, rng=self._retry_rng,
            ))
        return weights

    def _push_sharded(self, gradients: dict[str, np.ndarray],
                      stats: _TrainStats | None = None) -> None:
        """Retried per-server push; an exhausted shard is dropped (the
        async-SGD contract tolerates lost gradients) and counted."""
        per_server: dict[int, dict[str, np.ndarray]] = {}
        for name, grad in gradients.items():
            server = self._owner[name]
            per_server.setdefault(server.server_id, {})[name] = grad
        registry = get_registry()
        for server_id, shard in per_server.items():
            try:
                retry_call(
                    self.servers[server_id].push, shard,
                    policy=self.retry_policy, site="ps.push",
                    sleep=None, rng=self._retry_rng,
                )
            except RetriesExhausted:
                if stats is not None:
                    stats.dropped_pushes += 1
                if registry.enabled:
                    registry.counter("resilience.dropped_pushes").inc()

    def _batch_for(self, indices: np.ndarray):
        return self.dataset.batch_for_samples(
            [self._samples[int(index)] for index in indices]
        )

    # ------------------------------------------------------------------
    def _write_back_to_model(self, weights: dict[str, np.ndarray]) -> None:
        params = dict(self.model.named_parameters())
        for name, value in weights.items():
            params[name].data = value
            params[name].bump_version()

    def _resume_from(self, path: pathlib.Path) -> int:
        """Restore server weights from a checkpoint; returns the number of
        epochs it had already completed."""
        metadata = load_checkpoint(self.model, path)
        for name, param in self.model.named_parameters():
            self._owner[name].restore(name, param.data)
        return int(metadata.get("epoch", 0))

    def _checkpoint_epoch(self, path: pathlib.Path, epoch: int,
                          stats: _TrainStats) -> None:
        """Atomically persist the current server weights after ``epoch``
        completed epochs; a failed save never aborts training."""
        try:
            self._write_back_to_model(self._pull_all())
            save_checkpoint(
                self.model, path,
                metadata={"epoch": epoch, "mode": self.config.mode},
            )
        except Exception:
            stats.checkpoint_failures += 1
            registry = get_registry()
            if registry.enabled:
                registry.counter("resilience.checkpoint_failures").inc()

    def _sync_round(self, losses: list[float], stats: _TrainStats) -> None:
        """One synchronous round: all workers compute on identical
        weights; the gradient averaged over *surviving* workers is pushed
        once.  Accumulation uses fresh arrays so no worker's returned
        gradient dict is mutated in place."""
        weights = self._pull_all()
        accumulated: dict[str, np.ndarray] | None = None
        survivors = 0
        registry = get_registry()
        for worker in self.workers:
            try:
                worker.load_weights(weights)
                batch = self._batch_for(worker.next_batch_indices())
                gradients, loss = worker.compute_gradients(batch)
            except Exception:
                stats.worker_failures += 1
                if registry.enabled:
                    registry.counter("resilience.worker_failures").inc()
                continue
            losses.append(loss)
            survivors += 1
            if accumulated is None:
                accumulated = {
                    name: grad.copy() for name, grad in gradients.items()
                }
            else:
                for name in accumulated:
                    accumulated[name] += gradients[name]
        if accumulated is None:
            return      # every worker died this round; skip the push
        for name in accumulated:
            accumulated[name] /= survivors
        self._push_sharded(accumulated, stats)
        stats.total_steps += 1

    def _async_round(self, losses: list[float], stats: _TrainStats,
                     stale_queue: deque) -> None:
        """One asynchronous sweep: each surviving worker pulls fresh
        weights, computes, and pushes immediately (optionally via the
        staleness queue)."""
        registry = get_registry()
        for worker in self.workers:
            try:
                worker.load_weights(self._pull_all())
                batch = self._batch_for(worker.next_batch_indices())
                gradients, loss = worker.compute_gradients(batch)
            except RetriesExhausted:
                raise   # a blind worker cannot train; let fit() crash
            except Exception:
                stats.worker_failures += 1
                if registry.enabled:
                    registry.counter("resilience.worker_failures").inc()
                continue
            losses.append(loss)
            stale_queue.append(gradients)
            if len(stale_queue) > self.config.staleness:
                self._push_sharded(stale_queue.popleft(), stats)
            stats.total_steps += 1

    def fit(self, checkpoint_path: str | pathlib.Path | None = None,
            checkpoint_every: int = 1) -> _TrainStats:
        """Run the configured number of epochs; returns training stats.

        With ``checkpoint_path`` the server weights are persisted
        atomically every ``checkpoint_every`` epochs, and an existing
        checkpoint at that path resumes training from the epoch after the
        one it recorded — the recovery story for a killed run.
        """
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        config = self.config
        stats = _TrainStats()
        if checkpoint_path is not None:
            checkpoint_path = pathlib.Path(checkpoint_path)
            if checkpoint_path.suffix != ".npz":
                checkpoint_path = checkpoint_path.with_suffix(".npz")
            if checkpoint_path.exists():
                stats.start_epoch = self._resume_from(checkpoint_path)
        steps_per_epoch = max(
            1, len(self._samples) // (config.batch_size * config.num_workers)
        )
        stale_queue: deque[dict[str, np.ndarray]] = deque()
        for epoch in range(stats.start_epoch, config.epochs):
            losses: list[float] = []
            for _ in range(steps_per_epoch):
                if config.mode == "sync":
                    self._sync_round(losses, stats)
                else:
                    self._async_round(losses, stats, stale_queue)
            stats.epoch_losses.append(
                float(np.mean(losses)) if losses else float("nan")
            )
            if (
                checkpoint_path is not None
                and (epoch + 1 - stats.start_epoch) % checkpoint_every == 0
            ):
                self._checkpoint_epoch(checkpoint_path, epoch + 1, stats)
        # Flush delayed gradients and load final weights into the model.
        while stale_queue:
            self._push_sharded(stale_queue.popleft(), stats)
        self._write_back_to_model(self._pull_all())
        stats.pushes = sum(server.pushes for server in self.servers)
        stats.pulls = sum(server.pulls for server in self.servers)
        stats.throttled_pushes = sum(
            server.throttled_pushes for server in self.servers
        )
        return stats
