"""Parameter and data sharding for the simulated PS architecture.

Section V-A.5 of the paper: "The parameter server architecture of
TensorFlow is used to form a distributed approach for storing parameters,
fetching data, and training models.  In specific, 5 parameter servers and
50 workers are used" — each parameter server "being responsible for
storing part of the parameters" and each worker "fetches a portion of
training samples".

This module provides the partitioners: parameters are assigned to
servers by a balanced greedy bin-packing over parameter sizes, training
samples are split into equal worker shards, and *serving-side* row
placement (which shard owns a user's embedding row) uses
:func:`stable_hash`, the one process-independent hash in the repo (the
cluster's consistent-hash ring takes its positions from it too) —
``hash()`` is salted per interpreter and would scatter users differently
on every restart, desyncing a store written by one process from a reader
in another.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "stable_hash",
    "hash_shard",
    "hash_shard_many",
    "shard_parameters",
    "shard_samples",
]


def stable_hash(key: int | str) -> int:
    """A 64-bit hash of a key that any process, restart, or machine
    computes alike: the big-endian blake2b digest of the key's
    decimal/utf-8 form."""
    digest = hashlib.blake2b(str(key).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def hash_shard(key: int | str, num_shards: int) -> int:
    """Stable shard index for a key: :func:`stable_hash` modulo
    ``num_shards``."""
    if num_shards <= 0:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    return stable_hash(key) % num_shards


def hash_shard_many(keys: np.ndarray, num_shards: int) -> np.ndarray:
    """Vector form of :func:`hash_shard` for integer key arrays."""
    if num_shards <= 0:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    keys = np.asarray(keys)
    return np.fromiter(
        (stable_hash(key) % num_shards for key in keys.tolist()),
        dtype=np.int64,
        count=keys.size,
    )


def shard_parameters(
    named_sizes: list[tuple[str, int]], num_servers: int
) -> dict[str, int]:
    """Assign each named parameter to a server, balancing total size.

    Greedy longest-processing-time: sort by size descending, always assign
    to the currently lightest server.  Returns ``name -> server index``.
    """
    if num_servers <= 0:
        raise ValueError(f"num_servers must be positive, got {num_servers}")
    loads = np.zeros(num_servers, dtype=np.int64)
    assignment: dict[str, int] = {}
    for name, size in sorted(named_sizes, key=lambda kv: (-kv[1], kv[0])):
        server = int(np.argmin(loads))
        assignment[name] = server
        loads[server] += size
    return assignment


def shard_samples(num_samples: int, num_workers: int) -> list[np.ndarray]:
    """Split sample indices into ``num_workers`` near-equal shards."""
    if num_workers <= 0:
        raise ValueError(f"num_workers must be positive, got {num_workers}")
    indices = np.arange(num_samples)
    return [shard for shard in np.array_split(indices, num_workers)]
