"""Parameter and data sharding for the simulated PS architecture.

Section V-A.5 of the paper: "The parameter server architecture of
TensorFlow is used to form a distributed approach for storing parameters,
fetching data, and training models.  In specific, 5 parameter servers and
50 workers are used" — each parameter server "being responsible for
storing part of the parameters" and each worker "fetches a portion of
training samples".

This module provides the partitioners: parameters are assigned to
servers by a balanced greedy bin-packing over parameter sizes, and
training samples are split into equal worker shards.  It also holds
:func:`stable_hash`, the one process-independent hash in the repo (the
cluster's consistent-hash ring takes its positions from it) — ``hash()``
is salted per interpreter and would place keys differently on every
restart, so two processes would disagree on who owns a key.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "stable_hash",
    "shard_parameters",
    "shard_samples",
]


def stable_hash(key: int | str) -> int:
    """A 64-bit hash of a key that any process, restart, or machine
    computes alike: the big-endian blake2b digest of the key's
    decimal/utf-8 form."""
    digest = hashlib.blake2b(str(key).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


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
