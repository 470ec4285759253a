"""Consistent hashing: stable user -> worker placement.

The gateway pins each user to a *preferred* worker so repeated requests
from one user land on the same replica (warm per-worker caches, stable
tie-order, and — once per-shard state exists — locality).  Consistent
hashing keeps that placement stable under membership change: removing
one worker only remaps the keys that worker owned, instead of reshuffling
every user the way ``user_id % n`` would during a rolling drain.

Each node is planted ``vnodes`` times on a 64-bit ring; a key walks
clockwise to the first virtual node.  Positions come from
:func:`stable_hash` (process-independent — ``hash()`` is salted per
interpreter and would desync gateway restarts).
Lookup is a ``bisect`` over the sorted positions — O(log(n·vnodes)).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable, Sequence

__all__ = ["ConsistentHashRing", "stable_hash"]


def stable_hash(key: int | str) -> int:
    """A 64-bit hash of a key that any process, restart, or machine
    computes alike: the big-endian blake2b digest of the key's
    decimal/utf-8 form."""
    digest = hashlib.blake2b(str(key).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ConsistentHashRing:
    """Maps hashable keys onto nodes with minimal movement on change."""

    def __init__(self, nodes: Iterable[str] = (), vnodes: int = 64):
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self._positions: list[int] = []
        self._owners: list[str] = []
        self._nodes: set[str] = set()
        for node in nodes:
            self.add(node)

    # ------------------------------------------------------------------
    @property
    def nodes(self) -> set[str]:
        return set(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def add(self, node: str) -> None:
        if node in self._nodes:
            return
        self._nodes.add(node)
        for v in range(self.vnodes):
            position = stable_hash(f"{node}#{v}")
            index = bisect.bisect(self._positions, position)
            self._positions.insert(index, position)
            self._owners.insert(index, node)

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        keep = [
            (position, owner)
            for position, owner in zip(self._positions, self._owners)
            if owner != node
        ]
        self._positions = [position for position, _ in keep]
        self._owners = [owner for _, owner in keep]

    # ------------------------------------------------------------------
    def lookup(self, key) -> str:
        """The node owning ``key`` (first virtual node clockwise)."""
        if not self._positions:
            raise LookupError("hash ring is empty")
        index = bisect.bisect(self._positions, stable_hash(key))
        if index == len(self._positions):
            index = 0
        return self._owners[index]

    def preference(self, key, universe: Sequence[str]) -> list[str]:
        """``universe`` ordered by ring distance from ``key`` — the
        failover order: preferred owner first, then each next-closest
        distinct node clockwise."""
        if not self._positions:
            return list(universe)
        wanted = set(universe)
        start = bisect.bisect(self._positions, stable_hash(key))
        ordered: list[str] = []
        for offset in range(len(self._positions)):
            owner = self._owners[(start + offset) % len(self._positions)]
            if owner in wanted and owner not in ordered:
                ordered.append(owner)
                if len(ordered) == len(wanted):
                    break
        # Universe members absent from the ring go last, original order.
        ordered.extend(n for n in universe if n not in ordered)
        return ordered
