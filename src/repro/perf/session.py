"""Frozen-graph inference session: the serving-time HSGC embedding cache.

At inference time ODNET's parameters are frozen, yet the naive serving
path re-runs the full K-step HSGC propagation (Algorithm 1) for *both*
aware sides on every ``score_pairs`` call — work whose result cannot
change between requests.  :class:`InferenceSession` materialises the
origin/destination user/city embedding tables once and reuses them until
the model's weights actually move, the same precompute-then-serve split
used by production OD systems (Fliggy's deep matching; STP-UDGAT's static
graph attention).

Publish by reference
--------------------
A request scores from one immutable
:class:`~repro.core.fused.FrozenScoringState` (tables, captured weights,
the ``param_version`` they belong to) that the session holds in a single
attribute: a reader loads the reference once, so it takes no lock and
cannot see two versions.  A hot swap loads the new weights and builds
the next state beside the reads, which keep scoring from the old one;
publishing is one assignment.  :mod:`repro.core.fused` says why a
capture needs no copy.

A published snapshot is installed through one verb,
``swap(state, touched_users=None)`` — what
:class:`~repro.online.SnapshotFollower` calls on the session it follows.

Invalidation contract
---------------------
A state is fresh while its version equals the sum of ``Parameter.version``
over the model's parameters (held in a flat tuple), a counter bumped by
every sanctioned weight mutation: optimizer steps
(:class:`~repro.optim.Adam`, :class:`~repro.optim.SGD`) and
``Module.load_state_dict`` (and therefore every
:class:`~repro.online.SnapshotStore` load put into a model).  A stale
version triggers one rebuild on the next request, so training and
serving can interleave.  Code that assigns
``param.data`` directly bypasses the counter and must call
``Parameter.bump_version()`` (or :meth:`InferenceSession.invalidate`).
In-flight rule: a reader that finds its state stale while a writer (a
swap, or another reader's rebuild) is at work neither starts a second
table build nor waits for the first — it serves the last published
state, a whole version, until the writer publishes.

Cache traffic is observable: ``perf.cache_hits`` / ``perf.cache_misses``
counters through the active :mod:`repro.obs` registry, mirrored on the
session itself as :attr:`hits` / :attr:`misses` (one per scored batch).
The published state's PEC memo counts in plain ints off the request path:
:attr:`point_memo` reads them, a registry scrape publishes them as gauges.
"""

from __future__ import annotations

import dataclasses
import threading
import time

import numpy as np

from ..obs.registry import get_registry
from ..tensor import as_array

__all__ = ["InferenceSession", "supports_fast_path"]


def supports_fast_path(model) -> bool:
    """True when ``model`` exposes the frozen-table protocol.

    The protocol is ``embedding_tables()``, a ``score_pairs(batch,
    tables=...)`` that consumes its result, and a ``frozen_state()``
    capturing both — ODNET and its subclasses; baselines without an
    HSGC fall back to the plain path.
    """
    return hasattr(model, "embedding_tables")


class InferenceSession:
    """Serve ``score_pairs`` through cached HSGC node-embedding tables.

    >>> session = InferenceSession(model)        # doctest: +SKIP
    >>> session.score_pairs(batch)               # doctest: +SKIP

    Scores are bit-identical to ``model.score_pairs(batch, tables=
    model.embedding_tables())`` — every downstream op (gathers, PEC,
    MMoE, Eq. 11 blend) is shared — and within 1e-12 of the table-less
    ``model.score_pairs(batch)``, which propagates the batch's users only.
    """

    def __init__(self, model):
        if not supports_fast_path(model):
            raise TypeError(
                f"{type(model).__name__} does not expose embedding_tables(); "
                "the frozen-graph fast path needs an HSGC-style model"
            )
        self.model = model
        self.hits = 0
        self.misses = 0
        self.swaps = 0
        self._params = tuple(model.parameters())
        # The only parameters a ``user``-scope delta may move.
        self._user_tables = {
            id(param) for name, param in model.named_parameters()
            if name.endswith("hsgc.user_embedding.weight")
        }
        self._state = None
        # Serialises the writers of ``_state`` (swap, invalidate, a
        # reader's rebuild).  A read that finds a fresh state never
        # touches it; a stale one only try-acquires it.
        self._writer = threading.Lock()
        get_registry().on_scrape(self._publish_point_memo)

    # ------------------------------------------------------------------
    @property
    def point_memo(self) -> dict[str, int]:
        """Hits, misses and entries of the published state's PEC memo,
        both aware sides summed (one lookup per point and side)."""
        state = self._state
        sides = state.memo.values() if state is not None else ()
        return {"hits": sum(side.hits for side in sides),
                "misses": sum(side.misses for side in sides),
                "entries": sum(map(len, sides))}

    def _publish_point_memo(self, registry) -> None:
        for name, value in self.point_memo.items():
            registry.gauge(f"perf.point_memo_{name}").set(value)

    def _live_version(self) -> int:
        return sum(p.version for p in self._params)

    @property
    def cached_version(self) -> int | None:
        """The ``param_version`` the published state was captured at."""
        state = self._state
        return None if state is None else state.version

    def invalidate(self) -> None:
        """Mark the published state stale (next call rebuilds)."""
        with self._writer:
            if self._state is not None:
                self._state = dataclasses.replace(self._state, version=None)

    def _lookup(self):
        """The state to score from; counts one hit or one miss."""
        state = self._state
        rebuilt = False
        stale = state is None or state.version != self._live_version()
        # In-flight rule: with a writer at work, serve the last published
        # state; only a session with nothing to serve waits for it.
        if stale and self._writer.acquire(blocking=state is None):
            try:
                state = self._state  # a writer may just have published
                version = self._live_version()  # read before the capture
                if state is None or state.version != version:
                    state = self._state = self.model.frozen_state(version)
                    self.misses += 1
                    rebuilt = True
            finally:
                self._writer.release()
        if not rebuilt:
            # No lock on this path, by design: exact from one thread, and
            # a lost increment under concurrency costs a diagnostic only.
            self.hits += 1
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "perf.cache_misses" if rebuilt else "perf.cache_hits"
            ).inc()
        return state

    def tables(self):
        """Return fresh-or-cached embedding tables for the current weights."""
        return self._lookup().tables

    def _delta_users(self, before, touched_users):
        """``touched_users`` as distinct ids when the weights now bound
        differ from ``before`` (one array per parameter) in those rows
        of the two HSGC user tables and nowhere else; otherwise None."""
        users = np.unique(np.asarray(touched_users, dtype=np.intp))
        for was, param in zip(before, self._params):
            if id(param) in self._user_tables:
                moved = np.flatnonzero((was != param.data).any(axis=1))
                if not np.isin(moved, users).all():
                    return None
            elif not np.array_equal(was, param.data):
                return None
        return users

    def swap(self, state: dict, touched_users=None) -> float:
        """Install a published weight snapshot beside live reads (hot swap).

        Loads ``state`` through ``Module.load_state_dict`` (which bumps
        the parameter versions), captures the next frozen state — table
        build included, so the swap pays the propagation cost, not the
        next request — and publishes it with one reference assignment.
        Concurrent scorers keep reading the *old* state until then and
        the *new* one after, never a blend.

        With ``touched_users`` (a ``user``-scope update's changed ids)
        only their rows are rebuilt, into a copy of the published user
        tables beside the published city tables.  Verified, not trusted:
        taken only when the published state is fresh and ``state`` moves
        nothing but those rows of the two HSGC user tables; anything else
        is the full rebuild.  That proof covers all a memoised ``(v_L,
        v_S)`` reads, so the memo is handed on by reference; every other
        swap starts an empty one.  Returns the exclusive
        pause in milliseconds — here just the publish step (also
        observed on ``perf.swap_pause_ms``; the build beside reads is
        ``perf.swap_build_ms``).
        """
        with self._writer:
            start = time.perf_counter()
            old, before, users = self._state, None, None
            if (touched_users is not None and old is not None
                    and old.version == self._live_version()):
                before = [param.data for param in self._params]
            self.model.load_state_dict(state)
            if before is not None:
                users = self._delta_users(before, touched_users)
            frozen = self.model.frozen_state(self._live_version(), users)
            if users is not None:
                tables = {}
                for side, (rows, _) in frozen.tables.items():
                    table = as_array(old.tables[side][0]).copy()
                    table[users] = as_array(rows)
                    tables[side] = (table, old.tables[side][1])
                frozen = dataclasses.replace(frozen, tables=tables,
                                             memo=old.memo)
            built = time.perf_counter()
            self._state = frozen
            pause_ms = (time.perf_counter() - built) * 1000.0
            self.swaps += 1
            registry = get_registry()
            if registry.enabled:
                registry.counter("perf.swaps").inc()
                registry.histogram("perf.swap_build_ms").observe(
                    (built - start) * 1000.0
                )
                registry.histogram("perf.swap_pause_ms").observe(pause_ms)
            return pause_ms

    # ------------------------------------------------------------------
    def score_pairs(self, batch) -> np.ndarray:
        """Eq. 11 scores from the published frozen state."""
        return self._lookup().score_pairs(batch)
