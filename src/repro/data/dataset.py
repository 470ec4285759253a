"""Batching and ranking-task construction on top of the generated datasets.

:class:`ODDataset` turns a :class:`~repro.data.synthetic.FliggyDataset`
(or the LBSN equivalent) into padded numpy batches every model consumes,
and into the ranked-candidate evaluation tasks behind HR@k / MRR@k.

Batch plane
-----------
Encoded decision points live in a struct-of-arrays :class:`_EncodedStore`
(one stacked ``(N, L)`` matrix per field instead of N small arrays), so
assembling a serving batch is a handful of fancy-indexed gathers:
``np.repeat`` expands each request's store row over its candidate count,
the pair feature block is computed for all ``(ΣK,)`` candidates at once
and the per-side x_st / aux blocks on each side's distinct (point,
candidate city) rows (``ODBatch.side_layout``).  No per-candidate Python
runs on the serving path.

Serving-time registrations (``register_point``) are bounded by an LRU
with a configurable cap (``max_cached_points``); offline train/test
points are pinned and never evicted.  Evictions are counted on
``encoded_evictions`` and the ``dataset.encoded_evictions`` obs counter.

Point plans
-----------
Everything a request computes before it reads a weight is a function of
its decision point ``(user, day, revision)``: recall's candidate pairs,
and over them the per-side layouts with their distinct x_st / aux rows.
:class:`PointPlans` remembers that once per point, under the same bound
as the encoded store (``max_cached_points``, least recently used out
first).  Recall fills a plan's pairs and :meth:`ODDataset.
batch_for_candidates` its side blocks; a repeat of the point rebuilds
only the per-row gathers and pair features from them.  Plans hold
read-only arrays and no per-row replica.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np

from ..graph import HeterogeneousSpatialGraph
from ..obs.registry import get_registry
from .schema import CandidatePairs, ODPair, Sample
from .synthetic import (
    DecisionPoint,
    FliggyDataset,
    PopularityDraws,
    choice_cdf,
    choice_draw,
)
from .temporal import XST_DIM, TemporalFeatureExtractor

__all__ = ["ODBatch", "ODDataset", "RankingTask", "PointPlan", "PointPlans",
           "AUX_DIM", "FULL_XST_DIM"]

#: engineered candidate/history interaction statistics appended to x_st:
#: candidate==current-city, log1p(long-history matches),
#: log1p(short-click matches), candidate==most-recent history city,
#: log1p(distance from the current city to the candidate).
#: These are "statistics of cities" in the sense of Section IV-B, made
#: explicit so that tower networks do not need to learn id-equality or
#: geometry from embeddings (which is sample-inefficient at reproduction
#: scale).
AUX_DIM = 5
FULL_XST_DIM = XST_DIM + AUX_DIM

#: pair-level statistics of a candidate OD pair: log route distance,
#: global route popularity, pair matches in the long history, *reversed*
#: pair matches in the long history (the return-ticket signal of the
#: paper's Case 2), pair matches in the short-term clicks, and whether the
#: candidate is the exact reverse of the user's most recent booking (the
#: sharpest return-ticket indicator).  Only joint
#: models (ODNET / ODNET-G) can consume these — a factorised single-task
#: architecture has no input that sees both sides of the pair at once,
#: which is precisely the "unity of O&D" challenge.
PAIR_DIM = 6


@dataclass
class ODBatch:
    """A dense mini-batch of labelled (history, candidate OD) samples.

    Sequence arrays are right-padded; masks are True at valid positions.
    ``long_*`` are the booking behaviours L_u split into origin and
    destination city id sequences, ``short_*`` the click behaviours S_u.
    """

    user_ids: np.ndarray            # (B,)
    current_city: np.ndarray        # (B,)
    long_origins: np.ndarray        # (B, L)
    long_destinations: np.ndarray   # (B, L)
    long_mask: np.ndarray           # (B, L)
    long_days: np.ndarray           # (B, L)
    short_origins: np.ndarray       # (B, S)
    short_destinations: np.ndarray  # (B, S)
    short_mask: np.ndarray          # (B, S)
    candidate_origin: np.ndarray    # (B,)
    candidate_destination: np.ndarray  # (B,)
    label_o: np.ndarray             # (B,)
    label_d: np.ndarray             # (B,)
    day: np.ndarray                 # (B,)
    xst_o: np.ndarray               # (B, FULL_XST_DIM)
    xst_d: np.ndarray               # (B, FULL_XST_DIM)
    pair_features: np.ndarray       # (B, PAIR_DIM)
    #: optional segment layout for serving batches built by
    #: ``batch_for_requests``: ``point_rows[i]`` maps batch row ``i`` to
    #: its decision-point index and ``first_rows[p]`` is the first batch
    #: row of point ``p``.  All rows of one point share the same history,
    #: so point-aware models (ODNET/STL) run their sequence encoders once
    #: per point and gather the result back per row — a ~K× saving when
    #: K candidates share one history.  ``None`` (training batches) means
    #: every row is its own point.
    point_rows: np.ndarray | None = field(default=None)   # (B,)
    first_rows: np.ndarray | None = field(default=None)   # (P,)
    #: per-side layout of the same batches, in the same convention:
    #: ``side_layout[side] == (first, rows)`` where ``rows[i]`` maps batch
    #: row ``i`` to its distinct (decision point, candidate city) index
    #: on that side and ``first[u]`` is the first batch row of index
    #: ``u``.  A request's origin × destination cross product repeats
    #: each side's few candidates, and everything per-side (x_st, q^O /
    #: q^D, their first MMoE projection) depends on that pair alone.
    side_layout: dict[str, tuple[np.ndarray, np.ndarray]] | None = None
    #: ``(rows, stamps)`` of the ``first_rows`` points in the encoded store:
    #: the key of ``point_memo``, the scoring state's own (``core.fused``).
    point_keys: tuple[np.ndarray, np.ndarray] | None = None
    point_memo: dict | None = None

    def __len__(self) -> int:
        return len(self.user_ids)

    def side(self, side: str):
        """What one aware side reads: ``(long ids, short ids, candidate,
        x_st, layout)`` for ``side`` ``'o'`` or ``'d'``."""
        layout = self.side_layout[side] if self.side_layout else None
        if side == "o":
            return (self.long_origins, self.short_origins,
                    self.candidate_origin, self.xst_o, layout)
        return (self.long_destinations, self.short_destinations,
                self.candidate_destination, self.xst_d, layout)

    def by_distinct_user(self) -> tuple[np.ndarray, "ODBatch"]:
        """``(users, batch)``: the distinct user ids, ascending, and this
        batch with ``user_ids`` re-addressed into them — how a model reads
        a compact ``(len(users), d)`` user table in place of a full one."""
        users, inverse = np.unique(self.user_ids, return_inverse=True)
        return users, replace(self, user_ids=inverse)


@dataclass
class RankingTask:
    """One evaluation event: rank ``candidates`` so the true pair tops."""

    point: DecisionPoint
    candidates: list[ODPair]
    true_index: int


@dataclass
class _EncodedPoint:
    long_origins: np.ndarray
    long_destinations: np.ndarray
    long_mask: np.ndarray
    long_days: np.ndarray
    short_origins: np.ndarray
    short_destinations: np.ndarray
    short_mask: np.ndarray
    current_city: int


#: Stamps of _EncodedStore writes: unique across rows, stores and time.
_STAMPS = itertools.count(1)

#: (field name, dtype) of the per-point sequence matrices in _EncodedStore.
_STORE_FIELDS = (
    ("long_origins", np.int64),
    ("long_destinations", np.int64),
    ("long_mask", bool),
    ("long_days", np.int64),
    ("short_origins", np.int64),
    ("short_destinations", np.int64),
    ("short_mask", bool),
)


class _EncodedStore:
    """Struct-of-arrays store of encoded decision points.

    Each field of :class:`_EncodedPoint` is one stacked matrix indexed by
    row; batches gather rows with fancy indexing instead of copying N
    small arrays through Python.  Rows come in two kinds:

    - *pinned* rows (the offline train/test points) live forever — the
      training iterator addresses them by row and those rows must stay
      stable;
    - *ad-hoc* rows (serving-time ``register_point`` calls) participate
      in an LRU bounded by ``max_adhoc``.  Evicted rows go on a free
      list and are reused, so the matrices stop growing once the cap is
      reached.  An evicted key is transparently re-encoded on its next
      appearance.

    ``put`` and the ad-hoc LRU touch in ``row`` hold ``_lock``, so two
    concurrent puts cannot both take the last slot or one free row, and a
    touch cannot race an eviction.  A pinned-key lookup never takes it.
    """

    def __init__(self, max_long: int, max_short: int,
                 max_adhoc: int | None = None):
        if max_adhoc is not None and max_adhoc < 1:
            raise ValueError(f"max_adhoc must be >= 1, got {max_adhoc}")
        self.max_adhoc = max_adhoc
        self.evictions = 0
        self._lengths = {"long": max_long, "short": max_short}
        self._rows: dict[tuple[int, int, int], int] = {}
        self._adhoc: OrderedDict[tuple[int, int, int], int] = OrderedDict()
        self._free: list[int] = []
        self._size = 0
        self._capacity = 0
        for name, dtype in _STORE_FIELDS:
            length = self._lengths[name.split("_", 1)[0]]
            setattr(self, name, np.zeros((0, length), dtype=dtype))
        self.current_city = np.zeros(0, dtype=np.int64)
        self.stamp = np.zeros(0, dtype=np.int64)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def adhoc_points(self) -> int:
        return len(self._adhoc)

    def _ensure_capacity(self, need: int) -> None:
        if need <= self._capacity:
            return
        new_capacity = max(need, 64, self._capacity * 2)

        def grown(array: np.ndarray) -> np.ndarray:
            out = np.zeros((new_capacity,) + array.shape[1:], dtype=array.dtype)
            out[: self._size] = array[: self._size]
            return out

        for name, _ in _STORE_FIELDS:
            setattr(self, name, grown(getattr(self, name)))
        self.current_city = grown(self.current_city)
        self.stamp = grown(self.stamp)
        self._capacity = new_capacity

    def row(self, key: tuple[int, int, int]) -> int | None:
        """The store row for ``key`` (LRU-touching ad-hoc rows), or None."""
        row = self._rows.get(key)
        if row is None or key not in self._adhoc:
            return row
        with self._lock:  # the key may have been evicted since
            row = self._rows.get(key)
            if row is not None:
                self._adhoc.move_to_end(key)
            return row

    def put(self, key: tuple[int, int, int], encoded: _EncodedPoint,
            pinned: bool) -> int:
        """Write ``encoded`` under ``key``, stamp 0 meanwhile; returns its row."""
        with self._lock:
            row = self._rows.get(key)
            if row is None:
                if (not pinned and self.max_adhoc is not None
                        and len(self._adhoc) >= self.max_adhoc):
                    old_key, old_row = self._adhoc.popitem(last=False)
                    del self._rows[old_key]
                    self._free.append(old_row)
                    self.evictions += 1
                if self._free:
                    row = self._free.pop()
                else:
                    self._ensure_capacity(self._size + 1)
                    row = self._size
                    self._size += 1
                # Cleared before the key names the row: a reader that
                # finds ``key -> row`` and then a nonzero, unmoved stamp
                # gathered this key's write, whole.
                self.stamp[row] = 0
                self._rows[key] = row
                if not pinned:
                    self._adhoc[key] = row
            elif key in self._adhoc:
                self._adhoc.move_to_end(key)
            self.stamp[row] = 0
            for name, _ in _STORE_FIELDS:
                getattr(self, name)[row] = getattr(encoded, name)
            self.current_city[row] = encoded.current_city
            self.stamp[row] = next(_STAMPS)
            return row


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class PointPlan:
    """The weight-free half of serving one decision point.

    ``pairs`` is the ``(n, 2)`` candidate array ``recall`` (the
    :class:`~repro.serving.recall.CandidateRecall` that produced it)
    returned for the point; ``sides`` is filled by the first batch built
    over exactly those pairs from a whole gather of the point's own store
    row: per side ``(first, rows, block)``, the side layout and the
    distinct x_st + aux rows.  Every array is read-only.
    """

    __slots__ = ("recall", "pairs", "sides")

    def __init__(self, recall, pairs: np.ndarray):
        self.recall = recall
        self.pairs = _frozen(pairs)
        self.sides: dict[str, tuple[np.ndarray, ...]] | None = None


class PointPlans:
    """``(user, day, revision) -> PointPlan``, at most ``bound`` of them
    (``None``: unbounded), least recently used out first — the encoded
    store's rule and bound."""

    def __init__(self, bound: int | None):
        self.bound = bound
        self._plans: OrderedDict[tuple[int, int, int], PointPlan] = (
            OrderedDict()
        )
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._plans)

    def get(self, key: tuple[int, int, int]) -> PointPlan | None:
        plan = self._plans.get(key)
        if plan is not None:
            with self._lock:  # the key may have been evicted since
                if key in self._plans:
                    self._plans.move_to_end(key)
        return plan

    def put(self, key: tuple[int, int, int], plan: PointPlan) -> None:
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            if self.bound is not None and len(self._plans) > self.bound:
                self._plans.popitem(last=False)


class ODDataset:
    """Model-facing view of a generated dataset.

    Parameters
    ----------
    source:
        The generated :class:`FliggyDataset` (the LBSN generator emits the
        same shape).
    max_long / max_short:
        Truncation lengths for the long-term and short-term sequences
        (most recent events are kept).
    od_mode:
        True for the Fliggy task (rank OD pairs, both labels informative);
        False for LBSN next-POI mode where only the destination is ranked.
    max_cached_points:
        LRU cap on *serving-time* encoded points (``register_point``) and
        on point plans (:attr:`plans`).  Offline train/test points are
        pinned in the store and exempt.  ``None`` disables the bound
        (offline-only workloads).
    """

    def __init__(
        self,
        source: FliggyDataset,
        max_long: int = 15,
        max_short: int = 8,
        od_mode: bool = True,
        max_cached_points: int | None = 10_000,
    ):
        self.source = source
        self.max_long = max_long
        self.max_short = max_short
        self.od_mode = od_mode
        self.max_cached_points = max_cached_points
        self.num_users = source.num_users
        self.num_cities = source.num_cities
        self.coordinates = source.world.coordinates
        self.distance_km = source.world.distance_km
        self.popularity = source.world.popularity
        self._popularity_draws = PopularityDraws(self.popularity)
        self.temporal = TemporalFeatureExtractor(source.bookings_by_user)
        self._hsg: HeterogeneousSpatialGraph | None = None
        self._store = _EncodedStore(max_long, max_short,
                                    max_adhoc=max_cached_points)
        for point in source.train_points + source.test_points:
            self._store.put(self._key(point), self._encode_point(point),
                            pinned=True)
        self.plans = PointPlans(max_cached_points)
        self._split_arrays_cache: dict[str, tuple[np.ndarray, ...]] = {}
        self._hard_negatives = False
        self._route_popularity = self._build_route_popularity()

    def _build_route_popularity(self) -> np.ndarray:
        """Normalised OD-route booking counts from training events only."""
        counts = np.zeros((self.num_cities, self.num_cities))
        for _, origin, destination in self.source.training_od_events():
            counts[origin, destination] += 1
        total = counts.max()
        return counts / total if total > 0 else counts

    # ------------------------------------------------------------------
    @property
    def hsg(self) -> HeterogeneousSpatialGraph:
        """The HSG built from training bookings (lazy, cached)."""
        if self._hsg is None:
            self._hsg = self.source.build_hsg()
        return self._hsg

    @property
    def xst_dim(self) -> int:
        return FULL_XST_DIM

    @property
    def encoded_points(self) -> int:
        """Number of encoded decision points currently stored."""
        return len(self._store)

    @property
    def encoded_evictions(self) -> int:
        """Serving-time encoded points evicted by the LRU bound so far."""
        return self._store.evictions

    @property
    def route_popularity(self) -> np.ndarray:
        """Normalised OD-route booking counts (training events only)."""
        return self._route_popularity

    def samples(self, split: str) -> list[Sample]:
        if split == "train":
            return self.source.train_samples
        if split == "test":
            return self.source.test_samples
        raise ValueError(f"unknown split {split!r}")

    # ------------------------------------------------------------------
    @staticmethod
    def _key(point: DecisionPoint) -> tuple[int, int, int]:
        """(user, day, RTFS revision): an ingest makes it a new point."""
        return (*point.key, point.history.revision)

    def _encode_point(self, point: DecisionPoint) -> _EncodedPoint:
        history = point.history
        bookings = history.bookings[-self.max_long:]
        clicks = history.clicks[-self.max_short:]

        long_origins = np.zeros(self.max_long, dtype=np.int64)
        long_destinations = np.zeros(self.max_long, dtype=np.int64)
        long_mask = np.zeros(self.max_long, dtype=bool)
        long_days = np.zeros(self.max_long, dtype=np.int64)
        for i, booking in enumerate(bookings):
            long_origins[i] = booking.origin
            long_destinations[i] = booking.destination
            long_days[i] = booking.day
            long_mask[i] = True

        short_origins = np.zeros(self.max_short, dtype=np.int64)
        short_destinations = np.zeros(self.max_short, dtype=np.int64)
        short_mask = np.zeros(self.max_short, dtype=bool)
        for i, click in enumerate(clicks):
            short_origins[i] = click.origin
            short_destinations[i] = click.destination
            short_mask[i] = True

        return _EncodedPoint(
            long_origins=long_origins,
            long_destinations=long_destinations,
            long_mask=long_mask,
            long_days=long_days,
            short_origins=short_origins,
            short_destinations=short_destinations,
            short_mask=short_mask,
            current_city=history.current_city,
        )

    @staticmethod
    def _unique_triples(
        users: np.ndarray, cities: np.ndarray, days: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """First-occurrence indices of unique (user, city, day) triples and
        the inverse map (``triples[unique_idx][inverse] == triples``)."""
        n = users.shape[0]
        order = np.lexsort((days, cities, users))
        su, sc, sd = users[order], cities[order], days[order]
        new_group = np.ones(n, dtype=bool)
        new_group[1:] = (
            (su[1:] != su[:-1]) | (sc[1:] != sc[:-1]) | (sd[1:] != sd[:-1])
        )
        group = np.cumsum(new_group) - 1
        inverse = np.empty(n, dtype=np.int64)
        inverse[order] = group
        return order[new_group], inverse

    def _aux_features_many(
        self,
        current_city: np.ndarray,
        long_seq: np.ndarray,
        long_mask: np.ndarray,
        short_seq: np.ndarray,
        short_mask: np.ndarray,
        candidates: np.ndarray,
    ) -> np.ndarray:
        """AUX_DIM interaction statistics for all rows at once."""
        size = candidates.shape[0]
        long_matches = ((long_seq == candidates[:, None]) & long_mask).sum(axis=1)
        short_matches = (
            (short_seq == candidates[:, None]) & short_mask
        ).sum(axis=1)
        valid = long_mask.sum(axis=1)
        last = long_seq[np.arange(size), np.maximum(valid - 1, 0)]
        out = np.empty((size, AUX_DIM), dtype=np.float64)
        out[:, 0] = candidates == current_city
        out[:, 1] = np.log1p(long_matches)
        out[:, 2] = np.log1p(short_matches)
        out[:, 3] = (valid > 0) & (last == candidates)
        out[:, 4] = np.log1p(self.distance_km[current_city, candidates])
        return out

    def _pair_features_many(
        self,
        long_origins: np.ndarray,
        long_destinations: np.ndarray,
        long_mask: np.ndarray,
        short_origins: np.ndarray,
        short_destinations: np.ndarray,
        short_mask: np.ndarray,
        cand_o: np.ndarray,
        cand_d: np.ndarray,
    ) -> np.ndarray:
        """PAIR_DIM joint statistics for all candidate OD pairs at once."""
        size = cand_o.shape[0]
        pair_long = (
            (long_origins == cand_o[:, None])
            & (long_destinations == cand_d[:, None]) & long_mask
        ).sum(axis=1)
        reverse_long = (
            (long_origins == cand_d[:, None])
            & (long_destinations == cand_o[:, None]) & long_mask
        ).sum(axis=1)
        pair_short = (
            (short_origins == cand_o[:, None])
            & (short_destinations == cand_d[:, None]) & short_mask
        ).sum(axis=1)
        valid = long_mask.sum(axis=1)
        rows = np.arange(size)
        last = np.maximum(valid - 1, 0)
        reverse_of_last = (
            (valid > 0)
            & (long_origins[rows, last] == cand_d)
            & (long_destinations[rows, last] == cand_o)
        )
        out = np.empty((size, PAIR_DIM), dtype=np.float64)
        out[:, 0] = np.log1p(self.distance_km[cand_o, cand_d])
        out[:, 1] = self._route_popularity[cand_o, cand_d]
        out[:, 2] = np.log1p(pair_long)
        out[:, 3] = np.log1p(reverse_long)
        out[:, 4] = np.log1p(pair_short)
        out[:, 5] = reverse_of_last
        return out

    def _assemble_batch(
        self,
        store_rows: np.ndarray,
        user_ids: np.ndarray,
        days: np.ndarray,
        cand_o: np.ndarray,
        cand_d: np.ndarray,
        label_o: np.ndarray,
        label_d: np.ndarray,
        point_rows: np.ndarray | None = None,
        first_rows: np.ndarray | None = None,
        sides: dict[str, tuple[np.ndarray, ...]] | None = None,
    ) -> tuple[ODBatch, dict[str, tuple[np.ndarray, ...]]]:
        """Gather store rows + compute all feature blocks, fully vectorized.

        Returns the batch and its side blocks, per side ``(first, rows,
        block)``: the given ``sides`` (a plan's) or, without them, the
        ones computed here."""
        store = self._store
        long_origins = store.long_origins[store_rows]
        long_destinations = store.long_destinations[store_rows]
        long_mask = store.long_mask[store_rows]
        long_days = store.long_days[store_rows]
        short_origins = store.short_origins[store_rows]
        short_destinations = store.short_destinations[store_rows]
        short_mask = store.short_mask[store_rows]
        current_city = store.current_city[store_rows]
        if sides is None:
            # Per-side features depend on (user, day, candidate city)
            # alone: (first, rows, block) computes them on the distinct
            # triples, to be gathered back per row.
            sides = {}
            for role, cands, long_seq, short_seq in (
                ("o", cand_o, long_origins, short_origins),
                ("d", cand_d, long_destinations, short_destinations),
            ):
                first, rows = self._unique_triples(user_ids, cands, days)
                block = np.empty((first.shape[0], FULL_XST_DIM))
                block[:, :XST_DIM] = self.temporal.x_st(
                    user_ids[first], cands[first], days[first], role
                )
                block[:, XST_DIM:] = self._aux_features_many(
                    current_city[first], long_seq[first], long_mask[first],
                    short_seq[first], short_mask[first], cands[first],
                )
                sides[role] = (first, rows, block)
        pair_features = self._pair_features_many(
            long_origins, long_destinations, long_mask,
            short_origins, short_destinations, short_mask,
            cand_o, cand_d,
        )
        batch = ODBatch(
            user_ids=user_ids,
            current_city=current_city,
            long_origins=long_origins,
            long_destinations=long_destinations,
            long_mask=long_mask,
            long_days=long_days,
            short_origins=short_origins,
            short_destinations=short_destinations,
            short_mask=short_mask,
            candidate_origin=cand_o,
            candidate_destination=cand_d,
            label_o=label_o,
            label_d=label_d,
            day=days,
            xst_o=sides["o"][2][sides["o"][1]],  # block[rows]
            xst_d=sides["d"][2][sides["d"][1]],
            pair_features=pair_features,
            point_rows=point_rows,
            first_rows=first_rows,
            # Training batches repeat next to nothing: every row its own.
            side_layout=None if point_rows is None else {
                role: side[:2] for role, side in sides.items()
            },
        )
        return batch, sides

    # ------------------------------------------------------------------
    def _split_arrays(self, split: str) -> tuple[np.ndarray, ...]:
        """Per-split sample columns + store rows, computed once (offline
        points are pinned so their store rows never move)."""
        cached = self._split_arrays_cache.get(split)
        if cached is None:
            samples = self.samples(split)
            n = len(samples)
            users = np.fromiter((s.user_id for s in samples), np.int64, n)
            days = np.fromiter((s.day for s in samples), np.int64, n)
            origins = np.fromiter((s.origin for s in samples), np.int64, n)
            dests = np.fromiter((s.destination for s in samples), np.int64, n)
            label_o = np.fromiter(
                (s.label_o for s in samples), np.float64, n
            )
            label_d = np.fromiter(
                (s.label_d for s in samples), np.float64, n
            )
            store_rows = np.fromiter(
                (self._store.row((s.user_id, s.day, 0)) for s in samples),
                np.int64, n,
            )
            cached = (store_rows, users, days, origins, dests,
                      label_o, label_d)
            self._split_arrays_cache[split] = cached
        return cached

    def iter_batches(
        self,
        split: str,
        batch_size: int = 128,
        rng: np.random.Generator | None = None,
        shuffle: bool = True,
    ):
        """Yield :class:`ODBatch` objects over the requested split."""
        store_rows, users, days, origins, dests, label_o, label_d = (
            self._split_arrays(split)
        )
        order = np.arange(len(users))
        if shuffle:
            if rng is None:
                rng = np.random.default_rng(0)
            rng.shuffle(order)
        for start in range(0, len(order), batch_size):
            chunk = order[start:start + batch_size]
            yield self._assemble_batch(
                store_rows[chunk], users[chunk], days[chunk],
                origins[chunk], dests[chunk],
                label_o[chunk], label_d[chunk],
            )[0]

    def register_point(self, point: DecisionPoint) -> int:
        """Encode and index an ad-hoc decision point (serving-time queries).

        Lets the online serving stack score histories that were not part of
        the offline dataset, e.g. freshly assembled by the feature service.
        Ad-hoc points are LRU-bounded by ``max_cached_points``; returns the
        store row the point landed in.
        """
        before = self._store.evictions
        row = self._store.put(self._key(point), self._encode_point(point),
                              pinned=False)
        evicted = self._store.evictions - before
        if evicted:
            registry = get_registry()
            if registry.enabled:
                registry.counter("dataset.encoded_evictions").inc(evicted)
        return row

    def batch_for_candidates(
        self, point: DecisionPoint, candidates: list[ODPair]
    ) -> ODBatch:
        """Encode one decision point against a list of candidate OD pairs."""
        return self.batch_for_requests([(point, candidates)])

    def _plan(self, requests) -> PointPlan | None:
        """The plan of a single request whose candidates are the pairs its
        recall remembered (:attr:`plans`), else None."""
        if len(requests) != 1:
            return None
        point, candidates = requests[0]
        plan = self.plans.get(self._key(point))
        if plan is None or not (isinstance(candidates, CandidatePairs)
                                and candidates.array is plan.pairs):
            return None
        return plan

    def batch_for_requests(
        self, requests: list[tuple[DecisionPoint, list[ODPair]]]
    ) -> ODBatch:
        """Encode several (decision point, candidates) requests as ONE batch.

        Serving encodes one request per call (:meth:`batch_for_candidates`);
        the online trainer, the shadow evaluator and the drills score
        several points at once.  Rows are laid out request by request in
        order, so the caller can split the score vector back with the
        per-request candidate counts.  The batch carries the segment
        layout (``point_rows`` / ``first_rows``) so point-aware models can
        deduplicate per-history work across a request's candidates.  A
        single request over the pairs recall remembered for its point
        takes its side blocks from the point's plan — built by the first
        such call.
        """
        num_requests = len(requests)
        counts = np.empty(num_requests, dtype=np.int64)
        point_store_rows = np.empty(num_requests, dtype=np.int64)
        point_users = np.empty(num_requests, dtype=np.int64)
        point_days = np.empty(num_requests, dtype=np.int64)
        target_o = np.empty(num_requests, dtype=np.int64)
        target_d = np.empty(num_requests, dtype=np.int64)
        candidate_blocks: list[np.ndarray] = []
        for i, (point, candidates) in enumerate(requests):
            row = self._store.row(self._key(point))
            if row is None:
                row = self.register_point(point)
            counts[i] = len(candidates)
            point_store_rows[i] = row
            point_users[i] = point.history.user_id
            point_days[i] = point.day
            target_o[i] = point.target.origin
            target_d[i] = point.target.destination
            if candidates:
                candidate_blocks.append(
                    np.array(candidates, dtype=np.int64).reshape(-1, 2)
                )
        # Points with zero candidates contribute no rows; the segment
        # layout is built over the active points only.
        active = counts > 0
        counts = counts[active]
        if candidate_blocks:
            pairs = np.concatenate(candidate_blocks, axis=0)
        else:
            pairs = np.zeros((0, 2), dtype=np.int64)
        point_rows = np.repeat(np.arange(counts.shape[0]), counts)
        first_rows = np.zeros(counts.shape[0], dtype=np.int64)
        if counts.shape[0] > 1:
            first_rows[1:] = np.cumsum(counts)[:-1]
        cand_o = pairs[:, 0]
        cand_d = pairs[:, 1]
        label_o = (cand_o == target_o[active][point_rows]).astype(np.float64)
        label_d = (cand_d == target_d[active][point_rows]).astype(np.float64)
        rows = point_store_rows[active]
        stamps = self._store.stamp[rows]
        plan = self._plan(requests)
        batch, sides = self._assemble_batch(
            rows[point_rows],
            point_users[active][point_rows],
            point_days[active][point_rows],
            cand_o, cand_d, label_o, label_d,
            point_rows=point_rows,
            first_rows=first_rows,
            sides=None if plan is None else plan.sides,
        )
        # A plan remembers only a gather of its own point's row: the key
        # still names the row (asked before the stamps are re-read — a
        # put clears a row's stamp before a key names it).
        own = plan is not None and plan.sides is None and (
            self._store.row(self._key(requests[0][0])) == point_store_rows[0]
        )
        # Seqlock read (a gather takes no lock; only puts do): a stamp that
        # read 0 or moved across the gather met a put — scored, but under
        # no key (stamp 0), and its side blocks are not remembered.
        intact = (stamps == self._store.stamp[rows]) & (stamps != 0)
        batch.point_keys = (rows, np.where(intact, stamps, 0))
        if own and intact.all():
            plan.sides = {role: tuple(map(_frozen, side))
                          for role, side in sides.items()}
        return batch

    # ------------------------------------------------------------------
    def ranking_tasks(
        self,
        num_candidates: int = 30,
        rng: np.random.Generator | None = None,
        max_tasks: int | None = None,
        hard_negatives: bool = True,
    ) -> list[RankingTask]:
        """Evaluation tasks: the true OD pair among sampled distractors.

        In OD mode distractors mix the three negative forms of Table I; in
        LBSN mode only the destination varies (next-POI ranking).

        With ``hard_negatives`` (the default, and the realistic setting:
        a production recall stage surfaces *plausible* candidates, §VI-B),
        half of the distractor origins come from the geographic
        neighbourhood of the true origin and half of the distractor
        destinations share a semantic pattern with the true destination.
        This is what makes the ranking require exploration rather than
        history matching.
        """
        if rng is None:
            rng = np.random.default_rng(0)
        self._hard_negatives = hard_negatives and self.od_mode
        points = self.source.test_points
        if max_tasks is not None and len(points) > max_tasks:
            chosen = rng.choice(len(points), size=max_tasks, replace=False)
            points = [points[int(i)] for i in sorted(chosen)]

        tasks = []
        for point in points:
            true = point.target
            candidates = [true] + self.sample_distractors(
                true, num_candidates - 1, rng
            )
            order = rng.permutation(len(candidates))
            shuffled = [candidates[int(i)] for i in order]
            tasks.append(
                RankingTask(
                    point=point,
                    candidates=shuffled,
                    true_index=shuffled.index(true),
                )
            )
        return tasks

    def sample_distractors(
        self, target: ODPair, n: int, rng: np.random.Generator
    ) -> list[ODPair]:
        """Up to ``n`` distinct pairs other than ``target``, each drawn as
        one of Table I's negative forms (see :meth:`ranking_tasks`).

        At most ``8 * (n + 1)`` draws: a world with fewer distinct pairs
        around ``target`` than ``n`` would otherwise loop forever on
        rejections, so the list comes back short instead.
        """
        seen = {target}
        pairs: list[ODPair] = []
        for _ in range(8 * (n + 1)):
            if len(pairs) >= n:
                break
            pair = self._sample_distractor(target, rng)
            if pair not in seen:
                seen.add(pair)
                pairs.append(pair)
        return pairs

    def _random_city(self, exclude: int, rng: np.random.Generator) -> int:
        return self._popularity_draws.negative(exclude, rng)

    def _plausible_city(
        self, pool: np.ndarray, exclude: int, rng: np.random.Generator
    ) -> int:
        """A popularity-weighted draw from ``pool``, so that a distractor
        is not separable from the true city by popularity alone; a pool
        without popularity mass falls back to :meth:`_random_city`."""
        weights = self.popularity[pool]
        total = weights.sum()
        if not total > 0.0:
            return self._random_city(exclude, rng)
        return int(pool[choice_draw(choice_cdf(weights / total), rng)])

    def _hard_origin(self, true_origin: int, rng: np.random.Generator) -> int:
        """A geographically-plausible wrong origin (nearby airport)."""
        nearby = self.source.world.nearby_cities(true_origin, radius_km=600.0)
        return self._plausible_city(nearby, true_origin, rng)

    def _hard_destination(self, true_dest: int, rng: np.random.Generator) -> int:
        """A semantically-plausible wrong destination (same pattern)."""
        patterns = sorted(self.source.world.cities[true_dest].patterns)
        if not patterns:
            return self._random_city(true_dest, rng)
        members = self.source.world.cities_with_pattern(
            patterns[int(rng.integers(len(patterns)))]
        )
        return self._plausible_city(members[members != true_dest], true_dest, rng)

    #: fraction of distractors drawn from the plausible (hard) pools when
    #: hard negatives are enabled; the rest are popularity-random.
    hard_fraction = 0.75

    def _negative_origin(self, true_origin: int, rng: np.random.Generator) -> int:
        if self._hard_negatives and rng.random() < self.hard_fraction:
            return self._hard_origin(true_origin, rng)
        return self._random_city(true_origin, rng)

    def _negative_destination(self, true_dest: int, rng: np.random.Generator) -> int:
        if self._hard_negatives and rng.random() < self.hard_fraction:
            return self._hard_destination(true_dest, rng)
        return self._random_city(true_dest, rng)

    def _sample_distractor(
        self, true: ODPair, rng: np.random.Generator
    ) -> ODPair:
        if not self.od_mode:
            return ODPair(true.origin, self._random_city(true.destination, rng))
        r = rng.random()
        if r < 1.0 / 3.0:
            return ODPair(true.origin,
                          self._negative_destination(true.destination, rng))
        if r < 2.0 / 3.0:
            return ODPair(self._negative_origin(true.origin, rng),
                          true.destination)
        return ODPair(self._negative_origin(true.origin, rng),
                      self._negative_destination(true.destination, rng))
