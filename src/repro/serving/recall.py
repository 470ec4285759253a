"""Candidate recall strategies — Section VI-B.

"The user's current city, adjacent cities, resident cities, as well as
origin cities of historical booking flights can be selected as the
candidate origin cities (Os) of the user.  On the other hand, candidate
destination cities (Ds) of the user can be generated based on user's
destination cities of historical booking flights, destination cities
corresponding to popular air lines, destination cities of flights clicked
by the user, and etc.  After that, candidate Os and Ds are assembled to
get candidate OD pairs."
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.dataset import PointPlan, PointPlans
from ..data.schema import CandidatePairs, ODPair, UserHistory
from ..data.world import CityWorld
from ..obs.registry import get_registry
from ..resilience.chaos import get_fault_injector

__all__ = ["RecallConfig", "CandidateRecall"]


@dataclass(frozen=True)
class RecallConfig:
    """Caps for each recall strategy."""

    adjacent_radius_km: float = 400.0
    max_adjacent: int = 4
    max_historical_origins: int = 5
    max_historical_destinations: int = 8
    max_popular_destinations: int = 8
    max_clicked_destinations: int = 6
    max_pairs: int = 120


class CandidateRecall:
    """Assembles candidate OD pairs from the strategies of Section VI-B.

    Candidate sets are assembled as numpy arrays end to end: per-city
    adjacency is precomputed once (lazily, then cached), historical
    frequency ranking replicates ``Counter.most_common`` order with one
    ``np.lexsort`` (count descending, first-appearance order on ties),
    and OD pairs come from a ``repeat``/``tile`` cross product with an
    ordered integer-key dedup — no per-candidate list/dict work.

    With ``plans`` (the dataset's :class:`~repro.data.dataset.PointPlans`)
    the pairs of a history RTFS read are remembered per decision point
    ``(user, day, revision)``, which names that history, and a repeat
    of the point reads them back.
    """

    def __init__(
        self,
        world: CityWorld,
        route_popularity: np.ndarray,
        config: RecallConfig | None = None,
        plans: PointPlans | None = None,
    ):
        self.world = world
        self.plans = plans
        self.route_popularity = np.asarray(route_popularity, dtype=np.float64)
        self.config = config or RecallConfig()
        # Globally popular destinations by inbound route mass.
        inbound = self.route_popularity.sum(axis=0)
        self._popular_destinations = np.argsort(-inbound)
        self._num_cities = self.route_popularity.shape[1]
        self._adjacent_cache: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    def _adjacent(self, city: int) -> np.ndarray:
        """Capped distance-ordered neighbours of ``city``, computed once."""
        cached = self._adjacent_cache.get(city)
        if cached is None:
            cached = np.asarray(
                self.world.nearby_cities(
                    city, self.config.adjacent_radius_km
                )[: self.config.max_adjacent],
                dtype=np.int64,
            )
            self._adjacent_cache[city] = cached
        return cached

    @staticmethod
    def _ranked_by_count(values: np.ndarray) -> np.ndarray:
        """Unique values in ``Counter.most_common`` order: count
        descending, first-appearance order on ties."""
        if values.size == 0:
            return values
        unique, first, counts = np.unique(
            values, return_index=True, return_counts=True
        )
        return unique[np.lexsort((first, -counts))]

    @staticmethod
    def _ordered_unique(values: np.ndarray) -> np.ndarray:
        """Deduplicate keeping first-occurrence order (dict.fromkeys)."""
        _, first = np.unique(values, return_index=True)
        return values[np.sort(first)]

    def _origin_array(self, history: UserHistory) -> np.ndarray:
        config = self.config
        bookings = history.bookings
        booked = np.fromiter(
            (b.origin for b in bookings), np.int64, len(bookings)
        )
        ranked = self._ranked_by_count(booked)
        parts = [
            np.array([history.current_city], dtype=np.int64),
            self._adjacent(history.current_city),
        ]
        if ranked.size:
            parts.append(ranked[:1])  # resident city (modal origin)
            parts.append(ranked[: config.max_historical_origins])
        return self._ordered_unique(np.concatenate(parts))

    def _destination_array(self, history: UserHistory) -> np.ndarray:
        config = self.config
        bookings = history.bookings
        booked = np.fromiter(
            (b.destination for b in bookings), np.int64, len(bookings)
        )
        clicks = history.clicks[-config.max_clicked_destinations:]
        clicked = np.fromiter(
            (c.destination for c in clicks), np.int64, len(clicks)
        )
        return self._ordered_unique(np.concatenate([
            self._ranked_by_count(booked)[: config.max_historical_destinations],
            self._popular_destinations[: config.max_popular_destinations],
            clicked,
        ]))

    def candidate_origins(self, history: UserHistory) -> list[int]:
        """Current city + adjacent cities + resident city + historical Os."""
        return self._origin_array(history).tolist()

    def candidate_destinations(self, history: UserHistory) -> list[int]:
        """Historical Ds + popular-route Ds + clicked Ds."""
        return self._destination_array(history).tolist()

    def candidate_pairs(self, history: UserHistory) -> CandidatePairs:
        """Cross-assembled OD pairs, deduplicated and capped."""
        get_fault_injector().inject("recall.candidates")
        key = (history.user_id, history.day, history.revision)
        remembered = self.plans is not None and history.day is not None
        plan = self.plans.get(key) if remembered else None
        if plan is not None and plan.recall is self:
            pairs = plan.pairs
        else:
            pairs = self._assemble_pairs(history)
            if remembered:
                self.plans.put(key, PointPlan(self, pairs))
        registry = get_registry()
        if registry.enabled:
            registry.counter("recall.calls").inc()
            registry.counter("recall.pairs").inc(len(pairs))
            registry.histogram("recall.pairs_per_call").observe(len(pairs))
        return CandidatePairs(pairs)

    # ------------------------------------------------------------------
    # Popularity fallbacks (the degradation ladder's bottom rung)
    # ------------------------------------------------------------------
    def popular_pairs(self, limit: int | None = None) -> list[ODPair]:
        """Globally popular OD pairs by route mass — the personalisation-free
        candidate set used when per-user recall is unavailable.

        Self-pairs (origin == destination) are masked out *before* the
        top-``limit`` slice, so a popularity matrix with heavy diagonal
        mass can never starve the degradation ladder's bottom rung: the
        result always has exactly ``limit`` pairs (or every off-diagonal
        pair when fewer exist), ordered by mass with stable row-major tie
        order.
        """
        if limit is None:
            limit = self.config.max_pairs
        num_origins, num_cities = self.route_popularity.shape
        masked = self.route_popularity.copy()
        np.fill_diagonal(masked, -np.inf)
        off_diagonal = masked.size - min(num_origins, num_cities)
        limit = min(limit, off_diagonal)
        flat = np.argsort(-masked, axis=None, kind="stable")[:limit]
        return [
            ODPair(*divmod(int(index), num_cities)) for index in flat
        ]

    def popularity_scores(self, pairs: list[ODPair]) -> np.ndarray:
        """Route-popularity score per pair (the fallback ranking key)."""
        if not pairs:
            return np.zeros(0, dtype=np.float64)
        origins = np.fromiter((p.origin for p in pairs), dtype=np.intp,
                              count=len(pairs))
        destinations = np.fromiter((p.destination for p in pairs),
                                   dtype=np.intp, count=len(pairs))
        return self.route_popularity[origins, destinations]

    def most_popular_origin(self) -> int:
        """The city with the largest outbound route mass."""
        return int(np.argmax(self.route_popularity.sum(axis=1)))

    def _assemble_pairs(self, history: UserHistory) -> np.ndarray:
        """Candidate pairs in priority order, deduplicated, capped: an
        ``(n, 2)`` array of (origin, destination) rows.

        Generation order (mirrored from the list-based implementation it
        replaces): clicked exact pairs newest-first (highest intent),
        the return pair of the most recent booking (Case 2), then the
        origin-major O×D cross product.  Self-pairs are dropped, the
        first occurrence of each pair wins, and the first ``max_pairs``
        survivors are kept.
        """
        clicks = history.clicks
        origin_parts = [np.fromiter(
            (c.origin for c in reversed(clicks)), np.int64, len(clicks)
        )]
        dest_parts = [np.fromiter(
            (c.destination for c in reversed(clicks)), np.int64, len(clicks)
        )]
        if history.bookings:
            last = history.bookings[-1]
            origin_parts.append(np.array([last.destination], dtype=np.int64))
            dest_parts.append(np.array([last.origin], dtype=np.int64))
        origins = self._origin_array(history)
        destinations = self._destination_array(history)
        origin_parts.append(np.repeat(origins, destinations.shape[0]))
        dest_parts.append(np.tile(destinations, origins.shape[0]))

        all_o = np.concatenate(origin_parts)
        all_d = np.concatenate(dest_parts)
        keep = all_o != all_d
        all_o, all_d = all_o[keep], all_d[keep]
        keys = all_o * np.int64(self._num_cities) + all_d
        _, first = np.unique(keys, return_index=True)
        chosen = np.sort(first)[: self.config.max_pairs]
        return np.stack([all_o[chosen], all_d[chosen]], axis=1)
