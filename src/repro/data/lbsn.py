"""Synthetic LBSN check-in datasets (Foursquare / Gowalla stand-ins).

Table IV of the paper evaluates the single-task methods on two public
LBSN check-in datasets.  Those datasets only carry sequential visited
locations (no flight-style origin information), so here each check-in
transition is recorded as an OD event whose origin is the *previous*
check-in location — which is exactly how next-POI models consume them —
and the evaluation ranks only the destination (``od_mode=False``).

The mobility model is the standard LBSN folklore: users anchor around a
home location, transitions are distance-decayed and popularity-weighted,
with preferential return to previously visited POIs (Gonzalez et al.'s
exploration-and-preferential-return).  On top of that, every POI carries a
latent *category* (Foursquare venues are categorised) and every user a
latent category-preference profile: the preference multiplies transition
weights, so a large share of choice variance is personal and only
reachable through learned user-POI representations — count/popularity
features cannot see it.  Foursquare and Gowalla presets differ in POI
density and check-in intensity, mirroring Table II's relative statistics
(Gowalla: more POIs, more check-ins).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .schema import (
    BookingEvent,
    City,
    ClickEvent,
    ODPair,
    Sample,
    UserHistory,
    UserProfile,
)
from .synthetic import (
    DecisionPoint,
    FliggyConfig,
    FliggyDataset,
    PopularityDraws,
    choice_cdf,
    choice_draw,
)
from .world import CityWorld, WorldConfig

__all__ = [
    "LbsnConfig",
    "generate_lbsn_dataset",
    "foursquare_config",
    "gowalla_config",
]


@dataclass(frozen=True)
class LbsnConfig:
    """Configuration of a synthetic LBSN dataset."""

    name: str = "foursquare"
    num_users: int = 800
    num_pois: int = 120
    mean_checkins: float = 18.0
    min_checkins: int = 6
    min_history: int = 3
    train_points_per_user: int = 2
    num_negatives: int = 4           # D-only negatives per positive
    distance_scale_km: float = 800.0
    return_prob: float = 0.35        # preferential return to a visited POI
    explore_pop_prob: float = 0.15   # jump to a globally popular POI
    num_categories: int = 6          # latent venue categories
    category_strength: float = 4.0   # how much personas shape choices
    category_concentration: float = 0.4  # Dirichlet alpha of user personas
    lon_range: tuple[float, float] = (100.0, 125.0)
    lat_range: tuple[float, float] = (20.0, 45.0)
    popularity_alpha: float = 1.1
    seed: int = 11


def foursquare_config(**overrides) -> LbsnConfig:
    """Foursquare-like preset (denser check-ins, fewer POIs than Gowalla)."""
    config = LbsnConfig(name="foursquare", num_pois=120, mean_checkins=20.0,
                        seed=11)
    return replace(config, **overrides) if overrides else config


def gowalla_config(**overrides) -> LbsnConfig:
    """Gowalla-like preset (more POIs, longer travel scale)."""
    config = LbsnConfig(name="gowalla", num_pois=180, mean_checkins=24.0,
                        distance_scale_km=1100.0, seed=13)
    return replace(config, **overrides) if overrides else config


def _build_poi_world(config: LbsnConfig, rng: np.random.Generator) -> CityWorld:
    """POIs as a pattern-less CityWorld so the OD machinery is reusable."""
    from ..graph.distance import haversine_matrix

    n = config.num_pois
    lon = rng.uniform(*config.lon_range, size=n)
    lat = rng.uniform(*config.lat_range, size=n)
    coordinates = np.column_stack([lon, lat])
    distance_km = haversine_matrix(coordinates)
    ranks = rng.permutation(n) + 1
    popularity = 1.0 / ranks ** config.popularity_alpha
    popularity /= popularity.sum()
    categories = rng.integers(0, config.num_categories, size=n)
    cities = [
        City(
            city_id=i,
            name=f"poi_{i:04d}",
            lon=float(lon[i]),
            lat=float(lat[i]),
            patterns=frozenset({f"category_{categories[i]}"}),
            popularity=float(popularity[i]),
            region=int(categories[i]),
        )
        for i in range(n)
    ]
    pattern_members = {
        f"category_{k}": np.where(categories == k)[0].astype(np.int64)
        for k in range(config.num_categories)
    }
    prices = distance_km.copy()  # unused by LBSN models; keeps shape contract
    np.fill_diagonal(prices, np.inf)
    return CityWorld(
        cities=cities,
        coordinates=coordinates,
        distance_km=distance_km,
        prices=prices,
        popularity=popularity,
        pattern_members=pattern_members,
    )


def _simulate_checkins(
    home: int,
    count: int,
    world: CityWorld,
    popularity: PopularityDraws,
    decay: np.ndarray,
    category_affinity: np.ndarray,
    config: LbsnConfig,
    rng: np.random.Generator,
) -> list[int]:
    """Exploration-and-preferential-return mobility from ``home``.

    ``decay[i]`` is every POI's popularity times its distance decay from
    POI ``i``.  ``category_affinity`` is a per-POI multiplier derived from
    the user's latent category preferences; it shapes both exploration
    modes, so the user's personal taste is the dominant non-count signal.
    """
    explore = world.popularity * category_affinity
    explore = choice_cdf(explore / explore.sum())
    sequence = [home]
    visited: list[int] = [home]
    for _ in range(count - 1):
        current = sequence[-1]
        r = rng.random()
        if r < config.return_prob and len(visited) > 1:
            # Preferential return: weight by visit frequency.
            pois, counts = np.unique(visited, return_counts=True)
            weights = counts.astype(np.float64)
            weights /= weights.sum()
            nxt = int(pois[choice_draw(choice_cdf(weights), rng)])
            if nxt == current:
                nxt = popularity.draw(rng)
        elif r < config.return_prob + config.explore_pop_prob:
            nxt = choice_draw(explore, rng)
        else:
            # Distance-decayed, popularity-weighted, taste-shaped.
            weights = decay[current] * category_affinity
            weights[current] = 0.0
            total = weights.sum()
            if not total > 0.0:
                # All the popularity on the current POI: move anywhere else.
                nxt = popularity.negative(current, rng)
            else:
                nxt = choice_draw(choice_cdf(weights / total), rng)
        if nxt == current:
            nxt = (nxt + 1) % world.num_cities
        sequence.append(nxt)
        visited.append(nxt)
    return sequence


def generate_lbsn_dataset(config: LbsnConfig) -> FliggyDataset:
    """Generate an LBSN dataset in the shared :class:`FliggyDataset` shape."""
    rng = np.random.default_rng(config.seed)
    world = _build_poi_world(config, rng)
    popularity = PopularityDraws(world.popularity)
    decay = world.popularity * np.exp(
        -world.distance_km / config.distance_scale_km
    )

    profiles: list[UserProfile] = []
    bookings_by_user: dict[int, list[BookingEvent]] = {}
    train_points: list[DecisionPoint] = []
    test_points: list[DecisionPoint] = []
    train_samples: list[Sample] = []
    test_samples: list[Sample] = []

    poi_categories = np.array(
        [city.region for city in world.cities], dtype=np.int64
    )
    for user_id in range(config.num_users):
        home = popularity.draw(rng)
        count = max(config.min_checkins, int(rng.poisson(config.mean_checkins)))
        persona = rng.dirichlet(
            np.full(config.num_categories, config.category_concentration)
        )
        category_affinity = np.exp(
            config.category_strength * persona[poi_categories]
        )
        checkins = _simulate_checkins(
            home, count, world, popularity, decay, category_affinity, config,
            rng,
        )
        days = np.sort(rng.choice(config.num_users * 2 + 730, size=len(checkins),
                                  replace=False))

        profiles.append(
            UserProfile(
                user_id=user_id,
                home_city=home,
                nearby_origins=(),
                pattern_weights=(0.25, 0.25, 0.25, 0.25),
                vacation_month=0,
                price_sensitivity=1.0,
                explore_origin_prob=0.0,
                return_propensity=config.return_prob,
                activity=1.0,
            )
        )

        # Each check-in transition is an OD event (prev -> next).
        bookings = [
            BookingEvent(
                user_id=user_id,
                origin=checkins[i - 1],
                destination=checkins[i],
                day=int(days[i]),
                price=0.0,
            )
            for i in range(1, len(checkins))
        ]
        bookings_by_user[user_id] = bookings

        eligible = [i for i in range(len(bookings)) if i >= config.min_history]
        if not eligible:
            continue
        test_index = eligible[-1]
        train_candidates = eligible[:-1]
        if len(train_candidates) > config.train_points_per_user:
            chosen = rng.choice(train_candidates,
                                size=config.train_points_per_user, replace=False)
            train_indices = sorted(int(i) for i in chosen)
        else:
            train_indices = train_candidates

        for split, indices in (("train", train_indices), ("test", [test_index])):
            for i in indices:
                booking = bookings[i]
                target = ODPair(booking.origin, booking.destination)
                history = UserHistory(
                    user_id=user_id,
                    current_city=booking.origin,
                    bookings=list(bookings[:i]),
                    # Short-term behaviour: the most recent transitions.
                    clicks=[
                        ClickEvent(user_id, b.origin, b.destination, b.day)
                        for b in bookings[max(0, i - 5):i]
                    ],
                )
                point = DecisionPoint(history=history, target=target,
                                      day=booking.day)
                samples = _lbsn_samples(point, popularity, config, rng)
                if split == "train":
                    train_points.append(point)
                    train_samples.extend(samples)
                else:
                    test_points.append(point)
                    test_samples.extend(samples)

    fliggy_config = FliggyConfig(
        num_users=config.num_users,
        world=WorldConfig(num_cities=config.num_pois),
        min_history=config.min_history,
        train_points_per_user=config.train_points_per_user,
        seed=config.seed,
    )
    return FliggyDataset(
        config=fliggy_config,
        world=world,
        profiles=profiles,
        train_points=train_points,
        test_points=test_points,
        train_samples=train_samples,
        test_samples=test_samples,
        bookings_by_user=bookings_by_user,
    )


def _lbsn_samples(
    point: DecisionPoint,
    popularity: PopularityDraws,
    config: LbsnConfig,
    rng: np.random.Generator,
) -> list[Sample]:
    """Positive + D-only negatives (origin is the known previous location)."""
    user = point.history.user_id
    origin, destination = point.target
    negatives = popularity.negatives([destination] * config.num_negatives, rng)
    return [Sample(user, origin, destination, 1, 1, point.day)] + [
        Sample(user, origin, negative, 1, 0, point.day) for negative in negatives
    ]
