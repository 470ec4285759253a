"""Behavioural simulator standing in for the proprietary Fliggy logs.

The paper's Fliggy dataset (Table I) cannot be redistributed, so this module
generates a synthetic equivalent from an explicit user-behaviour model.  The
generator is *structure-preserving*: the two challenges ODNET is built to
solve are planted as causal mechanisms, so models are rewarded exactly for
capturing them —

1. **Exploration of O**: users depart from a cheaper nearby airport with an
   individual propensity (Figure 1(a)-(b) of the paper);
2. **Exploration of D**: destinations are chosen by semantic pattern, so a
   user's next destination is often an *unvisited* city sharing a pattern
   with past ones (Sanya -> Qingdao);
3. **Unity of O&D**: a trip away from home triggers a return booking with
   the reversed OD pair (Case 2 of Section V-F), coupling O and D.

Sample construction follows Table I exactly: each booking yields one
positive ``(O+, D+)``, two of each partially-negative form ``(O+, D-)`` /
``(O-, D+)`` and two fully-negative ``(O-, D-)`` samples.

The draw order is a contract: a seed names one world, byte for byte
(``tests/data/test_hash_seed.py`` pins six).  Every weighted draw goes
through :func:`choice_cdf` / :func:`choice_draw`, an exact rewrite of
``Generator.choice(n, p=p)`` that validates a distribution once instead of
on every draw, and per-user invariants are built once per user.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..graph import HeterogeneousSpatialGraph
from .schema import (
    BookingEvent,
    City,
    CityPattern,
    ClickEvent,
    ODPair,
    Sample,
    UserHistory,
    UserProfile,
)
from .world import CityWorld, WorldConfig, generate_city_world

__all__ = [
    "DegenerateWorldError",
    "FliggyConfig",
    "DecisionPoint",
    "FliggyDataset",
    "generate_fliggy_dataset",
]

DAYS_PER_MONTH = 30
#: ``Generator.choice``'s tolerance on the sum of ``p``
_CHOICE_ATOL = math.sqrt(np.finfo(np.float64).eps)


class DegenerateWorldError(ValueError):
    """Raised when a sampling request is unsatisfiable for the world.

    The canonical case: asking for a negative destination in a one-city
    world, where every candidate equals the city being excluded.
    """


def choice_cdf(p: np.ndarray) -> np.ndarray:
    """The CDF ``Generator.choice(len(p), p=p)`` searches, built once.

    ``p`` is a non-empty float64 array.  Keeps choice's guard: a
    ``ValueError`` when the sum of ``p`` is NaN or off 1 by more than
    √eps.  ``p >= 0`` is the caller's to hold.
    """
    cdf = p.cumsum()
    if not abs(cdf[-1] - 1.0) <= _CHOICE_ATOL:
        raise ValueError(f"probabilities sum to {cdf[-1]!r}, not 1")
    cdf /= cdf[-1]
    return cdf


def choice_draw(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """``Generator.choice(len(p), p=p)`` for ``cdf = choice_cdf(p)``: the
    same one double from ``rng`` and the same index."""
    return int(cdf.searchsorted(rng.random(), side="right"))


class PopularityDraws:
    """Popularity-weighted city draws over one world's popularity vector.

    Built once per generated world (or dataset) and passed down.
    :meth:`negatives` is the one guarded negative sampler: the rejection
    loop "draw until the city differs from ``exclude``", draw for draw,
    except on the two worlds where that loop never ends.  A one-city
    world raises :class:`DegenerateWorldError`; an ``exclude`` holding all
    the popularity mass (as summed) draws uniformly over the other
    cities, the limit of the loop.
    """

    def __init__(self, popularity: np.ndarray):
        popularity = np.asarray(popularity, dtype=np.float64)
        self.cdf = choice_cdf(popularity)
        self._no_complement = (popularity.sum() - popularity) <= 0.0

    def draw(self, rng: np.random.Generator) -> int:
        return choice_draw(self.cdf, rng)

    def negative(self, exclude: int, rng: np.random.Generator) -> int:
        return self.negatives([exclude], rng)[0]

    def negatives(
        self, excludes: list[int], rng: np.random.Generator
    ) -> list[int]:
        """A negative city for each of ``excludes``, in order."""
        num_cities = self.cdf.shape[0]
        if excludes and num_cities <= 1:
            raise DegenerateWorldError(
                "cannot sample a negative city: the world has "
                f"{num_cities} city/cities and every candidate equals "
                f"the excluded city {excludes[0]}"
            )
        out: list[int] = []
        run: list[int] = []
        for exclude in excludes:
            if self._no_complement[exclude]:
                out += self._rejection_run(run, rng)
                run = []
                others = np.delete(np.arange(num_cities), exclude)
                out.append(int(others[rng.integers(others.size)]))
            else:
                run.append(exclude)
        return out + self._rejection_run(run, rng)

    def _rejection_run(
        self, excludes: list[int], rng: np.random.Generator
    ) -> list[int]:
        """The rejection loop for each of ``excludes`` on uniforms drawn
        in chunks.  Each exclusion consumes at least one uniform, so a
        chunk as long as the exclusions still to serve is never more than
        the loop would draw: ``rng`` ends where the loop leaves it."""
        out: list[int] = []
        cities: list[int] = []
        position = 0
        for index, exclude in enumerate(excludes):
            while True:
                if position == len(cities):
                    uniforms = rng.random(len(excludes) - index)
                    cities = self.cdf.searchsorted(
                        uniforms, side="right").tolist()
                    position = 0
                city = cities[position]
                position += 1
                if city != exclude:
                    break
            out.append(city)
        return out


@dataclass(frozen=True)
class FliggyConfig:
    """Configuration of the synthetic Fliggy dataset.

    Defaults give a laptop-scale dataset; the paper's scales (2.6 M users,
    200 cities) are reachable by raising ``num_users``/``world.num_cities``.
    """

    num_users: int = 1200
    world: WorldConfig = field(default_factory=WorldConfig)
    history_days: int = 730          # two years of long-term behaviour (§V-A.1)
    click_window_days: int = 7       # short-term click window (§V-A.1)
    min_bookings: int = 5
    mean_bookings: float = 12.0
    min_history: int = 3             # bookings required before a decision point
    train_points_per_user: int = 2
    partial_negatives: int = 2       # per form, Table I
    full_negatives: int = 2
    nearby_radius_km: float = 400.0
    max_nearby_origins: int = 4
    mean_clicks: float = 3.0
    click_intent_exact: float = 0.05     # click is the upcoming OD pair
    click_intent_alt_origin: float = 0.20  # same D, alternative origin
    click_intent_same_pattern: float = 0.50  # same-pattern alternative D
    novelty_boost: float = 3.0           # preference for unvisited destinations
    seed: int = 7


@dataclass
class DecisionPoint:
    """One labelled recommendation event: a history and the next booking."""

    history: UserHistory
    target: ODPair
    day: int

    @property
    def key(self) -> tuple[int, int]:
        return (self.history.user_id, self.day)


@dataclass
class FliggyDataset:
    """The generated dataset: world, personas, events, and Table I samples."""

    config: FliggyConfig
    world: CityWorld
    profiles: list[UserProfile]
    train_points: list[DecisionPoint]
    test_points: list[DecisionPoint]
    train_samples: list[Sample]
    test_samples: list[Sample]
    bookings_by_user: dict[int, list[BookingEvent]]

    def __post_init__(self) -> None:
        self._point_index = {
            point.key: point for point in self.train_points + self.test_points
        }

    @property
    def num_users(self) -> int:
        return len(self.profiles)

    @property
    def num_cities(self) -> int:
        return self.world.num_cities

    @property
    def cities(self) -> list[City]:
        return self.world.cities

    def point_for(self, user_id: int, day: int) -> DecisionPoint:
        return self._point_index[(user_id, day)]

    def training_od_events(self) -> list[tuple[int, int, int]]:
        """(user, origin, destination) bookings usable for HSG construction.

        Only bookings that are strictly in some training history are used,
        so the graph never sees test labels (no leakage).
        """
        cutoff = {
            point.history.user_id: point.day for point in self.test_points
        }
        events = []
        for user_id, bookings in self.bookings_by_user.items():
            test_day = cutoff.get(user_id, math.inf)
            for booking in bookings:
                if booking.day < test_day:
                    events.append((user_id, booking.origin, booking.destination))
        return events

    def build_hsg(self) -> HeterogeneousSpatialGraph:
        """Construct the Heterogeneous Spatial Graph from training bookings."""
        return HeterogeneousSpatialGraph.from_events(
            self.num_users, self.world.coordinates, self.training_od_events()
        )

    def statistics(self) -> dict[str, int]:
        """Table I-style dataset statistics."""
        def count(samples: list[Sample], label_o: int, label_d: int) -> int:
            return sum(
                1 for s in samples if s.label_o == label_o and s.label_d == label_d
            )

        stats = {}
        for name, samples in (("training", self.train_samples),
                              ("testing", self.test_samples)):
            stats[f"{name}_samples"] = len(samples)
            stats[f"{name}_pos"] = count(samples, 1, 1)
            stats[f"{name}_partial_neg"] = (
                count(samples, 1, 0) + count(samples, 0, 1)
            )
            stats[f"{name}_neg"] = count(samples, 0, 0)
            stats[f"{name}_users"] = len({s.user_id for s in samples})
        stats["origin_cities"] = self.num_cities
        stats["destination_cities"] = self.num_cities
        return stats


def generate_fliggy_dataset(config: FliggyConfig) -> FliggyDataset:
    """Run the behaviour model and emit a full labelled dataset."""
    rng = np.random.default_rng(config.seed)
    world = generate_city_world(config.world, rng)
    popularity = PopularityDraws(world.popularity)
    profiles = [_sample_profile(user, world, popularity, config, rng)
                for user in range(config.num_users)]

    bookings_by_user: dict[int, list[BookingEvent]] = {}
    locations_by_user: dict[int, list[int]] = {}
    for profile in profiles:
        bookings, locations = _simulate_bookings(profile, world, config, rng)
        bookings_by_user[profile.user_id] = bookings
        locations_by_user[profile.user_id] = locations

    train_points: list[DecisionPoint] = []
    test_points: list[DecisionPoint] = []
    for profile in profiles:
        bookings = bookings_by_user[profile.user_id]
        locations = locations_by_user[profile.user_id]
        eligible = [i for i in range(len(bookings)) if i >= config.min_history]
        if not eligible:
            continue
        test_index = eligible[-1]
        train_candidates = eligible[:-1]
        if len(train_candidates) > config.train_points_per_user:
            chosen = rng.choice(
                train_candidates, size=config.train_points_per_user, replace=False
            )
            train_indices = sorted(int(i) for i in chosen)
        else:
            train_indices = train_candidates
        for i in train_indices:
            train_points.append(
                _make_decision_point(profile, bookings, locations, i, world,
                                     popularity, config, rng)
            )
        test_points.append(
            _make_decision_point(profile, bookings, locations, test_index,
                                 world, popularity, config, rng)
        )

    train_samples = _expand_samples(train_points, popularity, config, rng)
    test_samples = _expand_samples(test_points, popularity, config, rng)

    return FliggyDataset(
        config=config,
        world=world,
        profiles=profiles,
        train_points=train_points,
        test_points=test_points,
        train_samples=train_samples,
        test_samples=test_samples,
        bookings_by_user=bookings_by_user,
    )


# ---------------------------------------------------------------------------
# Persona and behaviour model internals
# ---------------------------------------------------------------------------

def _sample_profile(
    user_id: int,
    world: CityWorld,
    popularity: PopularityDraws,
    config: FliggyConfig,
    rng: np.random.Generator,
) -> UserProfile:
    home = popularity.draw(rng)
    nearby = world.nearby_cities(home, config.nearby_radius_km)
    nearby = tuple(int(c) for c in nearby[: config.max_nearby_origins])
    # A concentrated Dirichlet gives most users one dominant travel pattern
    # (the learnable persona signal behind destination exploration).
    pattern_weights = tuple(rng.dirichlet(np.ones(len(CityPattern.ALL)) * 0.4))
    return UserProfile(
        user_id=user_id,
        home_city=home,
        nearby_origins=nearby,
        pattern_weights=pattern_weights,
        vacation_month=int(rng.integers(0, 12)),
        price_sensitivity=float(rng.uniform(0.5, 2.0)),
        explore_origin_prob=float(rng.uniform(0.4, 0.9)),
        return_propensity=float(rng.uniform(0.35, 0.85)),
        activity=float(rng.uniform(0.5, 1.5)),
    )


def _month_of(day: int) -> int:
    return (day // DAYS_PER_MONTH) % 12


class _DestinationChoice:
    """Pattern-driven destination choice with price sensitivity, for one
    user.  What does not change between bookings is built once: the
    pattern CDFs outside and inside the vacation month, and per pattern
    the members with a finite fare from home and their
    ``popularity * exp(-s * price / 800)`` score.  The extra last pool is
    every city, for a pattern whose only member is the current city.
    """

    def __init__(self, profile: UserProfile, world: CityWorld):
        self.profile = profile
        self.world = world
        weights = np.asarray(profile.pattern_weights, dtype=np.float64)
        # Seasonal boost: in the user's vacation month leisure patterns
        # dominate.
        vacation = weights.copy()
        for i, pattern in enumerate(CityPattern.ALL):
            if pattern in (CityPattern.SEASIDE, CityPattern.MOUNTAIN,
                           CityPattern.TOURIST):
                vacation[i] *= 3.0
        self.pattern_cdfs = (choice_cdf(weights / weights.sum()),
                             choice_cdf(vacation / vacation.sum()))
        prices = world.prices[profile.home_city]
        score = world.popularity * np.exp(
            -profile.price_sensitivity * prices / 800.0
        )
        self.members = [world.cities_with_pattern(p) for p in CityPattern.ALL]
        self.pools = [
            cities[np.isfinite(prices[cities])]
            for cities in (*self.members, np.arange(world.num_cities))
        ]
        self.scores = [score[pool] for pool in self.pools]

    def choose(
        self,
        current_city: int,
        day: int,
        rng: np.random.Generator,
        visited: np.ndarray | None,
        novelty_boost: float,
    ) -> int:
        """``novelty_boost`` > 1 up-weights cities outside the boolean mask
        ``visited`` (``None`` before the first booking), planting the
        destination-exploration structure: the next D frequently shares a
        pattern with past Ds without repeating them.
        """
        profile, world = self.profile, self.world
        k = choice_draw(
            self.pattern_cdfs[_month_of(day) == profile.vacation_month], rng
        )
        members = self.members[k]
        if members.size == 0 or (members.size == 1
                                 and members[0] == current_city):
            k = -1
        keep = self.pools[k] != current_city
        candidates, score = self.pools[k][keep], self.scores[k][keep]
        if candidates.size == 0:
            # Degenerate pattern pool (e.g. its only member is the home
            # city): fall back to popularity over everything reachable.
            candidates = np.setdiff1d(
                np.arange(world.num_cities),
                np.asarray([current_city, profile.home_city]),
            )
            if candidates.size == 0:
                candidates = np.setdiff1d(
                    np.arange(world.num_cities), np.asarray([current_city])
                )
            score = world.popularity[candidates]
        elif visited is not None and novelty_boost != 1.0:
            score = score * np.where(visited[candidates], 1.0, novelty_boost)
        return int(candidates[choice_draw(choice_cdf(score / score.sum()), rng)])


def _choose_origin(
    profile: UserProfile,
    world: CityWorld,
    current_city: int,
    destination: int,
    rng: np.random.Generator,
) -> int:
    """Origin choice: current location, or an explored cheaper nearby airport."""
    options = [current_city]
    options.extend(c for c in profile.nearby_origins if c != destination)
    options = [o for o in dict.fromkeys(options) if o != destination]
    if not options:
        return current_city
    if len(options) == 1 or rng.random() >= profile.explore_origin_prob:
        return options[0]
    prices = world.prices[options, destination]
    finite = np.isfinite(prices)
    if not finite.all():
        if not finite.any():
            return options[0]
        prices = np.where(finite, prices, prices[finite].max() * 10)
    # Softmax over negative price: cheaper origins win most of the time.
    logits = -prices / 120.0
    logits -= logits.max()
    probs = np.exp(logits)
    probs /= probs.sum()
    return int(options[choice_draw(choice_cdf(probs), rng)])


def _simulate_bookings(
    profile: UserProfile,
    world: CityWorld,
    config: FliggyConfig,
    rng: np.random.Generator,
) -> tuple[list[BookingEvent], list[int]]:
    """Simulate a user's booking sequence.

    Returns the bookings and, aligned with them, the user's *location before
    each booking* (the 'current city' input of ODNET, Figure 3).
    """
    count = max(config.min_bookings,
                int(rng.poisson(config.mean_bookings * profile.activity)))
    days = np.sort(rng.choice(config.history_days, size=count, replace=False))
    destinations = _DestinationChoice(profile, world)

    bookings: list[BookingEvent] = []
    locations: list[int] = []
    location = profile.home_city
    visited = np.zeros(world.num_cities, dtype=bool)
    pending_return: ODPair | None = None
    for day in days.tolist():
        locations.append(location)
        if pending_return is not None and rng.random() < profile.return_propensity:
            origin, destination = pending_return
            pending_return = None
        else:
            destination = destinations.choose(
                location, day, rng, visited if bookings else None,
                config.novelty_boost,
            )
            origin = _choose_origin(profile, world, location, destination, rng)
            # Going away from the home region sets up return-ticket demand.
            if destination != profile.home_city:
                pending_return = ODPair(destination, origin)
            else:
                pending_return = None
        bookings.append(
            BookingEvent(
                user_id=profile.user_id,
                origin=int(origin),
                destination=int(destination),
                day=day,
                price=float(world.prices[origin, destination]),
            )
        )
        visited[destination] = True
        location = int(destination)
    return bookings, locations


def _generate_clicks(
    profile: UserProfile,
    world: CityWorld,
    popularity: PopularityDraws,
    target: ODPair,
    day: int,
    config: FliggyConfig,
    rng: np.random.Generator,
) -> list[ClickEvent]:
    """Short-term clicks: noisy precursors of the upcoming booking intent."""
    count = 1 + int(rng.poisson(config.mean_clicks))
    clicks = []
    c1 = config.click_intent_exact
    c2 = c1 + config.click_intent_alt_origin
    c3 = c2 + config.click_intent_same_pattern
    for _ in range(count):
        r = rng.random()
        if r < c1:
            origin, destination = target
        elif r < c2:
            destination = target.destination
            pool = [profile.home_city, *profile.nearby_origins]
            pool = [o for o in pool if o != destination]
            origin = pool[rng.integers(len(pool))] if pool else target.origin
        elif r < c3:
            origin = target.origin
            patterns = sorted(world.cities[target.destination].patterns)
            members = world.cities_with_pattern(patterns[int(rng.integers(len(patterns)))])
            members = members[(members != origin)]
            destination = (
                int(members[rng.integers(members.size)])
                if members.size else target.destination
            )
        else:
            destination = popularity.draw(rng)
            origin = profile.home_city
            if origin == destination:
                destination = (destination + 1) % world.num_cities
        # Bookings in the first week of history would otherwise yield
        # negative click days (a click "before day zero"); clamp to the
        # start of history so every event has a valid non-negative day.
        click_day = max(
            0, day - int(rng.integers(1, config.click_window_days + 1))
        )
        clicks.append(
            ClickEvent(
                user_id=profile.user_id,
                origin=int(origin),
                destination=int(destination),
                day=click_day,
            )
        )
    return sorted(clicks, key=lambda c: c.day)


def _make_decision_point(
    profile: UserProfile,
    bookings: list[BookingEvent],
    locations: list[int],
    index: int,
    world: CityWorld,
    popularity: PopularityDraws,
    config: FliggyConfig,
    rng: np.random.Generator,
) -> DecisionPoint:
    booking = bookings[index]
    target = ODPair(booking.origin, booking.destination)
    history = UserHistory(
        user_id=profile.user_id,
        current_city=locations[index],
        bookings=list(bookings[:index]),
        clicks=_generate_clicks(profile, world, popularity, target,
                                booking.day, config, rng),
    )
    return DecisionPoint(history=history, target=target, day=booking.day)


def _expand_samples(
    points: list[DecisionPoint],
    popularity: PopularityDraws,
    config: FliggyConfig,
    rng: np.random.Generator,
) -> list[Sample]:
    """Expand decision points into Table I's labelled sample mix.

    Every negative is one popularity draw != the positive city it
    replaces; all of them are drawn in one batch, in sample order.
    """
    excludes: list[int] = []
    for point in points:
        o_pos, d_pos = point.target
        excludes += [d_pos, o_pos] * config.partial_negatives
        excludes += [o_pos, d_pos] * config.full_negatives
    negatives = iter(popularity.negatives(excludes, rng))
    samples: list[Sample] = []
    for point in points:
        user = point.history.user_id
        o_pos, d_pos = point.target
        samples.append(Sample(user, o_pos, d_pos, 1, 1, point.day))
        for _ in range(config.partial_negatives):
            samples.append(
                Sample(user, o_pos, next(negatives), 1, 0, point.day)
            )
            samples.append(
                Sample(user, next(negatives), d_pos, 0, 1, point.day)
            )
        for _ in range(config.full_negatives):
            samples.append(
                Sample(user, next(negatives), next(negatives), 0, 0, point.day)
            )
    return samples
