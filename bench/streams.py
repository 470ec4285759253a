"""Seeded inputs: request streams, feature events, weight perturbations.

Everything here is a pure function of the seed (plus a *salt* naming the
stream, so warm-up, measured rounds and check samples differ from each
other but repeat exactly from run to run).  The program under test never
sees the seed — only the generated inputs.
"""

from __future__ import annotations

import numpy as np

from repro.data.schema import BookingEvent, ClickEvent

__all__ = [
    "STREAM",
    "request_stream",
    "feature_events",
    "perturbed_states",
]


# Traffic shape.  The system's behaviour depends on how much work
# requests share: a skewed user mix re-hits the same encoded points, and
# a request on the user's own test-point day hits the *pinned* encoded
# store while any other day has to be encoded (and LRU-cached) at
# serving time.
ZIPF_EXPONENT = 1.1      # user popularity ~ rank ** -1.1
PINNED_DAY_SHARE = 0.5   # requests on the user's test-point day
MAX_DAY_OFFSET = 30      # otherwise test day + uniform(1..30)

#: echoed in every output file
STREAM = {
    "zipf_exponent": ZIPF_EXPONENT,
    "pinned_day_share": PINNED_DAY_SHARE,
    "max_day_offset": MAX_DAY_OFFSET,
}


def _rng(seed: int, salt: str) -> np.random.Generator:
    return np.random.default_rng(
        [int(seed), *salt.encode("utf-8")]
    )


def request_stream(
    test_points, seed: int, salt: str, length: int,
) -> list[tuple[int, int]]:
    """``length`` ``(user_id, day)`` requests over the known users.

    ``test_points`` are the dataset's test decision points — one per
    known user, carrying the day the pinned encoded point lives at.
    """
    users = np.fromiter(
        (p.history.user_id for p in test_points), np.int64, len(test_points)
    )
    days = np.fromiter((p.day for p in test_points), np.int64, len(users))
    # Popularity rank is a property of the seed, not of the salt: every
    # stream of one run agrees on who the heavy users are.
    by_rank = _rng(seed, "user-rank").permutation(len(users))
    weights = np.arange(1, len(users) + 1, dtype=np.float64) \
        ** -ZIPF_EXPONENT
    rng = _rng(seed, salt)
    picks = by_rank[
        rng.choice(len(users), size=length, p=weights / weights.sum())
    ]
    offsets = np.where(
        rng.random(length) < PINNED_DAY_SHARE,
        0,
        rng.integers(1, MAX_DAY_OFFSET + 1, size=length),
    )
    return list(zip(users[picks].tolist(), (days[picks] + offsets).tolist()))


def feature_events(test_points, num_cities: int, seed: int, length: int):
    """Streaming clicks (4 in 5) and bookings for the RTFS writer.

    Users are uniform (ingest cost does not depend on who clicks, and a
    uniform mix keeps any one user's timeline from growing through the
    run); each event lands in the week before that user's test day, so
    it is inside the click window of later reads.
    """
    rng = _rng(seed, "feature-events")
    picks = rng.integers(0, len(test_points), size=length)
    origins = rng.integers(0, num_cities, size=length)
    hops = rng.integers(1, num_cities, size=length)
    back = rng.integers(1, 8, size=length)
    booking = rng.random(length) < 0.2
    events = []
    for i in range(length):
        point = test_points[int(picks[i])]
        origin = int(origins[i])
        destination = int((origin + hops[i]) % num_cities)
        day = int(point.day - back[i])
        if booking[i]:
            events.append(BookingEvent(
                point.history.user_id, origin, destination, day, 500.0
            ))
        else:
            events.append(ClickEvent(
                point.history.user_id, origin, destination, day
            ))
    return events


def perturbed_states(state: dict, seed: int, count: int) -> list[dict]:
    """``count`` full state dicts differing in the user-embedding rows.

    Mimics what the online trainer publishes: every parameter is in the
    snapshot, only the embedding rows moved.  Arrays that did not move
    are shared between the states.
    """
    rng = _rng(seed, "perturbations")
    moved = [name for name in state if name.endswith("user_embedding.weight")]
    if not moved:
        raise ValueError("state dict has no user_embedding.weight tables")
    states = []
    for _ in range(count):
        variant = dict(state)
        for name in moved:
            variant[name] = state[name] + rng.normal(
                0.0, 1e-3, size=state[name].shape
            )
        states.append(variant)
    return states
