"""Domain schema for the OD-recommendation problem (Section III).

These dataclasses mirror the entities of the paper: users with long-term
flight *booking* behaviours ``L_u`` and short-term flight *clicking*
behaviours ``S_u``, cities with geography and semantics, OD pairs, and the
labelled samples of Table I.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple

import numpy as np

__all__ = [
    "City",
    "UserProfile",
    "ODPair",
    "CandidatePairs",
    "BookingEvent",
    "ClickEvent",
    "Sample",
    "SampleKind",
    "UserHistory",
    "CityPattern",
]


class CityPattern:
    """Semantic patterns a city can carry (Figure 2's 'seaside' semantics)."""

    SEASIDE = "seaside"
    MOUNTAIN = "mountain"
    BUSINESS = "business"
    TOURIST = "tourist"
    ALL = (SEASIDE, MOUNTAIN, BUSINESS, TOURIST)


@dataclass(frozen=True)
class City:
    """A city-type node: identity, geography and semantics."""

    city_id: int
    name: str
    lon: float
    lat: float
    patterns: frozenset[str]
    popularity: float
    region: int

    def has_pattern(self, pattern: str) -> bool:
        return pattern in self.patterns


class ODPair(NamedTuple):
    """An 'Origin city - Destination city' pair (Section III)."""

    origin: int
    destination: int

    @property
    def reversed(self) -> "ODPair":
        """The return-ticket pair (Case 2 of the paper's case study)."""
        return ODPair(self.destination, self.origin)


class CandidatePairs(Sequence):
    """Candidate OD pairs held as one ``(n, 2)`` int array
    (``array``), read as a sequence of :class:`ODPair` — what recall hands
    the ranker, without an object per pair."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array

    def __len__(self) -> int:
        return self.array.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return CandidatePairs(self.array[index])
        return ODPair(*self.array[index].tolist())

    def __iter__(self):
        return map(ODPair._make, self.array.tolist())

    def __array__(self, dtype=None, copy=None):
        return self.array.astype(dtype or self.array.dtype)

    def __repr__(self) -> str:
        return f"CandidatePairs({self.array.tolist()})"


@dataclass(frozen=True)
class BookingEvent:
    """A booked flight: one element of the long-term behaviour L_u."""

    user_id: int
    origin: int
    destination: int
    day: int
    price: float


@dataclass(frozen=True)
class ClickEvent:
    """A clicked flight: one element of the short-term behaviour S_u."""

    user_id: int
    origin: int
    destination: int
    day: int


class SampleKind:
    """Table I sample taxonomy."""

    POSITIVE = "pos"            # (O+, D+)
    PARTIAL_NEG_D = "pn_d"      # (O+, D-)
    PARTIAL_NEG_O = "pn_o"      # (O-, D+)
    NEGATIVE = "neg"            # (O-, D-)
    ALL = (POSITIVE, PARTIAL_NEG_D, PARTIAL_NEG_O, NEGATIVE)


@dataclass(frozen=True)
class Sample:
    """A labelled training/test sample per Table I.

    ``label_o`` is the indicator I^O (the candidate origin is the true next
    origin) and ``label_d`` is I^D; the four combinations give the four
    sample kinds of Table I.
    """

    user_id: int
    origin: int
    destination: int
    label_o: int
    label_d: int
    day: int

    @property
    def kind(self) -> str:
        if self.label_o and self.label_d:
            return SampleKind.POSITIVE
        if self.label_o:
            return SampleKind.PARTIAL_NEG_D
        if self.label_d:
            return SampleKind.PARTIAL_NEG_O
        return SampleKind.NEGATIVE


@dataclass
class UserHistory:
    """A user's behaviours as seen at a decision point.

    ``bookings`` is the long-term sequence L_u (two years of bookings per
    Section V-A.1) and ``clicks`` the short-term sequence S_u (last 7 days),
    both strictly *before* the decision day to avoid label leakage.
    """

    user_id: int
    current_city: int
    bookings: list[BookingEvent] = field(default_factory=list)
    clicks: list[ClickEvent] = field(default_factory=list)
    revision: int = 0  #: RTFS ingest count when read (0: offline, -1: cold start)
    #: The decision day RTFS read this history at (``None``: not an RTFS
    #: read); with ``user_id`` and ``revision`` it names the decision
    #: point.  An attribute, not a field, so equality and the world's
    #: pinned digests read the same fields as before.
    day: ClassVar[int | None] = None

    @property
    def origin_sequence(self) -> list[int]:
        return [b.origin for b in self.bookings]

    @property
    def destination_sequence(self) -> list[int]:
        return [b.destination for b in self.bookings]

    @property
    def click_origin_sequence(self) -> list[int]:
        return [c.origin for c in self.clicks]

    @property
    def click_destination_sequence(self) -> list[int]:
        return [c.destination for c in self.clicks]


@dataclass(frozen=True)
class UserProfile:
    """Latent persona driving the behavioural simulator.

    The profile encodes exactly the structure the paper's two challenges
    rely on: ``nearby_origins`` enables origin exploration (a Ningbo user
    flying from Shanghai), ``pattern_weights`` makes destinations with the
    same semantics substitutable (Sanya -> Qingdao), and
    ``return_propensity`` creates the O&D-coupled return-ticket demand.
    """

    user_id: int
    home_city: int
    nearby_origins: tuple[int, ...]
    pattern_weights: tuple[float, ...]
    vacation_month: int
    price_sensitivity: float
    explore_origin_prob: float
    return_propensity: float
    activity: float
