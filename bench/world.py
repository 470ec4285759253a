"""Common set-up: the seeded world every workload builds from.

Serving workloads share one world — Table I's 200 cities, 3 000 users,
a seeded *untrained* ODNET (the weights do not change the work done) and
the guarded ``FlightRecommender`` a cluster worker builds.  Everything is
constructed through public entry points of ``repro`` from the seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster import ClusterConfig
from repro.core import ODNETConfig, build_odnet
from repro.data import ODDataset, generate_fliggy_dataset
from repro.data.synthetic import FliggyConfig
from repro.data.world import WorldConfig
from repro.guard import GuardConfig
from repro.serving import FlightRecommender

__all__ = ["TOP_K", "WORKERS", "Scale", "FULL", "generate_source",
           "build_dataset", "build_recommender", "cluster_config"]

#: every request asks for the top ten flights
TOP_K = 10
#: worker processes behind the gateway
WORKERS = 2


@dataclass(frozen=True)
class Scale:
    """World and sample sizes; ``FULL`` is what the benchmark measures.

    The self-tests substitute a tiny one so they finish in seconds.
    """

    users: int = 3000            # serving world
    cities: int = 200            # Table I
    train_users: int = 1000      # 7 000 samples, 55 batches per epoch
    setup_repeats: int = 3       # setup_s is the median of this many set-ups
    warmup_direct: int = 300
    warmup_gateway: int = 200
    check_sample: int = 32       # requests verified against the reference
    stream_length: int = 20_000  # pre-generated requests per stream


FULL = Scale()


def generate_source(seed: int, users: int, cities: int):
    """The raw generated world (what a cluster worker generates too);
    its ``test_points`` are what request streams are drawn over."""
    return generate_fliggy_dataset(FliggyConfig(
        num_users=users,
        world=WorldConfig(num_cities=cities),
        train_points_per_user=1,
        seed=seed,
    ))


def build_dataset(seed: int, users: int, cities: int) -> ODDataset:
    return ODDataset(generate_source(seed, users, cities))


def build_recommender(seed: int, scale: Scale = FULL) -> FlightRecommender:
    """What a cluster worker builds: dataset, model, guarded facade."""
    dataset = build_dataset(seed, scale.users, scale.cities)
    model = build_odnet(dataset, ODNETConfig(seed=seed))
    return FlightRecommender(
        model,
        dataset,
        guard=GuardConfig(
            max_concurrent=8, max_queue=32, queue_timeout_ms=250.0
        ),
    )


def cluster_config(seed: int, scale: Scale = FULL) -> ClusterConfig:
    """Two deterministic replicas; every other knob at its default
    (hedging, supervisor and breakers on)."""
    return ClusterConfig(
        num_workers=WORKERS,
        num_users=scale.users,
        num_cities=scale.cities,
        seed=seed,
    )
