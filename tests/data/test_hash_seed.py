"""The same seed is the same world: in every process, and at every commit.

``frozenset`` iteration order depends on ``PYTHONHASHSEED``; indexing
``list(city.patterns)`` with an rng draw made click histories and hard
negatives differ between two processes at one seed (and between a
``spawn``-started worker and its gateway).  Generate everything twice,
in subprocesses pinned to different hash seeds, and compare a digest of
every field.

The simulator's draw order is a contract (DESIGN §3): a faster generator
must be an exact rewrite of the straightforward one.  ``PINNED`` holds
digests of every ``FliggyDataset`` field, of both neighbour tables of the
HSG built from it and of a set of ranking tasks, for six worlds; they
were taken with the straightforward generator (one ``Generator.choice``
per draw, a rejection loop per negative, ``Counter`` neighbour tables).
Bits also depend on the host's numeric kernels (haversine's trigonometry,
``exp``, ``power``) and on numpy's random streams, so the pins hold on a
host whose kernel fingerprint matches the one they were taken on;
elsewhere they skip with the fingerprint in the reason.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.data import (
    FliggyConfig,
    LbsnConfig,
    ODDataset,
    generate_fliggy_dataset,
    generate_lbsn_dataset,
)
from repro.data.world import WorldConfig
from repro.graph import Metapath, build_neighbor_table

ROOT = pathlib.Path(__file__).resolve().parents[2]


def canon(value):
    """Hash-order-free and type-strict: sets sorted, dicts by key, floats
    exactly, numpy scalars tagged with their dtype."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [(f.name, canon(getattr(value, f.name)))
                for f in dataclasses.fields(value)]
    if isinstance(value, dict):
        return sorted((canon(k), canon(v)) for k, v in value.items())
    if isinstance(value, (set, frozenset)):
        return sorted(canon(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    if isinstance(value, np.ndarray):
        return [str(value.dtype), value.shape,
                hashlib.sha256(np.ascontiguousarray(value)).hexdigest()]
    if isinstance(value, np.generic):
        return [str(value.dtype), canon(value.item())]
    if isinstance(value, float):
        return value.hex()
    return value


def digest(value) -> str:
    return hashlib.sha256(repr(canon(value)).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Same seed, same world, under two hash seeds
# ---------------------------------------------------------------------------

_SCRIPT = r"""
import json
import numpy as np
from repro.core import ODNETConfig, build_odnet
from repro.data import FliggyConfig, ODDataset, generate_fliggy_dataset
from repro.data.world import WorldConfig
from repro.graph import Metapath, build_neighbor_table
from repro.serving import CandidateRecall
from tests.data.test_hash_seed import digest

source = generate_fliggy_dataset(FliggyConfig(
    num_users=60, world=WorldConfig(num_cities=25),
    train_points_per_user=2, seed=11,
))
dataset = ODDataset(source, max_long=8, max_short=5)
model = build_odnet(dataset, ODNETConfig(dim=8, num_heads=2, expert_dim=16,
                                         tower_hidden=8, seed=0))
out = {
    name: digest(getattr(source, name))
    for name in ("profiles", "train_points", "test_points", "train_samples",
                 "test_samples", "bookings_by_user")
}
out["world.cities"] = digest(source.world.cities)
for metapath in (Metapath.origin_aware(), Metapath.destination_aware()):
    table = build_neighbor_table(dataset.hsg, metapath, 5)
    out[f"neighbors.{metapath.name}"] = digest(
        [table.user_neighbors, table.user_mask,
         table.city_neighbors, table.city_mask])
out["initial_weights"] = digest(model.state_dict())
tasks = dataset.ranking_tasks(num_candidates=12, max_tasks=20)
out["ranking_tasks"] = digest(tasks)
point = source.test_points[0]
candidates = CandidateRecall(
    source.world, dataset.route_popularity).candidate_pairs(point.history)
scores = model.score_pairs(dataset.batch_for_candidates(point, candidates))
order = np.argsort(-scores, kind="mergesort")
out["ranked_list"] = digest(
    [(candidates[i], float(scores[i])) for i in order])
print(json.dumps(out))
"""


def _generate(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT], env=env, check=True,
        capture_output=True, text=True, timeout=300,
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_same_seed_same_world_under_two_hash_seeds():
    first, second = _generate("1"), _generate("2")
    assert len(first) == 12
    assert first == second


# ---------------------------------------------------------------------------
# The same world as the straightforward generator, pinned
# ---------------------------------------------------------------------------

PINNED_FINGERPRINT = "b48df146d57f6ea1"

#: name -> (generator, ODDataset od_mode for the ranking tasks)
WORLDS = {
    # bench/world.py's serving and train worlds at seed 0
    "bench_serving": (lambda: generate_fliggy_dataset(FliggyConfig(
        num_users=3000, world=WorldConfig(num_cities=200),
        train_points_per_user=1, seed=0)), True),
    "bench_train": (lambda: generate_fliggy_dataset(FliggyConfig(
        num_users=1000, world=WorldConfig(num_cities=200),
        train_points_per_user=1, seed=0)), True),
    "default": (lambda: generate_fliggy_dataset(FliggyConfig()), True),
    # the smallest world: patterns whose only member is the current city
    # and pools with no fare from home both occur (about a third of draws)
    "four_cities": (lambda: generate_fliggy_dataset(FliggyConfig(
        num_users=300, world=WorldConfig(num_cities=4), seed=3)), True),
    "no_novelty": (lambda: generate_fliggy_dataset(FliggyConfig(
        num_users=400, novelty_boost=1.0, seed=5)), True),
    "lbsn": (lambda: generate_lbsn_dataset(LbsnConfig()), False),
}

PINNED = {
    "bench_serving": {
        "config": "d5a59bff2e01a1cf",
        "world": "cfc365893e5cd1a6",
        "profiles": "9746c5642785eb66",
        "train_points": "f1d84c2f8e8b8315",
        "test_points": "679dbd45e2f8b155",
        "train_samples": "3cecea2d23b42daf",
        "test_samples": "bab6eb7da4aab39f",
        "bookings_by_user": "8fe0f618e60afa14",
        "neighbors.rho_1": "f79ad5b6c4c54dd9",
        "neighbors.rho_2": "4c7658ff38909fc5",
        "ranking_tasks": "e75f62ad82d361f2",
    },
    "bench_train": {
        "config": "1f7bbf75a96f943f",
        "world": "cfc365893e5cd1a6",
        "profiles": "a7d6387ab3cb25ec",
        "train_points": "c04422c6abcae2dd",
        "test_points": "6877eab24bf53086",
        "train_samples": "1fb2b559f4543677",
        "test_samples": "272e9968fa37d8ff",
        "bookings_by_user": "e385c47af730a579",
        "neighbors.rho_1": "1b9a6977073add91",
        "neighbors.rho_2": "3c75962b212495cd",
        "ranking_tasks": "dfaa8b2a96236570",
    },
    "default": {
        "config": "9c9d69c7fe9f3c8b",
        "world": "f04b71494e7114f6",
        "profiles": "e07c581b6e347abb",
        "train_points": "8028ccb40c953dd9",
        "test_points": "7bebc5c14bb2963c",
        "train_samples": "371da95a0ef66ab6",
        "test_samples": "978779310f5dfd73",
        "bookings_by_user": "89a1ea06b7da1a95",
        "neighbors.rho_1": "527972d001bffd78",
        "neighbors.rho_2": "df6f040de73e5e14",
        "ranking_tasks": "72b74a4a5cd56dc7",
    },
    "four_cities": {
        "config": "b98e23d4f5f5f2f4",
        "world": "d86eadf732732c9e",
        "profiles": "85fdd016d2068a5d",
        "train_points": "7304d6b668d6e849",
        "test_points": "d7ab41e16d902538",
        "train_samples": "3199f3ecf3e2beed",
        "test_samples": "d1527de3e38a4cac",
        "bookings_by_user": "b2452fc903b330e5",
        "neighbors.rho_1": "aa936245e7abbc39",
        "neighbors.rho_2": "955ae0be0d84d6e9",
        "ranking_tasks": "df4570bfd6c094c3",
    },
    "lbsn": {
        "config": "229b5231c2e4f81f",
        "world": "33728180b2a1332c",
        "profiles": "768e82d4586f549c",
        "train_points": "da19cb1a8a8f2b97",
        "test_points": "f6b3eedef1abf108",
        "train_samples": "f228e10c1c38163f",
        "test_samples": "2c47fdcad9a0b993",
        "bookings_by_user": "575942938a26e8bd",
        "neighbors.rho_1": "901b07f69c2beddc",
        "neighbors.rho_2": "f90a393858b03fb1",
        "ranking_tasks": "a2eb94f7f40dfb6c",
    },
    "no_novelty": {
        "config": "26d52e1929dfe155",
        "world": "49726580e69aa9ce",
        "profiles": "1c6444f9e6a902c2",
        "train_points": "24d2b2bfadf83434",
        "test_points": "a590232f788d82a4",
        "train_samples": "57f2a7e70845bd2f",
        "test_samples": "9401f67748a6869f",
        "bookings_by_user": "21cb87a98de5f52d",
        "neighbors.rho_1": "fa4188fb2aecfbb4",
        "neighbors.rho_2": "f49f7a4e1c9af0cb",
        "ranking_tasks": "68b14fe60409ec16",
    },
}


def _kernel_fingerprint() -> str:
    """A digest of what the simulator rounds through: haversine's
    trigonometry, ``exp``, ``power``, the quantiles and numpy's random
    streams (uniform, normal, lognormal, Dirichlet, Poisson, choice)."""
    rng = np.random.default_rng(0)
    x = rng.uniform(-3.0, 3.0, size=(9, 37))
    digest_ = hashlib.sha256()
    for value in (np.sin(x), np.cos(x), np.arcsin(np.clip(x / 3.0, -1, 1)),
                  np.sqrt(np.abs(x)), np.exp(x), np.radians(x),
                  (np.abs(x) + 1.0) ** 1.2, np.quantile(x, [0.6, 0.7, 0.75]),
                  np.median(x), rng.normal(size=64), rng.lognormal(size=64),
                  rng.dirichlet(np.full(4, 0.4), size=16),
                  rng.poisson(12.0, size=64),
                  rng.choice(40, size=7, replace=False),
                  rng.permutation(40)):
        digest_.update(np.ascontiguousarray(value).tobytes())
    return digest_.hexdigest()[:16]


def world_digests(source, od_mode: bool) -> dict[str, str]:
    """Digests of every dataset field, both neighbour tables of its HSG
    and fifty ranking tasks."""
    out = {field.name: digest(getattr(source, field.name))
           for field in dataclasses.fields(source)}
    graph = source.build_hsg()
    for metapath in (Metapath.origin_aware(), Metapath.destination_aware()):
        table = build_neighbor_table(graph, metapath, 5)
        out[f"neighbors.{metapath.name}"] = digest(
            [table.user_neighbors, table.user_mask,
             table.city_neighbors, table.city_mask])
    tasks = ODDataset(source, od_mode=od_mode).ranking_tasks(
        num_candidates=10, max_tasks=50)
    out["ranking_tasks"] = digest(tasks)
    return out


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_world_is_the_pinned_bits(name):
    fingerprint = _kernel_fingerprint()
    if fingerprint != PINNED_FINGERPRINT:
        pytest.skip(f"kernel fingerprint {fingerprint}: the pins were "
                    f"taken on {PINNED_FINGERPRINT}")
    generate, od_mode = WORLDS[name]
    assert world_digests(generate(), od_mode) == PINNED[name]
