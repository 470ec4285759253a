"""The same seed is the same world in every process.

``frozenset`` iteration order depends on ``PYTHONHASHSEED``; indexing
``list(city.patterns)`` with an rng draw made click histories and hard
negatives differ between two processes at one seed (and between a
``spawn``-started worker and its gateway).  Generate everything twice,
in subprocesses pinned to different hash seeds, and compare a digest of
every field.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

_SCRIPT = r"""
import dataclasses, hashlib, json
import numpy as np
from repro.core import ODNETConfig, build_odnet
from repro.data import FliggyConfig, ODDataset, generate_fliggy_dataset
from repro.data.world import WorldConfig
from repro.graph import Metapath, build_neighbor_table
from repro.serving import CandidateRecall


def canon(value):
    # Hash-order-free: sets sorted, dicts by key, floats exactly.
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
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.integer):
        return int(value)
    return value


def digest(value):
    return hashlib.sha256(repr(canon(value)).encode()).hexdigest()[:16]


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
    out[f"neighbors.{metapath}"] = digest(
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
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT], env=env, check=True,
        capture_output=True, text=True, timeout=300,
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_same_seed_same_world_under_two_hash_seeds():
    first, second = _generate("1"), _generate("2")
    assert len(first) == 12
    assert first == second
