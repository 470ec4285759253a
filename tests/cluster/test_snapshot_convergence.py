"""Cluster x online loop: replicas converge on the published snapshot.

A cluster configured with ``snapshot_dir`` treats the online loop's
:class:`~repro.online.SnapshotStore` as the source of model truth:
workers boot onto the latest published version, ``/admin/reload`` moves
them forward to it (and *only* forward — no version bump when the store
hasn't moved), and a respawned replacement comes up on it too.  Tests
run in file order: later tests publish newer versions.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ServingCluster
from repro.core import ODNETConfig, build_odnet
from repro.data import ODDataset, generate_fliggy_dataset
from repro.data.synthetic import FliggyConfig
from repro.data.world import WorldConfig
from repro.online import SnapshotStore

_NUM_USERS = 120
_NUM_CITIES = 20
_SEED = 0

_USER_PARAMS = (
    "origin_hsgc.user_embedding.weight",
    "dest_hsgc.user_embedding.weight",
)


@pytest.fixture(scope="module")
def replica_model():
    """The same deterministic replica every worker builds (same seed)."""
    dataset = ODDataset(generate_fliggy_dataset(FliggyConfig(
        num_users=_NUM_USERS,
        world=WorldConfig(num_cities=_NUM_CITIES),
        train_points_per_user=1,
        seed=_SEED,
    )))
    return build_odnet(dataset, ODNETConfig(seed=_SEED))


@pytest.fixture(scope="module")
def store(tmp_path_factory, replica_model):
    store = SnapshotStore(tmp_path_factory.mktemp("snapshots"))
    # v1: the baseline the workers must boot onto.
    store.publish(replica_model.state_dict(), {"bootstrap": True})
    return store


@pytest.fixture(scope="module")
def cluster(store):
    config = ClusterConfig(
        num_workers=2,
        num_users=_NUM_USERS,
        num_cities=_NUM_CITIES,
        seed=_SEED,
        startup_timeout_s=180.0,
        drain_timeout_s=30.0,
        supervise=False,
        snapshot_dir=str(store.directory),
    )
    running = ServingCluster(config).start()
    try:
        yield running
    finally:
        # The last test leaves a respawned worker the gateway never saw:
        # shutdown must still reach it, not wait out its 10 s join.
        start = time.monotonic()
        running.shutdown()
        assert time.monotonic() - start < 3.0


def _publish_perturbed(store, replica_model, scale: float):
    state = replica_model.state_dict()
    rng = np.random.default_rng(int(scale * 100))
    touched = list(range(0, _NUM_USERS, 3))
    for name in _USER_PARAMS:
        state[name][touched] += rng.normal(0.0, scale, (len(touched),
                                                        state[name].shape[1]))
    return store.publish(state, {"mode": "user", "touched_users": touched})


class TestBoot:
    def test_workers_boot_on_published_snapshot(self, cluster, store):
        assert store.current_version() == 1
        health = cluster.gateway.cluster_health()
        assert health["ready"] == 2
        for name in ("w0", "w1"):
            assert health["per_worker"][name]["model_version"] == 1

    def test_traffic_flows_on_the_snapshot(self, cluster):
        answer = cluster.client().recommend(
            {"user_id": 5, "day": 720, "k": 3}
        )
        assert answer["model_version"] == 1
        assert len(answer["flights"]) == 3


class TestReloadConvergence:
    def test_rolling_restart_converges_on_new_version(self, cluster, store,
                                                      replica_model):
        info = _publish_perturbed(store, replica_model, scale=0.25)
        assert info.version == 2
        reports = cluster.rolling_restart(worker_ids=[0])
        assert reports[0]["drained"] is True
        # The reloaded worker's version IS the store version, no bump.
        assert reports[0]["model_version"] == 2
        # Worker 1 hasn't reloaded: it still serves the old version.
        assert cluster.handles[1].client.health()["model_version"] == 1
        reloaded = cluster.handles[1].client.reload(timeout_s=30.0)
        assert reloaded["model_version"] == 2
        health = cluster.gateway.cluster_health()
        versions = {
            entry["model_version"]
            for entry in health["per_worker"].values()
        }
        assert versions == {store.current_version()} == {2}

    def test_reload_without_new_snapshot_keeps_version(self, cluster):
        # Snapshot clusters converge on the store's version; a reload
        # with an unmoved store must NOT invent a new version (replicas
        # would diverge on a per-worker counter).
        reloaded = cluster.handles[0].client.reload(timeout_s=30.0)
        assert reloaded["model_version"] == 2

    def test_respawned_worker_boots_on_latest(self, cluster, store,
                                              replica_model):
        info = _publish_perturbed(store, replica_model, scale=0.5)
        assert info.version == 3
        client = cluster.respawn_worker(0)
        assert client.health()["model_version"] == 3
