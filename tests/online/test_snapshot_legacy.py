"""A store written in the legacy ``.npz`` format keeps working after the
switch to flat snapshot files.

Published snapshots are durable data: a store that already holds
``vNNNNNNNN.npz`` versions goes on serving, allocating, pruning and
following across both suffixes.  ``_publish_legacy`` writes a version
the way the store did before the flat format (``np.savez``, one member
per parameter plus a JSON metadata member, then the ``CURRENT`` flip).
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.online import SnapshotFollower


def _state(value: float) -> dict[str, np.ndarray]:
    return {
        "w": np.full((3, 2), value, dtype=np.float64),
        "b": np.arange(4, dtype=np.float64) * value,
    }


def _publish_legacy(store, version: int, state: dict, metadata=None,
                    flip: bool = True) -> None:
    published_unix = time.time()
    meta = dict(metadata or {}, version=version,
                published_unix=published_unix)
    payload = dict(state)
    payload["__snapshot_meta__"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    name = f"v{version:08d}.npz"
    with open(store.directory / name, "wb") as handle:
        np.savez(handle, **payload)
    if flip:
        (store.directory / "CURRENT").write_text(json.dumps({
            "version": version, "file": name,
            "published_unix": published_unix,
        }))


def _assert_state(loaded: dict, expected: dict) -> None:
    assert set(loaded) == set(expected)
    for name, value in expected.items():
        np.testing.assert_array_equal(loaded[name], value)


class TestLegacyVersions:
    def test_legacy_versions_load(self, store):
        _publish_legacy(store, 1, _state(1.0), {"note": "old"})
        _publish_legacy(store, 2, _state(2.0))
        snapshot = store.load()
        assert snapshot.version == 2
        _assert_state(snapshot.state, _state(2.0))
        _assert_state(store.load(1).state, _state(1.0))
        assert store.load_metadata(1)["note"] == "old"
        assert store.versions() == [1, 2]

    def test_next_version_never_reuses_a_legacy_number(self, store):
        _publish_legacy(store, 1, _state(1.0))
        # A legacy pre-flip orphan: durable, never referenced.
        _publish_legacy(store, 2, _state(2.0), flip=False)
        assert store.current_version() == 1
        info = store.publish(_state(3.0))
        assert info.version == 3
        assert info.path.suffix == ".snap"
        _assert_state(store.load(2).state, _state(2.0))
        _assert_state(store.load().state, _state(3.0))

    def test_prune_keeps_the_last_n_across_both_suffixes(self, store):
        for version in (1, 2, 3):
            _publish_legacy(store, version, _state(float(version)))
        store.publish(_state(4.0), keep_last=2)
        assert store.versions() == [3, 4]
        assert sorted(p.name for p in store.directory.glob("v*")) == [
            "v00000003.npz", "v00000004.snap",
        ]
        _assert_state(store.load(3).state, _state(3.0))
        store.publish(_state(5.0), keep_last=1)
        assert store.versions() == [5]
        # The pointer's target always survives pruning.
        _assert_state(store.load().state, _state(5.0))

    def test_touched_union_spans_both_formats(self, store):
        _publish_legacy(store, 1, _state(1.0), {"touched_users": [1, 2]})
        _publish_legacy(store, 2, _state(2.0), {"touched_users": [3]})
        store.publish(_state(3.0), {"touched_users": [4]})
        store.publish(_state(4.0), {"touched_users": [2, 5]})
        snapshot = store.load()
        assert store.touched_union(0, snapshot) == [1, 2, 3, 4, 5]
        assert store.touched_union(1, snapshot) == [2, 3, 4, 5]

    def test_follower_jumps_from_a_legacy_version_to_a_flat_one(self, store):
        swaps = []

        class Target:
            def swap(self, state, touched_users=None):
                swaps.append(({k: v.copy() for k, v in state.items()},
                              touched_users))
                return 0.0

        follower = SnapshotFollower(store, Target())
        _publish_legacy(store, 1, _state(1.0), {"touched_users": [1]})
        assert follower.poll() == 1
        _publish_legacy(store, 2, _state(2.0), {"touched_users": [2]})
        store.publish(_state(3.0), {"touched_users": [3]})
        assert follower.poll() == 3
        state, touched = swaps[-1]
        _assert_state(state, _state(3.0))
        assert touched == [2, 3]
