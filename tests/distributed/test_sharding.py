"""Parameter and data sharding, plus the blake2b ring discipline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distributed import shard_parameters, shard_samples


class TestParameterSharding:
    def test_invalid_server_count(self):
        with pytest.raises(ValueError):
            shard_parameters([("a", 10)], 0)

    def test_all_parameters_assigned(self):
        sizes = [("a", 100), ("b", 50), ("c", 25), ("d", 25)]
        assignment = shard_parameters(sizes, 2)
        assert set(assignment) == {"a", "b", "c", "d"}
        assert set(assignment.values()) <= {0, 1}

    def test_balanced_assignment(self):
        sizes = [("a", 100), ("b", 100), ("c", 100), ("d", 100)]
        assignment = shard_parameters(sizes, 2)
        loads = [0, 0]
        for name, size in sizes:
            loads[assignment[name]] += size
        assert loads == [200, 200]

    def test_deterministic(self):
        sizes = [("a", 7), ("b", 7), ("c", 3)]
        assert shard_parameters(sizes, 2) == shard_parameters(sizes, 2)

    @given(
        n=st.integers(1, 30),
        servers=st.integers(1, 6),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_load_balance_bound(self, n, servers, seed):
        rng = np.random.default_rng(seed)
        sizes = [(f"p{i}", int(rng.integers(1, 1000))) for i in range(n)]
        assignment = shard_parameters(sizes, servers)
        loads = np.zeros(servers)
        for name, size in sizes:
            loads[assignment[name]] += size
        # LPT guarantee: max load <= mean + largest item.
        largest = max(size for _, size in sizes)
        assert loads.max() <= loads.mean() + largest


class TestSampleSharding:
    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            shard_samples(10, 0)

    def test_partition_is_exact(self):
        shards = shard_samples(103, 4)
        assert len(shards) == 4
        combined = np.concatenate(shards)
        np.testing.assert_array_equal(np.sort(combined), np.arange(103))

    def test_near_equal_sizes(self):
        shards = shard_samples(103, 4)
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_fewer_samples_than_workers(self):
        # A tiny dataset across a big fleet: every sample still lands on
        # exactly one worker and the surplus workers get empty shards.
        shards = shard_samples(3, 5)
        assert len(shards) == 5
        combined = np.concatenate(shards)
        np.testing.assert_array_equal(np.sort(combined), np.arange(3))
        assert sum(1 for s in shards if len(s) == 0) == 2


class TestPlacementsDoNotMove:
    """Golden values read at the commit before ``stable_hash`` replaced
    the ring's own blake2b call: a change to the shared hash would
    silently re-home every user, so ring positions and ring owners are
    pinned."""

    KEYS = [0, 1, 7, 42, 1000, 123456789, "w0#0", "w1#63", "user:7", ""]
    POSITIONS = [
        9523843951405948789, 17797172410793473910, 16667848380713045890,
        6319743179241711738, 7575330518282793474, 9111887879481234737,
        11550907120429369735, 5206050530288179078, 11144460159094613434,
        16476032584258269876,
    ]

    def test_stable_hash_values(self):
        from repro.distributed.sharding import stable_hash

        assert [stable_hash(key) for key in self.KEYS] == self.POSITIONS

    def test_ring_owners(self):
        from repro.cluster import ConsistentHashRing

        ring = ConsistentHashRing(["w0", "w1", "w2"])
        assert [ring.lookup(key) for key in range(12)] == [
            "w0", "w2", "w0", "w2", "w0", "w2",
            "w0", "w0", "w0", "w2", "w2", "w2",
        ]
        assert ring.preference(7, ["w0", "w1", "w2"]) == ["w0", "w2", "w1"]
