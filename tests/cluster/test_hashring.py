"""ConsistentHashRing: stability, spread, and minimal movement."""

from __future__ import annotations

import pytest

from repro.cluster import ConsistentHashRing
from repro.cluster.hashring import stable_hash


class TestLookup:
    def test_deterministic_across_instances(self):
        nodes = ["w0", "w1", "w2"]
        ring_a = ConsistentHashRing(nodes)
        ring_b = ConsistentHashRing(reversed(nodes))
        for key in range(500):
            assert ring_a.lookup(key) == ring_b.lookup(key)

    def test_every_node_gets_keys(self):
        ring = ConsistentHashRing(["w0", "w1", "w2", "w3"])
        owners = {ring.lookup(key) for key in range(2000)}
        assert owners == {"w0", "w1", "w2", "w3"}

    def test_spread_is_roughly_balanced(self):
        ring = ConsistentHashRing(["w0", "w1", "w2", "w3"], vnodes=128)
        counts = {name: 0 for name in ring.nodes}
        total = 4000
        for key in range(total):
            counts[ring.lookup(key)] += 1
        for count in counts.values():
            # Each of 4 nodes owns 25% in expectation; allow wide noise.
            assert 0.10 * total < count < 0.45 * total

    def test_empty_ring_raises(self):
        with pytest.raises(LookupError):
            ConsistentHashRing([]).lookup(7)

    def test_rejects_bad_vnodes(self):
        with pytest.raises(ValueError):
            ConsistentHashRing(["w0"], vnodes=0)


class TestMembershipChange:
    def test_removal_only_remaps_the_removed_nodes_keys(self):
        ring = ConsistentHashRing(["w0", "w1", "w2"])
        before = {key: ring.lookup(key) for key in range(1000)}
        ring.remove("w1")
        for key, owner in before.items():
            if owner != "w1":
                # Keys owned by surviving nodes must not move — the
                # property that keeps placement stable through a roll.
                assert ring.lookup(key) == owner
            else:
                assert ring.lookup(key) in ("w0", "w2")

    def test_add_is_idempotent_and_remove_unknown_is_noop(self):
        ring = ConsistentHashRing(["w0"])
        ring.add("w0")
        ring.remove("missing")
        assert ring.nodes == {"w0"}
        assert len(ring._positions) == ring.vnodes


class TestPreference:
    def test_starts_with_lookup_owner_and_covers_universe(self):
        universe = ["w0", "w1", "w2", "w3"]
        ring = ConsistentHashRing(universe)
        for key in range(200):
            order = ring.preference(key, universe)
            assert order[0] == ring.lookup(key)
            assert sorted(order) == sorted(universe)

    def test_offring_members_go_last(self):
        ring = ConsistentHashRing(["w0", "w1"])
        order = ring.preference(42, ["w0", "w1", "ghost"])
        assert order[-1] == "ghost"


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
        assert [stable_hash(key) for key in self.KEYS] == self.POSITIONS

    def test_ring_owners(self):
        ring = ConsistentHashRing(["w0", "w1", "w2"])
        assert [ring.lookup(key) for key in range(12)] == [
            "w0", "w2", "w0", "w2", "w0", "w2",
            "w0", "w0", "w0", "w2", "w2", "w2",
        ]
        assert ring.preference(7, ["w0", "w1", "w2"]) == ["w0", "w2", "w1"]
