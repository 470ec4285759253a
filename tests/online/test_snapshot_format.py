"""The flat snapshot file: exact round trip, and corruption is a typed error.

A published state must load back with the same dtype, shape and bytes,
and a file that is not exactly what the publisher wrote — one flipped
byte, a truncation, a trailing byte, a foreign magic — must raise
:class:`SnapshotError` instead of handing out a partial state.
"""

from __future__ import annotations

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.online import SnapshotError, SnapshotStore

DTYPES = [
    np.dtype(bool), np.dtype(np.int32), np.dtype(np.int64),
    np.dtype(np.float32), np.dtype(np.float64), np.dtype(">f8"),
]


@st.composite
def _arrays(draw):
    """An array of a snapshot dtype, 0-d and size 0 included, often a
    non-contiguous view (every other column, or a transpose)."""
    dtype = draw(st.sampled_from(DTYPES))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3,
                                  min_side=0, max_side=4))
    layout = draw(st.sampled_from(["contiguous", "strided", "transposed"]))
    if layout == "strided" and shape:
        wide = shape[:-1] + (2 * shape[-1],)
        return draw(hnp.arrays(dtype, wide))[..., ::2]
    array = draw(hnp.arrays(dtype, shape))
    return array.T if layout == "transposed" else array


class TestRoundTrip:
    @settings(derandomize=True, deadline=None, max_examples=120)
    @given(state=st.dictionaries(
        st.text(min_size=1, max_size=12), _arrays(), max_size=5
    ))
    def test_same_dtype_shape_and_bytes(self, state):
        state.pop("__snapshot_meta__", None)
        with tempfile.TemporaryDirectory() as directory:
            store = SnapshotStore(directory)
            store.publish(state, {"note": "round trip"})
            loaded = store.load()
        assert list(loaded.state) == list(state)
        for name, array in state.items():
            out = loaded.state[name]
            assert out.dtype == array.dtype
            assert out.shape == array.shape
            assert out.tobytes() == array.tobytes()
        assert loaded.metadata["note"] == "round trip"

    @pytest.mark.parametrize("value", [
        np.array([1, "a"], dtype=object),
        np.zeros(2, dtype=[("a", "<i4"), ("b", "<f8")]),
    ], ids=["object", "structured"])
    def test_unrepresentable_dtype_is_refused_before_writing(
        self, store, value
    ):
        with pytest.raises(ValueError, match="cannot hold"):
            store.publish({"w": np.ones(2), "bad": value})
        assert store.versions() == []
        assert store.current() is None
        assert list(store.directory.iterdir()) == []


@pytest.fixture()
def published(store):
    """A small published snapshot: ``(store, path, its bytes)``."""
    info = store.publish({
        "w": np.arange(6, dtype=np.float64).reshape(2, 3),
        "mask": np.array([True, False, True]),
        "scale": np.float32(2.5),
    }, {"note": "x", "touched_users": [3, 1]})
    return store, info.path, info.path.read_bytes()


def _loads(store, path, payload: bytes) -> bool:
    """Whether ``payload`` in place of the file loads without a
    :class:`SnapshotError` (anything else propagates)."""
    path.write_bytes(payload)
    try:
        store.load()
    except SnapshotError:
        return False
    return True


class TestCorruption:
    def test_the_fixture_loads(self, published):
        store, path, good = published
        assert _loads(store, path, good)

    @pytest.mark.parametrize("mask", [0x01, 0x80])
    def test_every_single_byte_flip_raises(self, published, mask):
        store, path, good = published
        survivors = []
        for index in range(len(good)):
            bad = bytearray(good)
            bad[index] ^= mask
            if _loads(store, path, bytes(bad)):
                survivors.append(index)
        assert survivors == []

    def test_every_truncation_raises(self, published):
        store, path, good = published
        survivors = [length for length in range(len(good))
                     if _loads(store, path, good[:length])]
        assert survivors == []

    def test_a_trailing_byte_raises(self, published):
        store, path, good = published
        assert not _loads(store, path, good + b"\0")

    def test_wrong_magic_raises(self, published):
        store, path, good = published
        path.write_bytes(b"PK\x03\x04" + good[4:])
        with pytest.raises(SnapshotError, match="not a snapshot file"):
            store.load()

    def test_metadata_reads_the_header_only(self, published):
        store, path, good = published
        bad = bytearray(good)
        bad[-1] ^= 0x01
        path.write_bytes(bytes(bad))
        with pytest.raises(SnapshotError, match="checksum"):
            store.load()
        assert store.load_metadata(1)["touched_users"] == [3, 1]
