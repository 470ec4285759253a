"""``atomic_write``: a reader sees the old file or the new, never a torn one.

Every weight snapshot and the ``CURRENT`` pointer are written through it.
"""

import pytest

from repro.online.snapshots import atomic_write


class TestAtomicity:
    def test_save_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "model.snap"
        with atomic_write(target) as handle:
            handle.write(b"weights")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.snap"]
        assert target.read_bytes() == b"weights"

    def test_overwrite_is_all_or_nothing(self, tmp_path):
        """A write that raises mid-block keeps the old bytes in place."""
        target = tmp_path / "model.snap"
        target.write_bytes(b"old")
        with pytest.raises(RuntimeError, match="crash"):
            with atomic_write(target) as handle:
                handle.write(b"half of the new")
                assert len(list(tmp_path.glob("*.tmp"))) == 1
                raise RuntimeError("crash mid-write")
        assert target.read_bytes() == b"old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.snap"]
