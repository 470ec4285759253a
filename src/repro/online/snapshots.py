"""Versioned, crash-safe weight snapshots: write-all → fsync → pointer flip.

The online trainer publishes candidate weights while serving processes
read them mid-traffic, so the store's one job is that a reader can
**never** observe a torn or half-published snapshot, no matter where the
publisher crashes.  The protocol is the classic two-phase publish:

1. **Write phase** — the full ``state_dict`` is serialised to a temp
   file *in the target directory*, flushed, and fsync'd, then
   ``os.replace``d to its immutable versioned name
   (``v00000042.npz``).  A crash anywhere in this phase leaves a stale
   ``*.tmp`` file that no pointer references — invisible to readers,
   swept by the publisher on its next publish (readers never mutate
   the store directory, so opening a store for reading can never race
   a live publish).
2. **Flip phase** — the ``CURRENT`` pointer (a tiny JSON file) is
   rewritten through the same tmp+fsync+replace dance, then the
   directory entry itself is fsync'd.  ``os.replace`` is atomic on a
   single filesystem, so a reader sees the old pointer or the new one,
   nothing in between.  A crash *before* the flip leaves a fully
   durable but unreferenced snapshot; serving stays on the old version.
   A crash *after* the flip is indistinguishable from success.

Versions are allocated monotonically from ``max(pointer, files) + 1``,
so an orphaned pre-flip snapshot can never be re-used for a different
payload, and the flip refuses to move backwards — serving version only
ever goes forward.

Chaos sites (:func:`repro.resilience.chaos.inject`), one per stage the
crash matrix drills: ``online.publish.pre_write``,
``online.publish.mid_write`` (payload written, not yet durable),
``online.publish.pre_flip`` (snapshot durable, pointer old), and
``online.publish.post_flip``.
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import dataclass

import numpy as np

from ..obs.registry import get_registry
from ..resilience.chaos import inject
from ..train.checkpoint import atomic_write

__all__ = ["SnapshotError", "SnapshotInfo", "Snapshot", "SnapshotStore"]

_META_KEY = "__snapshot_meta__"
_POINTER = "CURRENT"


class SnapshotError(RuntimeError):
    """A snapshot (or the pointer) is missing, torn, or inconsistent."""


@dataclass(frozen=True)
class SnapshotInfo:
    """What the ``CURRENT`` pointer says, without loading the payload."""

    version: int
    path: pathlib.Path
    published_unix: float


@dataclass(frozen=True)
class Snapshot:
    """A fully loaded snapshot: weights plus publisher metadata."""

    version: int
    state: dict[str, np.ndarray]
    metadata: dict
    published_unix: float


class SnapshotStore:
    """One directory of immutable versioned snapshots behind one pointer."""

    def __init__(self, directory: str | pathlib.Path):
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def recover(self) -> int:
        """Sweep orphaned ``*.tmp`` files; returns how many were removed.

        Crash recovery: a publisher that died mid-write left a tmp file
        the pointer never referenced.  Sweeping is safe exactly because
        phase 1 only ever writes tmp names — but it is a **publisher**
        action: there is a single publisher, so no tmp file it sees is
        live, whereas a reader sweeping on open could delete another
        process's in-flight phase-1 write and crash that publish.
        :meth:`publish` calls this itself; readers must not.
        """
        swept = 0
        for stale in self.directory.glob("*.tmp"):
            try:
                stale.unlink()
                swept += 1
            except OSError:
                pass
        if swept:
            registry = get_registry()
            if registry.enabled:
                registry.counter("online.publish_swept_tmp").inc(swept)
        return swept

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def current(self) -> SnapshotInfo | None:
        """The pointer's target, or ``None`` when nothing is published."""
        pointer = self.directory / _POINTER
        try:
            payload = json.loads(pointer.read_text())
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError) as exc:
            # The atomic flip makes this unreachable through the
            # sanctioned publish path; a hand-mangled pointer is an
            # operator error worth a typed failure.
            raise SnapshotError(f"pointer {pointer} is unreadable: {exc}")
        return SnapshotInfo(
            version=int(payload["version"]),
            path=self.directory / payload["file"],
            published_unix=float(payload.get("published_unix", 0.0)),
        )

    def current_version(self) -> int:
        """The published version (0 when nothing is published yet)."""
        info = self.current()
        return info.version if info is not None else 0

    def load(self, version: int | None = None) -> Snapshot:
        """Load a snapshot's weights + metadata (default: the current one)."""
        if version is None:
            info = self.current()
            if info is None:
                raise SnapshotError(
                    f"no snapshot published in {self.directory}"
                )
            path, version, published = (
                info.path, info.version, info.published_unix
            )
        else:
            path = self.directory / self._file_name(version)
            published = 0.0
        try:
            with np.load(path) as archive:
                payload = {key: archive[key] for key in archive.files}
        except FileNotFoundError:
            raise SnapshotError(f"snapshot v{version} not found at {path}")
        except (OSError, ValueError, KeyError, EOFError) as exc:
            raise SnapshotError(
                f"snapshot {path} is truncated or corrupt: {exc}"
            ) from exc
        meta_bytes = payload.pop(_META_KEY, None)
        metadata: dict = {}
        if meta_bytes is not None:
            try:
                metadata = json.loads(bytes(meta_bytes.tobytes()).decode())
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise SnapshotError(
                    f"snapshot {path} has corrupt metadata: {exc}"
                ) from exc
        if not published:
            published = float(metadata.get("published_unix", 0.0))
        return Snapshot(
            version=version, state=payload,
            metadata=metadata, published_unix=published,
        )

    def load_metadata(self, version: int) -> dict:
        """One snapshot's publisher metadata, without loading the weights.

        ``np.load`` reads archive members lazily, so this pulls only the
        tiny metadata entry — cheap enough to call for every version a
        slow follower skipped.
        """
        path = self.directory / self._file_name(version)
        try:
            with np.load(path) as archive:
                if _META_KEY not in archive.files:
                    return {}
                meta_bytes = archive[_META_KEY]
        except FileNotFoundError:
            raise SnapshotError(f"snapshot v{version} not found at {path}")
        except (OSError, ValueError, KeyError, EOFError) as exc:
            raise SnapshotError(
                f"snapshot {path} is truncated or corrupt: {exc}"
            ) from exc
        try:
            return json.loads(bytes(meta_bytes.tobytes()).decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SnapshotError(
                f"snapshot {path} has corrupt metadata: {exc}"
            ) from exc

    def touched_union(
        self, from_version: int, snapshot: Snapshot
    ) -> list[int] | None:
        """Users touched by *any* version in ``(from_version, snapshot.version]``.

        A follower whose poll cadence lost a race with the trainer can
        jump several versions at once, but each snapshot's
        ``touched_users`` is only the delta since the publish before it.
        Applying just the newest delta would leave rows touched only in
        a skipped version serving stale weights — a silent cross-version
        blend.  So partial invalidation across a jump needs the union of
        every skipped delta; returns ``None`` (= full refresh) when the
        newest snapshot is itself a full refresh or any skipped
        version's touched set is unavailable (pruned, missing, corrupt,
        or a full refresh).  Skipped versions include
        pre-flip orphans that never served — their rows were retrained
        into the promoted snapshot, so the union is a safe superset.
        """
        touched = snapshot.metadata.get("touched_users")
        if touched is None:
            return None
        union = {int(user) for user in touched}
        for version in range(from_version + 1, snapshot.version):
            try:
                metadata = self.load_metadata(version)
            except SnapshotError:
                return None
            skipped = metadata.get("touched_users")
            if skipped is None:
                return None
            union.update(int(user) for user in skipped)
        return sorted(union)

    def versions(self) -> list[int]:
        """Every durable snapshot version on disk, ascending."""
        found = []
        for path in self.directory.glob("v*.npz"):
            try:
                found.append(int(path.stem[1:]))
            except ValueError:
                continue
        return sorted(found)

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    @staticmethod
    def _file_name(version: int) -> str:
        return f"v{version:08d}.npz"

    def _next_version(self) -> int:
        # Max over the pointer AND the files: a pre-flip crash leaves a
        # durable-but-unreferenced vN — its name must never be re-used
        # for different bytes, or a concurrent reader could load a
        # mixed-history table.
        on_disk = self.versions()
        highest = on_disk[-1] if on_disk else 0
        return max(self.current_version(), highest) + 1

    def publish(
        self,
        state: dict[str, np.ndarray],
        metadata: dict | None = None,
        keep_last: int = 8,
    ) -> SnapshotInfo:
        """Two-phase publish; returns the now-current snapshot's info.

        Raises whatever the chaos injector raises at the staged sites;
        an ``exit_code`` fault kills the process outright — both leave
        the store consistent (the crash-matrix contract).
        """
        self.recover()
        inject("online.publish.pre_write")
        version = self._next_version()
        published_unix = time.time()
        meta = dict(metadata or {})
        meta["version"] = version
        meta["published_unix"] = published_unix
        if _META_KEY in state:
            raise ValueError(f"parameter name {_META_KEY!r} is reserved")
        payload = dict(state)
        payload[_META_KEY] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        )
        target = self.directory / self._file_name(version)

        # --- phase 1: write-all, fsync, rename to the immutable name --
        with atomic_write(target) as handle:
            np.savez(handle, **payload)
            handle.flush()
            # Payload bytes written but not yet durable nor named: a
            # crash here is the canonical torn write.
            inject("online.publish.mid_write")

        # Snapshot durable, pointer still old — the crash the serving
        # side must shrug off by staying on the previous version.
        inject("online.publish.pre_flip")

        # --- phase 2: single atomic pointer flip ----------------------
        self._flip(version, target.name, published_unix)
        registry = get_registry()
        if registry.enabled:
            registry.counter("online.snapshots_published").inc()
            registry.gauge("online.published_version").set(version)
        self._prune(keep_last, current=version)
        inject("online.publish.post_flip")
        return SnapshotInfo(
            version=version, path=target, published_unix=published_unix
        )

    def _flip(self, version: int, file_name: str,
              published_unix: float) -> None:
        current = self.current_version()
        if version <= current:
            raise SnapshotError(
                f"refusing to flip the pointer backwards: "
                f"v{version} <= current v{current}"
            )
        with atomic_write(self.directory / _POINTER, "w") as handle:
            json.dump({
                "version": version,
                "file": file_name,
                "published_unix": published_unix,
            }, handle)

    def _prune(self, keep_last: int, current: int) -> None:
        """Drop old immutable snapshots; never the current one."""
        if keep_last < 1:
            keep_last = 1
        for version in self.versions()[:-keep_last]:
            if version == current:
                continue
            try:
                (self.directory / self._file_name(version)).unlink()
            except OSError:
                pass
