"""Versioned, crash-safe weight snapshots: write-all → fsync → pointer flip.

The online trainer publishes candidate weights while serving processes
read them mid-traffic, so the store's one job is that a reader can
**never** observe a torn or half-published snapshot, no matter where the
publisher crashes.  The protocol is the classic two-phase publish:

1. **Write phase** — the full ``state_dict`` is serialised to a temp
   file *in the target directory*, flushed, and fsync'd, then
   ``os.replace``d to its immutable versioned name
   (``v00000042.snap``).  A crash anywhere in this phase leaves a stale
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

A snapshot file is flat, so a reader loads it with one read into one
buffer and hands out views of that buffer:

* a fixed 24-byte prefix — magic ``ODNSNAP1``, the JSON header's
  length (``uint32``), the body's length (``uint64``) and a CRC32 over
  the JSON header and the body, little-endian;
* a JSON header — ``{"metadata": ..., "params": [...]}``, the
  publisher's metadata plus each parameter's name, dtype string, shape,
  offset into the body and length in bytes, space-padded so the body
  starts 8-byte aligned;
* the body — every array's bytes in C order, each at an 8-byte-aligned
  offset, written straight from the arrays' own buffers.

A file whose magic, lengths or checksum disagree raises
:class:`SnapshotError`, never a partial state.
:meth:`SnapshotStore.load_metadata` reads the prefix and the JSON
header only.  Versions written before this format are
``v00000042.npz`` archives (one member per parameter plus a JSON
metadata member).  Published snapshots are durable data and readers
never rewrite the store, so those still load through one read branch
on the suffix; nothing writes them any more.

Chaos sites (:func:`repro.resilience.chaos.inject`), one per stage the
crash matrix drills: ``online.publish.pre_write``,
``online.publish.mid_write`` (payload written, not yet durable),
``online.publish.pre_flip`` (snapshot durable, pointer old), and
``online.publish.post_flip``.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import struct
import tempfile
import time
import zlib
from dataclasses import dataclass

import numpy as np

from ..obs.registry import get_registry
from ..resilience.chaos import inject

__all__ = [
    "SnapshotError", "SnapshotInfo", "Snapshot", "SnapshotStore",
    "atomic_write",
]

_META_KEY = "__snapshot_meta__"
_POINTER = "CURRENT"
_SUFFIX = ".snap"
_LEGACY_SUFFIX = ".npz"
#: magic, JSON header length, body length, CRC32(JSON header + body).
_PREFIX = struct.Struct("<8sIQI")
_MAGIC = b"ODNSNAP1"
_ALIGN = 8
#: Linux's (and macOS's) cap on buffers per ``writev`` call.
_IOV_MAX = 1024


@contextlib.contextmanager
def atomic_write(path: str | pathlib.Path, mode: str = "wb"):
    """Write ``path`` so a reader sees the old file or the new, never a
    torn one: yields a handle on a temp file; a clean exit flushes,
    fsyncs, ``os.replace``s it into place and fsyncs the directory (the
    rename itself must survive a power cut).

    The temp file lives in the *target* directory so ``os.replace``
    stays on one filesystem (cross-device renames are not atomic).  Any
    exception removes it and propagates; a killed process leaves a
    ``*.tmp`` that nothing references.
    """
    path = pathlib.Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.stem + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, mode) as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
        directory = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


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
            path = self._path(version)
            published = 0.0
        state, metadata = self._read(version, path, _read_flat)
        if not published:
            published = float(metadata.get("published_unix", 0.0))
        return Snapshot(
            version=version, state=state,
            metadata=metadata, published_unix=published,
        )

    def load_metadata(self, version: int) -> dict:
        """One snapshot's publisher metadata, without loading the weights.

        Reads the prefix and the JSON header only — cheap enough to call
        for every version a slow follower skipped.
        """
        return self._read(version, self._path(version), _read_flat_metadata)[1]

    @staticmethod
    def _read(version: int, path: pathlib.Path, read_flat):
        """``(state, metadata)``: ``read_flat(path)`` for a flat file,
        ``np.load`` for a legacy ``.npz``; a missing or unreadable file
        is a :class:`SnapshotError`."""
        try:
            if path.suffix == _LEGACY_SUFFIX:
                return _read_npz(path)
            return read_flat(path)
        except FileNotFoundError:
            raise SnapshotError(f"snapshot v{version} not found at {path}")
        except OSError as exc:
            raise SnapshotError(
                f"snapshot {path} is truncated or corrupt: {exc}"
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
        return sorted(self._files())

    def _files(self) -> dict[int, pathlib.Path]:
        """Version → file, flat and legacy alike."""
        found = {}
        for path in self.directory.glob("v*"):
            if path.suffix not in (_SUFFIX, _LEGACY_SUFFIX):
                continue
            try:
                found[int(path.stem[1:])] = path
            except ValueError:
                continue
        return found

    def _path(self, version: int) -> pathlib.Path:
        """Where ``version`` lives: its flat file, else a legacy ``.npz``."""
        path = self.directory / self._file_name(version)
        legacy = path.with_suffix(_LEGACY_SUFFIX)
        return legacy if not path.exists() and legacy.exists() else path

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    @staticmethod
    def _file_name(version: int) -> str:
        return f"v{version:08d}{_SUFFIX}"

    def _next_version(self) -> int:
        # Max over the pointer AND the files (either format): a pre-flip
        # crash leaves a durable-but-unreferenced vN — its name must
        # never be re-used for different bytes, or a concurrent reader
        # could load a mixed-history table.
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
        chunks = _flat_chunks(state, meta)
        target = self.directory / self._file_name(version)

        # --- phase 1: write-all, fsync, rename to the immutable name --
        with atomic_write(target) as handle:
            _write_all(handle.fileno(), chunks)
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
        files = self._files()
        for version in sorted(files)[:-keep_last]:
            if version == current:
                continue
            try:
                files[version].unlink()
            except OSError:
                pass


# ----------------------------------------------------------------------
# The flat file
# ----------------------------------------------------------------------
def _flat_chunks(state: dict[str, np.ndarray], meta: dict) -> list:
    """The flat file as buffers to write in order: the prefix, the JSON
    header, then each array's own bytes (copied only when the array is
    not C-contiguous) behind zero padding to its aligned offset."""
    params, body, offset = [], [], 0
    for name, value in state.items():
        array = np.asarray(value)
        dtype = array.dtype
        # Object arrays would need pickling, and a structured dtype's
        # string drops its fields: neither survives the header.
        if dtype.hasobject or np.dtype(dtype.str) != dtype:
            raise ValueError(
                f"parameter {name!r} has dtype {dtype}, which a snapshot "
                f"cannot hold"
            )
        raw = np.ascontiguousarray(array).reshape(-1).view(np.uint8)
        pad = -offset % _ALIGN
        if pad:
            body.append(bytes(pad))
            offset += pad
        params.append({
            "name": name, "dtype": dtype.str, "shape": list(array.shape),
            "offset": offset, "nbytes": raw.nbytes,
        })
        body.append(raw)
        offset += raw.nbytes
    header = json.dumps({"metadata": meta, "params": params}).encode("utf-8")
    header += b" " * (-(_PREFIX.size + len(header)) % _ALIGN)
    crc = zlib.crc32(header)
    for chunk in body:
        crc = zlib.crc32(chunk, crc)
    return [_PREFIX.pack(_MAGIC, len(header), offset, crc), header, *body]


def _write_all(fd: int, chunks: list) -> None:
    """Write every chunk to ``fd`` in order: one ``writev`` per
    :data:`_IOV_MAX` chunks, resumed after a short write."""
    views = [memoryview(chunk) for chunk in chunks if len(chunk)]
    while views:
        written = os.writev(fd, views[:_IOV_MAX])
        done = 0
        while done < len(views) and written >= len(views[done]):
            written -= len(views[done])
            done += 1
        views = views[done:]
        if written:
            views[0] = views[0][written:]


def _check_prefix(prefix, size: int, path) -> tuple[int, int, int]:
    """``(header_len, body_len, crc)`` once the magic and the lengths
    agree with a file of ``size`` bytes."""
    if size < _PREFIX.size:
        raise SnapshotError(f"snapshot {path} is truncated: {size} bytes")
    magic, header_len, body_len, crc = _PREFIX.unpack_from(prefix)
    if magic != _MAGIC:
        raise SnapshotError(f"{path} is not a snapshot file: magic {magic!r}")
    if _PREFIX.size + header_len + body_len != size:
        raise SnapshotError(
            f"snapshot {path} is truncated or corrupt: {size} bytes on "
            f"disk, its prefix describes "
            f"{_PREFIX.size + header_len + body_len}"
        )
    return header_len, body_len, crc


def _decode_header(raw, path) -> tuple[list, dict]:
    """The JSON header's ``(params, metadata)``."""
    try:
        header = json.loads(bytes(raw))
        return header["params"], header["metadata"]
    except (ValueError, TypeError, KeyError) as exc:
        raise SnapshotError(
            f"snapshot {path} has a corrupt header: {exc}"
        ) from exc


def _read_flat(path: pathlib.Path) -> tuple[dict, dict]:
    """One ``readinto`` of the whole file, the length and checksum
    checks, then one view into that buffer per parameter."""
    with open(path, "rb", buffering=0) as handle:
        size = os.fstat(handle.fileno()).st_size
        buffer = np.empty(size, dtype=np.uint8)
        read = handle.readinto(buffer)
    if read != size:
        raise SnapshotError(
            f"snapshot {path} is truncated: read {read} of {size} bytes"
        )
    header_len, body_len, crc = _check_prefix(buffer, size, path)
    body = _PREFIX.size + header_len
    if zlib.crc32(buffer[_PREFIX.size:body + body_len]) != crc:
        raise SnapshotError(f"snapshot {path} fails its checksum")
    params, metadata = _decode_header(buffer[_PREFIX.size:body], path)
    state = {}
    try:
        for entry in params:
            start = body + entry["offset"]
            state[entry["name"]] = buffer[start:start + entry["nbytes"]].view(
                np.dtype(entry["dtype"])
            ).reshape(entry["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(
            f"snapshot {path} has a corrupt header: {exc}"
        ) from exc
    return state, metadata


def _read_flat_metadata(path: pathlib.Path) -> tuple[dict, dict]:
    """The prefix and the JSON header only; no weights, no checksum."""
    with open(path, "rb", buffering=0) as handle:
        size = os.fstat(handle.fileno()).st_size
        header_len, _, _ = _check_prefix(
            handle.read(_PREFIX.size), size, path
        )
        _, metadata = _decode_header(handle.read(header_len), path)
    return {}, metadata


def _read_npz(path: pathlib.Path) -> tuple[dict, dict]:
    """A legacy ``.npz`` snapshot: one member per parameter plus the
    JSON metadata member."""
    try:
        with np.load(path) as archive:
            state = {key: archive[key] for key in archive.files}
    except (ValueError, KeyError, EOFError) as exc:
        raise SnapshotError(
            f"snapshot {path} is truncated or corrupt: {exc}"
        ) from exc
    meta_bytes = state.pop(_META_KEY, None)
    if meta_bytes is None:
        return state, {}
    try:
        return state, json.loads(bytes(meta_bytes.tobytes()).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(
            f"snapshot {path} has corrupt metadata: {exc}"
        ) from exc
