"""Model checkpointing: save/load weights as ``.npz`` archives.

The production deployment (Section VI-A) trains offline on PAI and ships
the weights to the Ranking Service System; this module is the laptop-scale
equivalent so a trained ODNET can be persisted and served later without
retraining.

Saves are *atomic* (:func:`atomic_write`, the one write-temp → fsync →
rename sequence in the repo; the online snapshot store publishes through
it too), so a crash mid-write can never leave a truncated checkpoint
behind — a reader sees the old file or the new one, nothing in between.
Loads raise :class:`CheckpointError` (not a raw ``zipfile``/``KeyError``
traceback) for missing, truncated, or corrupt archives.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import tempfile
import zipfile

import numpy as np

__all__ = [
    "CheckpointError", "atomic_write", "save_checkpoint", "load_checkpoint",
]

_META_KEY = "__checkpoint_meta__"


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, truncated, or otherwise unreadable."""


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


def save_checkpoint(model, path: str | pathlib.Path,
                    metadata: dict | None = None) -> pathlib.Path:
    """Persist a model's ``state_dict`` (plus optional JSON metadata).

    The write is atomic (:func:`atomic_write`).
    """
    path = pathlib.Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    state = model.state_dict()
    if _META_KEY in state:
        raise ValueError(f"parameter name {_META_KEY!r} is reserved")
    meta = dict(metadata or {})
    meta.setdefault("model_name", getattr(model, "name", type(model).__name__))
    payload = dict(state)
    payload[_META_KEY] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path) as handle:
        np.savez_compressed(handle, **payload)
    return path


def load_checkpoint(model, path: str | pathlib.Path) -> dict:
    """Load weights into ``model`` (shapes must match); returns metadata.

    Raises :class:`CheckpointError` when the file is missing or is not a
    readable ``.npz`` archive (truncated, corrupt, or the wrong format).
    """
    path = pathlib.Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    try:
        with np.load(path) as archive:
            payload = {key: archive[key] for key in archive.files}
    except (zipfile.BadZipFile, OSError, ValueError, KeyError, EOFError) as exc:
        raise CheckpointError(
            f"checkpoint {path} is truncated or corrupt: {exc}"
        ) from exc
    meta_bytes = payload.pop(_META_KEY, None)
    metadata = {}
    if meta_bytes is not None:
        try:
            metadata = json.loads(bytes(meta_bytes.tobytes()).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"checkpoint {path} has corrupt metadata: {exc}"
            ) from exc
    model.load_state_dict(payload)
    return metadata
