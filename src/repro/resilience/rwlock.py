"""A writer-preferring readers-writer lock.

Single user: :class:`repro.perf.ShardedInferenceSession`.  Its user rows
live in memmaps that ``swap`` rewrites *in place*, so a row
gather (shared side, many at once) must exclude the re-spill (exclusive
side) or it could read half-written rows.  A waiting writer blocks *new*
readers so a steady scoring stream cannot starve the swap; writers are
rare — one per published snapshot.  The dense
:class:`repro.perf.InferenceSession` needs no lock: it publishes an
immutable state by reference.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

__all__ = ["ReadWriteLock"]


class ReadWriteLock:
    """Many concurrent readers XOR one writer; waiting writers have priority."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    # ------------------------------------------------------------------
    def acquire_read(self) -> None:
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True

    def release_write(self) -> None:
        with self._cond:
            self._writer_active = False
            self._cond.notify_all()

    # ------------------------------------------------------------------
    @contextmanager
    def read(self):
        """Shared (reader) scope — the row-gather side."""
        self.acquire_read()
        try:
            yield self
        finally:
            self.release_read()

    @contextmanager
    def write(self):
        """Exclusive (writer) scope — the re-spill side."""
        self.acquire_write()
        try:
            yield self
        finally:
            self.release_write()
