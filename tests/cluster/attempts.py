"""``begin()`` for the scripted fake clients of the gateway tests.

The gateway waits for its attempts by polling their descriptors, so a
fake needs one: :class:`BlockingBegin` runs the fake's own blocking
``recommend`` on a thread and signals a ``socket.socketpair()`` when it
returns or raises.  The fakes keep their scripts; only the hand-over is
shared.
"""

from __future__ import annotations

import socket
import threading


class ThreadedAttempt:
    """What ``WorkerClient.begin`` returns, over a blocking call."""

    def __init__(self, call):
        self._readable, self._signal = socket.socketpair()
        self._outcome: tuple | None = None
        self.abandoned = False

        def run():
            try:
                self._outcome = (call(), None)
            except BaseException as exc:  # delivered by result()
                self._outcome = (None, exc)
            try:
                self._signal.send(b"!")
            except OSError:
                pass  # abandoned meanwhile: nobody is listening

        self._thread = threading.Thread(target=run, daemon=True)
        self._thread.start()

    def fileno(self) -> int:
        return self._readable.fileno()

    def _close(self) -> None:
        self._readable.close()
        self._signal.close()

    def result(self) -> dict:
        self._thread.join(timeout=30.0)
        assert self._outcome is not None, "fake recommend never returned"
        self._close()
        response, error = self._outcome
        if error is not None:
            raise error
        return response

    def abandon(self) -> None:
        self.abandoned = True
        self._close()


class BlockingBegin:
    """Mixin: ``begin()`` from the fake's blocking ``recommend``."""

    def begin(self, payload, timeout_s=None):
        attempt = ThreadedAttempt(
            lambda: self.recommend(payload, timeout_s=timeout_s)
        )
        self.attempts = getattr(self, "attempts", []) + [attempt]
        return attempt
