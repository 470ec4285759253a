"""The client end of the cluster's frames (:mod:`repro.cluster.wire`).

:class:`WorkerClient` is the gateway's handle on one worker: a small
pool of persistent connections checked out per request, JSON in/out,
and a single typed failure, :class:`WorkerUnavailable`, covering
everything the gateway should *retry against a replica*: connection
refused/reset, a timeout, or an explicit 503 from a draining /
not-yet-ready worker.

A call is two halves — :meth:`WorkerClient.begin` writes the request
and returns the attempt, ``attempt.result()`` reads the reply — so the
gateway can wait for several attempts on its request thread.  Every
attempt runs under a hard per-attempt connect/read deadline — a wedged
worker costs bounded time, never a hung gateway thread.

A 400 is the caller's malformed request, :class:`~repro.cluster.wire.
BadRequest`; anything else (a 404, a worker-side 500 with a JSON body)
surfaces as :class:`ClusterProtocolError` — a bug, not a routing event.
"""

from __future__ import annotations

import socket
import threading

from .wire import (
    VERBS, BadRequest, ClusterProtocolError, decode, recv_frame, send_frame,
)

__all__ = ["ClusterProtocolError", "WorkerUnavailable", "WorkerClient"]


class WorkerUnavailable(RuntimeError):
    """The endpoint cannot take this request now; retry a replica."""

    def __init__(self, endpoint: str, reason: str):
        super().__init__(f"worker {endpoint} unavailable: {reason}")
        self.endpoint = endpoint
        self.reason = reason


class _Attempt:
    """One request written to one connection, its reply not yet read."""

    def __init__(self, client: "WorkerClient", sock: socket.socket, resend):
        self._client = client
        self._sock = sock
        self._resend = resend   # the call again, if the socket was pooled

    def fileno(self) -> int:
        return self._sock.fileno()

    def abandon(self) -> None:
        """Stop waiting: the connection is closed, never pooled (the
        reply may still arrive on it)."""
        self._sock.close()

    def reply(self) -> tuple[int, dict]:
        """``(status, body)``; the connection goes back to the pool."""
        try:
            status, raw = recv_frame(self._sock)
        except ClusterProtocolError:
            self._sock.close()
            raise
        except OSError as exc:
            self._sock.close()
            return self._client._failed(exc, self._resend).reply()
        self._client._release(self._sock)
        return status, decode(raw)

    def result(self) -> dict:
        """The ranking; 503, reset and deadline are
        :class:`WorkerUnavailable`, a 400 is :class:`BadRequest`."""
        status, body = self.reply()
        if status == 503:
            raise WorkerUnavailable(
                self._client.endpoint, body.get("error", "unavailable")
            )
        if status == 400:
            raise BadRequest(body.get("error", "bad request"))
        if status != 200:
            raise ClusterProtocolError(
                f"worker {self._client.endpoint} recommend -> {status}: {body}"
            )
        return body


class WorkerClient:
    """Pooled persistent-connection client for one worker endpoint.

    Any thread may call :meth:`request`; a connection is checked out of
    the pool for the duration of the exchange, returned on success, and
    closed on failure — no thread affinity.
    """

    def __init__(self, host: str, port: int, timeout_s: float = 10.0,
                 max_pool: int = 8):
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.max_pool = max_pool
        self._pool: list[socket.socket] = []
        self._pool_lock = threading.Lock()

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    # ------------------------------------------------------------------
    def _release(self, sock: socket.socket) -> None:
        with self._pool_lock:
            if len(self._pool) < self.max_pool:
                self._pool.append(sock)
                return
        sock.close()

    def close(self) -> None:
        """Close every pooled connection (the client stays usable)."""
        with self._pool_lock:
            pool, self._pool = self._pool, []
        for sock in pool:
            sock.close()

    def _failed(self, exc: OSError, resend) -> _Attempt:
        """One silent resend — on a guaranteed-fresh socket — covers a
        pooled connection the server had closed; a timeout or a
        fresh-connection failure is the real signal."""
        if resend is None or isinstance(exc, socket.timeout):
            raise WorkerUnavailable(
                self.endpoint, f"{type(exc).__name__}: {exc}"
            ) from exc
        return self._send(*resend, fresh=True)

    def _send(self, verb: str, payload: dict | None,
              timeout_s: float | None, fresh: bool = False) -> _Attempt:
        """Write one request under the per-attempt deadline.

        The deadline is set on the socket whether it was just connected
        or pooled — a request against a wedged (e.g. SIGSTOP'd) worker
        must not wait out whatever timeout the socket was born with.  A
        ``None`` argument falls back to the client default; there is no
        unbounded mode.
        """
        code = VERBS.index(verb)
        deadline_s = timeout_s if timeout_s is not None else self.timeout_s
        with self._pool_lock:
            sock = self._pool.pop() if self._pool and not fresh else None
        resend = None if sock is None else (verb, payload, timeout_s)
        try:
            if sock is None:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=deadline_s
                )
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(deadline_s)
            send_frame(sock, code, payload or {})
        except OSError as exc:
            if sock is not None:
                sock.close()
            return self._failed(exc, resend)
        return _Attempt(self, sock, resend)

    def request(self, verb: str, payload: dict | None = None,
                timeout_s: float | None = None) -> tuple[int, dict]:
        """One exchange: ``(status, body)``."""
        return self._send(verb, payload, timeout_s).reply()

    # ------------------------------------------------------------------
    def begin(self, payload: dict, timeout_s: float | None = None) -> _Attempt:
        """Write a ranking request; :class:`WorkerUnavailable` if it
        cannot be.  The reply is ``attempt.result()``."""
        return self._send("recommend", payload, timeout_s)

    def recommend(self, payload: dict, timeout_s: float | None = None) -> dict:
        return self.begin(payload, timeout_s).result()

    def health(self, timeout_s: float | None = None) -> dict:
        status, body = self.request("health", timeout_s=timeout_s)
        if status != 200:
            raise WorkerUnavailable(self.endpoint, f"health -> {status}")
        return body

    def drain(self, timeout_s: float | None = None) -> dict:
        status, body = self.request(
            "drain",
            {} if timeout_s is None else {"timeout_s": timeout_s},
            timeout_s=None if timeout_s is None else timeout_s + 5.0,
        )
        if status != 200:
            raise ClusterProtocolError(
                f"worker {self.endpoint} drain -> {status}: {body}"
            )
        return body

    def reload(self, timeout_s: float | None = None) -> dict:
        status, body = self.request("reload", timeout_s=timeout_s)
        if status != 200:
            raise ClusterProtocolError(
                f"worker {self.endpoint} reload -> {status}: {body}"
            )
        return body

    def shutdown(self) -> None:
        try:
            self.request("shutdown", timeout_s=5.0)
        except WorkerUnavailable:
            pass  # already gone is the goal state
        finally:
            self.close()
