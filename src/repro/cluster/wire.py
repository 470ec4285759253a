"""Length-prefixed frames: the one dialect workers and the gateway speak.

A frame is a ``!IH`` header — the body's length, then on a request the
verb's index in :data:`VERBS` and on a reply the status (the same
200/400/404/500/503 the handlers return) — followed by a JSON object.
A role is just a route table ``{verb: fn(payload) -> (status, body)}``
served by a :class:`FrameServer`: one OS thread per connection, one
request at a time per connection, handled inline — which is exactly the
concurrency the per-worker guard was built to bound.  Connections are
persistent and never pipelined; a bad frame closes the connection.

What one peer can hold is bounded: a frame must arrive whole within
:attr:`FrameServer.frame_deadline_s` of its first byte, a connection
idle between frames for :attr:`FrameServer.idle_timeout_s` is closed,
and a server holds at most :attr:`FrameServer.max_connections`
connections (one more is closed at once) — so a peer that connects and
sends nothing holds its slot for a bounded time, never a lockout.  The
idle bound is a few request deadlines, far above the gap between two
requests of a running workload; a pooled :class:`~repro.cluster.client.
WorkerClient` whose connection was closed while idle resends once on a
fresh one.

A ``recommend`` payload is checked once, by :func:`recommend_request`,
at the gateway and again at the worker: anything it refuses is a 400.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time
from typing import Callable, Mapping

__all__ = ["VERBS", "MAX_BODY", "DAY_RANGE", "BadRequest",
           "ClusterProtocolError", "recommend_request", "send_frame",
           "recv_frame", "decode", "FrameServer"]

VERBS = ("recommend", "health", "drain", "reload", "shutdown")
#: A length field beyond this is a bad frame, never an allocation.
MAX_BODY = 1 << 24
#: The decision days a ``recommend`` may ask for, both ends included.
DAY_RANGE = (0, 10**6)
_HEADER = struct.Struct("!IH")
_INT64 = (-(1 << 63), (1 << 63) - 1)

Route = Callable[[dict], "tuple[int, dict]"]


class ClusterProtocolError(RuntimeError):
    """A malformed exchange — not retryable, somebody has a bug."""


class BadRequest(ValueError):
    """The caller's request is malformed: answered 400, never retried."""


def _integer(payload: dict, name: str, default, low: int, high: int) -> int:
    value = payload.get(name, default)
    if value is None:
        raise BadRequest(f"payload needs an integer {name}")
    if type(value) is not int:  # bool, float and str included
        raise BadRequest(
            f"{name} must be an integer, got {type(value).__name__}")
    if not low <= value <= high:
        raise BadRequest(f"{name}={value} is outside [{low}, {high}]")
    return value


def recommend_request(payload: dict, default_k: int) -> tuple[int, int, int]:
    """``(user_id, day, k)`` of a ``recommend`` payload, or
    :class:`BadRequest`: integers only (no bool, float or string), a
    ``user_id`` that fits int64, ``day`` in :data:`DAY_RANGE` (default
    its start) and ``k >= 1`` (default ``default_k``)."""
    return (
        _integer(payload, "user_id", None, *_INT64),
        _integer(payload, "day", DAY_RANGE[0], *DAY_RANGE),
        _integer(payload, "k", default_k, 1, _INT64[1]),
    )


def send_frame(sock: socket.socket, code: int, body: dict) -> None:
    data = json.dumps(body).encode("utf-8")
    sock.sendall(_HEADER.pack(len(data), code) + data)


def _recv_exactly(sock: socket.socket, size: int,
                  deadline: float | None) -> bytes:
    data = b""
    while len(data) < size:
        if deadline is not None:
            left = deadline - time.monotonic()
            if left <= 0.0:
                raise socket.timeout(f"frame incomplete at its deadline, "
                                     f"{size - len(data)} bytes short")
            sock.settimeout(left)
        chunk = sock.recv(size - len(data))
        if not chunk:
            raise ConnectionResetError(
                f"peer closed {size - len(data)} bytes short of {size}"
            )
        data += chunk
    return data


def recv_frame(sock: socket.socket,
               deadline: float | None = None) -> tuple[int, bytes]:
    """``(code, raw body)``; a peer that closed (even between frames)
    raises :class:`ConnectionResetError`.  With a ``deadline`` (a
    ``time.monotonic()`` reading) a frame still incomplete then raises
    :class:`socket.timeout`; without one the socket's own timeout holds."""
    length, code = _HEADER.unpack(
        _recv_exactly(sock, _HEADER.size, deadline))
    if length > MAX_BODY:
        raise ClusterProtocolError(f"{length}-byte frame exceeds {MAX_BODY}")
    return code, _recv_exactly(sock, length, deadline)


def decode(raw: bytes) -> dict:
    if not raw:
        return {}
    try:
        decoded = json.loads(raw)
    except ValueError as exc:
        raise ClusterProtocolError(f"non-JSON frame body: {raw[:200]!r}") from exc
    if not isinstance(decoded, dict):
        raise ClusterProtocolError(f"expected a JSON object, got {decoded!r}")
    return decoded


class FrameServer:
    """A routed frame server bound to an ephemeral (or fixed) port."""

    #: seconds from a frame's first byte to its last (and to send a reply)
    frame_deadline_s = 5.0
    #: seconds a connection may wait between frames before it is closed
    idle_timeout_s = 60.0
    #: connections served at once; one more is closed on accept
    max_connections = 64

    def __init__(self, host: str, routes: Mapping[str, Route], port: int = 0):
        self.routes = dict(routes)
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.05)   # how often the loop sees a stop
        self.host, self.port = self._listener.getsockname()[:2]
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._connections = 0
        self._connections_lock = threading.Lock()

    def start_in_thread(self, name: str) -> None:
        self._thread = threading.Thread(
            target=self.serve_forever, name=name, daemon=True
        )
        self._thread.start()

    def serve_forever(self) -> None:
        """Accept until :meth:`request_stop`, then close the listener."""
        with self._listener:
            while not self._stop.is_set():
                try:
                    connection, _ = self._listener.accept()
                except socket.timeout:
                    continue
                with self._connections_lock:
                    full = self._connections >= self.max_connections
                    if not full:
                        self._connections += 1
                if full:
                    connection.close()
                    continue
                threading.Thread(
                    target=self._serve, args=(connection,),
                    name="repro-cluster-connection", daemon=True,
                ).start()

    def _serve(self, connection: socket.socket) -> None:
        try:
            with connection:
                connection.setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                while True:
                    try:
                        connection.settimeout(self.idle_timeout_s)
                        if not connection.recv(1, socket.MSG_PEEK):
                            return   # closed between frames
                        code, raw = recv_frame(
                            connection,
                            time.monotonic() + self.frame_deadline_s,
                        )
                        reply = self._handle(code, raw)
                        connection.settimeout(self.frame_deadline_s)
                        send_frame(connection, *reply)
                    except (OSError, ClusterProtocolError):
                        return   # peer gone, idle, late or a bad frame
        finally:
            with self._connections_lock:
                self._connections -= 1

    def _handle(self, code: int, raw: bytes) -> tuple[int, dict]:
        route = self.routes.get(VERBS[code]) if code < len(VERBS) else None
        if route is None:
            return 404, {"error": f"no route for verb {code}"}
        try:
            payload = decode(raw)
        except ClusterProtocolError:
            return 400, {"error": "request body must be a JSON object"}
        try:
            return route(payload)
        except Exception as exc:  # route bugs become a typed 500, not a hang
            return 500, {"error": f"{type(exc).__name__}: {exc}"}

    def request_stop(self) -> None:
        self._stop.set()

    def shutdown(self) -> None:
        self.request_stop()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._listener.close()   # a server that never served still holds it
