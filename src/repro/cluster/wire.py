"""Length-prefixed frames: the one dialect workers and the gateway speak.

A frame is a ``!IH`` header — the body's length, then on a request the
verb's index in :data:`VERBS` and on a reply the status (the same
200/400/404/500/503 the handlers return) — followed by a JSON object.
A role is just a route table ``{verb: fn(payload) -> (status, body)}``
served by a :class:`FrameServer`: one OS thread per connection, one
request at a time per connection, handled inline — which is exactly the
concurrency the per-worker guard was built to bound.  Connections are
persistent and never pipelined; a bad frame closes the connection.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from typing import Callable, Mapping

__all__ = ["VERBS", "MAX_BODY", "ClusterProtocolError", "send_frame",
           "recv_frame", "decode", "FrameServer"]

VERBS = ("recommend", "health", "drain", "reload", "shutdown")
#: A length field beyond this is a bad frame, never an allocation.
MAX_BODY = 1 << 24
_HEADER = struct.Struct("!IH")

Route = Callable[[dict], "tuple[int, dict]"]


class ClusterProtocolError(RuntimeError):
    """A malformed exchange — not retryable, somebody has a bug."""


def send_frame(sock: socket.socket, code: int, body: dict) -> None:
    data = json.dumps(body).encode("utf-8")
    sock.sendall(_HEADER.pack(len(data), code) + data)


def _recv_exactly(sock: socket.socket, size: int) -> bytes:
    data = b""
    while len(data) < size:
        chunk = sock.recv(size - len(data))
        if not chunk:
            raise ConnectionResetError(
                f"peer closed {size - len(data)} bytes short of {size}"
            )
        data += chunk
    return data


def recv_frame(sock: socket.socket) -> tuple[int, bytes]:
    """``(code, raw body)``; a peer that closed (even between frames)
    raises :class:`ConnectionResetError`."""
    length, code = _HEADER.unpack(_recv_exactly(sock, _HEADER.size))
    if length > MAX_BODY:
        raise ClusterProtocolError(f"{length}-byte frame exceeds {MAX_BODY}")
    return code, _recv_exactly(sock, length)


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

    def __init__(self, host: str, routes: Mapping[str, Route], port: int = 0):
        self.routes = dict(routes)
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.05)   # how often the loop sees a stop
        self.host, self.port = self._listener.getsockname()[:2]
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

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
                threading.Thread(
                    target=self._serve, args=(connection,),
                    name="repro-cluster-connection", daemon=True,
                ).start()

    def _serve(self, connection: socket.socket) -> None:
        with connection:
            connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while True:
                try:
                    code, raw = recv_frame(connection)
                    send_frame(connection, *self._handle(code, raw))
                except (OSError, ClusterProtocolError):
                    return   # peer gone or a bad frame: close

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
