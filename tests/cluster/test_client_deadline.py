"""Per-attempt socket deadlines: a wedged worker costs bounded time.

A SIGSTOP'd (or otherwise hung) worker looks like this from the
gateway's side: the kernel still completes the TCP handshake off the
listen backlog, but the application never writes a byte back.  Every
test here talks to a deliberately unresponsive listener and asserts the
client gives up within the per-attempt deadline instead of hanging a
gateway thread.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.cluster import WorkerClient, WorkerUnavailable
from repro.cluster.wire import recv_frame, send_frame

#: Generous wall-clock ceiling for a sub-second deadline to fire.
BOUND_S = 3.0


@pytest.fixture
def silent_server():
    """Accepts connections, reads requests, never replies."""
    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(8)
    server.settimeout(0.1)
    stop = threading.Event()
    accepted: list[socket.socket] = []

    def accept_loop():
        while not stop.is_set():
            try:
                conn, _ = server.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            accepted.append(conn)

    thread = threading.Thread(target=accept_loop, daemon=True)
    thread.start()
    yield server.getsockname()
    stop.set()
    thread.join(timeout=2.0)
    for conn in accepted:
        conn.close()
    server.close()


class TestPerAttemptDeadline:
    def test_explicit_timeout_bounds_a_fresh_connection(self, silent_server):
        host, port = silent_server
        client = WorkerClient(host, port, timeout_s=30.0)
        start = time.monotonic()
        with pytest.raises(WorkerUnavailable, match="[Tt]ime"):
            client.request("health", timeout_s=0.3)
        assert time.monotonic() - start < BOUND_S

    def test_no_timeout_falls_back_to_client_default(self, silent_server):
        """``timeout_s=None`` must mean the client default, never
        "wait forever"."""
        host, port = silent_server
        client = WorkerClient(host, port, timeout_s=0.3)
        start = time.monotonic()
        with pytest.raises(WorkerUnavailable, match="[Tt]ime"):
            client.request("health")
        assert time.monotonic() - start < BOUND_S

    def test_keepalive_socket_gets_the_per_attempt_deadline(self):
        """The regression: a socket keeps the timeout it was connected
        with, so a shorter per-attempt deadline must be pushed onto the
        already-open pooled socket too."""
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        host, port = server.getsockname()
        conns: list[socket.socket] = []

        def serve_once_then_go_silent():
            conn, _ = server.accept()
            conns.append(conn)
            recv_frame(conn)
            send_frame(conn, 200, {})
            # The second request on the same socket gets no reply.
            try:
                conn.recv(65536)
            except OSError:
                pass

        thread = threading.Thread(
            target=serve_once_then_go_silent, daemon=True
        )
        thread.start()
        try:
            client = WorkerClient(host, port, timeout_s=30.0)
            status, body = client.request("health", timeout_s=5.0)
            assert status == 200 and body == {}
            start = time.monotonic()
            with pytest.raises(WorkerUnavailable, match="[Tt]ime"):
                client.request("health", timeout_s=0.3)
            assert time.monotonic() - start < BOUND_S
        finally:
            for conn in conns:
                conn.close()
            server.close()
            thread.join(timeout=2.0)
