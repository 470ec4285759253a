"""What a peer can hold of a :class:`FrameServer`: raw frames, drawn.

Short headers, oversize lengths, bodies that are not JSON, verb indices
out of range, frames cut short: each is answered with a typed status or
closed, and none keeps a server thread.  Idle peers that send two header
bytes and stop are closed at the frame deadline, peers that send nothing
at the idle timeout, and past the connection cap are not served at all —
while a pooled connection idle between two requests, for less than the
idle timeout, is kept (and one closed at it is resent by the pooled
client).  Peers are few (tens), never thousands of threads.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster.client import WorkerClient
from repro.cluster.wire import MAX_BODY, VERBS, FrameServer, recv_frame

HEADER = struct.Struct("!IH")
DEADLINE_S = 0.1
IDLE_S = 0.5
CAP = 16

FUZZ = settings(derandomize=True, deadline=None, max_examples=50,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture
def server():
    baseline = threading.active_count()
    running = FrameServer("127.0.0.1", {
        "recommend": lambda payload: (200, {"echo": payload}),
        "health": lambda payload: (200, {"ready": True}),
    })
    running.frame_deadline_s = DEADLINE_S
    running.idle_timeout_s = IDLE_S
    running.max_connections = CAP
    running.start_in_thread("test-frame-fuzz")
    running.baseline = baseline + 1   # its accept loop
    yield running
    running.shutdown()


def _connect(server) -> socket.socket:
    return socket.create_connection((server.host, server.port), timeout=5.0)


def _settles(server, budget_s: float = 5.0) -> bool:
    """The server's connection threads are all gone within the budget."""
    end = time.monotonic() + budget_s
    while threading.active_count() > server.baseline:
        if time.monotonic() > end:
            return False
        time.sleep(0.02)
    return True


def _exchange(sock: socket.socket, data: bytes) -> int | None:
    """Send ``data``; the reply's status, or ``None`` if the server
    closed the connection without one."""
    sock.sendall(data)
    try:
        return recv_frame(sock)[0]
    except (ConnectionResetError, socket.timeout):
        return None


FRAMES = st.one_of(
    # a header cut short (no byte at all is an idle connection)
    st.binary(min_size=1, max_size=HEADER.size - 1).map(lambda b: ("short", b)),
    # a length beyond the limit
    st.integers(MAX_BODY + 1, 2**32 - 1).map(
        lambda n: ("oversize", HEADER.pack(n, 0))),
    # a body that is not a JSON object
    st.binary(min_size=1, max_size=16).filter(lambda b: not b.startswith(b"{"))
    .map(lambda b: ("body", HEADER.pack(len(b), 0) + b)),
    # a verb index past the table
    st.integers(len(VERBS), 2**16 - 1).map(
        lambda code: ("verb", HEADER.pack(2, code) + b"{}")),
    # a body cut short
    st.integers(1, 64).map(lambda n: ("cut", HEADER.pack(n + 8, 0) + b"{" * n)),
)


@FUZZ
@given(frame=FRAMES)
def test_a_raw_frame_is_answered_or_closed(server, frame):
    kind, data = frame
    with _connect(server) as sock:
        status = _exchange(sock, data) if kind in ("body", "verb") else None
        if kind == "body":
            assert status == 400
        elif kind == "verb":
            assert status == 404
        else:
            sock.sendall(data)
            # Short or cut: the deadline closes it; oversize: at once.
            sock.settimeout(DEADLINE_S * 10)
            assert sock.recv(1) == b""
    assert _settles(server)
    # ...and the server still serves.
    with _connect(server) as sock:
        body = json.dumps({"n": 1}).encode()
        assert _exchange(sock, HEADER.pack(len(body), 0) + body) == 200
    assert _settles(server)


def test_idle_peers_are_capped_and_released(server):
    peers = []
    try:
        for _ in range(4 * CAP):
            peer = _connect(server)
            peer.sendall(HEADER.pack(10, 0)[:2])   # two header bytes, then idle
            peers.append(peer)
        time.sleep(DEADLINE_S / 3)
        assert threading.active_count() <= server.baseline + CAP
        # Past the deadline every connection is closed and its thread gone.
        assert _settles(server, budget_s=DEADLINE_S + 5.0)
        for peer in peers:
            peer.settimeout(5.0)
            try:
                assert peer.recv(1) == b""
            except ConnectionResetError:
                pass   # refused at the cap: reset, not closed
    finally:
        for peer in peers:
            peer.close()
    with _connect(server) as sock:
        assert _exchange(sock, HEADER.pack(2, 0) + b"{}") == 200


def test_idle_pooled_connection_is_kept_between_requests(server):
    """Idle between frames is not a late frame: the same connection
    serves a request long after the deadline."""
    with _connect(server) as sock:
        assert _exchange(sock, HEADER.pack(2, 0) + b"{}") == 200
        time.sleep(3 * DEADLINE_S)
        assert _exchange(sock, HEADER.pack(2, 0) + b"{}") == 200


def _closed(peer: socket.socket) -> bool:
    """The server closed ``peer`` (or reset it, when refused at the cap)."""
    peer.settimeout(IDLE_S + 5.0)
    try:
        return peer.recv(1) == b""
    except ConnectionResetError:
        return True


def test_silent_peers_at_the_cap_are_released(server):
    """``CAP`` peers that connect and send nothing fill the server; they
    are closed at the idle timeout, and a new client is served again."""
    peers = []
    try:
        for _ in range(CAP):
            peers.append(_connect(server))
        end = time.monotonic() + 5.0
        while threading.active_count() < server.baseline + CAP:
            assert time.monotonic() < end, "silent peers were not accepted"
            time.sleep(0.01)
        with _connect(server) as refused:
            assert _closed(refused)
        for peer in peers:
            assert _closed(peer)
        assert _settles(server, budget_s=IDLE_S + 5.0)
    finally:
        for peer in peers:
            peer.close()
    with _connect(server) as sock:
        assert _exchange(sock, HEADER.pack(2, 0) + b"{}") == 200


def test_pooled_client_resends_after_an_idle_close(server):
    """A pooled connection the server closed at the idle timeout costs
    the :class:`WorkerClient` one silent resend, never an error."""
    client = WorkerClient(server.host, server.port, timeout_s=5.0)
    try:
        assert client.request("health") == (200, {"ready": True})
        time.sleep(IDLE_S * 2)
        assert _settles(server)
        assert client.request("health") == (200, {"ready": True})
    finally:
        client.close()
