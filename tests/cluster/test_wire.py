"""The frame protocol at its edges: bad frames, bad bodies, bad peers.

Real sockets throughout: a :class:`FrameServer` with scripted routes on
one side, a :class:`WorkerClient` or a raw socket on the other.
"""

from __future__ import annotations

import os
import resource
import socket
import struct
import threading

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterProtocolError,
    Gateway,
    WorkerClient,
    WorkerHandle,
    WorkerUnavailable,
)
from repro.cluster.wire import (
    MAX_BODY, VERBS, FrameServer, recv_frame, send_frame,
)
from repro.obs import MetricsRegistry, use_registry

HEADER = struct.Struct("!IH")
RECOMMEND = VERBS.index("recommend")


def _boom(payload):
    raise KeyError("route bug")


@pytest.fixture
def server():
    running = FrameServer("127.0.0.1", {
        "recommend": lambda payload: (200, {"echo": payload}),
        "health": lambda payload: (503, {"error": "draining"}),
        "reload": _boom,
    })
    running.start_in_thread("test-frame-server")
    yield running
    running.shutdown()


@pytest.fixture
def scripted_peer():
    """A listener whose one connection runs ``script(conn)``."""
    listener = socket.create_server(("127.0.0.1", 0))
    threads: list[threading.Thread] = []

    def serve(script, connections: int = 1):
        def run():
            for _ in range(connections):
                conn, _ = listener.accept()
                with conn:
                    script(conn)

        threads.append(threading.Thread(target=run, daemon=True))
        threads[-1].start()
        return listener.getsockname()[:2]

    yield serve
    listener.close()
    for thread in threads:
        thread.join(timeout=5.0)
        assert not thread.is_alive()


def _raw(server: FrameServer) -> socket.socket:
    return socket.create_connection((server.host, server.port), timeout=5.0)


class TestServerReplies:
    def test_round_trip_reuses_one_connection(self, server):
        client = WorkerClient(server.host, server.port)
        for index in range(3):
            assert client.request("recommend", {"n": index}) \
                == (200, {"echo": {"n": index}})
        assert len(client._pool) == 1
        client.close()
        assert client._pool == []

    def test_non_json_body_is_a_400(self, server):
        with _raw(server) as sock:
            sock.sendall(HEADER.pack(5, RECOMMEND) + b"{nope")
            status, raw = recv_frame(sock)
            assert status == 400 and b"JSON object" in raw
            # The connection is still in step: the next frame is served.
            send_frame(sock, RECOMMEND, {"n": 1})
            assert recv_frame(sock)[0] == 200

    def test_json_that_is_not_an_object_is_a_400(self, server):
        with _raw(server) as sock:
            sock.sendall(HEADER.pack(2, RECOMMEND) + b"[]")
            assert recv_frame(sock)[0] == 400

    def test_unknown_verb_is_a_404(self, server):
        with _raw(server) as sock:
            send_frame(sock, 99, {})
            assert recv_frame(sock)[0] == 404
        # ...and so is a known verb this server has no route for.
        client = WorkerClient(server.host, server.port)
        assert client.request("drain")[0] == 404

    def test_handler_exception_is_a_500(self, server):
        client = WorkerClient(server.host, server.port)
        status, body = client.request("reload")
        assert status == 500 and "KeyError" in body["error"]
        with pytest.raises(ClusterProtocolError, match="500"):
            client.reload()
        # The thread that served it is still serving.
        assert client.request("recommend", {})[0] == 200

    def test_status_mapping_of_the_typed_calls(self, server):
        client = WorkerClient(server.host, server.port)
        with pytest.raises(WorkerUnavailable, match="health -> 503"):
            client.health()
        assert client.recommend({"user_id": 1}) == {"echo": {"user_id": 1}}
        assert client.begin({"user_id": 2}).result() \
            == {"echo": {"user_id": 2}}

    def test_oversized_length_field_closes_the_connection(self, server):
        with _raw(server) as sock:
            sock.sendall(HEADER.pack(MAX_BODY + 1, RECOMMEND))
            assert sock.recv(1) == b""      # closed, nothing allocated
        client = WorkerClient(server.host, server.port)
        assert client.request("recommend", {})[0] == 200

    def test_survives_a_client_that_disconnects_mid_request(self, server):
        with _raw(server) as sock:
            sock.sendall(HEADER.pack(100, RECOMMEND) + b'{"half":')
        with _raw(server) as sock:
            sock.sendall(HEADER.pack(100, RECOMMEND)[:3])
        client = WorkerClient(server.host, server.port)
        assert client.request("recommend", {"n": 1}) == (200, {"echo": {"n": 1}})


class TestClientAgainstBadPeers:
    def test_reply_truncated_mid_body_is_unavailable(self, scripted_peer):
        def script(conn):
            recv_frame(conn)
            conn.sendall(HEADER.pack(100, 200) + b'{"flights": [')

        host, port = scripted_peer(script)
        client = WorkerClient(host, port, timeout_s=5.0)
        with pytest.raises(WorkerUnavailable, match="short of 100"):
            client.recommend({"user_id": 1})
        assert client._pool == []

    def test_oversized_reply_is_a_protocol_error(self, scripted_peer):
        def script(conn):
            recv_frame(conn)
            conn.sendall(HEADER.pack(MAX_BODY + 1, 200))

        host, port = scripted_peer(script)
        client = WorkerClient(host, port, timeout_s=5.0)
        with pytest.raises(ClusterProtocolError, match="exceeds"):
            client.recommend({"user_id": 1})
        assert client._pool == []

    def test_non_json_reply_is_a_protocol_error(self, scripted_peer):
        def script(conn):
            recv_frame(conn)
            conn.sendall(HEADER.pack(4, 200) + b"oops")

        host, port = scripted_peer(script)
        client = WorkerClient(host, port, timeout_s=5.0)
        with pytest.raises(ClusterProtocolError, match="non-JSON"):
            client.recommend({"user_id": 1})

    def test_pooled_connection_the_server_closed_is_resent_once(
        self, scripted_peer
    ):
        """Answer once and hang up: the next call finds its pooled
        connection dead, and silently goes again on a fresh one."""
        served = []

        def script(conn):
            served.append(recv_frame(conn))
            send_frame(conn, 200, {"served": len(served)})

        host, port = scripted_peer(script, connections=2)
        client = WorkerClient(host, port, timeout_s=5.0)
        assert client.request("recommend", {"n": 1}) == (200, {"served": 1})
        assert len(client._pool) == 1
        assert client.request("recommend", {"n": 2}) == (200, {"served": 2})
        assert [frame[1] for frame in served] == [b'{"n": 1}', b'{"n": 2}']

    def test_fresh_connection_failure_is_not_resent(self, scripted_peer):
        accepted = []

        def script(conn):
            accepted.append(recv_frame(conn))   # ...and hang up

        host, port = scripted_peer(script, connections=1)
        client = WorkerClient(host, port, timeout_s=5.0)
        with pytest.raises(WorkerUnavailable):
            client.recommend({"user_id": 1})
        assert len(accepted) == 1

    def test_refused_connection_is_unavailable(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            host, port = listener.getsockname()[:2]
        client = WorkerClient(host, port, timeout_s=2.0)
        with pytest.raises(WorkerUnavailable, match="Refused"):
            client.begin({"user_id": 1})


class TestManyDescriptors:
    def test_gateway_request_with_over_1024_descriptors_open(self, server):
        """``select.select`` raises on a descriptor numbered 1024 or
        above; the gateway's wait must not."""
        need = 1024 + 64
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        wanted = need + 256
        if soft < wanted:
            if hard != resource.RLIM_INFINITY and hard < wanted:
                pytest.skip(f"RLIMIT_NOFILE hard limit {hard} < {wanted}")
            resource.setrlimit(resource.RLIMIT_NOFILE, (wanted, hard))
        held = []
        try:
            while not held or held[-1] < need:
                held.append(os.dup(0))
            config = ClusterConfig(num_workers=1)
            client = WorkerClient(server.host, server.port, timeout_s=5.0)
            with use_registry(MetricsRegistry()):
                gateway = Gateway([WorkerHandle(0, client, config)], config)
                attempt = client.begin({"user_id": 1})
                assert attempt.fileno() >= 1024
                attempt.abandon()
                response = gateway.recommend({"user_id": 7})
            assert response["echo"] == {"user_id": 7}
            assert response["routed_worker"] == 0
            client.close()
        finally:
            for descriptor in held:
                os.close(descriptor)
            resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
