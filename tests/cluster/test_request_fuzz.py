"""``recommend`` payloads at the cluster boundary, drawn adversarially.

A worker's and the gateway's ``handle_recommend`` share one typed check
(:func:`repro.cluster.wire.recommend_request`).  Whatever a payload
holds — ids near the int64 edges, bools, floats, strings, missing keys,
a huge ``k``, a far ``day`` — it is answered within a fixed wall budget
with a typed status: 200 when the check below admits it (with at most
``k`` flights), 400 otherwise.  A client error is never a 500, and a day
of 10**18 never reaches the rank stage.

The gateway side runs over real frames: a worker runtime behind a
:class:`~repro.cluster.wire.FrameServer`, a pooled
:class:`~repro.cluster.WorkerClient`, and the gateway in front, so a
worker's 400 is seen to come back a 400.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import (
    ClusterConfig, Gateway, WorkerClient, WorkerHandle, WorkerRuntime,
)
from repro.cluster.wire import FrameServer
from repro.obs import MetricsRegistry, use_registry

CONFIG = ClusterConfig(num_workers=1, num_users=60, num_cities=20,
                       hedge_enabled=False)
BUDGET_S = 2.0
INT64 = (-(2**63), 2**63 - 1)
DAY_RANGE = (0, 10**6)  # the window DESIGN states for the wire

FUZZ = settings(derandomize=True, deadline=None, max_examples=150,
                suppress_health_check=[HealthCheck.function_scoped_fixture,
                                       HealthCheck.too_slow])

MISSING = object()
WRONG_TYPES = st.one_of(
    st.booleans(), st.floats(allow_nan=True), st.text(max_size=4),
    st.none(), st.just([1]), st.just({"n": 1}),
    st.integers(-3, 3).map(str), st.integers(0, 5).map(float),
)
USER_IDS = st.one_of(
    st.integers(-5, 80),
    st.sampled_from([INT64[0], INT64[0] - 1, INT64[1], INT64[1] + 1,
                     10**9, -(10**9), 2**64]),
    WRONG_TYPES, st.just(MISSING),
)
DAYS = st.one_of(
    st.integers(DAY_RANGE[0], DAY_RANGE[1]).filter(lambda d: d % 97 == 0),
    st.integers(600, 800),
    st.sampled_from([-1, DAY_RANGE[0], DAY_RANGE[1], DAY_RANGE[1] + 1,
                     10**18, -(10**18), 2**70]),
    WRONG_TYPES, st.just(MISSING),
)
KS = st.one_of(
    st.integers(-2, 12),
    st.sampled_from([2**31, INT64[1], INT64[1] + 1, 2**70]),
    WRONG_TYPES, st.just(MISSING),
)


@st.composite
def payloads(draw):
    payload = {}
    for name, values in (("user_id", USER_IDS), ("day", DAYS), ("k", KS)):
        value = draw(values)
        if value is not MISSING:
            payload[name] = value
    if draw(st.booleans()):
        payload["extra"] = draw(WRONG_TYPES)
    return payload


def admitted(payload) -> bool:
    """The boundary's contract, stated apart from its code."""
    def integer(name, default, low, high):
        value = payload.get(name, default)
        return (isinstance(value, int) and not isinstance(value, bool)
                and low <= value <= high)

    return (integer("user_id", None, *INT64)
            and integer("day", DAY_RANGE[0], *DAY_RANGE)
            and integer("k", CONFIG.default_k, 1, INT64[1]))


def check_answer(handle, payload):
    start = time.perf_counter()
    status, body = handle(payload)
    assert time.perf_counter() - start < BUDGET_S
    if admitted(payload):
        assert status == 200, body
        k = payload.get("k", CONFIG.default_k)
        assert 0 < len(body["flights"]) <= k
    else:
        assert status == 400, body
        assert isinstance(body["error"], str)


@pytest.fixture(scope="module")
def runtime():
    with use_registry(MetricsRegistry()):
        yield WorkerRuntime(CONFIG, 0)


@pytest.fixture(scope="module")
def gateway(runtime):
    server = FrameServer("127.0.0.1", {"recommend": runtime.handle_recommend})
    server.start_in_thread("fuzz-worker")
    client = WorkerClient(server.host, server.port, timeout_s=10.0)
    yield Gateway([WorkerHandle(0, client, CONFIG)], CONFIG)
    client.close()
    server.shutdown()


@FUZZ
@given(payload=payloads())
def test_worker_answers_every_payload_typed(runtime, payload):
    check_answer(runtime.handle_recommend, payload)


@FUZZ
@given(payload=payloads())
def test_gateway_answers_every_payload_typed(gateway, payload):
    with use_registry(MetricsRegistry()):
        check_answer(gateway.handle_recommend, payload)


def test_a_worker_400_comes_back_a_400(runtime):
    """A payload the gateway let through and a worker refused (here: a
    route that rewrites ``k`` to 0) is the caller's error at the gateway
    too, and the worker's breaker counts it as an answer."""
    refusing = FrameServer("127.0.0.1", {
        "recommend": lambda payload: runtime.handle_recommend(
            {**payload, "k": 0}),
    })
    refusing.start_in_thread("fuzz-refusing-worker")
    client = WorkerClient(refusing.host, refusing.port, timeout_s=10.0)
    try:
        gateway = Gateway([WorkerHandle(0, client, CONFIG)], CONFIG)
        with use_registry(MetricsRegistry()):
            status, body = gateway.handle_recommend({"user_id": 3})
        assert status == 400 and "k=0" in body["error"]
        assert gateway.worker(0).breaker.state == "closed"
    finally:
        client.close()
        refusing.shutdown()
