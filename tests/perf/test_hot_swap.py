"""Concurrent hot-swap: every observed score is one version, never a blend.

The bit-identity contract the online loop's followers rely on: while
:meth:`InferenceSession.swap` installs a snapshot mid-traffic, a
concurrent ``score_pairs`` must return scores computed entirely from the
*old* weights or entirely from the *new* ones.  A single mixed-version
vector is a torn read.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import build_odnet
from repro.perf import InferenceSession

from ..conftest import TINY_MODEL_CONFIG

_USER_PARAMS = (
    "origin_hsgc.user_embedding.weight",
    "dest_hsgc.user_embedding.weight",
)
_SWAPS = 30


@pytest.fixture(scope="module")
def probe(od_dataset):
    """A multi-user ranking batch: digests move when any user row does."""
    rng = np.random.default_rng(7)
    requests = []
    for point in od_dataset.source.test_points[:12]:
        candidates = [point.target] + od_dataset.sample_distractors(
            point.target, 7, rng
        )
        requests.append((point, candidates))
    return od_dataset.batch_for_requests(requests)


@pytest.fixture(scope="module")
def states(od_dataset):
    """Two full state dicts differing in every user embedding row."""
    model = build_odnet(od_dataset, TINY_MODEL_CONFIG)
    state_a = model.state_dict()
    state_b = {name: value.copy() for name, value in state_a.items()}
    rng = np.random.default_rng(3)
    for name in _USER_PARAMS:
        state_b[name] = state_b[name] + rng.normal(
            0.0, 0.5, state_b[name].shape
        )
    return state_a, state_b


def _digest(scores) -> bytes:
    return np.ascontiguousarray(scores).tobytes()


class _Hammer:
    def __init__(self, score, threads=4):
        self.score = score
        self.digests: set[bytes] = set()
        self.errors: list[str] = []
        self.scored = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._run, daemon=True)
            for _ in range(threads)
        ]

    def _run(self):
        while not self._stop.is_set():
            try:
                digest = _digest(self.score())
                with self._lock:
                    self.digests.add(digest)
                    self.scored += 1
            except Exception as exc:  # noqa: BLE001 - the assertion target
                with self._lock:
                    self.errors.append(f"{type(exc).__name__}: {exc}")

    def __enter__(self):
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=10.0)


class TestInferenceSessionHotSwap:
    @pytest.fixture()
    def session(self, od_dataset):
        return InferenceSession(build_odnet(od_dataset, TINY_MODEL_CONFIG))

    def test_swap_is_deterministic_and_visible(self, session, states, probe):
        state_a, state_b = states
        session.swap(state_a)
        digest_a = _digest(session.score_pairs(probe))
        session.swap(state_b)
        digest_b = _digest(session.score_pairs(probe))
        assert digest_a != digest_b
        # Swapping back reproduces the original scores bit for bit.
        session.swap(state_a)
        assert _digest(session.score_pairs(probe)) == digest_a
        assert session.swaps == 3

    def test_concurrent_swaps_never_blend(self, session, states, probe):
        state_a, state_b = states
        session.swap(state_a)
        expected = set()
        for state in states:
            session.swap(state)
            expected.add(_digest(session.score_pairs(probe)))
        assert len(expected) == 2

        with _Hammer(lambda: session.score_pairs(probe)) as hammer:
            for i in range(_SWAPS):
                session.swap(states[i % 2])
        assert hammer.errors == []
        assert hammer.scored > 0
        torn = hammer.digests - expected
        assert not torn, f"{len(torn)} mixed-version score vector(s)"
        assert hammer.digests <= expected and hammer.digests
