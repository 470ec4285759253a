"""Publish-by-reference hot swap: what the lock-free read path rests on.

``test_hot_swap.py`` shows no score is ever a blend.  These tests pin the
*mechanism*, deterministically (events and call counts, no timing
thresholds): reads go on from the old frozen state while a swap builds
the next one, a reader's staleness check never starts a second table
build mid-swap, weight mutation rebinds ``param.data`` and never writes
in place (why a capture is immutable), and racing writers converge on
the last one.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core import build_odnet
from repro.obs import use_observability
from repro.optim import SGD, Adam
from repro.perf import InferenceSession

from ..conftest import TINY_MODEL_CONFIG
from .test_hot_swap import _Hammer, _digest, probe, states  # noqa: F401

_TIMEOUT_S = 60.0


@pytest.fixture
def session(od_dataset):
    return InferenceSession(build_odnet(od_dataset, TINY_MODEL_CONFIG))


def _version_digests(session, states, probe):
    digests = []
    for state in states:
        session.swap(state)
        digests.append(_digest(session.score_pairs(probe)))
    assert digests[0] != digests[1]
    return digests


class TestReadsBesideTheBuild:
    def test_read_returns_old_version_while_swap_is_building(
        self, session, states, probe, monkeypatch
    ):
        """Hangs (fails on the reader timeout) if a read waits for the
        table build, as it did behind the writer-preferring lock."""
        digest_a, digest_b = _version_digests(session, states, probe)
        session.swap(states[0])

        entered, release = threading.Event(), threading.Event()
        build = session.model.embedding_tables

        def parked_build(users=None):
            entered.set()
            assert release.wait(_TIMEOUT_S)
            return build(users)

        monkeypatch.setattr(session.model, "embedding_tables", parked_build)
        swapper = threading.Thread(
            target=session.swap, args=(states[1],), daemon=True
        )
        swapper.start()
        try:
            # The new weights are loaded; the swap is parked in its build.
            assert entered.wait(_TIMEOUT_S)
            seen = []
            reader = threading.Thread(
                target=lambda: seen.append(
                    _digest(session.score_pairs(probe))
                ),
                daemon=True,
            )
            reader.start()
            reader.join(_TIMEOUT_S)
            assert not reader.is_alive(), "a read waited for the table build"
            assert seen == [digest_a]
            assert swapper.is_alive()
        finally:
            release.set()
            swapper.join(_TIMEOUT_S)
        assert not swapper.is_alive()
        assert _digest(session.score_pairs(probe)) == digest_b

    def test_one_table_build_per_swap_under_the_hammer(
        self, session, states, probe, monkeypatch
    ):
        expected = set(_version_digests(session, states, probe))
        builds = []
        build = session.model.embedding_tables

        def counted_build(users=None):
            builds.append(threading.get_ident())
            return build(users)

        monkeypatch.setattr(session.model, "embedding_tables", counted_build)
        swaps = 30
        with _Hammer(lambda: session.score_pairs(probe)) as hammer:
            for i in range(swaps):
                session.swap(states[i % 2])
        assert hammer.errors == []
        assert hammer.scored > 0
        assert hammer.digests <= expected
        # Every build ran in the swapping thread: no reader saw the
        # versions move mid-swap and started a rebuild of its own.
        assert builds == [threading.get_ident()] * swaps


class TestSwapTelemetry:
    def test_build_and_pause_are_reported_apart(self, session, states):
        with use_observability() as (registry, _tracer):
            pause_ms = session.swap(states[1])
            assert registry.counter("perf.swaps").value == 1
            build = registry.histogram("perf.swap_build_ms")
            pause = registry.histogram("perf.swap_pause_ms")
            assert (build.count, pause.count) == (1, 1)
            # What the swap returns is the exclusive part alone.
            assert pause.sum == pytest.approx(pause_ms)
            assert build.sum > 0.0
        assert session.swaps == 1


def _adam_step(model, dataset, batch):
    model.loss(batch).backward()
    Adam(model.parameters(), lr=0.05).step()


def _sgd_step(model, dataset, batch):
    model.loss(batch).backward()
    SGD(model.parameters(), lr=0.05, momentum=0.9).step()


def _load_state_dict(model, dataset, batch):
    model.load_state_dict(
        {name: value + 1.0 for name, value in model.state_dict().items()}
    )


class TestMutationRebinds:
    """A captured ``param.data`` array is never written again."""

    @pytest.mark.parametrize(
        "mutate", [_adam_step, _sgd_step, _load_state_dict]
    )
    def test_previously_bound_arrays_are_untouched(
        self, od_dataset, probe, mutate
    ):
        model = build_odnet(od_dataset, TINY_MODEL_CONFIG)
        # Twice: the second round holds arrays the first round bound.
        for _ in range(2):
            held = [
                (param, param.data, param.data.tobytes())
                for param in model.parameters()
            ]
            mutate(model, od_dataset, probe)
            for param, array, before in held:
                assert array.tobytes() == before, param.name
            assert any(param.data is not array for param, array, _ in held)


class TestRacingWriters:
    def test_swap_invalidate_and_training_end_on_the_last_writer(
        self, od_dataset, states, probe
    ):
        """More threads than cores, short switch interval: whatever the
        interleaving, once the writers stop the session serves exactly
        the live model's weights."""
        model = build_odnet(od_dataset, TINY_MODEL_CONFIG)
        session = InferenceSession(model)
        session.swap(states[0])
        optimizer = SGD(model.parameters(), lr=0.01)
        errors = []

        def guarded(work, rounds):
            def run():
                try:
                    for i in range(rounds):
                        work(i)
                except Exception as exc:  # noqa: BLE001 - asserted below
                    errors.append(f"{type(exc).__name__}: {exc}")
            return threading.Thread(target=run, daemon=True)

        def train(_):
            model.zero_grad()
            model.loss(probe).backward()
            optimizer.step()

        writers = [
            guarded(lambda i: session.swap(states[i % 2]), 10),
            guarded(lambda _: session.invalidate(), 40),
            guarded(train, 5),
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with _Hammer(lambda: session.score_pairs(probe)) as hammer:
                for thread in writers:
                    thread.start()
                for thread in writers:
                    thread.join(_TIMEOUT_S)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in writers)
        assert errors == [] and hammer.errors == []
        assert hammer.scored > 0

        served = session.score_pairs(probe)
        assert session.cached_version == model.param_version
        # Bitwise against the all-users tables a session serves; the
        # table-less call propagates the probe's users only (1e-12).
        np.testing.assert_array_equal(
            served,
            model.score_pairs(probe, tables=model.embedding_tables()),
        )
        np.testing.assert_allclose(
            served, model.score_pairs(probe), rtol=0, atol=1e-12
        )
