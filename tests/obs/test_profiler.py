"""Profiler hooks: trainer integration and the trainer's metrics."""

import numpy as np

from repro.core import build_odnet
from repro.obs import RecordingProfiler, use_registry
from repro.train import TrainConfig, Trainer

from tests.conftest import TINY_MODEL_CONFIG


class TestRecordingProfiler:
    def test_trainer_invokes_batch_and_epoch_hooks(self, od_dataset):
        model = build_odnet(od_dataset, TINY_MODEL_CONFIG)
        profiler = RecordingProfiler()
        history = Trainer(
            TrainConfig(epochs=2, seed=0), profiler=profiler
        ).fit(model, od_dataset)

        epochs = [e for e in profiler.events if e["hook"] == "epoch"]
        batches = [e for e in profiler.events if e["hook"] == "batch"]
        assert len(epochs) == 2
        assert len(batches) >= 2
        first = epochs[0]
        assert np.isfinite(first["loss"])
        assert first["grad_norm"] > 0
        assert 0.0 < first["theta"] < 1.0          # ODNET exposes Eq. 8 theta
        assert first["examples_per_sec"] > 0
        assert batches[0]["batch_size"] > 0
        # History mirrors the hook stream.
        assert len(history.grad_norms) == 2
        assert len(history.thetas) == 2
        assert len(history.examples_per_sec) == 2

    def test_grad_norm_skipped_when_unobserved(self, od_dataset):
        model = build_odnet(od_dataset, TINY_MODEL_CONFIG)
        history = Trainer(TrainConfig(epochs=1, seed=0)).fit(model, od_dataset)
        assert history.epoch_losses and np.isfinite(history.final_loss)
        assert history.grad_norms == []            # not computed when disabled


class TestTrainerMetrics:
    def test_trainer_writes_registry(self, od_dataset):
        model = build_odnet(od_dataset, TINY_MODEL_CONFIG)
        with use_registry() as registry:
            Trainer(TrainConfig(epochs=1, seed=0)).fit(model, od_dataset)
        assert registry.counter("train.epochs").value == 1
        assert registry.counter("train.examples").value > 0
        assert registry.histogram("train.grad_norm").count >= 1
        assert np.isfinite(registry.gauge("train.epoch_loss").value)
        assert 0.0 < registry.gauge("train.theta").value < 1.0
