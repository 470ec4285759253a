"""``train``: ``Trainer.fit`` on 1 000 users x 200 cities.

The same Eqs. 1-11 as serving, through the Tensor autograd path and
``optim.Adam`` — the model's second implementation — so a serving
speed-up bought by diverging from, or slowing, the training path is
caught.  Doubles as the reproduction of Table V (training efficiency).

An operation is one optimiser step (a batch of up to 128 samples, 55 to
the epoch): ``fit`` is called one epoch at a time until the time is up,
and the steps of all those epochs, in order, are cut into rounds of
about a second.  The first epoch warms up (it runs ~20 % slower) and is
not measured.  Step times come from the trainer's own
``Profiler.on_batch`` hook.
"""

from __future__ import annotations

import gc
import itertools
import math
import time

import numpy as np

from repro.core import ODNETConfig, build_odnet
from repro.obs.profiler import Profiler
from repro.optim import Adam
from repro.tensor import Tensor, concat
from repro.train import TrainConfig, Trainer

from . import check
from .measure import (
    ROUND_S, LoopResult, end_to_end_metrics, per_round, timed,
)
from .stats import cpu_seconds
from .trace import SpanRecorder
from .world import FULL, Scale, build_dataset

__all__ = ["run", "trace"]

MODULES_EVERY = 5  # the per-module forward runs on every fifth staged batch


class _StepClock(Profiler):
    """Reads the wall and CPU clocks after every optimiser step, through
    the trainer's hook."""

    def __init__(self) -> None:
        self.stamps = [(time.perf_counter(), cpu_seconds())]

    def on_batch(self, epoch: int, batch_index: int, **stats) -> None:
        self.stamps.append((time.perf_counter(), cpu_seconds()))

    def steps(self) -> np.ndarray:
        """One row per step: (wall seconds, CPU seconds)."""
        return np.diff(np.array(self.stamps), axis=0)


def _cut_into_rounds(loop: LoopResult, steps: np.ndarray) -> None:
    """Consecutive steps make a round once they add up to ``ROUND_S``;
    what is left over at the end joins the last round."""
    ends = []
    elapsed = 0.0
    for index, wall_s in enumerate(steps[:, 0]):
        elapsed += wall_s
        if elapsed >= ROUND_S:
            ends.append(index + 1)
            elapsed = 0.0
    ends[-1:] = [len(steps)]
    for chunk in np.split(steps, ends[:-1]):
        loop.latencies_ms.append((chunk[:, 0] * 1000.0).tolist())
        loop.rates.append(len(chunk) / chunk[:, 0].sum())
        loop.cpu_s.append(chunk[:, 1].sum())


def _optimizer(model, config: TrainConfig) -> Adam:
    """The optimiser ``Trainer.fit`` builds."""
    return Adam(
        model.parameters(), lr=config.learning_rate,
        weight_decay=config.weight_decay, grad_clip=config.grad_clip,
    )


def _batches(dataset, config: TrainConfig):
    """The batch iterator ``Trainer.fit`` draws from."""
    return iter(dataset.iter_batches(
        "train", batch_size=config.batch_size,
        rng=np.random.default_rng(config.seed),
    ))


def _first_step(model, dataset, config: TrainConfig) -> None:
    """One staged optimiser step — the first successful operation."""
    optimizer = _optimizer(model, config)
    model.train()
    loss = model.loss(next(_batches(dataset, config)))
    if not math.isfinite(loss.item()):
        raise RuntimeError("first training step produced a non-finite loss")
    loss.backward()
    optimizer.step()


def _first_step_done(seed: int, scale: Scale):
    dataset = build_dataset(seed, scale.train_users, scale.cities)
    model = build_odnet(dataset, ODNETConfig(seed=seed))
    _first_step(model, dataset, TrainConfig(seed=seed))
    return model, dataset


def _set_up(seed: int, scale: Scale):
    setups_s = []
    built = None
    for _ in range(scale.setup_repeats):
        built = None
        gc.collect()
        built, elapsed = timed(lambda: _first_step_done(seed, scale))
        setups_s.append(elapsed)
    return (*built, setups_s)


def _fit_epoch(model, dataset, seed: int, epoch: int, clock=None):
    # A fresh seed per epoch: every fit() call would otherwise replay
    # the same shuffle.
    return Trainer(
        TrainConfig(epochs=1, seed=seed + epoch), profiler=clock
    ).fit(model, dataset)


def run(seed: int, seconds: float, scale: Scale = FULL) -> dict:
    model, dataset, setups_s = _set_up(seed, scale)
    losses = [_fit_epoch(model, dataset, seed, 0).final_loss]   # warm-up
    loop = LoopResult()
    steps = []
    examples_per_s = []
    start = time.perf_counter()
    epoch = 0
    while time.perf_counter() - start < seconds:
        epoch += 1
        clock = _StepClock()
        history = _fit_epoch(model, dataset, seed, epoch, clock)
        steps.append(clock.steps())
        loop.attempted += len(steps[-1]) + history.nonfinite_batches
        loop.failed += history.nonfinite_batches
        losses.append(history.final_loss)
        examples_per_s.extend(history.examples_per_sec)
    _cut_into_rounds(loop, np.concatenate(steps))
    problems = check.check_training(losses)
    return {
        "correct": not problems and loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": end_to_end_metrics(loop, setups_s),
        "problems": problems,
        "extras": {
            "train_samples": len(dataset.samples("train")),
            "measured_epochs": epoch,
            "measured_operations": loop.succeeded,
            "epoch_losses": losses,
            "train_examples_per_s": float(np.median(examples_per_s)),
            "setup_samples_s": setups_s,
            "per_round": per_round(loop),
        },
    }


# ----------------------------------------------------------------------
def _staged_epoch(recorder: SpanRecorder, model, dataset,
                  config: TrainConfig) -> tuple[int, int, float]:
    """One epoch through the same calls ``Trainer.fit`` makes, each in
    its own span; returns (examples, non-finite batches, seconds)."""
    span = recorder.span
    optimizer = _optimizer(model, config)
    batches = _batches(dataset, config)
    model.train()
    examples = nonfinite = 0
    probe_s = 0.0
    start = time.perf_counter()
    for index in itertools.count():
        fetch_start = time.perf_counter()
        batch = next(batches, None)
        if batch is None:        # the exhausted fetch is not a batch
            break
        recorder.add("dataset.iter_batches", fetch_start,
                     time.perf_counter(), index)
        optimizer.zero_grad()
        with span("odnet.loss_forward", index):
            loss = model.loss(batch)
            value = loss.item()
        if not math.isfinite(value):
            nonfinite += 1
            continue
        with span("tensor.backward", index):
            loss.backward()
        with span("adam.step", index):
            optimizer.step()
        examples += len(batch)
        if index % MODULES_EVERY == 0:
            probe_start = time.perf_counter()
            _forward_by_module(recorder, model, batch, index)
            probe_s += time.perf_counter() - probe_start
    return examples, nonfinite, time.perf_counter() - start - probe_s


def _forward_by_module(recorder: SpanRecorder, model, batch,
                       index: int) -> None:
    """The forward pass again, module by module (tape on, as in
    training; nothing is back-propagated)."""
    span = recorder.span
    with span("odnet.forward", index):
        model.forward(batch)
    with span("forward.by_module", index):
        with span("hsgc.node_embeddings"):
            users_o, cities_o = model.origin_hsgc.node_embeddings()
            users_d, cities_d = model.dest_hsgc.node_embeddings()
        with span("pec.aware_query"):
            q_o = model.origin_pec.aware_query(
                users_o, cities_o, batch, batch.long_origins,
                batch.short_origins, batch.candidate_origin, batch.xst_o,
            )
            q_d = model.dest_pec.aware_query(
                users_d, cities_d, batch, batch.long_destinations,
                batch.short_destinations, batch.candidate_destination,
                batch.xst_d,
            )
        joint_query = concat(
            [q_o, q_d, Tensor(batch.pair_features)], axis=-1
        )
        with span("mmoe.forward"):
            model.joint(joint_query)


def trace(seed: int, seconds: float, recorder: SpanRecorder,
          scale: Scale = FULL) -> dict:
    """A warm-up epoch, one ``fit`` epoch, one staged epoch.

    ``seconds`` is not used: the unit of work is the epoch.
    """
    model, dataset, _ = _set_up(seed, scale)
    _fit_epoch(model, dataset, seed, 0)
    fit = _fit_epoch(model, dataset, seed, 1)
    examples, nonfinite, staged_s = _staged_epoch(
        recorder, model, dataset, TrainConfig(seed=seed + 2)
    )
    staged_rate = examples / staged_s
    fit_rate = fit.examples_per_sec[0]
    mean = recorder.mean_ms
    modules = (mean("hsgc.node_embeddings") + mean("pec.aware_query")
               + mean("mmoe.forward"))
    steps = len(recorder.named("adam.step"))
    metrics = {
        "dataset.iter_batches_ms": (mean("dataset.iter_batches"), "ms"),
        "odnet.loss_forward_ms": (mean("odnet.loss_forward"), "ms"),
        "tensor.backward_ms": (mean("tensor.backward"), "ms"),
        "adam.step_ms": (mean("adam.step"), "ms"),
        "hsgc.node_embeddings_ms": (mean("hsgc.node_embeddings"), "ms"),
        "pec.aware_query_ms": (mean("pec.aware_query"), "ms"),
        "mmoe.forward_ms": (mean("mmoe.forward"), "ms"),
        "odnet.forward_self_ms": (mean("odnet.forward") - modules, "ms"),
        "train.examples_per_s": (fit_rate, "1/s"),
        "train.staged_vs_fit_pct":
            ((staged_rate - fit_rate) / fit_rate * 100.0, "%"),
    }
    failed = nonfinite + fit.nonfinite_batches
    return {
        "correct": failed == 0,
        "attempted": steps + nonfinite,
        "failed": failed,
        "metrics": metrics,
        "problems": [f"{failed} non-finite batches"] if failed else [],
        "extras": {"train_samples": len(dataset.samples("train")),
                   "staged_steps": steps},
    }
