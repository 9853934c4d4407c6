"""Deterministic mini-batch training of the hypercolumn network under the
smoothed F1 loss.

Each epoch visits the samples in a seed-shuffled order and partitions
them into batches (the last short batch is kept). A batch is scored with
fuzzy counts pooled over all of its pixels per class, and parameters
follow stochastic gradient descent with classical momentum.

Only the loss couples a batch's images, so each image's forward, and its
backward once the loss gradient is known, is independent work. image_map,
the one owner of image threads, runs images of at least
PARALLEL_MIN_PIXELS pixels on threads (numpy releases the interpreter
lock inside BLAS), one per CPU in the process's affinity, and smaller
ones on the calling thread alone. The gradients are summed in image order
either way, so a fixed seed gives the same bytes on any number of threads.
"""

from __future__ import annotations

import contextlib
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import model
from .data import Sample, input_image
from .loss import f1_loss_grad
from .model import EncoderConfig, ModelParams

# Images of at least this many pixels run on a thread per CPU, smaller
# ones serially. On 2 CPUs with one BLAS thread (CHANGES.md has the runs),
# threads cost 64 px training throughput, and threading 128 px images
# raised infer-128's peak memory by 9%; at 256 px a batch's forward and
# backward ran ~1.7x faster.
PARALLEL_MIN_PIXELS = 192 * 192


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters; construction checks their ranges."""

    batch_size: int = 12
    epochs: int = 5
    learning_rate: float = 0.06
    momentum: float = 0.9
    seed: int = 0
    eps: float = 1.0
    encoder: EncoderConfig = field(default_factory=EncoderConfig)

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not self.learning_rate >= 0.0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.eps > 0.0:
            raise ValueError(f"eps must be > 0, got {self.eps}")
        for name in ("learning_rate", "eps"):
            if math.isinf(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


@dataclass
class EpochStats:
    epoch: int
    mean_batch_loss: float
    wall_time_s: float


@dataclass
class TrainReport:
    epoch_stats: list[EpochStats]

    def losses(self) -> list[float]:
        return [e.mean_batch_loss for e in self.epoch_stats]

    def to_json_dict(self) -> dict:
        """Report payload without wall times, so report files stay
        byte-reproducible across reruns."""
        return {"epochs": [{"epoch": e.epoch, "mean_batch_loss": e.mean_batch_loss}
                           for e in self.epoch_stats]}


def _check_finite(epoch: int, batch: int, tensors: dict) -> None:
    """Fail fast on divergence, naming the first non-finite tensor."""
    for name, value in tensors.items():
        if not np.isfinite(value).all():
            raise FloatingPointError(f"training diverged at epoch {epoch}, "
                                     f"batch {batch}: {name} is not finite")


@contextlib.contextmanager
def image_map(pixels: int):
    """Yields map(fn, items), which yields fn(item) for each item of the
    sequence `items` of images of `pixels` pixels each, in order.

    Images of at least PARALLEL_MIN_PIXELS run in rounds of one item per
    CPU the process may run on; smaller ones run on the calling thread
    alone. The calling thread runs each round's first item and pool
    threads the rest; a pool thread starts only when an item finds none
    idle, so a round of n items starts at most n - 1. A round's results
    are yielded once all of it is done, and the next round starts when
    the caller asks for its first result, so a caller that folds each
    result in holds one round's results at a time. Every item runs under
    numpy's error state as the caller had it when it asked for the first
    result. The first failure in item order is raised, as a serial loop
    would raise it, and no later round starts. The pool is shut down when
    the context exits, however it exits.
    """
    if pixels < PARALLEL_MIN_PIXELS:
        workers = 1
    else:
        # sched_getaffinity is Linux-only; elsewhere every CPU counts.
        workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    pool = ThreadPoolExecutor(workers - 1) if workers > 1 else None

    def map_items(fn, items):
        state = np.geterr()

        def run(item):
            # A fresh errstate per call: numpy 1.x keeps the state it
            # replaced on the instance, so one is not safe across threads.
            with np.errstate(**state):
                return fn(item)

        for start in range(0, len(items), workers):
            first, *rest = items[start:start + workers]
            futures = [pool.submit(run, item) for item in rest]
            try:
                result = run(first)
            finally:
                wait(futures)
            yield result
            for f in futures:
                yield f.result()

    try:
        yield map_items
    finally:
        if pool is not None:
            pool.shutdown()


# Divergence makes infs (a BLAS matmul overflows) and NaNs (inf - inf)
# inside the ops; each one reaches a tensor that _check_finite names, so
# numpy's warning would only be noise.
@np.errstate(over="ignore", invalid="ignore")
def train(dataset: Sequence[Sample],
          cfg: TrainConfig) -> tuple[ModelParams, TrainReport]:
    """Run the full training loop; returns (params, per-epoch report)."""
    if not dataset:
        raise ValueError("training dataset is empty")
    # A batch stacks its predictions, so every image needs the same shape.
    shape = dataset[0].image.shape
    for sample in dataset:
        try:
            cfg.encoder.check_image(sample.image)
        except ValueError as exc:
            raise ValueError(f"sample {sample.name!r}: {exc}") from None
        if sample.image.shape != shape:
            raise ValueError(f"sample {sample.name!r}: image shape "
                             f"{sample.image.shape} differs from the first "
                             f"sample's {shape}")
        # input_image would scale any other dtype by 1/255 all the same.
        if sample.image.dtype != np.uint8:
            raise ValueError(f"sample {sample.name!r}: image dtype "
                             f"{sample.image.dtype} is not the stored uint8")

    params = model.init_params(cfg.encoder, cfg.seed)
    velocity = {name: np.zeros_like(p) for name, p in params.items()}
    # The seeded shuffle is identical every epoch so the batch partition is
    # stable: a zero learning-rate run then reports the same loss each epoch.
    order = np.random.default_rng(cfg.seed).permutation(len(dataset))

    stats = []
    with image_map(shape[1] * shape[2]) as each:
        for epoch in range(1, cfg.epochs + 1):
            t0 = time.perf_counter()
            batch_losses = []
            for batch, start in enumerate(range(0, len(dataset), cfg.batch_size), 1):
                idx = order[start:start + cfg.batch_size]
                # Each image is made float64 in its own forward item, and
                # its cache holds it until the batch's backward is done.
                preds, caches = zip(*each(lambda i: model.forward(
                    params, cfg.encoder, input_image(dataset[i].image)), idx))
                _check_finite(epoch, batch, {
                    f"prediction for {dataset[i].name!r}": probs
                    for i, probs in zip(idx, preds)})
                # Both stacks are temporaries, freed before the backward.
                batch_loss, _, grad_stack = f1_loss_grad(
                    np.stack(preds),
                    np.stack([dataset[i].truth for i in idx]),
                    cfg.eps)

                grad_total = {name: np.zeros_like(p) for name, p in params.items()}
                for grads in each(lambda j: model.backward(
                        params, cfg.encoder, caches[j], grad_stack[j])[0],
                        range(len(idx))):
                    for name, g in grads.items():
                        grad_total[name] += g
                # Not held through the next batch's forward. grad_stack
                # stays: freeing it too let malloc trim the heap top, and
                # the next forward faulted it back in (5.7x the minor
                # page faults per 64 px train).
                del preds, caches
                for p, v, g in zip(params.values(), velocity.values(),
                                   grad_total.values()):
                    v *= cfg.momentum
                    v -= cfg.learning_rate * g
                    p += v
                _check_finite(epoch, batch, {"batch loss": batch_loss, **params})
                batch_losses.append(batch_loss)
            stats.append(EpochStats(epoch=epoch,
                                    mean_batch_loss=float(np.mean(batch_losses)),
                                    wall_time_s=time.perf_counter() - t0))
    return params, TrainReport(epoch_stats=stats)


def predict(params: ModelParams, encoder: EncoderConfig,
            image: np.ndarray) -> np.ndarray:
    """Forward pass only; returns [4,H,W] probabilities in (0,1)."""
    probs, _ = model.forward(params, encoder, image)
    return probs
