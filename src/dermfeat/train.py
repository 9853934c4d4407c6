"""Deterministic mini-batch training of the hypercolumn network under the
smoothed F1 loss.

Each epoch visits the samples in a seed-shuffled order and partitions
them into batches (the last short batch is kept). A batch is scored with
fuzzy counts pooled over all of its pixels per class, and parameters
follow stochastic gradient descent with classical momentum. Serial
execution is bit-deterministic for a fixed seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import model
from .data import Sample
from .loss import LossConfig, f1_loss, f1_loss_grad
from .model import EncoderConfig, ModelParams
from .superpixels import labels_to_mask


@dataclass
class TrainConfig:
    batch_size: int = 12
    epochs: int = 5
    learning_rate: float = 0.06
    momentum: float = 0.9
    seed: int = 0
    eps: float = 1.0
    encoder: EncoderConfig = field(default_factory=EncoderConfig)

    def validate(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.learning_rate < 0.0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")


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


# Divergence makes NaNs (inf - inf) inside the ops; each one reaches a
# tensor that _check_finite names, so numpy's warning would only be noise.
@np.errstate(invalid="ignore")
def train(dataset: Sequence[Sample],
          cfg: TrainConfig) -> tuple[ModelParams, TrainReport]:
    """Run the full training loop; returns (params, per-epoch report)."""
    cfg.validate()
    if not dataset:
        raise ValueError("training dataset is empty")
    # A batch stacks its predictions, so every image needs the same shape.
    shape = dataset[0].image.shape
    truths = []
    for sample in dataset:
        try:
            cfg.encoder.check_image(sample.image)
        except ValueError as exc:
            raise ValueError(f"sample {sample.name!r}: {exc}") from None
        if sample.image.shape != shape:
            raise ValueError(f"sample {sample.name!r}: image shape "
                             f"{sample.image.shape} differs from the first "
                             f"sample's {shape}")
        truths.append(labels_to_mask(sample.smap, sample.labels))

    params = model.init_params(cfg.encoder, cfg.seed)
    velocity = {name: np.zeros_like(p) for name, p in params.items()}
    lcfg = LossConfig(eps=cfg.eps)
    # The seeded shuffle is identical every epoch so the batch partition is
    # stable: a zero learning-rate run then reports the same loss each epoch.
    order = np.random.default_rng(cfg.seed).permutation(len(dataset))

    stats = []
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        batch_losses = []
        for batch, start in enumerate(range(0, len(dataset), cfg.batch_size), 1):
            idx = order[start:start + cfg.batch_size]
            caches = []
            preds = []
            for i in idx:
                probs, cache = model.forward(params, cfg.encoder,
                                             dataset[i].image)
                preds.append(probs)
                caches.append(cache)
            _check_finite(epoch, batch, {
                f"prediction for {dataset[i].name!r}": probs
                for i, probs in zip(idx, preds)})
            pred_stack = np.stack(preds)
            truth_stack = np.stack([truths[i] for i in idx])
            batch_loss, _ = f1_loss(pred_stack, truth_stack, lcfg)
            grad_stack = f1_loss_grad(pred_stack, truth_stack, lcfg)

            grad_total = None
            for cache, grad_probs in zip(caches, grad_stack):
                grads, _ = model.backward(params, cfg.encoder, cache, grad_probs)
                if grad_total is None:
                    grad_total = grads
                else:
                    for name, g in grads.items():
                        grad_total[name] += g
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
