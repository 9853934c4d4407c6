"""Fuzzy confusion counts and the smoothed F1 / dice losses with
analytic gradients.

The per-class score is 2*TP / (2*TP + FP + FN + eps) with fuzzy counts
summed over pixels: TP = sum(p*t), FP = sum(p*(1-t)), FN = sum((1-p)*t).
The multi-class loss is one minus the mean score over the four classes;
eps (default 1) sits in the denominator only, so an image with empty
ground truth keeps a nonzero loss floor even for a perfect prediction.

Inputs may be a single volume [C,H,W] or a batch [B,C,H,W]; a batch is
scored with counts pooled over all of its pixels per class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ops import as_f64
from .superpixels import CLASS_COUNT


@dataclass(frozen=True)
class LossConfig:
    eps: float = 1.0
    class_count: int = CLASS_COUNT

    def __post_init__(self):
        if self.eps < 0.0:
            raise ValueError(f"loss eps must be non-negative, got {self.eps}")
        if self.class_count < 1:
            raise ValueError(f"class_count must be positive, got {self.class_count}")


@dataclass
class LossBreakdown:
    """Per-class fuzzy counts, per-class scores, and the scalar loss."""

    tp: np.ndarray
    fp: np.ndarray
    fn: np.ndarray
    f1_term: np.ndarray
    loss: float


def _validate_pair(pred: np.ndarray, truth: np.ndarray,
                   class_count: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Validate shapes/ranges; returns (pred, truth, channel_axis)."""
    pred = as_f64(pred)
    truth = as_f64(truth)
    if pred.shape != truth.shape:
        raise ValueError(f"pred shape {pred.shape} != truth shape {truth.shape}")
    if pred.ndim == 3:
        axis = 0
    elif pred.ndim == 4:
        axis = 1
    else:
        raise ValueError(f"expected [C,H,W] or [B,C,H,W], got {pred.ndim} dimensions")
    if pred.shape[axis] != class_count:
        raise ValueError(f"expected {class_count} channels, got {pred.shape[axis]}")
    if not np.isfinite(pred).all():
        raise ValueError("predicted probabilities must be finite")
    if pred.min() < 0.0 or pred.max() > 1.0:
        raise ValueError("predicted probabilities must lie in [0, 1]")
    if not np.isin(truth, (0.0, 1.0)).all():
        raise ValueError("truth mask must be binary")
    return pred, truth, axis


def _class_counts(pred: np.ndarray, truth: np.ndarray, axis: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fuzzy (tp, fp, fn) per channel, summed over every other axis."""
    reduce_axes = tuple(a for a in range(pred.ndim) if a != axis)
    tp = (pred * truth).sum(axis=reduce_axes)
    fp = (pred * (1.0 - truth)).sum(axis=reduce_axes)
    fn = ((1.0 - pred) * truth).sum(axis=reduce_axes)
    return tp, fp, fn


def fuzzy_counts(pred: np.ndarray, truth: np.ndarray,
                 channel: int) -> tuple[float, float, float]:
    """Fuzzy (tp, fp, fn) for one class channel, summed over its pixels."""
    pred = as_f64(pred)
    if pred.ndim not in (3, 4):
        raise ValueError(f"expected [C,H,W] or [B,C,H,W], got {pred.ndim} dimensions")
    channels = pred.shape[0] if pred.ndim == 3 else pred.shape[1]
    pred, truth, axis = _validate_pair(pred, truth, channels)
    if not 0 <= channel < channels:
        raise ValueError(f"channel {channel} outside [0, {channels})")
    tp, fp, fn = _class_counts(pred, truth, axis)
    return float(tp[channel]), float(fp[channel]), float(fn[channel])


def _per_class_state(pred, truth, cfg):
    pred, truth, axis = _validate_pair(pred, truth, cfg.class_count)
    tp, fp, fn = _class_counts(pred, truth, axis)
    denom = 2.0 * tp + fp + fn + cfg.eps
    return pred, truth, axis, tp, fp, fn, denom


def f1_loss(pred: np.ndarray, truth: np.ndarray,
            cfg: LossConfig = LossConfig()) -> tuple[float, LossBreakdown]:
    """Smoothed multi-class F1 loss: 1 - mean_c 2tp_c/(2tp_c+fp_c+fn_c+eps)."""
    _, _, _, tp, fp, fn, denom = _per_class_state(pred, truth, cfg)
    terms = 2.0 * tp / denom
    loss = float(1.0 - terms.mean())
    return loss, LossBreakdown(tp=tp, fp=fp, fn=fn, f1_term=terms, loss=loss)


def f1_loss_grad(pred: np.ndarray, truth: np.ndarray,
                 cfg: LossConfig = LossConfig()) -> np.ndarray:
    """d(f1_loss)/d(pred), same shape as pred.

    With D_c = 2tp_c + fp_c + fn_c + eps (equivalently sum(p) + sum(t) + eps,
    so dD_c/dp_j = 1), the per-class score derivative is
    d(2tp/D)/dp_j = 2*t_j/D - 2*tp/D^2; the loss scales it by -1/class_count.
    """
    pred, truth, axis, tp, fp, fn, denom = _per_class_state(pred, truth, cfg)
    shape = [1] * pred.ndim
    shape[axis] = cfg.class_count
    lin = (2.0 / denom).reshape(shape)
    const = (2.0 * tp / denom ** 2).reshape(shape)
    return -(truth * lin - const) / cfg.class_count


def dice_loss(pred: np.ndarray, truth: np.ndarray,
              cfg: LossConfig = LossConfig()) -> tuple[float, np.ndarray]:
    """Smoothed dice loss for a single-channel [1,H,W] mask, with gradient.

    This is the F1 loss with one class, so the dice term equals the
    per-class F1 term exactly.
    """
    single = LossConfig(eps=cfg.eps, class_count=1)
    return f1_loss(pred, truth, single)[0], f1_loss_grad(pred, truth, single)
