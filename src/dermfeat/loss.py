"""The smoothed F1 loss with its analytic gradient.

The per-class score is 2*TP / (2*TP + FP + FN + eps) with fuzzy counts
summed over pixels: TP = sum(p*t), FP = sum(p*(1-t)), FN = sum((1-p)*t).
The loss is one minus the mean score over the input's class channels;
eps (default 1, must be positive) sits in the denominator only, so an
image with empty ground truth keeps a nonzero loss floor even for a
perfect prediction.

Inputs may be a single volume [C,H,W] or a batch [B,C,H,W]; a batch is
scored with counts pooled over all of its pixels per class. The truth
may be of any dtype that holds 0/1, uint8 masks read as stored; each 0/1
casts exactly. `f1_loss` checks the pair and counts once; `f1_loss_grad`
calls it and forms the gradient from its counts, so one call per batch
gives the loss, the breakdown and the gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ops import as_f64


@dataclass
class LossBreakdown:
    """Per-class fuzzy counts and per-class scores."""

    tp: np.ndarray
    fp: np.ndarray
    fn: np.ndarray
    f1_term: np.ndarray


def f1_loss(pred: np.ndarray, truth: np.ndarray,
            eps: float = 1.0) -> tuple[float, LossBreakdown]:
    """Smoothed multi-class F1 loss: 1 - mean_c 2tp_c/(2tp_c+fp_c+fn_c+eps)."""
    pred = as_f64(pred)
    truth = np.asarray(truth)
    # eps = 0 makes 0/0 for a class with no positives and no prediction.
    if not eps > 0.0:
        raise ValueError(f"loss eps must be positive, got {eps}")
    if pred.shape != truth.shape:
        raise ValueError(f"pred shape {pred.shape} != truth shape {truth.shape}")
    if pred.ndim not in (3, 4):
        raise ValueError(f"expected [C,H,W] or [B,C,H,W], got {pred.ndim} dimensions")
    if not np.isfinite(pred).all():
        raise ValueError("predicted probabilities must be finite")
    if pred.min() < 0.0 or pred.max() > 1.0:
        raise ValueError("predicted probabilities must lie in [0, 1]")
    if not ((truth == 0) | (truth == 1)).all():
        raise ValueError("truth mask must be binary")
    reduce_axes = tuple(a for a in range(pred.ndim) if a != pred.ndim - 3)
    tp = (pred * truth).sum(axis=reduce_axes)
    fp = (pred * (1.0 - truth)).sum(axis=reduce_axes)
    fn = ((1.0 - pred) * truth).sum(axis=reduce_axes)
    terms = 2.0 * tp / (2.0 * tp + fp + fn + eps)
    return float(1.0 - terms.mean()), LossBreakdown(tp, fp, fn, terms)


def f1_loss_grad(pred: np.ndarray, truth: np.ndarray, eps: float = 1.0
                 ) -> tuple[float, LossBreakdown, np.ndarray]:
    """f1_loss's (loss, breakdown) and d(loss)/d(pred), same shape as pred.

    With D_c = 2tp_c + fp_c + fn_c + eps (equivalently sum(p) + sum(t) + eps,
    so dD_c/dp_j = 1), the per-class score derivative is
    d(2tp/D)/dp_j = 2*t_j/D - 2*tp/D^2; the loss scales it by -1/C for C
    class channels. The counts come from one f1_loss call.

    f1_loss has checked that truth is binary, so each class's gradient
    takes one of two values, formed per class as -(t*lin - const)/C at
    t = 1 and t = 0 and then selected per pixel: the bytes of the
    expression evaluated pixel by pixel, -0.0 included.
    """
    loss, bd = f1_loss(pred, truth, eps)
    truth = np.asarray(truth)
    classes = bd.tp.size
    denom = 2.0 * bd.tp + bd.fp + bd.fn + eps
    lin = 2.0 / denom
    const = 2.0 * bd.tp / denom ** 2
    shape = [1] * truth.ndim
    shape[truth.ndim - 3] = classes
    on = (-(1.0 * lin - const) / classes).reshape(shape)
    off = (-(0.0 * lin - const) / classes).reshape(shape)
    return loss, bd, np.where(truth == 1.0, on, off)
