"""Reference implementations that tests compare the fast code against."""

import math

import numpy as np

from dermfeat.metrics import _check_scores_labels


def auroc_oracle(scores, labels) -> float:
    """Exhaustive O(P*N) pair enumeration with 0.5 credit per tie."""
    scores, labels = _check_scores_labels(scores, labels)
    if scores.size > 10 ** 4:
        raise ValueError(f"oracle limited to 1e4 samples, got {scores.size}")
    pos = scores[labels == 1.0]
    neg = scores[labels == 0.0]
    if pos.size == 0 or neg.size == 0:
        return math.nan
    wins = np.count_nonzero(pos[:, None] > neg[None, :])
    ties = np.count_nonzero(pos[:, None] == neg[None, :])
    return float((wins + 0.5 * ties) / (pos.size * neg.size))


def maxpool2d_oracle(x):
    """The argmax 2x2 pool: (output, argmax), where argmax holds, per
    output element, the flat row-major index into x [C,H,W] of the input
    it selects. Ties break toward the smallest flat index."""
    c, h, w = x.shape
    oh, ow = h // 2, w // 2
    # Window candidates ordered row-major, so argmax's first-match rule
    # selects the smallest flat index on ties.
    windows = x.reshape(c, oh, 2, ow, 2).transpose(0, 1, 3, 2, 4).reshape(c, oh, ow, 4)
    k = np.argmax(windows, axis=-1)
    out = np.take_along_axis(windows, k[..., None], axis=-1)[..., 0]
    ci = np.arange(c)[:, None, None]
    ri = 2 * np.arange(oh)[None, :, None] + k // 2
    cj = 2 * np.arange(ow)[None, None, :] + k % 2
    return out, (ci * h + ri) * w + cj


def maxpool2d_backward_oracle(argmax, grad_output, input_shape):
    """Route each grad_output entry to its argmax position with np.add.at,
    summing from 0.0."""
    grad_x = np.zeros(math.prod(input_shape))
    np.add.at(grad_x, argmax.ravel(), grad_output.ravel())
    return grad_x.reshape(input_shape)


def _resize_coords(n_in, n_out):
    """Corner-aligned sampling of one resize axis: (lo, hi, frac), where
    output i reads source coordinate i*(n_in-1)/(n_out-1), 0 when
    n_out == 1. np.linspace forms the coordinates, not ops' formula."""
    src = np.linspace(0.0, n_in - 1, n_out)
    lo = np.floor(src).astype(np.int64)
    hi = np.minimum(lo + 1, n_in - 1)
    return lo, hi, src - lo


def _lerp(x, n_out):
    """Out-of-place a + frac*(b - a) along the last axis."""
    lo, hi, frac = _resize_coords(x.shape[-1], n_out)
    a = x[..., lo]
    return a + frac * (x[..., hi] - a)


def resize_oracle(x, out_h, out_w):
    """ops.bilinear_resize of [C,h,w] by two lerps, rows then columns;
    the fast code matches it to rounding."""
    rows = _lerp(x.transpose(0, 2, 1), out_h).transpose(0, 2, 1)
    return _lerp(rows, out_w)


def lerp_backward_oracle(grad, lo, hi, frac, n_in):
    """np.add.at scatter along the last axis: the resize backward of one
    axis, which the fast code must match to rounding."""
    out = np.zeros(grad.shape[:-1] + (n_in,))
    np.add.at(out, (..., lo), grad * (1.0 - frac))
    np.add.at(out, (..., hi), grad * frac)
    return out


def resize_backward_oracle(grad, in_h, in_w):
    """Gradient of ops.bilinear_resize for an input [C,in_h,in_w] by
    np.add.at, columns then rows; the fast code matches it to rounding."""
    _, out_h, out_w = grad.shape
    rlo, rhi, rfrac = _resize_coords(in_h, out_h)
    clo, chi, cfrac = _resize_coords(in_w, out_w)
    gc = lerp_backward_oracle(grad, clo, chi, cfrac, in_w)
    return lerp_backward_oracle(gc.transpose(0, 2, 1), rlo, rhi, rfrac,
                                in_h).transpose(0, 2, 1)
