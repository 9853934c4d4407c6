"""Dense float64 tensor kernels: forward and backward passes for every
operation the model needs (conv, pool, relu, sigmoid, bilinear resize,
channel concat).

All operations are pure functions over C-order float64 numpy arrays with
layout [channels, height, width]. Geometry is read from the operands:
convolutions slide one pixel at a time, take their kernel extents from
the weights' shape and only the zero padding as an argument; pools take
non-overlapping 2x2 windows. Backward passes return exact analytic gradients of
sum(grad_output * forward(...)) and are verified against central finite
differences in the test suite.
"""

from __future__ import annotations

import numpy as np


def as_f64(x) -> np.ndarray:
    """Coerce to a C-contiguous float64 array."""
    return np.ascontiguousarray(np.asarray(x, dtype=np.float64))


def _conv_output_size(x: np.ndarray, weights: np.ndarray, bias: np.ndarray,
                      padding: int) -> tuple[int, int]:
    """Check conv2d operand shapes; returns the output extents."""
    if x.ndim != 3:
        raise ValueError(f"conv2d input must be [C,H,W], got {x.ndim} dimensions")
    if weights.ndim != 4:
        raise ValueError(
            f"conv2d weights must be [C_out,C_in,kh,kw], got {weights.ndim} dimensions"
        )
    if weights.shape[1] != x.shape[0]:
        raise ValueError(
            f"conv2d channel mismatch: input has {x.shape[0]} channels "
            f"but weights dim 1 is {weights.shape[1]}"
        )
    if bias.shape != (weights.shape[0],):
        raise ValueError(
            f"conv2d bias shape {bias.shape} does not match "
            f"{weights.shape[0]} output channels"
        )
    if padding < 0:
        raise ValueError(f"conv padding must be non-negative, got {padding}")
    _, in_h, in_w = x.shape
    _, _, kh, kw = weights.shape
    out_h = in_h + 2 * padding - kh + 1
    out_w = in_w + 2 * padding - kw + 1
    if out_h < 1:
        raise ValueError(
            f"conv output height {out_h} < 1 (input height {in_h}, "
            f"kernel {kh}, padding {padding})"
        )
    if out_w < 1:
        raise ValueError(
            f"conv output width {out_w} < 1 (input width {in_w}, "
            f"kernel {kw}, padding {padding})"
        )
    return out_h, out_w


def conv2d(x: np.ndarray, weights: np.ndarray, bias: np.ndarray,
           padding: int) -> np.ndarray:
    """2D cross-correlation of x [C_in,H,W] with weights [C_out,C_in,kh,kw]
    at every offset, after zero-padding x by `padding` on every side.

    Each output element is bias[o] plus the sum over the C_in x kh x kw
    window of elementwise products.
    """
    x = as_f64(x)
    weights = as_f64(weights)
    bias = as_f64(bias)
    out_h, out_w = _conv_output_size(x, weights, bias, padding)

    p = padding
    xp = np.pad(x, ((0, 0), (p, p), (p, p))) if p else x
    out = np.zeros((weights.shape[0], out_h, out_w))
    for ki in range(weights.shape[2]):
        for kj in range(weights.shape[3]):
            patch = xp[:, ki:ki + out_h, kj:kj + out_w]
            out += np.einsum("oc,chw->ohw", weights[:, :, ki, kj], patch)
    out += bias[:, None, None]
    return out


def conv2d_backward(x: np.ndarray, weights: np.ndarray, padding: int,
                    grad_output: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of sum(grad_output * conv2d(x, weights, bias, padding)).

    Returns (grad_input, grad_weights, grad_bias).
    """
    x = as_f64(x)
    weights = as_f64(weights)
    grad_output = as_f64(grad_output)
    out_h, out_w = _conv_output_size(x, weights, np.zeros(weights.shape[0]),
                                     padding)
    if grad_output.shape != (weights.shape[0], out_h, out_w):
        raise ValueError(
            f"conv2d_backward grad_output shape {grad_output.shape} does not "
            f"match output shape {(weights.shape[0], out_h, out_w)}"
        )

    p = padding
    _, in_h, in_w = x.shape
    xp = np.pad(x, ((0, 0), (p, p), (p, p))) if p else x
    grad_xp = np.zeros_like(xp)
    grad_w = np.zeros_like(weights)
    for ki in range(weights.shape[2]):
        for kj in range(weights.shape[3]):
            rows = slice(ki, ki + out_h)
            cols = slice(kj, kj + out_w)
            grad_w[:, :, ki, kj] = np.einsum("ohw,chw->oc", grad_output,
                                             xp[:, rows, cols])
            grad_xp[:, rows, cols] += np.einsum(
                "oc,ohw->chw", weights[:, :, ki, kj], grad_output)
    grad_x = grad_xp[:, p:p + in_h, p:p + in_w] if p else grad_xp
    grad_b = grad_output.sum(axis=(1, 2))
    return grad_x, grad_w, grad_b


def maxpool2d(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2x2 max pooling over non-overlapping windows of [C,H,W]; H and W
    must be even.

    Returns (output, argmax) where argmax holds, per output element, the
    flat row-major index into x of the selected input. Ties break toward
    the smallest flat index, making the backward pass deterministic.
    """
    x = as_f64(x)
    if x.ndim != 3:
        raise ValueError(f"maxpool2d input must be [C,H,W], got {x.ndim} dimensions")
    c, h, w = x.shape
    if h % 2:
        raise ValueError(f"maxpool2d height {h} is odd")
    if w % 2:
        raise ValueError(f"maxpool2d width {w} is odd")
    oh, ow = h // 2, w // 2
    # Window candidates ordered row-major so argmax's first-match rule
    # selects the smallest flat index on ties.
    windows = x.reshape(c, oh, 2, ow, 2).transpose(0, 1, 3, 2, 4).reshape(c, oh, ow, 4)
    k = np.argmax(windows, axis=-1)
    out = np.take_along_axis(windows, k[..., None], axis=-1)[..., 0]
    ci = np.arange(c)[:, None, None]
    ri = 2 * np.arange(oh)[None, :, None] + k // 2
    cj = 2 * np.arange(ow)[None, None, :] + k % 2
    argmax = (ci * h + ri) * w + cj
    return out, argmax


def maxpool2d_backward(argmax: np.ndarray, grad_output: np.ndarray,
                       input_shape: tuple[int, int, int]) -> np.ndarray:
    """Route grad_output entries to their argmax positions in the input."""
    grad_output = as_f64(grad_output)
    if grad_output.shape != argmax.shape:
        raise ValueError(
            f"maxpool2d_backward grad_output shape {grad_output.shape} does "
            f"not match argmax shape {argmax.shape}"
        )
    # bincount sums each target's weights from 0.0 in source order, as
    # np.add.at does, in one pass; windows never overlap, so every sum
    # has at most one term.
    grad_x = np.bincount(argmax.ravel(), weights=grad_output.ravel(),
                         minlength=int(np.prod(input_shape)))
    return grad_x.reshape(input_shape)


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise max(0, v)."""
    return np.maximum(as_f64(x), 0.0)


def relu_backward(x: np.ndarray, grad_output: np.ndarray) -> np.ndarray:
    """Pass gradient where x > 0, zero elsewhere (subgradient 0 at 0)."""
    x = as_f64(x)
    grad_output = as_f64(grad_output)
    if grad_output.shape != x.shape:
        raise ValueError(
            f"relu_backward grad_output shape {grad_output.shape} does not "
            f"match input shape {x.shape}"
        )
    return np.where(x > 0.0, grad_output, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic 1/(1+exp(-v)), evaluated without overflow.

    Outputs are strictly inside (0, 1) for finite inputs.
    """
    x = as_f64(x)
    # exp(-|v|) never overflows: 1/(1+e) for v >= 0 and e/(1+e) below.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0, e) / (1.0 + e)


def sigmoid_backward(probs: np.ndarray, grad_output: np.ndarray) -> np.ndarray:
    """Chain grad_output through the logistic, given the forward outputs."""
    probs = as_f64(probs)
    grad_output = as_f64(grad_output)
    if grad_output.shape != probs.shape:
        raise ValueError(
            f"sigmoid_backward grad_output shape {grad_output.shape} does "
            f"not match probs shape {probs.shape}"
        )
    return grad_output * probs * (1.0 - probs)


def _resize_axis_coords(n_in: int, n_out: int
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Corner-aligned source sampling for one axis: (lo, hi, frac).

    Output index i samples source coordinate i*(n_in-1)/(n_out-1)
    (0 when n_out == 1). The product is formed before the division so
    the last output index lands on exactly n_in-1, preserving corners.
    """
    if n_out < 1:
        raise ValueError(f"resize output extent must be positive, got {n_out}")
    if n_out == 1 or n_in == 1:
        src = np.zeros(n_out)
    else:
        src = (np.arange(n_out) * float(n_in - 1)) / float(n_out - 1)
    lo = np.minimum(np.floor(src).astype(np.int64), n_in - 1)
    hi = np.minimum(lo + 1, n_in - 1)
    return lo, hi, src - lo


def _lerp_last_axis(x: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                    frac: np.ndarray) -> np.ndarray:
    a = x[..., lo]
    # a + frac*(b - a): exact for constant inputs and at frac == 0. In
    # place on the gathered b: two output-sized arrays instead of five.
    out = x[..., hi]
    out -= a
    out *= frac
    out += a
    return out


def _lerp_last_axis_backward(grad: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                             frac: np.ndarray, n_in: int) -> np.ndarray:
    # Each target sums its lo products in increasing i, then its hi
    # products, starting from 0.0: the order and rounding of np.add.at,
    # without its per-element cost. Putting the axis first makes every
    # g[i] and out[j] one contiguous slab.
    g = np.ascontiguousarray(np.moveaxis(grad, -1, 0))
    out = np.zeros((n_in,) + g.shape[1:])
    for i, j in enumerate(lo):
        out[j] += g[i] * (1.0 - frac[i])
    for i, j in enumerate(hi):
        out[j] += g[i] * frac[i]
    return np.moveaxis(out, 0, -1)


def bilinear_resize(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Corner-aligned bilinear resize of [C,h,w] to [C,out_h,out_w].

    Corners are preserved exactly and constant inputs stay constant.
    """
    x = as_f64(x)
    if x.ndim != 3:
        raise ValueError(f"bilinear_resize input must be [C,h,w], got {x.ndim} dimensions")
    _, h, w = x.shape
    rlo, rhi, rfrac = _resize_axis_coords(h, out_h)
    clo, chi, cfrac = _resize_axis_coords(w, out_w)
    rows = _lerp_last_axis(x.transpose(0, 2, 1), rlo, rhi, rfrac)  # [C,w,out_h]
    return _lerp_last_axis(rows.transpose(0, 2, 1), clo, chi, cfrac)


def bilinear_resize_backward(grad_output: np.ndarray, in_h: int,
                             in_w: int) -> np.ndarray:
    """Distribute grad_output [C,out_h,out_w] by the forward's sampling weights."""
    grad_output = as_f64(grad_output)
    if grad_output.ndim != 3:
        raise ValueError(
            f"bilinear_resize_backward grad must be [C,out_h,out_w], "
            f"got {grad_output.ndim} dimensions"
        )
    _, out_h, out_w = grad_output.shape
    rlo, rhi, rfrac = _resize_axis_coords(in_h, out_h)
    clo, chi, cfrac = _resize_axis_coords(in_w, out_w)
    gc = _lerp_last_axis_backward(grad_output, clo, chi, cfrac, in_w)  # [C,out_h,w]
    return _lerp_last_axis_backward(gc.transpose(0, 2, 1), rlo, rhi, rfrac,
                                    in_h).transpose(0, 2, 1)


def concat_channels(inputs: list[np.ndarray]) -> np.ndarray:
    """Stack [C_k,H,W] inputs along the channel axis in argument order."""
    if not inputs:
        raise ValueError("concat_channels requires at least one input")
    arrs = [as_f64(a) for a in inputs]
    spatial = arrs[0].shape[1:]
    for k, a in enumerate(arrs):
        if a.ndim != 3:
            raise ValueError(f"concat_channels input {k} must be [C,H,W]")
        if a.shape[1:] != spatial:
            raise ValueError(
                f"concat_channels input {k} has spatial extents "
                f"{a.shape[1:]}, expected {spatial}"
            )
    return np.concatenate(arrs, axis=0)


def split_channels(x: np.ndarray, sizes: list[int]) -> list[np.ndarray]:
    """Inverse of concat_channels: split along the channel axis by sizes."""
    x = as_f64(x)
    if sum(sizes) != x.shape[0]:
        raise ValueError(
            f"split_channels sizes sum to {sum(sizes)}, input has "
            f"{x.shape[0]} channels"
        )
    out, offset = [], 0
    for c in sizes:
        out.append(x[offset:offset + c].copy())
        offset += c
    return out
