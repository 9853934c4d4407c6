"""Dense float64 tensor kernels: forward and backward passes for every
operation the model needs (conv, pool, relu, sigmoid, bilinear resize),
plus concat and split of the head weight along its input channels.

All operations are pure functions over C-order float64 numpy arrays with
layout [channels, height, width]. Concat and split act on the C_in axis
of a [C_out,C_in,kh,kw] weight: the model splits its 1x1 head weight per
tap, so it evaluates the hypercolumn head tap by tap and never
concatenates the resized taps themselves. Geometry is read from the
operands: convolutions slide one pixel at a time, take their kernel
extents from the weights' shape and only the zero padding as an argument;
pools take non-overlapping 2x2 windows and send each window's gradient
to its first max in row-major order. The bilinear resize is two products
with its per-axis sampling matrices, and its backward the same two with
their transposes. Backward passes return exact analytic gradients of
sum(grad_output * forward(...)) and are verified against central finite
differences in the test suite.

Convolution is lowered to BLAS (Chellapilla et al., High Performance
Convolutional Neural Networks for Document Processing, 2006) without an
im2col copy. The input is zero-padded once and flattened to [C_in, N]
with padded row length Wp. Computing every output row at the full width
Wp makes each kernel tap read one contiguous column range, so the tap is
one [C_out,C_in] @ [C_in,out_h*Wp] matmul. The kw-1 columns per row whose
windows wrap into the next row are dropped from the result, and held at
zero in the backward pass's output gradient.
"""

from __future__ import annotations

import numpy as np


def as_f64(x) -> np.ndarray:
    """Coerce to a C-contiguous float64 array."""
    return np.ascontiguousarray(np.asarray(x, dtype=np.float64))


def _conv_output_size(x: np.ndarray, weights: np.ndarray,
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


def _padded_flat(x: np.ndarray, padding: int) -> tuple[np.ndarray, int]:
    """Zero-pad x [C,H,W] by `padding` on every side plus one extra bottom
    row, flattened to [C, (H+2p+1)*(W+2p)]; returns it and the padded width.

    Tap (ki, kj) of a convolution producing out_h rows then reads the
    contiguous columns ki*Wp+kj onward, out_h*Wp of them. The extra row
    keeps the last tap's slice in bounds.
    """
    c, h, w = x.shape
    p = padding
    xp = np.zeros((c, h + 2 * p + 1, w + 2 * p))
    xp[:, p:p + h, p:p + w] = x
    return xp.reshape(c, -1), w + 2 * p


def conv2d(x: np.ndarray, weights: np.ndarray, bias: np.ndarray,
           padding: int) -> np.ndarray:
    """2D cross-correlation of x [C_in,H,W] with weights [C_out,C_in,kh,kw]
    at every offset, after zero-padding x by `padding` on every side.

    Each output element is bias[o] plus the sum over the C_in x kh x kw
    window of elementwise products. Output pixel (i, j) of tap (ki, kj)
    reads flat column (i+ki)*Wp + j+kj of the padded input, so the tap
    adds weights[:, :, ki, kj] @ flat[:, ki*Wp+kj:][:, :out_h*Wp] into a
    [C_out, out_h*Wp] accumulator; its last kw-1 columns per row hold
    wrapped windows and are dropped.
    """
    x = as_f64(x)
    weights = as_f64(weights)
    bias = as_f64(bias)
    out_h, out_w = _conv_output_size(x, weights, padding)
    if bias.shape != (weights.shape[0],):
        raise ValueError(
            f"conv2d bias shape {bias.shape} does not match "
            f"{weights.shape[0]} output channels"
        )

    flat, wp = _padded_flat(x, padding)
    n = out_h * wp
    c_out, _, kh, kw = weights.shape
    # [kh,kw,C_out,C_in]: each tap's matrix reaches BLAS contiguous.
    taps = np.ascontiguousarray(weights.transpose(2, 3, 0, 1))
    acc = np.zeros((c_out, n))
    for ki in range(kh):
        for kj in range(kw):
            cols = slice(ki * wp + kj, ki * wp + kj + n)
            acc += taps[ki, kj] @ flat[:, cols]
    out = acc.reshape(c_out, out_h, wp)[:, :, :out_w]
    return out + bias[:, None, None]


def conv2d_backward(x: np.ndarray, weights: np.ndarray, padding: int,
                    grad_output: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of sum(grad_output * conv2d(x, weights, bias, padding)).

    Returns (grad_input, grad_weights, grad_bias). The lowering of conv2d:
    grad_output is embedded in a [C_out, out_h*Wp] buffer g that is zero
    in the wrapped columns. Tap (ki, kj), reading the input columns s,
    gives grad_weights[:, :, ki, kj] = g @ flat[:, s].T and adds
    weights[:, :, ki, kj].T @ g into columns s of the padded input's
    gradient.
    """
    x = as_f64(x)
    weights = as_f64(weights)
    grad_output = as_f64(grad_output)
    out_h, out_w = _conv_output_size(x, weights, padding)
    if grad_output.shape != (weights.shape[0], out_h, out_w):
        raise ValueError(
            f"conv2d_backward grad_output shape {grad_output.shape} does not "
            f"match output shape {(weights.shape[0], out_h, out_w)}"
        )

    p = padding
    c_in, in_h, in_w = x.shape
    c_out, _, kh, kw = weights.shape
    flat, wp = _padded_flat(x, p)
    n = out_h * wp
    g = np.zeros((c_out, out_h, wp))
    g[:, :, :out_w] = grad_output
    g = g.reshape(c_out, n)
    taps = np.ascontiguousarray(weights.transpose(2, 3, 0, 1))
    grad_flat = np.zeros_like(flat)
    grad_w = np.empty_like(weights)
    for ki in range(kh):
        for kj in range(kw):
            cols = slice(ki * wp + kj, ki * wp + kj + n)
            grad_w[:, :, ki, kj] = g @ flat[:, cols].T
            grad_flat[:, cols] += taps[ki, kj].T @ g
    grad_x = grad_flat.reshape(c_in, -1, wp)[:, p:p + in_h, p:p + in_w]
    grad_b = grad_output.sum(axis=(1, 2))
    return grad_x, grad_w, grad_b


def maxpool2d(x: np.ndarray) -> np.ndarray:
    """2x2 max pooling over non-overlapping windows of [C,H,W]; H and W
    must be even.

    The elementwise max of the four strided views x[:, i::2, j::2]. A
    window whose max is a zero held as both 0.0 and -0.0 may pool to
    either sign, because np.maximum returns its second operand on a tie.
    No tap holds -0.0: relu is np.maximum(x, 0.0), which maps -0.0 to
    +0.0.
    """
    x = as_f64(x)
    if x.ndim != 3:
        raise ValueError(f"maxpool2d input must be [C,H,W], got {x.ndim} dimensions")
    _, h, w = x.shape
    if h % 2:
        raise ValueError(f"maxpool2d height {h} is odd")
    if w % 2:
        raise ValueError(f"maxpool2d width {w} is odd")
    return np.maximum(np.maximum(x[:, 0::2, 0::2], x[:, 0::2, 1::2]),
                      np.maximum(x[:, 1::2, 0::2], x[:, 1::2, 1::2]))


def maxpool2d_backward(x: np.ndarray, out: np.ndarray,
                       grad_output: np.ndarray) -> np.ndarray:
    """Gradient of sum(grad_output * maxpool2d(x)), given out = maxpool2d(x).

    Each grad_output entry goes to the first position of its window, in
    row-major order, whose value equals out; the rest get 0.0. A -0.0
    entry arrives as +0.0, as a sum from 0.0 gives.
    """
    x = as_f64(x)
    out = as_f64(out)
    grad_output = as_f64(grad_output)
    if grad_output.shape != out.shape:
        raise ValueError(
            f"maxpool2d_backward grad_output shape {grad_output.shape} does "
            f"not match pooled shape {out.shape}"
        )
    if x.shape != (out.shape[0], 2 * out.shape[1], 2 * out.shape[2]):
        raise ValueError(f"maxpool2d_backward input shape {x.shape} does not "
                         f"pool to shape {out.shape}")
    g = grad_output + 0.0
    grad_x = np.empty_like(x)  # the four views below tile it
    free = np.ones(out.shape, dtype=bool)  # window not yet routed
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        hit = free & (x[:, i::2, j::2] == out)
        # Not g * hit: a negative g times False is -0.0.
        grad_x[:, i::2, j::2] = np.where(hit, g, 0.0)
        free &= ~hit
    return grad_x


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


def _resize_matrix(n_in: int, n_out: int) -> np.ndarray:
    """The [n_out, n_in] corner-aligned sampling matrix of one resize axis.

    Output index i samples source coordinate i*(n_in-1)/(n_out-1)
    (0 when n_out == 1). The product is formed before the division so
    the last output index lands on exactly n_in-1, preserving corners.
    Row i holds 1 - frac at the coordinate's floor lo and frac at
    hi = lo+1, clipped to n_in-1, so a lo == hi row holds exactly 1.0.
    """
    if n_out < 1:
        raise ValueError(f"resize output extent must be positive, got {n_out}")
    if n_out == 1 or n_in == 1:
        src = np.zeros(n_out)
    else:
        src = (np.arange(n_out) * float(n_in - 1)) / float(n_out - 1)
    lo = np.minimum(np.floor(src).astype(np.int64), n_in - 1)
    hi = np.minimum(lo + 1, n_in - 1)
    frac = src - lo
    m = np.zeros((n_out, n_in))
    rows = np.arange(n_out)
    m[rows, lo] = 1.0 - frac
    m[rows, hi] += frac
    return m


def bilinear_resize(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Corner-aligned bilinear resize of [C,h,w] to [C,out_h,out_w]: the
    per-axis sampling matrices, R_h @ x[c] @ R_w.T.

    Corners and same-size resizes are exact; a constant input stays
    constant to a few ulp, since each output entry is a BLAS sum of
    products. A non-finite entry makes its whole output channel
    non-finite, because its zero weights give 0*inf = nan.
    """
    x = as_f64(x)
    if x.ndim != 3:
        raise ValueError(f"bilinear_resize input must be [C,h,w], got {x.ndim} dimensions")
    _, h, w = x.shape
    return _resize_matrix(h, out_h) @ x @ _resize_matrix(w, out_w).T


def bilinear_resize_backward(grad_output: np.ndarray, in_h: int,
                             in_w: int) -> np.ndarray:
    """Gradient of bilinear_resize for an input [C,in_h,in_w]: the transpose
    of the per-axis sampling matrices, R_h.T @ grad_output[c] @ R_w."""
    grad_output = as_f64(grad_output)
    if grad_output.ndim != 3:
        raise ValueError(
            f"bilinear_resize_backward grad must be [C,out_h,out_w], "
            f"got {grad_output.ndim} dimensions"
        )
    _, out_h, out_w = grad_output.shape
    return (_resize_matrix(in_h, out_h).T @ grad_output
            @ _resize_matrix(in_w, out_w))


def concat_channels(inputs: list[np.ndarray]) -> np.ndarray:
    """Stack [C_out,C_k,kh,kw] weights along C_in (axis 1) in argument order."""
    if not inputs:
        raise ValueError("concat_channels requires at least one input")
    arrs = [as_f64(a) for a in inputs]
    first = arrs[0].shape
    for k, a in enumerate(arrs):
        if a.ndim != 4 or a.shape[:1] + a.shape[2:] != first[:1] + first[2:]:
            raise ValueError(
                f"concat_channels input {k} has shape {a.shape}: inputs must "
                f"be [C_out,C_k,kh,kw] and match input 0's {first} off the "
                f"channel axis 1"
            )
    return np.concatenate(arrs, axis=1)


def split_channels(x: np.ndarray, sizes: list[int]) -> list[np.ndarray]:
    """Inverse of concat_channels: views of x split along C_in by sizes."""
    x = as_f64(x)
    if x.ndim != 4:
        raise ValueError(f"split_channels input must be [C_out,C_in,kh,kw], "
                         f"got {x.ndim} dimensions")
    if sum(sizes) != x.shape[1]:
        raise ValueError(
            f"split_channels sizes sum to {sum(sizes)}, input has "
            f"{x.shape[1]} channels"
        )
    out, offset = [], 0
    for c in sizes:
        out.append(x[:, offset:offset + c])
        offset += c
    return out
