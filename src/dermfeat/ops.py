"""Dense float64 tensor kernels: forward and backward passes for every
operation the model needs (conv, pool, relu, sigmoid, bilinear resize),
plus concat and split of the head weight along its input channels.

All operations are pure functions over float64 numpy arrays with layout
[channels, height, width]. Kernels assume float64 operands, of any
strides, of well-formed shapes, and check neither dtype nor shape: a
mismatched operand may broadcast silently. Data is coerced and checked
once where it enters: model.forward checks the image and the params,
model.backward the params and grad_probs, and every operand shape the
model passes here follows from those. The loss, superpixel scoring, the
metrics and gradcheck coerce their own inputs.

Concat and split act on the C_in axis of a [C_out,C_in,kh,kw] weight:
the model splits its 1x1 head weight per tap, so it evaluates the
hypercolumn head tap by tap and never concatenates the resized taps
themselves. Geometry is read from the operands: convolutions slide one
pixel at a time, take their kernel extents from the weights' shape and
only the zero padding as an argument, and are bias-free: the model adds
every bias and sums its gradient; pools take non-overlapping 2x2
windows and send each window's gradient to its first max in row-major
order. The bilinear resize is two products with its per-axis sampling
matrices, and its backward the same two with their transposes; each
matrix is built once per extent pair and cached read-only, and a
same-size resize returns its input. Backward passes return exact
analytic gradients of sum(grad_output * forward(...)) and are verified
against central finite differences in the test suite.

Convolution is lowered to BLAS (Chellapilla et al., High Performance
Convolutional Neural Networks for Document Processing, 2006). The input
is zero-padded once and flattened to [C_in, N] with padded row length
Wp. Computing every output row at the full width Wp makes each kernel
tap read one contiguous column range. The forward copies the kh*kw
ranges into one [kh*kw*C_in, out_h*Wp] column block (im2col) and forms
one [C_out, kh*kw*C_in] matmul with it. The backward builds the same
block a row band at a time, each band of bounded size as in MEC's
memory-bounded lowering (Cho & Brand, arXiv:1706.06873), and forms two
matmuls per band (conv2d_backward says how). The kw-1 columns per row
whose windows wrap into the next row are dropped from the forward's
result, a view of the product, and held at zero in the backward pass's
output gradient.
"""

from __future__ import annotations

import functools

import numpy as np


def as_f64(x) -> np.ndarray:
    """Coerce to a C-contiguous float64 array."""
    return np.ascontiguousarray(np.asarray(x, dtype=np.float64))


def _conv_output_size(x: np.ndarray, weights: np.ndarray,
                      padding: int) -> tuple[int, int]:
    """The output extents of conv2d(x, weights, padding)."""
    return (x.shape[1] + 2 * padding - weights.shape[2] + 1,
            x.shape[2] + 2 * padding - weights.shape[3] + 1)


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


def _columns(flat: np.ndarray, wp: int, start: int,
             cols: np.ndarray) -> np.ndarray:
    """Fill cols [kh,kw,C_in,n] with the im2col block of the n output flat
    columns from `start` on: tap (ki, kj)'s C_in rows are copied from
    flat[:, start+ki*Wp+kj:][:, :n]. Returns it as [kh*kw*C_in, n], rows
    in (ki, kj, c) order."""
    kh, kw, _, n = cols.shape
    for ki in range(kh):
        for kj in range(kw):
            s = start + ki * wp + kj
            cols[ki, kj] = flat[:, s:s + n]
    return cols.reshape(-1, n)


def conv2d(x: np.ndarray, weights: np.ndarray, padding: int) -> np.ndarray:
    """Bias-free 2D cross-correlation of x [C_in,H,W] with weights
    [C_out,C_in,kh,kw] at every offset, after zero-padding x by `padding`
    on every side.

    Each output element is the sum over the C_in x kh x kw window of
    elementwise products. Output pixel (i, j) of tap (ki, kj) reads flat
    column (i+ki)*Wp + j+kj of the padded input, so one [kh*kw*C_in,
    out_h*Wp] column block of the whole output holds every window. The
    output is one product of the weights, as a [C_out, kh*kw*C_in] matrix
    in the block's (ki, kj, c) order, with that block; each output is then
    one BLAS sum over kh*kw*C_in terms. The last kw-1 columns per row hold
    wrapped windows and are dropped. The result is that crop, a view of
    the product: it is C-contiguous only when kw == 1.
    """
    out_h, out_w = _conv_output_size(x, weights, padding)

    flat, wp = _padded_flat(x, padding)
    n = out_h * wp
    c_out, c_in, kh, kw = weights.shape
    w = weights.transpose(0, 2, 3, 1).reshape(c_out, -1)
    out = w @ _columns(flat, wp, 0, np.empty((kh, kw, c_in, n)))
    return out.reshape(c_out, out_h, wp)[:, :, :out_w]


# conv2d_backward's row bands: the largest whole multiple of BAND_ROWS
# output rows whose column block holds at most BAND_ENTRIES float64s
# (1 MiB), but at least BAND_ROWS rows, and at most the whole output. A
# band of BAND_ROWS rows spans BAND_ROWS * Wp flat columns: OpenBLAS gave
# the same bytes with one thread or two for products whose long dimension
# is a multiple of 16, and not for others, such as bands of 37 rows.
BAND_ENTRIES = 1 << 17
BAND_ROWS = 16


def conv2d_backward(x: np.ndarray, weights: np.ndarray, padding: int,
                    grad_output: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of sum(grad_output * conv2d(x, weights, padding)).

    Returns (grad_input, grad_weights); a bias gradient is the caller's
    sum of grad_output, as conv2d adds no bias. The lowering of conv2d,
    walked over the output in row bands, top to bottom (BAND_ENTRIES says
    how tall). A band's grad_output is embedded in a [C_out, rows*Wp]
    buffer g that is zero in the wrapped columns, and its column block is
    built as conv2d builds the whole output's. The band adds g @ cols.T
    to grad_weights. Then W.T @ g, the column block's gradient, is
    written over the column block, and its kh*kw tap slices are added, in
    tap order, into the columns of the padded input's gradient that they
    were read from; consecutive bands overlap there by kh-1 rows.

    One buffer per call holds a band's column block and then its
    gradient, so the band, not the image, bounds the transient memory:
    block 1 at 256 px (3 to 8 channels) peaks at 4.4 MB under
    tracemalloc, where one whole-output column block would need 21.7 MB.
    """
    out_h, out_w = _conv_output_size(x, weights, padding)

    p = padding
    c_in, in_h, in_w = x.shape
    c_out, _, kh, kw = weights.shape
    flat, wp = _padded_flat(x, p)
    w = weights.transpose(0, 2, 3, 1).reshape(c_out, -1)
    fit = BAND_ENTRIES // (w.shape[1] * wp) // BAND_ROWS * BAND_ROWS
    band = min(max(fit, BAND_ROWS), out_h)
    grad_flat = np.zeros_like(flat)
    grad_w = np.zeros_like(weights)
    g_band = np.zeros((c_out, band, wp))  # wrapped columns stay zero
    block = np.empty((kh, kw, c_in, band * wp))
    for r0 in range(0, out_h, band):
        rows = min(band, out_h - r0)
        n = rows * wp
        g_band[:, :rows, :out_w] = grad_output[:, r0:r0 + rows]
        g = g_band[:, :rows].reshape(c_out, n)
        cols = _columns(flat, wp, r0 * wp, block[..., :n])
        grad_w += (g @ cols.T).reshape(c_out, kh, kw, c_in).transpose(0, 3, 1, 2)
        # Written over the column block, which g @ cols.T no longer needs.
        grad_cols = np.matmul(w.T, g, out=cols).reshape(kh, kw, c_in, n)
        for ki in range(kh):
            for kj in range(kw):
                s = (r0 + ki) * wp + kj
                grad_flat[:, s:s + n] += grad_cols[ki, kj]
    grad_x = grad_flat.reshape(c_in, -1, wp)[:, p:p + in_h, p:p + in_w]
    return grad_x, grad_w


def maxpool2d(x: np.ndarray) -> np.ndarray:
    """2x2 max pooling over non-overlapping windows of [C,H,W]; H and W
    must be even.

    The elementwise max of the four strided views x[:, i::2, j::2]. A
    window whose max is a zero held as both 0.0 and -0.0 may pool to
    either sign, because np.maximum returns its second operand on a tie.
    No tap holds -0.0: relu is np.maximum(x, 0.0), which maps -0.0 to
    +0.0.
    """
    return np.maximum(np.maximum(x[:, 0::2, 0::2], x[:, 0::2, 1::2]),
                      np.maximum(x[:, 1::2, 0::2], x[:, 1::2, 1::2]))


def maxpool2d_backward(x: np.ndarray, out: np.ndarray,
                       grad_output: np.ndarray) -> np.ndarray:
    """Gradient of sum(grad_output * maxpool2d(x)), given out = maxpool2d(x).

    Each grad_output entry goes to the first position of its window, in
    row-major order, whose value equals out; the rest get 0.0. A -0.0
    entry arrives as +0.0, as a sum from 0.0 gives.
    """
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
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, grad_output: np.ndarray) -> np.ndarray:
    """Pass gradient where x > 0, zero elsewhere (subgradient 0 at 0)."""
    return np.where(x > 0.0, grad_output, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic 1/(1+exp(-v)), evaluated without overflow.

    Outputs are strictly inside (0, 1) for finite inputs.
    """
    # exp(-|v|) never overflows: 1/(1+e) for v >= 0 and e/(1+e) below.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0, e) / (1.0 + e)


def sigmoid_backward(probs: np.ndarray, grad_output: np.ndarray) -> np.ndarray:
    """Chain grad_output through the logistic, given the forward outputs."""
    return grad_output * probs * (1.0 - probs)


@functools.lru_cache(maxsize=64)
def _resize_matrix(n_in: int, n_out: int) -> np.ndarray:
    """The [n_out, n_in] corner-aligned sampling matrix of one resize axis,
    built once per (n_in, n_out) and returned read-only from the cache.

    Output index i samples source coordinate i*(n_in-1)/(n_out-1)
    (0 when n_out == 1). The product is formed before the division so
    the last output index lands on exactly n_in-1, preserving corners.
    Row i holds 1 - frac at the coordinate's floor lo and frac at
    hi = lo+1, clipped to n_in-1, so a lo == hi row holds exactly 1.0.
    """
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
    m.flags.writeable = False  # shared by every later call
    return m


def bilinear_resize(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Corner-aligned bilinear resize of [C,h,w] to [C,out_h,out_w]: the
    per-axis sampling matrices, R_h @ x[c] @ R_w.T.

    A same-size resize returns x itself, not a copy. Corners are exact;
    a constant input stays constant to a few ulp, since each output
    entry is a BLAS sum of products. In a real resize a non-finite entry
    makes its whole output channel non-finite, because its zero weights
    give 0*inf = nan.
    """
    _, h, w = x.shape
    if (h, w) == (out_h, out_w):
        return x
    return _resize_matrix(h, out_h) @ x @ _resize_matrix(w, out_w).T


def bilinear_resize_backward(grad_output: np.ndarray, in_h: int,
                             in_w: int) -> np.ndarray:
    """Gradient of bilinear_resize for an input [C,in_h,in_w]: the transpose
    of the per-axis sampling matrices, R_h.T @ grad_output[c] @ R_w. A
    same-size call returns grad_output itself."""
    _, out_h, out_w = grad_output.shape
    if (in_h, in_w) == (out_h, out_w):
        return grad_output
    return (_resize_matrix(in_h, out_h).T @ grad_output
            @ _resize_matrix(in_w, out_w))


def concat_channels(inputs: list[np.ndarray]) -> np.ndarray:
    """Stack [C_out,C_k,kh,kw] weights along C_in (axis 1) in argument order."""
    return np.concatenate(inputs, axis=1)


def split_channels(x: np.ndarray, sizes: list[int]) -> list[np.ndarray]:
    """Inverse of concat_channels: views of x split along C_in by sizes."""
    out, offset = [], 0
    for c in sizes:
        out.append(x[:, offset:offset + c])
        offset += c
    return out
