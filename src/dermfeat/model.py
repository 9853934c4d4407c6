"""Hypercolumn fully-convolutional network.

Each encoder block is conv(KERNEL x KERNEL, "same" zero padding) + bias
-> relu; 2x2 max pooling follows every block except the last. Every
block's activation is tapped before its pool; the backward re-pools each
tap, as the forward caches no pooled copy (recomputing to save memory:
Chen et al., arXiv:1604.06174). The network computes the hypercolumn
function: resize every tap bilinearly back to the input resolution,
concatenate the taps, map each pixel's hypercolumn to one channel per
class with a 1x1 convolution plus bias, and squash with an elementwise
logistic into (0, 1). The convolutions in ops are bias-free: this module
adds every bias and sums every bias gradient.

The hypercolumn itself is never built. The resize and the 1x1 head are
both linear, so head(concat(resize(tap_i))) = sum_i resize(W_i tap_i) + b,
where W_i is the head weight's slice for tap i (Hariharan et al.,
Hypercolumns for Object Segmentation and Fine-grained Localization,
arXiv:1411.5752). Each slice is one [classes, C_i] @ [C_i, pixels]
matmul at its tap's resolution, and only the class maps are resized.
The network is fully convolutional: output spatial size always equals
input spatial size, and every extent is read from the image and the
weight tensors.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import ops
from .jsonio import parsing, writing
from .ops import as_f64
from .superpixels import CLASS_COUNT, CLASS_NAMES

WEIGHTS_MAGIC = b"HFCNv001"
KERNEL = 3  # every block's conv is KERNEL x KERNEL


@dataclass(frozen=True)
class EncoderConfig:
    """Encoder geometry: one conv per block, pooling between blocks."""

    channels: tuple[int, ...] = (8, 16, 32, 64, 64)
    in_channels: int = 3

    def __post_init__(self):
        if not self.channels or any(c < 1 for c in self.channels):
            raise ValueError(f"block channels must be positive, got {self.channels}")
        if self.in_channels < 1:
            raise ValueError(f"in_channels must be positive, got {self.in_channels}")

    @property
    def block_count(self) -> int:
        return len(self.channels)

    @property
    def hypercolumn_channels(self) -> int:
        return sum(self.channels)

    @property
    def size_multiple(self) -> int:
        """Input extents must be divisible by this (one pool per gap)."""
        return 2 ** (self.block_count - 1)

    def check_image(self, image: np.ndarray) -> None:
        """An image is [in_channels,H,W], its extents positive multiples
        of size_multiple: every pool then sees even extents."""
        if image.ndim != 3 or image.shape[0] != self.in_channels:
            raise ValueError(
                f"expected image [{self.in_channels},H,W], got shape {image.shape}")
        m = self.size_multiple
        _, h, w = image.shape
        if h % m or w % m or not h or not w:
            raise ValueError(
                f"image extents {h}x{w} must be divisible by {m} "
                f"({self.block_count} blocks) and positive")


# Parameter name -> tensor, in param_specs order.
ModelParams = dict[str, np.ndarray]


def param_specs(cfg: EncoderConfig) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every parameter tensor, in serialization order."""
    specs = []
    c_in = cfg.in_channels
    for i, c_out in enumerate(cfg.channels, start=1):
        specs.append((f"block{i}.weight", (c_out, c_in, KERNEL, KERNEL)))
        specs.append((f"block{i}.bias", (c_out,)))
        c_in = c_out
    specs.append(("head.weight", (CLASS_COUNT, cfg.hypercolumn_channels, 1, 1)))
    specs.append(("head.bias", (CLASS_COUNT,)))
    return specs


def _spec_mismatch(got: list, want: list) -> str | None:
    """Describe the first difference between two (name, shape) lists."""
    for i, (g, w) in enumerate(itertools.zip_longest(got, want)):
        if g != w:
            return f"tensor {i} is {g}, expected {w}"
    return None


def init_params(cfg: EncoderConfig, seed: int) -> ModelParams:
    """Uniform [-a, a] weights with a = sqrt(6 / fan_in), where fan_in is
    the product of a weight's trailing extents; zero biases.

    Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in param_specs(cfg):
        if name.endswith(".weight"):
            a = np.sqrt(6.0 / math.prod(shape[1:]))
            params[name] = rng.uniform(-a, a, size=shape)
        else:
            params[name] = np.zeros(shape)
    return params


def check_params(params: ModelParams, cfg: EncoderConfig) -> ModelParams:
    """Verify tensor names, order and shapes against a config; returns the
    params as float64 arrays (the same arrays where they already are)."""
    params = {name: as_f64(a) for name, a in params.items()}
    mismatch = _spec_mismatch([(n, a.shape) for n, a in params.items()],
                              param_specs(cfg))
    if mismatch:
        raise ValueError(f"params do not match config: {mismatch}")
    return params


def _head_slice(w_a: np.ndarray, tap: np.ndarray) -> np.ndarray:
    """The 1x1 head slice w_a [classes,C,1,1] applied to tap [C,h,w]."""
    c, th, tw = tap.shape
    return (w_a[:, :, 0, 0] @ tap.reshape(c, -1)).reshape(-1, th, tw)


@dataclass
class ForwardCache:
    """Intermediates for the backward pass, which re-pools the taps."""

    image: np.ndarray                # the float64 input to block 1
    taps: list[np.ndarray]           # post-relu activations (pre-pool)
    probs: np.ndarray


def forward(params: ModelParams, cfg: EncoderConfig,
            image: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Run the network; returns ([4,H,W] probabilities, cache). The image
    and params are coerced to float64 here, once, not in the kernels."""
    image = as_f64(image)
    cfg.check_image(image)
    params = check_params(params, cfg)
    h, w = image.shape[1], image.shape[2]

    taps = []
    for i in range(cfg.block_count):
        block = f"block{i + 1}"
        x = ops.maxpool2d(taps[i - 1]) if i > 0 else image
        taps.append(ops.relu(ops.conv2d(x, params[f"{block}.weight"], KERNEL // 2)
                             + params[f"{block}.bias"][:, None, None]))

    # Each tap's head slice at the tap's resolution; only the class maps
    # are resized to the input and summed onto the bias.
    head = ops.split_channels(params["head.weight"], list(cfg.channels))
    logits = sum((ops.bilinear_resize(_head_slice(w_a, a), h, w)
                  for a, w_a in zip(taps, head)),
                 start=params["head.bias"][:, None, None])
    probs = ops.sigmoid(logits)
    cache = ForwardCache(image, taps, probs)
    return probs, cache


def backward(params: ModelParams, cfg: EncoderConfig, cache: ForwardCache,
             grad_probs: np.ndarray) -> tuple[ModelParams, np.ndarray]:
    """Exact gradients of sum(grad_probs * probs) w.r.t. params and image.

    Returns (grad_params, grad_image); grad_params has the names and
    order of params. grad_probs and params are coerced to float64 here,
    as in forward, so every gradient is float64.
    """
    params = check_params(params, cfg)
    grad_probs = as_f64(grad_probs)
    if grad_probs.shape != cache.probs.shape:
        raise ValueError(
            f"grad_probs shape {grad_probs.shape} does not match cached "
            f"output shape {cache.probs.shape}")

    g_logits = ops.sigmoid_backward(cache.probs, grad_probs)
    grads = dict.fromkeys(params)
    grads["head.bias"] = g_logits.sum(axis=(1, 2))
    head = ops.split_channels(params["head.weight"], list(cfg.channels))
    g_head = [None] * cfg.block_count

    # Each gradient is dropped at its last use (Chen et al.,
    # arXiv:1604.06174): with one backward per thread, the peak is every
    # thread's live set at once. It sits where block 2's g_x is routed
    # through the pool to block 1's resolution.
    g_from_pool = 0.0
    for i in reversed(range(cfg.block_count)):
        tap = cache.taps[i]
        c, th, tw = tap.shape
        g = ops.bilinear_resize_backward(g_logits, th, tw).reshape(CLASS_COUNT, -1)
        g_head[i] = (g @ tap.reshape(c, -1).T)[:, :, None, None]
        g_tap = (head[i][:, :, 0, 0].T @ g).reshape(c, th, tw)
        del g
        if i == 0:
            del g_logits  # block 1's head slice was its last use
        g_tap += g_from_pool
        del g_from_pool
        # relu(z) > 0 exactly where z > 0, so the tap masks like z.
        g_z = ops.relu_backward(tap, g_tap)
        del g_tap
        block = f"block{i + 1}"
        grads[f"{block}.bias"] = g_z.sum(axis=(1, 2))
        x = ops.maxpool2d(cache.taps[i - 1]) if i > 0 else cache.image
        g_x, grads[f"{block}.weight"] = ops.conv2d_backward(
            x, params[f"{block}.weight"], KERNEL // 2, g_z)
        del g_z
        if i > 0:
            g_from_pool = ops.maxpool2d_backward(cache.taps[i - 1], x, g_x)
            del x, g_x
    grads["head.weight"] = ops.concat_channels(g_head)
    return grads, g_x


def flatten_params(params: ModelParams) -> np.ndarray:
    """Concatenate all parameter tensors into one flat vector."""
    return np.concatenate([a.ravel() for a in params.values()])


def unflatten_params(cfg: EncoderConfig, vec: np.ndarray) -> ModelParams:
    """Rebuild cfg's parameter tensors from a flat vector."""
    vec = as_f64(vec)
    specs = param_specs(cfg)
    need = sum(math.prod(shape) for _, shape in specs)
    if vec.size != need:
        raise ValueError(f"flat vector has {vec.size} entries, config needs {need}")
    params, offset = {}, 0
    for name, shape in specs:
        size = math.prod(shape)
        params[name] = vec[offset:offset + size].reshape(shape).copy()
        offset += size
    return params


def save_params(params: ModelParams, cfg: EncoderConfig,
                path: str | os.PathLike) -> None:
    """Write magic, length-prefixed JSON header, then raw LE float64 data;
    `writing` removes a file cut short and names its path."""
    check_params(params, cfg)
    header = {
        "in_channels": cfg.in_channels,
        "channels": list(cfg.channels),
        "kernel": KERNEL,
        "class_names": list(CLASS_NAMES),
        "tensors": [{"name": name, "shape": list(shape)}
                    for name, shape in param_specs(cfg)],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with writing(path, "wb") as fh:
        fh.write(WEIGHTS_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for arr in params.values():
            fh.write(arr.astype("<f8").tobytes())


def load_params(path: str | os.PathLike) -> tuple[ModelParams, EncoderConfig]:
    """Read a weights file; verifies magic, header, tensor list, payload
    size and finiteness. Every defect is a ValueError naming the path.
    """
    spath = os.fspath(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(WEIGHTS_MAGIC))
        if magic != WEIGHTS_MAGIC:
            raise ValueError(f"{spath}: bad magic {magic!r}, expected "
                             f"{WEIGHTS_MAGIC!r}")
        raw_len = fh.read(8)
        if len(raw_len) != 8:
            raise ValueError(f"{spath}: truncated header length")
        (header_len,) = struct.unpack("<Q", raw_len)
        if header_len > size - fh.tell():
            raise ValueError(f"{spath}: truncated header ({header_len} bytes "
                             f"declared, {size - fh.tell()} left in file)")
        blob = fh.read(header_len)
        with parsing(spath, "header"):
            header = json.loads(blob.decode("utf-8"))
            channels, in_channels, kernel = (
                header["channels"], header["in_channels"], header["kernel"])
            if not all(type(v) is int for v in [*channels, in_channels, kernel]):
                raise TypeError("geometry entries must be integers")
            if kernel != KERNEL:
                raise ValueError(f"kernel must be {KERNEL}, got {kernel}")
            file_cfg = EncoderConfig(tuple(channels), in_channels)
            if tuple(header["class_names"]) != CLASS_NAMES:
                raise ValueError(f"class names {header['class_names']} "
                                 f"do not match {list(CLASS_NAMES)}")
            stored = [(e["name"], tuple(e["shape"])) for e in header["tensors"]]
        specs = param_specs(file_cfg)
        mismatch = _spec_mismatch(stored, specs)
        if mismatch:
            raise ValueError(f"{spath}: {mismatch}")
        payload = 8 * sum(math.prod(shape) for _, shape in specs)
        left = size - fh.tell()
        if left != payload:
            kind = "truncated payload" if left < payload else "trailing bytes"
            raise ValueError(f"{spath}: {kind}: {left} bytes after the header, "
                             f"tensors need {payload}")
        params = unflatten_params(file_cfg, np.frombuffer(fh.read(), dtype="<f8"))
    for name, arr in params.items():
        if not np.isfinite(arr).all():
            raise ValueError(f"{spath}: tensor {name} has non-finite values")
    return params, file_cfg
