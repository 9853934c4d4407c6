"""Hypercolumn network tests: architecture bookkeeping, gradients, serialization."""

import dataclasses
import hashlib
import json
import os
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dermfeat
from dermfeat import model, ops
from dermfeat.cli import main
from dermfeat.gradcheck import gradcheck
from dermfeat.loss import f1_loss, f1_loss_grad
from dermfeat.model import (KERNEL, WEIGHTS_MAGIC, EncoderConfig,
                            ModelParams, check_params, flatten_params, forward,
                            init_params, load_params, param_specs, save_params,
                            unflatten_params)
from faults import fill_disk
from oracles import (maxpool2d_backward_oracle, maxpool2d_oracle,
                     resize_backward_oracle)

TINY = EncoderConfig(channels=(2, 2), in_channels=1)


def hypercolumn_oracle(params, cfg, image, grad_logits):
    """The network with the hypercolumn built: resize every tap to the
    input, concatenate, apply the 1x1 head, and back from the logits
    through the same steps. The oracle adds each bias and sums each bias
    gradient itself. Returns (probs, grads, grad_image)."""
    h, w = image.shape[1:]
    block_inputs, taps, argmaxes = [image], [], []
    for i in range(cfg.block_count):
        b = f"block{i + 1}"
        z = ops.conv2d(block_inputs[i], params[f"{b}.weight"], KERNEL // 2)
        taps.append(ops.relu(z + params[f"{b}.bias"][:, None, None]))
        if i + 1 < cfg.block_count:
            pooled, argmax = maxpool2d_oracle(taps[-1])
            block_inputs.append(pooled)
            argmaxes.append(argmax)
    hyper = np.concatenate([ops.bilinear_resize(a, h, w) for a in taps])
    probs = ops.sigmoid(ops.conv2d(hyper, params["head.weight"], 0)
                        + params["head.bias"][:, None, None])

    grads = dict.fromkeys(params)
    grads["head.bias"] = grad_logits.sum(axis=(1, 2))
    g_hyper, grads["head.weight"] = ops.conv2d_backward(
        hyper, params["head.weight"], 0, grad_logits)
    g_resized = np.split(g_hyper, np.cumsum(cfg.channels)[:-1])
    g_from_pool = 0.0
    for i in reversed(range(cfg.block_count)):
        b = f"block{i + 1}"
        g_tap = resize_backward_oracle(g_resized[i], *taps[i].shape[1:])
        g_z = ops.relu_backward(taps[i], g_tap + g_from_pool)
        grads[f"{b}.bias"] = g_z.sum(axis=(1, 2))
        g_x, grads[f"{b}.weight"] = ops.conv2d_backward(
            block_inputs[i], params[f"{b}.weight"], KERNEL // 2, g_z)
        if i > 0:
            g_from_pool = maxpool2d_backward_oracle(argmaxes[i - 1], g_x,
                                                    taps[i - 1].shape)
    return probs, grads, g_x


def conv_head_composition(params, cfg, image, grad_logits):
    """The factored head as the model once composed it: each 1x1 head
    slice through ops.conv2d / ops.conv2d_backward with padding 0, and
    every resize, same-size ones included, as explicit products with the
    sampling matrices; the backward starts from the logits. Returns
    (probs, grads, grad_image)."""
    def resize(x, out_h, out_w):
        return (ops._resize_matrix(x.shape[1], out_h) @ x
                @ ops._resize_matrix(x.shape[2], out_w).T)

    def resize_backward(g, in_h, in_w):
        return (ops._resize_matrix(in_h, g.shape[1]).T @ g
                @ ops._resize_matrix(in_w, g.shape[2]))

    h, w = image.shape[1:]
    block_inputs, taps = [image], []
    for i in range(cfg.block_count):
        b = f"block{i + 1}"
        z = ops.conv2d(block_inputs[i], params[f"{b}.weight"], KERNEL // 2)
        taps.append(ops.relu(z + params[f"{b}.bias"][:, None, None]))
        if i + 1 < cfg.block_count:
            block_inputs.append(ops.maxpool2d(taps[-1]))
    head = ops.split_channels(params["head.weight"], list(cfg.channels))
    probs = ops.sigmoid(sum((resize(ops.conv2d(a, w_a, 0), h, w)
                             for a, w_a in zip(taps, head)),
                            start=params["head.bias"][:, None, None]))

    grads = dict.fromkeys(params)
    grads["head.bias"] = grad_logits.sum(axis=(1, 2))
    g_head = [None] * cfg.block_count
    g_from_pool = 0.0
    for i in reversed(range(cfg.block_count)):
        b = f"block{i + 1}"
        g_map = resize_backward(grad_logits, *taps[i].shape[1:])
        g_tap, g_head[i] = ops.conv2d_backward(taps[i], head[i], 0, g_map)
        g_z = ops.relu_backward(taps[i], g_tap + g_from_pool)
        grads[f"{b}.bias"] = g_z.sum(axis=(1, 2))
        g_x, grads[f"{b}.weight"] = ops.conv2d_backward(
            block_inputs[i], params[f"{b}.weight"], KERNEL // 2, g_z)
        if i > 0:
            g_from_pool = ops.maxpool2d_backward(taps[i - 1], block_inputs[i],
                                                 g_x)
    grads["head.weight"] = ops.concat_channels(g_head)
    return probs, grads, g_x


def zero_params(cfg: EncoderConfig) -> ModelParams:
    p = init_params(cfg, 0)
    for a in p.values():
        a[...] = 0.0
    return p


class TestInit:
    def test_deterministic_for_fixed_seed(self):
        a = init_params(EncoderConfig(), 7)
        b = init_params(EncoderConfig(), 7)
        assert list(a) == list(b)
        for x, y in zip(a.values(), b.values()):
            np.testing.assert_array_equal(x, y)

    def test_biases_zero(self):
        p = init_params(EncoderConfig(), 3)
        biases = [a for name, a in p.items() if name.endswith(".bias")]
        assert len(biases) == 6
        for b in biases:
            assert (b == 0.0).all()

    def test_uniform_bound_stddev(self):
        # 64x32x3x3 fan-in 288: uniform [-a,a] has stddev a/sqrt(3).
        cfg = EncoderConfig(channels=(32, 64), in_channels=3)
        p = init_params(cfg, 11)
        w = p["block2.weight"]
        assert w.shape == (64, 32, 3, 3)
        a = np.sqrt(6.0 / (32 * 3 * 3))
        assert abs(w.std() - a / np.sqrt(3)) < 0.2 * (a / np.sqrt(3))
        assert np.abs(w).max() <= a

    def test_different_seeds_differ(self):
        a = init_params(TINY, 0)
        b = init_params(TINY, 1)
        assert not np.array_equal(a["block1.weight"], b["block1.weight"])


class TestForward:
    def test_zero_params_give_half_everywhere(self):
        probs, _ = forward(zero_params(TINY), TINY, np.ones((1, 8, 8)))
        np.testing.assert_array_equal(probs, np.full((4, 8, 8), 0.5))

    def test_block1_tap_full_resolution(self):
        # The cache keeps the taps of blocks 2..B; block 1's is rebuilt
        # from the cached image.
        cfg = EncoderConfig(channels=(8, 16, 32), in_channels=3)
        rng = np.random.default_rng(50)
        params = init_params(cfg, 0)
        _, cache = forward(params, cfg, rng.random((3, 16, 16)))
        assert model.block_tap(params, 0, cache.image).shape == (8, 16, 16)
        assert [a.shape for a in cache.taps] == [(16, 8, 8), (32, 4, 4)]

    def test_hypercolumn_channel_count(self):
        cfg = EncoderConfig()
        assert cfg.hypercolumn_channels == 8 + 16 + 32 + 64 + 64 == 184
        rng = np.random.default_rng(51)
        params = init_params(cfg, 0)
        probs, _ = forward(params, cfg, rng.random((3, 16, 16)))
        assert probs.shape == (4, 16, 16)
        head = ops.split_channels(params["head.weight"], list(cfg.channels))
        assert [w.shape for w in head] == [(4, c, 1, 1) for c in cfg.channels]

    def test_cache_keeps_no_pooled_input_and_backward_repools_the_taps(
            self, tmp_path, monkeypatch):
        cfg = EncoderConfig(channels=(4, 6, 8), in_channels=3)
        rng = np.random.default_rng(52)
        params = init_params(cfg, 3)
        image = rng.random((3, 16, 16))
        grad_probs = rng.normal(size=(4, 16, 16))
        probs, cache = forward(params, cfg, image)
        # The image itself and the taps of blocks 2..B: no block-1 tap,
        # no pooled copy, no output.
        assert [f.name for f in dataclasses.fields(cache)] == [
            "image", "taps"]
        assert np.shares_memory(cache.image, image)
        assert [a.shape for a in cache.taps] == [(6, 8, 8), (8, 4, 4)]

        # conv_head_composition keeps every tap and pooled block input
        # from its own forward; the rebuilt and re-pooled ones give the
        # same bytes.
        def pooled_input_backward(params, cfg, cache, grad_logits):
            return conv_head_composition(params, cfg, cache.image,
                                         grad_logits)[1:]

        grad_logits = ops.sigmoid_backward(probs, grad_probs)
        grads, g_img = model.backward(params, cfg, cache, grad_logits)
        want_grads, want_g_img = pooled_input_backward(params, cfg, cache,
                                                       grad_logits)
        assert list(grads) == list(want_grads)
        for name in grads:
            assert grads[name].tobytes() == want_grads[name].tobytes(), name
        assert g_img.tobytes() == want_g_img.tobytes()

        # So does the gradcheck report, whose model checks call backward.
        reports = []
        for out in ("repooled", "pooled-inputs"):
            if out == "pooled-inputs":
                monkeypatch.setattr(model, "backward", pooled_input_backward)
            assert main(["gradcheck", "--instances", "1",
                         "--out", str(tmp_path / out)]) == 0
            reports.append((tmp_path / out / "gradcheck_report.json")
                           .read_bytes())
        assert reports[0] == reports[1]

    def test_output_shape_tracks_input(self):
        params = init_params(TINY, 2)
        for hw in (8, 12, 20):
            probs, _ = forward(params, TINY, np.random.default_rng(hw)
                               .random((1, hw, hw)))
            assert probs.shape == (4, hw, hw)

    def test_probs_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(52)
        probs, _ = forward(init_params(TINY, 3), TINY, rng.random((1, 8, 8)))
        assert (probs > 0.0).all() and (probs < 1.0).all()

    def test_deterministic(self):
        rng = np.random.default_rng(53)
        image = rng.random((1, 8, 8))
        params = init_params(TINY, 4)
        a, _ = forward(params, TINY, image)
        b, _ = forward(params, TINY, image)
        np.testing.assert_array_equal(a, b)

    def test_rejects_indivisible_size(self):
        with pytest.raises(ValueError, match="divisible by 2"):
            forward(init_params(TINY, 0), TINY, np.zeros((1, 7, 8)))

    @pytest.mark.parametrize("hw", [(0, 0), (0, 16), (16, 0)],
                             ids=["0x0", "0x16", "16x0"])
    def test_rejects_zero_extent_naming_it(self, hw):
        # 0 is divisible by every size multiple; the image check still
        # names the empty extent before any kernel runs.
        cfg = EncoderConfig()
        with pytest.raises(ValueError, match=rf"image extents {hw[0]}x{hw[1]} "
                           r"must be divisible by 16 \(5 blocks\) and positive"):
            forward(init_params(cfg, 0), cfg, np.zeros((3, *hw)))

    def test_rejects_wrong_channel_count(self):
        with pytest.raises(ValueError, match=r"expected image \[1,H,W\], "
                           r"got shape \(3, 8, 8\)"):
            forward(init_params(TINY, 0), TINY, np.zeros((3, 8, 8)))

    def test_output_shape_at_protocol_resolution(self):
        # The full-size default encoder runs at 336x336 without code change.
        cfg = EncoderConfig()
        probs, _ = forward(init_params(cfg, 0), cfg,
                           np.random.default_rng(0).random((3, 336, 336)))
        assert probs.shape == (4, 336, 336)

    def test_overlapping_detections_representable(self):
        # A constructed head can push two classes above 0.5 at one pixel.
        params = zero_params(TINY)
        params["block1.bias"][...] = 1.0
        params["block2.bias"][...] = 1.0
        params["head.bias"][...] = [2.0, 2.0, -2.0, -2.0]
        probs, _ = forward(params, TINY, np.zeros((1, 8, 8)))
        assert probs[0, 0, 0] > 0.5 and probs[1, 0, 0] > 0.5
        assert probs[2, 0, 0] < 0.5 and probs[3, 0, 0] < 0.5


class TestBackward:
    def test_zero_grad_probs_gives_zero_grads(self):
        rng = np.random.default_rng(54)
        params = init_params(TINY, 5)
        probs, cache = forward(params, TINY, rng.random((1, 8, 8)))
        grads, g_img = model.backward(params, TINY, cache, np.zeros_like(probs))
        assert list(grads) == list(params)
        for g in grads.values():
            assert (g == 0.0).all()
        assert (g_img == 0.0).all()

    def test_head_bias_grad_is_per_class_sigmoid_chain_sum(self):
        rng = np.random.default_rng(55)
        params = init_params(TINY, 6)
        image = rng.random((1, 8, 8))
        probs, cache = forward(params, TINY, image)
        grad_probs = rng.normal(size=probs.shape)
        grads, _ = model.backward(params, TINY, cache,
                                  ops.sigmoid_backward(probs, grad_probs))
        expected = (grad_probs * probs * (1.0 - probs)).sum(axis=(1, 2))
        np.testing.assert_allclose(grads["head.bias"], expected, rtol=1e-12)

    def test_rejects_stale_cache_shape(self):
        rng = np.random.default_rng(56)
        params = init_params(TINY, 7)
        _, cache = forward(params, TINY, rng.random((1, 8, 8)))
        with pytest.raises(ValueError, match="grad_logits"):
            model.backward(params, TINY, cache, np.zeros((4, 6, 6)))

    def test_traced_peak_per_pixel_at_256px(self):
        # The cache and the backward together: the backward holds block
        # 1's rebuilt tap, so the cache's bytes are only saved if the
        # backward does not spend them. The image and the logit gradient
        # are made before tracing; the traced cache is the taps of blocks
        # 2..B, 58 bytes a pixel. Each gradient is dropped at its last use
        # and block 1's relu mask is applied in place, so the backward
        # peaks at block 1's stage with its tap, g_tap and g_from_pool
        # live: 257.7 bytes a pixel in all. A cache with block 1's tap
        # (122 bytes a pixel) read 265.7, and keeping block 2's g_z or its
        # pooled input and input gradient into block 1's stage 290.
        cfg = EncoderConfig()
        rng = np.random.default_rng(58)
        params = init_params(cfg, 9)
        image = rng.random((3, 256, 256))
        grad_logits = rng.normal(size=(4, 256, 256))
        forward(params, cfg, image)  # caches the resize matrices untraced
        tracemalloc.start()  # numpy reports its buffers to tracemalloc
        try:
            probs, cache = forward(params, cfg, image)
            del probs
            tracemalloc.reset_peak()
            model.backward(params, cfg, cache, grad_logits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (256 * 256) < 262

    def test_bytes_at_256px_match_backward_with_forward_block1_tap(
            self, monkeypatch):
        # The backward as it was with block 1's tap in the cache: the
        # forward's own tap, the relu mask out of place and pool routing
        # by argmax. At 256 px block 1's convolutions run in row bands.
        cfg = EncoderConfig()
        rng = np.random.default_rng(60)
        params = init_params(cfg, 14)
        image = rng.random((3, 256, 256))
        built = []

        def recorded_block_tap(params, i, x, _block_tap=model.block_tap):
            built.append(_block_tap(params, i, x))
            return built[-1]

        monkeypatch.setattr(model, "block_tap", recorded_block_tap)
        probs, cache = forward(params, cfg, image)
        grad_logits = ops.sigmoid_backward(probs, rng.normal(size=probs.shape))
        grads, g_img = model.backward(params, cfg, cache, grad_logits)
        assert len(built) == cfg.block_count + 1  # one rebuild

        forward_tap = built[0]
        monkeypatch.setattr(model, "block_tap", lambda *args: forward_tap)
        monkeypatch.setattr(ops, "relu_backward",
                            lambda x, g: np.where(x > 0.0, g, 0.0))
        monkeypatch.setattr(ops, "maxpool2d_backward", lambda x, out, g: (
            maxpool2d_backward_oracle(maxpool2d_oracle(x)[1], g, x.shape)))
        want_grads, want_g_img = model.backward(params, cfg, cache,
                                                grad_logits)
        for name in grads:
            assert grads[name].tobytes() == want_grads[name].tobytes(), name
        assert g_img.tobytes() == want_g_img.tobytes()

    def test_end_to_end_loss_gradient(self):
        rng = np.random.default_rng(57)
        params = init_params(TINY, 8)
        for name in ("block1.bias", "block2.bias"):
            params[name] += 0.2  # keep pre-activations off the relu kink
        image = rng.random((1, 8, 8))
        truth = (rng.random((4, 8, 8)) < 0.4).astype(np.float64)

        probs, cache = forward(params, TINY, image)
        grads, g_img = model.backward(
            params, TINY, cache,
            ops.sigmoid_backward(probs, f1_loss_grad(probs, truth)[2]))

        def loss_of_params(vec):
            p = unflatten_params(TINY, vec)
            return f1_loss(forward(p, TINY, image)[0], truth)[0]

        rep = gradcheck(loss_of_params, flatten_params(params),
                        flatten_params(grads), step=1e-5, tolerance=1e-5)
        assert rep.passed, rep.summary()

        def loss_of_image(img):
            return f1_loss(forward(params, TINY, img)[0], truth)[0]

        rep = gradcheck(loss_of_image, image, g_img, step=1e-5, tolerance=1e-5)
        assert rep.passed, rep.summary()


def _fwd_bwd_bytes(params, cfg, image, grad_logits):
    """probs, each gradient and the image gradient: (dtype, bytes) pairs."""
    probs, cache = forward(params, cfg, image)
    grads, g_img = model.backward(params, cfg, cache, grad_logits)
    return [(a.dtype, a.tobytes()) for a in (probs, *grads.values(), g_img)]


class TestBoundaryCoercion:
    """forward and backward coerce the image, grad_logits and params to
    float64 once; the kernels take their operands as given. Any input
    gives the bytes of its float64 C-order copy."""

    CFG = EncoderConfig(channels=(4, 6, 8), in_channels=3)

    def setup_method(self):
        rng = np.random.default_rng(59)
        self.params = init_params(self.CFG, 13)
        self.image = rng.integers(0, 256, (3, 16, 16)) / 255.0
        self.grad_logits = rng.normal(size=(4, 16, 16))

    @pytest.mark.parametrize("make", [
        lambda x: x.astype(np.float32),
        lambda x: (x * 255.0).round().astype(np.int64),
        lambda x: np.ascontiguousarray(x.transpose(1, 2, 0)).transpose(2, 0, 1),
    ], ids=["float32", "int64", "transposed-view"])
    def test_image_gives_bytes_of_its_float64_copy(self, make):
        image = make(self.image)
        reference = np.array(image, dtype=np.float64, order="C")
        assert image.dtype != np.float64 or not image.flags.c_contiguous
        assert (_fwd_bwd_bytes(self.params, self.CFG, image, self.grad_logits)
                == _fwd_bwd_bytes(self.params, self.CFG, reference,
                                  self.grad_logits))

    def test_grad_probs_view_gives_bytes_of_its_copy(self):
        view = np.ascontiguousarray(self.grad_logits.transpose(0, 2, 1)).transpose(0, 2, 1)
        assert not view.flags.c_contiguous
        assert (_fwd_bwd_bytes(self.params, self.CFG, self.image, view)
                == _fwd_bwd_bytes(self.params, self.CFG, self.image,
                                  self.grad_logits))

    def test_float32_params_give_float64_outputs_and_gradients(self):
        p32 = {name: a.astype(np.float32) for name, a in self.params.items()}
        p64 = {name: a.astype(np.float64) for name, a in p32.items()}
        got = _fwd_bwd_bytes(p32, self.CFG, self.image, self.grad_logits)
        assert all(dtype == np.float64 for dtype, _ in got)
        assert got == _fwd_bwd_bytes(p64, self.CFG, self.image, self.grad_logits)

    def test_backward_checks_params(self):
        _, cache = forward(self.params, self.CFG, self.image)
        params = dict(self.params)
        del params["head.bias"]
        with pytest.raises(ValueError, match="params do not match config"):
            model.backward(params, self.CFG, cache, self.grad_logits)


class TestFactoredHead:
    @pytest.mark.parametrize("cfg, hw", [
        (EncoderConfig(), (16, 16)), (EncoderConfig(), (32, 48)), (TINY, (8, 8)),
        (EncoderConfig(channels=(3,), in_channels=1), (8, 8)),
    ], ids=["default-16x16", "default-32x48", "tiny-8x8", "one-block-8x8"])
    def test_matches_hypercolumn_oracle(self, cfg, hw):
        rng = np.random.default_rng(58)
        params = init_params(cfg, 12)
        for i in range(1, cfg.block_count + 1):
            params[f"block{i}.bias"] += 0.1  # keep every block alive
        params["head.bias"] = rng.normal(size=4)
        image = rng.random((cfg.in_channels, *hw))
        grad_probs = rng.normal(size=(4, *hw))

        probs, cache = forward(params, cfg, image)
        grad_logits = ops.sigmoid_backward(probs, grad_probs)
        want_probs, want_grads, want_g_img = hypercolumn_oracle(
            params, cfg, image, grad_logits)
        grads, g_img = model.backward(params, cfg, cache, grad_logits)

        assert np.abs(probs - want_probs).max() <= 1e-14
        assert list(grads) == list(want_grads)
        for name, got, want in [*((n, grads[n], want_grads[n]) for n in grads),
                                ("image", g_img, want_g_img)]:
            assert got.shape == want.shape, name
            scale = np.abs(want).max()
            assert scale > 0.0, name
            assert np.abs(got - want).max() <= 1e-12 * scale, name

    @pytest.mark.parametrize("hw", [(64, 64), (32, 48)])
    def test_bytes_match_conv_head_composition(self, hw):
        # The matmul head, the skipped same-size resize and block 1's
        # rebuilt tap change no byte of the output or of any gradient.
        cfg = EncoderConfig()
        rng = np.random.default_rng(59)
        params = init_params(cfg, 13)
        for name in params:
            if name.endswith(".bias"):
                params[name] += rng.normal(size=params[name].shape) * 0.1
        image = rng.random((cfg.in_channels, *hw))
        grad_probs = rng.normal(size=(4, *hw))

        probs, cache = forward(params, cfg, image)
        grad_logits = ops.sigmoid_backward(probs, grad_probs)
        want_probs, want_grads, want_g_img = conv_head_composition(
            params, cfg, image, grad_logits)
        grads, g_img = model.backward(params, cfg, cache, grad_logits)

        assert probs.tobytes() == want_probs.tobytes()
        assert list(grads) == list(want_grads)
        for name in grads:
            assert grads[name].shape == want_grads[name].shape, name
            assert grads[name].tobytes() == want_grads[name].tobytes(), name
        assert g_img.tobytes() == want_g_img.tobytes()


# One forward and backward, printed as sha256 per tensor, the thread
# count of the process (Linux only; None elsewhere) and the number of
# row bands, column blocks, of each conv2d_backward call. At 128 px
# OpenBLAS splits some products across two threads; at 32 and 64 px none
# is large enough, and a two-thread run used no more CPU time than wall
# time.
_DETERMINISM_SCRIPT = """
import hashlib, json, os
import numpy as np
from dermfeat import model, ops
from dermfeat.loss import f1_loss_grad
bands = []  # one count per conv2d_backward call
inside = []  # conv2d, also run by the backward's rebuild, is not counted
def columns(*args, _columns=ops._columns):
    if inside:
        bands[-1] += 1
    return _columns(*args)
def conv2d_backward(*args, _backward=ops.conv2d_backward):
    bands.append(0)
    inside.append(True)
    try:
        return _backward(*args)
    finally:
        inside.pop()
ops._columns, ops.conv2d_backward = columns, conv2d_backward
cfg = model.EncoderConfig()
params = model.init_params(cfg, 21)
rng = np.random.default_rng(21)
image = rng.random((3, 128, 128))
truth = (rng.random((4, 128, 128)) < 0.3).astype(np.float64)
probs, cache = model.forward(params, cfg, image)
grads, g_img = model.backward(
    params, cfg, cache, ops.sigmoid_backward(probs, f1_loss_grad(probs, truth)[2]))
tensors = {"probs": probs, "image": g_img, **grads}
tasks = "/proc/self/task"
print(json.dumps({
    "threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
    "bands": bands,
    "sha256": {k: hashlib.sha256(v.tobytes()).hexdigest()
               for k, v in tensors.items()}}))
"""


def test_identical_bytes_across_blas_thread_counts():
    # BLAS reads its thread count when it loads, so each count needs its
    # own process.
    src = str(Path(dermfeat.__file__).resolve().parents[1])
    runs = {}
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        done = subprocess.run([sys.executable, "-c", _DETERMINISM_SCRIPT],
                              env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        runs[threads] = json.loads(done.stdout)
    one, two = runs["1"], runs["2"]
    # OpenBLAS starts no more threads than the CPUs in the affinity, as
    # train.image_map counts them.
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    if one["threads"] is not None and cpus >= 2:
        assert two["threads"] > one["threads"]  # the variable took effect
    # Blocks 5 to 1: bands join in the weight and input gradients.
    assert one["bands"] == two["bands"] == [1, 1, 2, 4, 4]
    assert one["sha256"] == two["sha256"]


class TestFlatten:
    def test_round_trip(self):
        params = init_params(EncoderConfig(channels=(3, 5), in_channels=2), 9)
        vec = flatten_params(params)
        back = unflatten_params(EncoderConfig(channels=(3, 5), in_channels=2), vec)
        assert list(back) == list(params)
        for a, b in zip(params.values(), back.values()):
            np.testing.assert_array_equal(a, b)

    def test_shapes_cover_all_tensors(self):
        cfg = EncoderConfig(channels=(3, 5), in_channels=2)
        specs = param_specs(cfg)
        assert specs == [(name, a.shape)
                         for name, a in init_params(cfg, 0).items()]
        assert specs == [("block1.weight", (3, 2, 3, 3)), ("block1.bias", (3,)),
                         ("block2.weight", (5, 3, 3, 3)), ("block2.bias", (5,)),
                         ("head.weight", (4, 8, 1, 1)), ("head.bias", (4,))]

    def test_rejects_wrong_vector_length(self):
        cfg = EncoderConfig(channels=(3, 5), in_channels=2)
        vec = flatten_params(init_params(cfg, 0))
        with pytest.raises(ValueError, match="config needs"):
            unflatten_params(cfg, vec[:-1])


class TestSerialization:
    def test_round_trip_bit_identical(self, tmp_path):
        cfg = EncoderConfig(channels=(4, 8), in_channels=3)
        params = init_params(cfg, 10)
        path = tmp_path / "weights.hfcn"
        save_params(params, cfg, path)
        loaded, loaded_cfg = load_params(path)
        assert loaded_cfg == cfg
        assert list(loaded) == list(params)
        for a, b in zip(params.values(), loaded.values()):
            np.testing.assert_array_equal(a, b)

    def test_on_disk_format_is_pinned(self, tmp_path):
        cfg = EncoderConfig(channels=(2, 3), in_channels=1)
        path = tmp_path / "weights.hfcn"
        save_params(init_params(cfg, 0), cfg, path)
        data = path.read_bytes()
        assert len(data) == 1237
        assert hashlib.sha256(data).hexdigest() == (
            "4d396fd8d4af81931b1f687718d3f9d359b3d60c268bacbfcb0b8223832aa37c")

    @pytest.mark.parametrize("room, at_close", [(3, False), (-1, True)],
                             ids=["fourth-write", "close"])
    def test_full_disk_removes_file_and_names_it(self, tmp_path, monkeypatch,
                                                 room, at_close):
        cfg = EncoderConfig(channels=(2, 3), in_channels=1)
        path = tmp_path / "w.hfcn"
        opened = fill_disk(monkeypatch, room, at_close)
        with pytest.raises(OSError) as info:
            save_params(init_params(cfg, 0), cfg, path)
        assert str(info.value) == f"{path}: [Errno 28] No space left on device"
        assert opened[0].on_disk.startswith(WEIGHTS_MAGIC)
        assert list(tmp_path.iterdir()) == []

    def test_rejects_corrupted_magic(self, tmp_path):
        cfg = EncoderConfig(channels=(2,), in_channels=1)
        path = tmp_path / "weights.hfcn"
        save_params(init_params(cfg, 0), cfg, path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="magic"):
            load_params(path)

    def test_rejects_truncated_payload(self, tmp_path):
        cfg = EncoderConfig(channels=(2,), in_channels=1)
        path = tmp_path / "weights.hfcn"
        save_params(init_params(cfg, 0), cfg, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ValueError, match="truncated"):
            load_params(path)

    def test_check_params_names_offending_block(self):
        cfg = EncoderConfig(channels=(2, 3), in_channels=1)
        params = init_params(cfg, 0)
        params["block2.weight"] = np.zeros((3, 9, 3, 3))
        with pytest.raises(ValueError, match="block2.weight"):
            check_params(params, cfg)

    @pytest.mark.parametrize("shape", [(4, 4, 1, 1), (4, 5, 1), (3, 5, 1, 1)],
                             ids=["too-few-channels", "rank-3", "too-few-classes"])
    def test_check_params_rejects_head_shape(self, shape):
        # The head is split per tap by channel count: its shape is checked
        # here, not by the kernels.
        cfg = EncoderConfig(channels=(2, 3), in_channels=1)
        params = init_params(cfg, 0)
        params["head.weight"] = np.zeros(shape)
        with pytest.raises(ValueError, match=r"tensor 4 is \('head.weight'"):
            check_params(params, cfg)

    def test_check_params_enforces_names_and_order(self):
        cfg = EncoderConfig(channels=(2, 3), in_channels=1)
        params = init_params(cfg, 0)
        reordered = dict(reversed(params.items()))
        with pytest.raises(ValueError, match=r"tensor 0 is \('head.bias'"):
            check_params(reordered, cfg)
        del params["head.bias"]
        with pytest.raises(ValueError, match=r"None, expected \('head.bias'"):
            check_params(params, cfg)



def _weights_bytes() -> bytes:
    """The pinned 1237-byte weights file of a (2, 3)-channel encoder."""
    cfg = EncoderConfig(channels=(2, 3), in_channels=1)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/weights.hfcn"
        save_params(init_params(cfg, 0), cfg, path)
        with open(path, "rb") as fh:
            return fh.read()


def _weights_parts():
    """(header dict, payload bytes) of _weights_bytes()."""
    data = _weights_bytes()
    (n,) = struct.unpack("<Q", data[8:16])
    return json.loads(data[16:16 + n]), data[16 + n:]


def _weights_file(header, payload: bytes, blob: bytes | None = None) -> bytes:
    if blob is None:
        blob = json.dumps(header).encode("utf-8")
    return WEIGHTS_MAGIC + struct.pack("<Q", len(blob)) + blob + payload


def _malformed(case: str) -> bytes:
    header, payload = _weights_parts()
    if case == "trailing bytes":
        return _weights_file(header, payload + bytes(8))
    if case == "bogus tensor name":
        header["tensors"][2]["name"] = "block2.kernel"
        return _weights_file(header, payload)
    if case == "too few tensors":
        header["tensors"] = header["tensors"][:-1]
        return _weights_file(header, payload[:-4 * 8])
    if case == "huge header length":
        return WEIGHTS_MAGIC + struct.pack("<Q", 2 ** 62)
    if case == "non-UTF-8 header":
        return _weights_file(None, payload, blob=b"\xff\xfe{}")
    if case == "non-JSON header":
        return _weights_file(None, payload, blob=b"{channels: [2, 3]")
    if case == "non-object header":
        return _weights_file([1, 2], payload)
    if case.startswith("missing "):
        del header[case.split()[1]]
        return _weights_file(header, payload)
    if case == "invalid geometry":
        header["kernel"] = 2
        return _weights_file(header, payload)
    if case == "fractional geometry":
        header["in_channels"] = 1.9
        return _weights_file(header, payload)
    if case in ("NaN weight", "inf weight"):
        vec = np.frombuffer(payload, dtype="<f8").copy()
        if case == "NaN weight":
            vec[-6] = np.nan  # in head.weight: head.bias is the last 4 entries
        else:
            vec[0] = -np.inf  # in block1.weight
        return _weights_file(header, vec.tobytes())
    raise AssertionError(case)


class TestLoaderRejects:
    @pytest.mark.parametrize("case, detail", [
        ("trailing bytes", "trailing bytes"),
        ("bogus tensor name", r"tensor 2 is \('block2.kernel'"),
        ("too few tensors", r"tensor 5 is None, expected \('head.bias'"),
        ("huge header length", "truncated header"),
        ("non-UTF-8 header", "malformed header"),
        ("non-JSON header", "malformed header"),
        ("non-object header", "malformed header"),
        ("missing channels", "lacks key 'channels'"),
        ("missing kernel", "lacks key 'kernel'"),
        ("missing tensors", "lacks key 'tensors'"),
        ("invalid geometry", "malformed header: kernel must be 3, got 2"),
        ("fractional geometry", "geometry entries must be integers"),
        ("NaN weight", "head.weight has non-finite values"),
        ("inf weight", "block1.weight has non-finite values"),
    ])
    def test_malformed_file_is_value_error_naming_path(self, tmp_path, case,
                                                       detail):
        path = tmp_path / "weights.hfcn"
        path.write_bytes(_malformed(case))
        with pytest.raises(ValueError, match=detail) as info:
            load_params(path)
        assert str(path) in str(info.value)


@pytest.fixture(scope="module")
def corruption_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("corrupt"), _weights_bytes()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(offset=st.integers(0, 1236), flip=st.integers(0, 255))
def test_truncated_or_flipped_file_loads_finite_or_names_path(corruption_dir,
                                                              offset, flip):
    # flip == 0 truncates the file at offset; otherwise XOR one byte there.
    root, valid = corruption_dir
    data = bytearray(valid)
    if flip:
        data[offset] ^= flip
    else:
        del data[offset:]
    path = root / "weights.hfcn"
    path.write_bytes(bytes(data))
    try:
        params, _ = load_params(path)
    except ValueError as exc:
        assert str(path) in str(exc)
    else:
        assert all(np.isfinite(a).all() for a in params.values())
