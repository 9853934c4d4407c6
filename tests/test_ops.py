"""Tensor kernel tests: independent oracles, frozen examples, gradient checks."""

import inspect
import tracemalloc

import numpy as np
import pytest

from dermfeat import checks, model, ops
from dermfeat.gradcheck import gradcheck
from oracles import (conv2d_single_product_oracle, maxpool2d_backward_oracle,
                     maxpool2d_oracle, resize_backward_oracle, resize_oracle)


def conv2d_oracle(x, w, p):
    """Direct nested-loop bias-free convolution at every offset, zero
    padding p, independent of the production path."""
    c_out, c_in, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (p, p), (p, p)))
    out_h = x.shape[1] + 2 * p - kh + 1
    out_w = x.shape[2] + 2 * p - kw + 1
    out = np.zeros((c_out, out_h, out_w))
    for o in range(c_out):
        for i in range(out_h):
            for j in range(out_w):
                acc = 0.0
                for c in range(c_in):
                    for ki in range(kh):
                        for kj in range(kw):
                            acc += w[o, c, ki, kj] * xp[c, i + ki, j + kj]
                out[o, i, j] = acc
    return out


def conv2d_backward_oracle(x, w, p, g):
    """A tap loop of einsums over strided windows: the products of
    conv2d_backward's per-tap matmuls summed in another order, so the two
    agree to rounding. Returns (grad_input, grad_weights)."""
    out_h, out_w = g.shape[1:]
    xp = np.pad(x, ((0, 0), (p, p), (p, p)))
    grad_xp = np.zeros_like(xp)
    grad_w = np.zeros_like(w)
    for ki in range(w.shape[2]):
        for kj in range(w.shape[3]):
            rows = slice(ki, ki + out_h)
            cols = slice(kj, kj + out_w)
            grad_w[:, :, ki, kj] = np.einsum("ohw,chw->oc", g, xp[:, rows, cols])
            grad_xp[:, rows, cols] += np.einsum("oc,ohw->chw", w[:, :, ki, kj], g)
    in_h, in_w = x.shape[1:]
    return grad_xp[:, p:p + in_h, p:p + in_w], grad_w


def conv2d_tap_sum(x, w, p):
    """The nine-tap lowering conv2d's one GEMM replaced: one
    [C_out,C_in] @ [C_in,out_h*out_w] matmul per tap, in row-major tap
    order, summed into an accumulator."""
    c_out, c_in, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (p, p), (p, p)))
    out_h = x.shape[1] + 2 * p - kh + 1
    out_w = x.shape[2] + 2 * p - kw + 1
    acc = np.zeros((c_out, out_h * out_w))
    for ki in range(kh):
        for kj in range(kw):
            window = xp[:, ki:ki + out_h, kj:kj + out_w].reshape(c_in, -1)
            acc += w[:, :, ki, kj] @ window
    return acc.reshape(c_out, out_h, out_w)


def band_starts(monkeypatch):
    """Record (start, n) of every column block ops builds."""
    starts, columns = [], ops._columns

    def recording(flat, wp, start, cols):
        starts.append((start, cols.shape[-1]))
        return columns(flat, wp, start, cols)

    monkeypatch.setattr(ops, "_columns", recording)
    return starts


class StridedShape(tuple):
    """An input shape that conv_input draws as a non-contiguous view."""


def conv_input(rng, shape):
    """A normal draw of `shape`. A StridedShape is drawn as every other
    row and column of a larger array, channels reversed: a view with
    negative and non-unit strides."""
    if isinstance(shape, StridedShape):
        c, h, w = shape
        return rng.normal(size=(c, 2 * h, 2 * w))[::-1, ::2, ::2]
    return rng.normal(size=shape)


# (input [C,H,W], kernel kh x kw, padding). (3,3,2) pads beyond k // 2,
# so the output outgrows the input: the edge case of the extra-row
# layout. The next two give a 1-row and a 1-column output. Then a tall
# kernel over 4 channels, unpadded, where a column block in the wrong
# order or a crop at the wrong width shows, and a strided input view.
CONV_CASES = [((3, 6, 8), 3, 3, 1), ((3, 6, 8), 2, 3, 0), ((3, 6, 8), 1, 1, 0),
              ((3, 6, 8), 3, 3, 2), ((3, 3, 8), 3, 3, 0), ((3, 6, 1), 3, 3, 1),
              ((4, 7, 9), 3, 2, 0), (StridedShape((2, 5, 7)), 3, 3, 1)]


class TestConv2d:
    def test_frozen_2x2_kernel_example(self):
        x = np.array([[[1.0, 2, 3], [4, 5, 6], [7, 8, 9]]])
        w = np.ones((1, 1, 2, 2))
        expected = np.array([[[12.0, 16.0], [24.0, 28.0]]])
        np.testing.assert_array_equal(conv2d_oracle(x, w, 0), expected)
        np.testing.assert_array_equal(ops.conv2d(x, w, 0), expected)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(3)
        for shape, kh, kw, padding in CONV_CASES:
            x = conv_input(rng, shape)
            w = rng.normal(size=(2, shape[0], kh, kw))
            np.testing.assert_allclose(ops.conv2d(x, w, padding),
                                       conv2d_oracle(x, w, padding),
                                       rtol=1e-13, atol=1e-13)

    def test_identity_kernel_returns_input(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 5, 7))
        w = np.ones((1, 1, 1, 1))
        out = ops.conv2d(x, w, 0)
        np.testing.assert_array_equal(out, x)

    def test_zero_input_gives_zero(self):
        x = np.zeros((2, 4, 4))
        rng = np.random.default_rng(5)
        w = rng.normal(size=(3, 2, 3, 3))
        np.testing.assert_array_equal(ops.conv2d(x, w, 1), np.zeros((3, 4, 4)))

    def test_linearity(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 5, 5))
        y = rng.normal(size=(2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        a, c = 1.7, -0.4
        lhs = ops.conv2d(a * x + c * y, w, 1)
        rhs = a * ops.conv2d(x, w, 1) + c * ops.conv2d(y, w, 1)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_encoder_blocks_match_tap_sum(self):
        """Each default block at 64 px, as one GEMM, moves only the last
        bits of the nine-tap accumulation."""
        cfg = model.EncoderConfig()
        rng = np.random.default_rng(11)
        c_in, size = cfg.in_channels, 64
        for c_out in cfg.channels:
            x = rng.normal(size=(c_in, size, size))
            w = rng.normal(size=(c_out, c_in, model.KERNEL, model.KERNEL))
            got = ops.conv2d(x, w, model.KERNEL // 2)
            want = conv2d_tap_sum(x, w, model.KERNEL // 2)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
            c_in, size = c_out, size // 2

    @pytest.mark.parametrize("size, bands", [
        (64, [64]), (256, [16] * 16), (80, [48, 32])],
        ids=["one-band", "16-bands", "short-last-band"])
    def test_bands_give_bytes_of_single_product(self, monkeypatch, size,
                                                bands):
        """Block 1's shape (3 to 8 channels): the banded output has the
        bytes of one product over the whole output's column block."""
        rng = np.random.default_rng(15)
        x = rng.normal(size=(3, size, size))
        w = rng.normal(size=(8, 3, 3, 3))
        starts = band_starts(monkeypatch)
        got = ops.conv2d(x, w, 1)
        assert [n // (size + 2) for _, n in starts] == bands
        assert got.tobytes() == conv2d_single_product_oracle(x, w, 1).tobytes()

    def test_traced_peak_of_block1_at_256px(self):
        # The output, the padded input and one band's column block peak
        # at 6.7 MB here; one column block for the whole output took
        # 20.1 MB.
        rng = np.random.default_rng(16)
        x = rng.normal(size=(3, 256, 256))
        w = rng.normal(size=(8, 3, 3, 3))
        tracemalloc.start()  # numpy reports its buffers to tracemalloc
        try:
            ops.conv2d(x, w, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestConv2dBackward:
    def test_identity_kernel_passes_grad_through(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1, 4, 4))
        w = np.ones((1, 1, 1, 1))
        g = rng.normal(size=(1, 4, 4))
        gx, _ = ops.conv2d_backward(x, w, 0, g)
        np.testing.assert_array_equal(gx, g)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(1, 4, 4))
        w = rng.normal(size=(2, 1, 3, 3))
        g = rng.normal(size=(2, 4, 4))
        gx, gw = ops.conv2d_backward(x, w, 1, g)

        rep = gradcheck(lambda v: float((g * ops.conv2d(v, w, 1)).sum()),
                        x, gx, step=1e-5, tolerance=1e-6)
        assert rep.passed, rep.summary()
        rep = gradcheck(lambda v: float((g * ops.conv2d(x, v, 1)).sum()),
                        w, gw, step=1e-5, tolerance=1e-6)
        assert rep.passed, rep.summary()

    @pytest.mark.parametrize("shape,kh,kw,padding", CONV_CASES)
    def test_matches_einsum_tap_loop(self, shape, kh, kw, padding):
        rng = np.random.default_rng(10)
        x = conv_input(rng, shape)
        w = rng.normal(size=(4, shape[0], kh, kw))
        out_shape = ops.conv2d(x, w, padding).shape
        g = rng.normal(size=out_shape)
        got = ops.conv2d_backward(x, w, padding, g)
        want = conv2d_backward_oracle(x, w, padding, g)
        for name, a, b in zip(("input", "weights"), got, want, strict=True):
            np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-13,
                                       err_msg=f"grad {name}")

    @pytest.mark.parametrize("shape,kh,kw,padding", [
        ((2, 40, 7), 3, 3, 1), ((3, 40, 9), 2, 3, 0)])
    def test_bands_match_einsum_tap_loop(self, monkeypatch, shape, kh, kw,
                                         padding):
        # A 16-row band's column block just fits, so the 40 or 39 output
        # rows run as bands of 16, 16 and the short rest.
        rng = np.random.default_rng(12)
        x = rng.normal(size=shape)
        w = rng.normal(size=(4, shape[0], kh, kw))
        out_h, out_w = ops.conv2d(x, w, padding).shape[1:]
        wp = shape[2] + 2 * padding
        monkeypatch.setattr(ops, "BAND_ENTRIES",
                            ops.BAND_ROWS * kh * kw * shape[0] * wp)
        g = rng.normal(size=(4, out_h, out_w))
        starts = band_starts(monkeypatch)
        got = ops.conv2d_backward(x, w, padding, g)
        assert starts == [(0, 16 * wp), (16 * wp, 16 * wp),
                          (32 * wp, (out_h - 32) * wp)]
        want = conv2d_backward_oracle(x, w, padding, g)
        for name, a, b in zip(("input", "weights"), got, want, strict=True):
            np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-13,
                                       err_msg=f"grad {name}")
        again = ops.conv2d_backward(x, w, padding, g)
        for a, b in zip(got, again, strict=True):
            assert a.tobytes() == b.tobytes()

    def test_encoder_blocks_at_256px_match_einsum_tap_loop(self, monkeypatch):
        """Each default block at 256 px: blocks 1-4 run several bands."""
        cfg = model.EncoderConfig()
        rng = np.random.default_rng(13)
        c_in, size = cfg.in_channels, 256
        starts, bands = band_starts(monkeypatch), []
        for c_out in cfg.channels:
            x = rng.normal(size=(c_in, size, size))
            w = rng.normal(size=(c_out, c_in, model.KERNEL, model.KERNEL))
            g = rng.normal(size=(c_out, size, size))
            starts.clear()
            got = ops.conv2d_backward(x, w, model.KERNEL // 2, g)
            bands.append(len(starts))
            want = conv2d_backward_oracle(x, w, model.KERNEL // 2, g)
            for name, a, b in zip(("input", "weights"), got, want, strict=True):
                scale = np.abs(b).max()
                assert np.abs(a - b).max() <= 1e-13 * scale, f"grad {name}"
            c_in, size = c_out, size // 2
        assert bands == [16, 8, 4, 2, 1]

    def test_traced_peak_of_block1_at_256px(self):
        # The bands peak at 4.4 MB here; one column block for the whole
        # output would hold 21.7 MB.
        rng = np.random.default_rng(14)
        x = rng.normal(size=(3, 256, 256))
        w = rng.normal(size=(8, 3, 3, 3))
        g = rng.normal(size=(8, 256, 256))
        tracemalloc.start()  # numpy reports its buffers to tracemalloc
        try:
            ops.conv2d_backward(x, w, 1, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2 ** 20


class TestMaxPool:
    def test_single_window(self):
        out = ops.maxpool2d(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        np.testing.assert_array_equal(out, [[[4.0]]])

    def test_constant_input(self):
        out = ops.maxpool2d(np.full((2, 4, 4), 2.5))
        np.testing.assert_array_equal(out, np.full((2, 2, 2), 2.5))

    def test_tie_breaks_to_smallest_flat_index(self):
        # A four-way tie, then ties of positions 1 and 3, and 1 and 2.
        x = np.array([[[0.0, 0.0, 1.0, 2.0, 0.0, 2.0],
                       [0.0, 0.0, 0.0, 2.0, 2.0, 0.0]]])
        gx = ops.maxpool2d_backward(x, ops.maxpool2d(x), np.ones((1, 1, 3)))
        np.testing.assert_array_equal(gx, [[[1.0, 0.0, 0.0, 1.0, 0.0, 1.0],
                                            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]]])

    def test_backward_routes_to_argmax_only(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        gx = ops.maxpool2d_backward(x, ops.maxpool2d(x), np.array([[[5.0]]]))
        np.testing.assert_array_equal(gx, [[[0.0, 0.0], [0.0, 5.0]]])

    def test_backward_bit_identical_to_add_at(self):
        rng = np.random.default_rng(17)
        # Relu outputs: small integers tie within windows, also at exact
        # zeros; the normal draws have clear winners.
        x = ops.relu(np.concatenate([rng.integers(-1, 3, size=(3, 16, 12)),
                                     rng.normal(size=(3, 16, 12))]))
        out = ops.maxpool2d(x)
        want_out, argmax = maxpool2d_oracle(x)
        assert out.tobytes() == want_out.tobytes()
        assert (x == out.repeat(2, axis=1).repeat(2, axis=2)).sum() > out.size
        g = rng.normal(size=out.shape)
        g[rng.random(g.shape) < 0.2] = -0.0
        g[rng.random(g.shape) < 0.1] = 0.0
        got = ops.maxpool2d_backward(x, out, g)
        want = maxpool2d_backward_oracle(argmax, g, x.shape)
        assert got.tobytes() == want.tobytes()

    def test_signed_zero_window_routes_like_oracle(self):
        # Both windows pool a zero held as 0.0 and -0.0, in either order.
        x = np.array([[[0.0, -0.0, -0.0, 0.0], [-1.0, 0.0, -0.0, -0.0]]])
        out = ops.maxpool2d(x)
        want_out, argmax = maxpool2d_oracle(x)
        # Equal as values; the pooled zero's sign may differ.
        np.testing.assert_array_equal(out, want_out)
        for g in ([[[-2.0, 3.0]]], [[[-0.0, -1.5]]], [[[0.0, -0.0]]]):
            g = np.array(g)
            got = ops.maxpool2d_backward(x, out, g)
            want = maxpool2d_backward_oracle(argmax, g, x.shape)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("tied", range(1, 16))
    def test_tied_window_and_signed_zero_gradient_route_like_oracle(self,
                                                                     tied):
        # Bit k of `tied` puts the window's max at row-major position k;
        # each window of the row gets one gradient entry, -0.0 among them.
        at = [k for k in range(4) if tied >> k & 1]
        window = np.array([2.0 if k in at else 1.0 for k in range(4)])
        x = np.tile(window.reshape(2, 2), (1, 1, 5))
        x[0, :, 8:] *= -1.0  # a last window of negative values
        out = ops.maxpool2d(x)
        g = np.array([[[-0.0, 0.0, -1.5, 2.0, -0.0]]])
        got = ops.maxpool2d_backward(x, out, g)
        want = maxpool2d_backward_oracle(maxpool2d_oracle(x)[1], g, x.shape)
        assert got.tobytes() == want.tobytes()

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        # Spread values keep every window far from ties.
        x = rng.permutation(64).astype(np.float64).reshape(1, 8, 8)
        g = rng.normal(size=(1, 4, 4))
        gx = ops.maxpool2d_backward(x, ops.maxpool2d(x), g)
        rep = gradcheck(lambda v: float((g * ops.maxpool2d(v)).sum()),
                        x, gx, step=1e-5, tolerance=1e-6)
        assert rep.passed, rep.summary()


class TestRelu:
    def test_examples(self):
        np.testing.assert_array_equal(ops.relu(np.array([-1.0, 0.0, 2.0])),
                                      [0.0, 0.0, 2.0])
        x = np.array([0.5, 1.0, 3.0])
        np.testing.assert_array_equal(ops.relu(x), x)

    def test_backward_subgradient_zero_at_zero(self):
        x = np.array([-1.0, 0.0, 2.0])
        g = np.array([10.0, 10.0, 10.0])
        np.testing.assert_array_equal(ops.relu_backward(x, g), [0.0, 0.0, 10.0])

    def test_backward_masks_grad_output_in_place(self):
        x = np.array([[-1.0, 0.0, 2.0, 3.0], [-0.0, np.nan, 1.0, -2.0]])
        g = np.array([[-4.0, -5.0, -0.0, -6.0], [7.0, 8.0, np.inf, -0.0]])
        want = np.where(x > 0.0, g, 0.0)
        got = ops.relu_backward(x, g)
        assert got is g
        assert got.tobytes() == want.tobytes()

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 6, 6))
        x[np.abs(x) < 1e-3] = 0.5  # condition away from the kink
        g = rng.normal(size=x.shape)
        gx = ops.relu_backward(x, g.copy())
        rep = gradcheck(lambda v: float((g * ops.relu(v)).sum()), x, gx,
                        step=1e-5, tolerance=1e-6)
        assert rep.passed, rep.summary()


class TestSigmoid:
    def test_zero_maps_to_half(self):
        assert ops.sigmoid(np.array([0.0]))[0] == 0.5

    def test_symmetry_identity(self):
        v = np.linspace(-30, 30, 101)
        np.testing.assert_allclose(ops.sigmoid(v) + ops.sigmoid(-v), 1.0,
                                   rtol=0, atol=1e-15)

    def test_saturation_without_overflow(self):
        with np.errstate(over="raise"):
            out = ops.sigmoid(np.array([50.0, -50.0]))
        assert abs(out[0] - 1.0) < 1e-15
        assert abs(out[1] - 0.0) < 1e-15

    def test_strictly_inside_unit_interval(self):
        # Strict interior holds wherever float64 can represent it.
        v = np.linspace(-36.0, 36.0, 999)
        out = ops.sigmoid(v)
        assert (out > 0.0).all() and (out < 1.0).all()

    def test_bit_identical_to_two_branch_formula(self):
        def two_branch(x):
            out = np.empty_like(x)
            pos = x >= 0.0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            e = np.exp(x[~pos])
            out[~pos] = e / (1.0 + e)
            return out

        rng = np.random.default_rng(21)
        edges = [0.0, -0.0, 745.0, -745.0, 800.0, -800.0, np.inf, -np.inf]
        x = np.concatenate([edges] + [scale * rng.normal(size=1000)
                                      for scale in (1.0, 30.0, 1000.0)])
        assert ops.sigmoid(x).tobytes() == two_branch(x).tobytes()

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(3, 4))
        g = rng.normal(size=x.shape)
        probs = ops.sigmoid(x)
        gx = ops.sigmoid_backward(probs, g)
        rep = gradcheck(lambda v: float((g * ops.sigmoid(v)).sum()), x, gx,
                        step=1e-5, tolerance=1e-6)
        assert rep.passed, rep.summary()


RESIZE_SHAPES = [
    ((4, 4), (64, 64)),      # upsample
    ((16, 16), (256, 256)),
    ((64, 64), (64, 64)),    # identity
    ((9, 9), (4, 4)),        # downsample
    ((7, 7), (2, 2)),
    ((5, 7), (13, 2)),       # non-square, up on one axis, down on the other
    ((1, 6), (5, 3)),        # an n_in == 1 axis
]


class TestBilinearResize:
    def test_identity_size(self):
        # A same-size call returns its input: no products, no copy.
        rng = np.random.default_rng(13)
        x = rng.normal(size=(2, 5, 7))
        np.testing.assert_array_equal(ops.bilinear_resize(x, 5, 7), x)
        assert np.shares_memory(ops.bilinear_resize(x, 5, 7), x)
        assert np.shares_memory(ops.bilinear_resize_backward(x, 5, 7), x)

    def test_resize_matrix_built_once_and_read_only(self):
        m = ops._resize_matrix(5, 9)
        assert ops._resize_matrix(5, 9) is m
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            m.T[0, 0] = 2.0

    def test_frozen_2x2_to_3x3(self):
        # Closed-form corner-aligned evaluation at coordinates {0, 0.5, 1}.
        x = np.array([[[0.0, 1.0], [2.0, 3.0]]])
        expected = np.array([[[0.0, 0.5, 1.0], [1.0, 1.5, 2.0], [2.0, 2.5, 3.0]]])
        np.testing.assert_array_equal(ops.bilinear_resize(x, 3, 3), expected)

    @pytest.mark.parametrize("in_hw, out_hw", RESIZE_SHAPES + [
        ((4, 5), (16, 16)), ((4, 5), (7, 11)), ((4, 5), (2, 3)),
        ((4, 5), (4, 5)),
    ])
    def test_forward_matches_lerp_oracle(self, in_hw, out_hw):
        rng = np.random.default_rng(in_hw[1] * 1000 + out_hw[1])
        shape = (3,) + in_hw
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, shape)
        got = ops.bilinear_resize(x, *out_hw)
        want = resize_oracle(x, *out_hw)
        assert got.flags.c_contiguous  # no transposed copy downstream
        assert got.shape == (3,) + out_hw
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_constant_preserved_to_rounding(self):
        # Each output entry is a BLAS sum of weighted copies of c whose
        # weights sum to 1 only to rounding: 0.1 resized 4x4 -> 64x64
        # puts 488 of 4096 entries 1 ulp off. The largest error seen in
        # a wider sweep is 2 ulp.
        rng = np.random.default_rng(20)
        extents = (1, 2, 3, 4, 5, 7, 9, 16)
        shapes = [*zip(extents, extents), *zip(extents, extents[::-1])]
        for c in (0.1, 0.3, 1.0 / 3.0, -2.7, *rng.uniform(-10.0, 10.0, 4)):
            for h, w in shapes:
                for oh, ow in ((1, 1), (4, 5), (7, 11), (9, 2), (64, 64)):
                    out = ops.bilinear_resize(np.full((2, h, w), c), oh, ow)
                    assert np.abs(out - c).max() <= 4 * np.spacing(abs(c))

    def test_corners_preserved_exactly(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(1, 3, 4))
        for oh, ow in ((7, 7), (5, 9), (2, 2), (16, 16)):
            out = ops.bilinear_resize(x, oh, ow)
            assert out[0, 0, 0] == x[0, 0, 0]
            assert out[0, 0, -1] == x[0, 0, -1]
            assert out[0, -1, 0] == x[0, -1, 0]
            assert out[0, -1, -1] == x[0, -1, -1]

    def test_upsample_then_check_gradient(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(2, 3, 5))
        g = rng.normal(size=(2, 8, 7))
        gx = ops.bilinear_resize_backward(g, 3, 5)
        rep = gradcheck(lambda v: float((g * ops.bilinear_resize(v, 8, 7)).sum()),
                        x, gx, step=1e-5, tolerance=1e-6)
        assert rep.passed, rep.summary()

    def test_downsample_gradient(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(1, 9, 9))
        g = rng.normal(size=(1, 4, 3))
        gx = ops.bilinear_resize_backward(g, 9, 9)
        rep = gradcheck(lambda v: float((g * ops.bilinear_resize(v, 4, 3)).sum()),
                        x, gx, step=1e-5, tolerance=1e-6)
        assert rep.passed, rep.summary()

    @pytest.mark.parametrize("in_hw, out_hw", RESIZE_SHAPES)
    def test_backward_matches_add_at_oracle(self, in_hw, out_hw):
        # Relative to the largest entry, not elementwise: the two
        # summation orders differ by rounding, and cancellation leaves
        # small entries with large relative error (2.7e-13 on 16 -> 256).
        rng = np.random.default_rng(in_hw[0] * 1000 + out_hw[0])
        g = rng.normal(size=(3,) + out_hw)
        got = ops.bilinear_resize_backward(g, *in_hw)
        want = resize_backward_oracle(g, *in_hw)
        assert got.shape == (3,) + in_hw
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_backward_zero_fed_targets_stay_zero(self):
        # Targets fed only by 0.0 and -0.0 gradients come out exactly
        # zero, where the oracle's do; the sign of the zero may differ.
        rng = np.random.default_rng(18)
        g = rng.normal(size=(2, 9, 11))
        g[0] = -0.0
        g[1, :4] = 0.0
        g[1, 4:, ::2] = -0.0
        for in_hw in ((3, 4), (9, 11), (1, 1)):
            got = ops.bilinear_resize_backward(g, *in_hw)
            want = resize_backward_oracle(g, *in_hw)
            zero = want == 0.0
            assert zero[0].all()
            assert (got[zero] == 0.0).all()
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestConcat:
    def test_single_input_unchanged(self):
        x = np.arange(12.0).reshape(4, 3, 1, 1)
        np.testing.assert_array_equal(ops.concat_channels([x]), x)

    def test_order_preserved(self):
        a = np.full((4, 1, 1, 1), 1.0)
        b = np.full((4, 2, 1, 1), 2.0)
        out = ops.concat_channels([a, b])
        np.testing.assert_array_equal(out[:, :1], a)
        np.testing.assert_array_equal(out[:, 1:], b)

    def test_split_is_inverse(self):
        rng = np.random.default_rng(17)
        xs = [rng.normal(size=(2, c, 3, 3)) for c in (1, 2, 4)]
        parts = ops.split_channels(ops.concat_channels(xs), [1, 2, 4])
        for x, part in zip(xs, parts):
            np.testing.assert_array_equal(part, x)

    @pytest.mark.parametrize("lead, tail", [((4,), (1, 1))], ids=["head-weight"])
    def test_4d_round_trip_on_axis_minus_3(self, lead, tail):
        rng = np.random.default_rng(19)
        xs = [rng.normal(size=(*lead, c, *tail)) for c in (1, 2, 4)]
        cat = ops.concat_channels(xs)
        assert cat.shape == (*lead, 7, *tail)
        np.testing.assert_array_equal(cat, np.concatenate(xs, axis=1))
        parts = ops.split_channels(cat, [1, 2, 4])
        for x, part in zip(xs, parts):
            assert np.shares_memory(part, cat)  # views, not copies
            np.testing.assert_array_equal(part, x)


def test_row_major_layout_round_trip():
    rng = np.random.default_rng(18)
    c_n, h, w = 3, 5, 7
    arr = ops.as_f64(rng.normal(size=(c_n, h, w)))
    assert arr.flags["C_CONTIGUOUS"]
    flat = arr.ravel()
    for _ in range(50):
        c = int(rng.integers(c_n))
        i = int(rng.integers(h))
        j = int(rng.integers(w))
        assert flat[(c * h + i) * w + j] == arr[c, i, j]


def _trace_model_path(monkeypatch, check):
    """Wrap every function in ops, as_f64 aside, so each call hands
    check(name, arguments by parameter name, result) to the test; then
    run a 64 px forward and backward of the default encoder, on float32
    image, params and grad_logits, and the canned gradient-check suite.
    Returns (names of the wrapped functions, names of those called)."""
    seen = set()

    def wrap(name, fn):
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            seen.add(name)
            out = fn(*args, **kwargs)
            check(name, sig.bind(*args, **kwargs).arguments, out)
            return out
        return traced

    kernels = {name for name, fn in vars(ops).items()
               if callable(fn) and getattr(fn, "__module__", None) == ops.__name__
               and name != "as_f64"}
    for name in kernels:
        monkeypatch.setattr(ops, name, wrap(name, getattr(ops, name)))

    cfg = model.EncoderConfig()
    rng = np.random.default_rng(22)
    params = {name: a.astype(np.float32)
              for name, a in model.init_params(cfg, 0).items()}
    image = rng.random((3, 64, 64), dtype=np.float32)
    probs, cache = model.forward(params, cfg, image)
    model.backward(params, cfg, cache,
                   rng.normal(size=probs.shape).astype(np.float32))
    checks.run_suite(1)
    return kernels, seen


def test_model_path_feeds_kernels_float64_only(monkeypatch):
    """Kernels convert no operand, so every caller must pass float64:
    every function in ops sees only float64 arrays on the model path,
    whose entry points coerce the float32 image, params and grad_logits."""
    bad = []

    def check(name, arguments, out):
        for arg, a in arguments.items():
            for arr in a if isinstance(a, (list, tuple)) else [a]:
                if isinstance(arr, np.ndarray) and arr.dtype != np.float64:
                    bad.append((name, arg, arr.dtype))

    kernels, seen = _trace_model_path(monkeypatch, check)
    assert bad == []
    assert seen == kernels


def _conv_shape(x, weights, padding):
    """conv2d's output shape, from the operand shapes alone."""
    return (weights.shape[0], x.shape[1] + 2 * padding - weights.shape[2] + 1,
            x.shape[2] + 2 * padding - weights.shape[3] + 1)


# The shape relations the kernels assume and no longer check, as
# predicates over (arguments by parameter name, result).
SHAPE_CONTRACT = {
    "conv2d": lambda a, out: (a["x"].shape[0] == a["weights"].shape[1]
                              and min(out.shape) >= 1),
    "conv2d_backward": lambda a, out: (
        a["x"].shape[0] == a["weights"].shape[1]
        and a["grad_output"].shape == _conv_shape(a["x"], a["weights"],
                                                  a["padding"])
        and min(a["grad_output"].shape) >= 1),
    "maxpool2d": lambda a, out: (a["x"].ndim == 3 and a["x"].shape[1] % 2 == 0
                                 and a["x"].shape[2] % 2 == 0),
    "maxpool2d_backward": lambda a, out: (
        a["grad_output"].shape == a["out"].shape
        and a["x"].shape == (a["out"].shape[0], 2 * a["out"].shape[1],
                             2 * a["out"].shape[2])),
    "relu_backward": lambda a, out: a["grad_output"].shape == a["x"].shape,
    "sigmoid_backward": lambda a, out: (a["grad_output"].shape
                                        == a["probs"].shape),
    "bilinear_resize": lambda a, out: (a["x"].ndim == 3
                                       and min(a["out_h"], a["out_w"]) >= 1),
    "bilinear_resize_backward": lambda a, out: (
        a["grad_output"].ndim == 3 and min(a["in_h"], a["in_w"]) >= 1),
    "split_channels": lambda a, out: (a["x"].ndim == 4
                                      and sum(a["sizes"]) == a["x"].shape[1]),
    "concat_channels": lambda a, out: (
        len({x.shape[:1] + x.shape[2:] for x in a["inputs"]}) == 1
        and out.ndim == 4),
}


def test_model_path_keeps_kernel_shape_contract(monkeypatch):
    """Kernels check no operand shape: the model's boundary checks of the
    image, params and grad_logits must imply every relation they assume,
    so that a caller that breaks one fails here instead of broadcasting."""
    broken = []

    def check(name, arguments, out):
        if name in SHAPE_CONTRACT and not SHAPE_CONTRACT[name](arguments, out):
            broken.append((name, {k: np.shape(v) for k, v in arguments.items()
                                  if isinstance(v, np.ndarray)}))

    _, seen = _trace_model_path(monkeypatch, check)
    assert broken == []
    assert set(SHAPE_CONTRACT) <= seen
