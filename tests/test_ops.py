"""Tensor kernel tests: independent oracles, frozen examples, gradient checks."""

import re

import numpy as np
import pytest

from dermfeat import ops
from dermfeat.gradcheck import gradcheck
from oracles import (maxpool2d_backward_oracle, maxpool2d_oracle,
                     resize_backward_oracle, resize_oracle)


def conv2d_oracle(x, w, b, p):
    """Direct nested-loop convolution at every offset, zero padding p,
    independent of the production path."""
    c_out, c_in, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (p, p), (p, p)))
    out_h = x.shape[1] + 2 * p - kh + 1
    out_w = x.shape[2] + 2 * p - kw + 1
    out = np.zeros((c_out, out_h, out_w))
    for o in range(c_out):
        for i in range(out_h):
            for j in range(out_w):
                acc = b[o]
                for c in range(c_in):
                    for ki in range(kh):
                        for kj in range(kw):
                            acc += w[o, c, ki, kj] * xp[c, i + ki, j + kj]
                out[o, i, j] = acc
    return out


def conv2d_backward_oracle(x, w, p, g):
    """A tap loop of einsums over strided windows: the products of
    conv2d_backward's per-tap matmuls summed in another order, so the two
    agree to rounding."""
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
    return grad_xp[:, p:p + in_h, p:p + in_w], grad_w, g.sum(axis=(1, 2))


# (input [C,H,W], kernel kh x kw, padding). (3,3,2) pads beyond k // 2,
# so the output outgrows the input: the edge case of the extra-row
# layout. The last two give a 1-row and a 1-column output.
CONV_CASES = [((3, 6, 8), 3, 3, 1), ((3, 6, 8), 2, 3, 0), ((3, 6, 8), 1, 1, 0),
              ((3, 6, 8), 3, 3, 2), ((3, 3, 8), 3, 3, 0), ((3, 6, 1), 3, 3, 1)]


class TestConv2d:
    def test_frozen_2x2_kernel_example(self):
        x = np.array([[[1.0, 2, 3], [4, 5, 6], [7, 8, 9]]])
        w = np.ones((1, 1, 2, 2))
        b = np.zeros(1)
        expected = np.array([[[12.0, 16.0], [24.0, 28.0]]])
        np.testing.assert_array_equal(conv2d_oracle(x, w, b, 0), expected)
        np.testing.assert_array_equal(ops.conv2d(x, w, b, 0), expected)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(3)
        for shape, kh, kw, padding in CONV_CASES:
            x = rng.normal(size=shape)
            w = rng.normal(size=(2, 3, kh, kw))
            b = rng.normal(size=2)
            np.testing.assert_allclose(ops.conv2d(x, w, b, padding),
                                       conv2d_oracle(x, w, b, padding),
                                       rtol=1e-13, atol=1e-13)

    def test_identity_kernel_returns_input(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 5, 7))
        w = np.ones((1, 1, 1, 1))
        out = ops.conv2d(x, w, np.zeros(1), 0)
        np.testing.assert_array_equal(out, x)

    def test_zero_input_gives_bias(self):
        x = np.zeros((2, 4, 4))
        rng = np.random.default_rng(5)
        w = rng.normal(size=(3, 2, 3, 3))
        b = np.array([1.5, -2.0, 0.25])
        out = ops.conv2d(x, w, b, 1)
        for o in range(3):
            np.testing.assert_array_equal(out[o], np.full((4, 4), b[o]))

    def test_linearity(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 5, 5))
        y = rng.normal(size=(2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        b = np.zeros(3)
        a, c = 1.7, -0.4
        lhs = ops.conv2d(a * x + c * y, w, b, 1)
        rhs = a * ops.conv2d(x, w, b, 1) + c * ops.conv2d(y, w, b, 1)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_shape_errors_name_dimension(self):
        x = np.zeros((3, 4, 4))
        w = np.zeros((2, 4, 3, 3))
        with pytest.raises(ValueError, match="dim 1"):
            ops.conv2d(x, w, np.zeros(2), 0)
        with pytest.raises(ValueError, match="bias"):
            ops.conv2d(x, np.zeros((2, 3, 3, 3)), np.zeros(5), 0)
        with pytest.raises(ValueError, match="output height"):
            ops.conv2d(np.zeros((1, 2, 8)), np.zeros((1, 1, 3, 3)),
                       np.zeros(1), 0)
        with pytest.raises(ValueError, match="output width"):
            ops.conv2d(np.zeros((1, 8, 2)), np.zeros((1, 1, 3, 3)),
                       np.zeros(1), 0)
        with pytest.raises(ValueError, match="padding"):
            ops.conv2d(x, np.zeros((2, 3, 3, 3)), np.zeros(2), -1)


class TestConv2dBackward:
    def test_identity_kernel_passes_grad_through(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1, 4, 4))
        w = np.ones((1, 1, 1, 1))
        g = rng.normal(size=(1, 4, 4))
        gx, gw, gb = ops.conv2d_backward(x, w, 0, g)
        np.testing.assert_array_equal(gx, g)

    def test_grad_bias_is_per_channel_sum(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 4, 4))
        w = rng.normal(size=(3, 2, 3, 3))
        g = rng.normal(size=(3, 4, 4))
        _, _, gb = ops.conv2d_backward(x, w, 1, g)
        np.testing.assert_allclose(gb, g.sum(axis=(1, 2)), rtol=1e-13)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(1, 4, 4))
        w = rng.normal(size=(2, 1, 3, 3))
        b = rng.normal(size=2)
        g = rng.normal(size=(2, 4, 4))
        gx, gw, gb = ops.conv2d_backward(x, w, 1, g)

        rep = gradcheck(lambda v: float((g * ops.conv2d(v, w, b, 1)).sum()),
                        x, gx, step=1e-5, tolerance=1e-6)
        assert rep.passed, rep.summary()
        rep = gradcheck(lambda v: float((g * ops.conv2d(x, v, b, 1)).sum()),
                        w, gw, step=1e-5, tolerance=1e-6)
        assert rep.passed, rep.summary()
        rep = gradcheck(lambda v: float((g * ops.conv2d(x, w, v, 1)).sum()),
                        b, gb, step=1e-5, tolerance=1e-6)
        assert rep.passed, rep.summary()

    @pytest.mark.parametrize("shape,kh,kw,padding", CONV_CASES)
    def test_matches_einsum_tap_loop(self, shape, kh, kw, padding):
        rng = np.random.default_rng(10)
        x = rng.normal(size=shape)
        w = rng.normal(size=(4, shape[0], kh, kw))
        out_shape = ops.conv2d(x, w, np.zeros(4), padding).shape
        g = rng.normal(size=out_shape)
        got = ops.conv2d_backward(x, w, padding, g)
        want = conv2d_backward_oracle(x, w, padding, g)
        for name, a, b in zip(("input", "weights", "bias"), got, want):
            np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-13,
                                       err_msg=f"grad {name}")

    def test_rejects_wrong_grad_shape(self):
        x = np.zeros((1, 4, 4))
        w = np.zeros((1, 1, 3, 3))
        with pytest.raises(ValueError, match="grad_output"):
            ops.conv2d_backward(x, w, 0, np.zeros((1, 4, 4)))


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

    def test_rejects_odd_extent(self):
        with pytest.raises(ValueError, match="odd"):
            ops.maxpool2d(np.zeros((1, 3, 4)))
        with pytest.raises(ValueError, match="odd"):
            ops.maxpool2d(np.zeros((1, 4, 5)))

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

    def test_backward_rejects_shape_mismatch(self):
        x = np.zeros((2, 4, 6))
        out = ops.maxpool2d(x)
        with pytest.raises(ValueError, match=re.escape(
                "grad_output shape (2, 2, 2) does not match pooled shape (2, 2, 3)")):
            ops.maxpool2d_backward(x, out, np.zeros((2, 2, 2)))
        for bad in ((2, 4, 5), (2, 6, 6), (3, 4, 6)):
            with pytest.raises(ValueError, match=re.escape(
                    f"input shape {bad} does not pool to shape (2, 2, 3)")):
                ops.maxpool2d_backward(np.zeros(bad), out, np.zeros(out.shape))

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

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 6, 6))
        x[np.abs(x) < 1e-3] = 0.5  # condition away from the kink
        g = rng.normal(size=x.shape)
        gx = ops.relu_backward(x, g)
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
        rng = np.random.default_rng(13)
        x = rng.normal(size=(2, 5, 7))
        np.testing.assert_array_equal(ops.bilinear_resize(x, 5, 7), x)

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

    def test_rejects_zero_output_extent(self):
        with pytest.raises(ValueError, match="positive"):
            ops.bilinear_resize(np.zeros((1, 2, 2)), 0, 3)

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

    @pytest.mark.parametrize("other", [(3, 1, 2, 2), (2, 1, 3, 2), (2, 1, 2, 3)],
                             ids=["c-out", "height", "width"])
    def test_rejects_mismatch_off_channel_axis(self, other):
        with pytest.raises(ValueError, match="off the channel axis"):
            ops.concat_channels([np.zeros((2, 1, 2, 2)), np.zeros(other)])

    def test_rejects_rank_mismatch(self):
        with pytest.raises(ValueError, match=r"must be \[C_out,C_k,kh,kw\]"):
            ops.concat_channels([np.zeros((1, 1, 2, 2)), np.zeros((1, 2, 2))])
        with pytest.raises(ValueError, match=r"must be \[C_out,C_k,kh,kw\]"):
            ops.concat_channels([np.zeros((1, 2, 2))])
        with pytest.raises(ValueError, match=r"must be \[C_out,C_in,kh,kw\]"):
            ops.split_channels(np.zeros((3, 2, 2)), [3])

    def test_split_rejects_wrong_channel_total(self):
        with pytest.raises(ValueError, match="sum to 3"):
            ops.split_channels(np.zeros((4, 4, 1, 1)), [1, 2])


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
