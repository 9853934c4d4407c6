"""Tensor kernel tests: independent oracles, frozen examples, gradient checks."""

import numpy as np
import pytest

from dermfeat import ops
from dermfeat.gradcheck import gradcheck


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


def lerp_backward_oracle(grad, lo, hi, frac, n_in):
    """np.add.at scatter along the last axis, the reference the
    loop-based resize backward must match bit for bit."""
    out = np.zeros(grad.shape[:-1] + (n_in,))
    np.add.at(out, (..., lo), grad * (1.0 - frac))
    np.add.at(out, (..., hi), grad * frac)
    return out


def resize_backward_oracle(grad, in_h, in_w):
    _, out_h, out_w = grad.shape
    rlo, rhi, rfrac = ops._resize_axis_coords(in_h, out_h)
    clo, chi, cfrac = ops._resize_axis_coords(in_w, out_w)
    gc = lerp_backward_oracle(grad, clo, chi, cfrac, in_w)
    return lerp_backward_oracle(gc.transpose(0, 2, 1), rlo, rhi, rfrac,
                                in_h).transpose(0, 2, 1)


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
        for kh, kw, padding in ((3, 3, 1), (2, 3, 0), (1, 1, 0), (3, 3, 2)):
            x = rng.normal(size=(3, 6, 8))
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

    def test_rejects_wrong_grad_shape(self):
        x = np.zeros((1, 4, 4))
        w = np.zeros((1, 1, 3, 3))
        with pytest.raises(ValueError, match="grad_output"):
            ops.conv2d_backward(x, w, 0, np.zeros((1, 4, 4)))


class TestMaxPool:
    def test_single_window(self):
        out, idx = ops.maxpool2d(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        np.testing.assert_array_equal(out, [[[4.0]]])
        assert idx[0, 0, 0] == 3  # flat index of value 4

    def test_constant_input(self):
        out, _ = ops.maxpool2d(np.full((2, 4, 4), 2.5))
        np.testing.assert_array_equal(out, np.full((2, 2, 2), 2.5))

    def test_tie_breaks_to_smallest_flat_index(self):
        x = np.zeros((1, 2, 2))
        _, idx = ops.maxpool2d(x)
        assert idx[0, 0, 0] == 0

    def test_rejects_odd_extent(self):
        with pytest.raises(ValueError, match="odd"):
            ops.maxpool2d(np.zeros((1, 3, 4)))
        with pytest.raises(ValueError, match="odd"):
            ops.maxpool2d(np.zeros((1, 4, 5)))

    def test_backward_routes_to_argmax_only(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        _, idx = ops.maxpool2d(x)
        gx = ops.maxpool2d_backward(idx, np.array([[[5.0]]]), x.shape)
        np.testing.assert_array_equal(gx, [[[0.0, 0.0], [0.0, 5.0]]])

    def test_backward_bit_identical_to_add_at(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(3, 8, 6))
        _, idx = ops.maxpool2d(x)
        g = rng.normal(size=idx.shape)
        g[0, 0, 0], g[1, 2, 1], g[2, 3, 2] = -0.0, 0.0, -0.0
        want = np.zeros(x.size)
        np.add.at(want, idx.ravel(), g.ravel())
        got = ops.maxpool2d_backward(idx, g, x.shape)
        assert got.tobytes() == want.reshape(x.shape).tobytes()

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        # Spread values keep every window far from ties.
        x = rng.permutation(64).astype(np.float64).reshape(1, 8, 8)
        g = rng.normal(size=(1, 4, 4))
        _, idx = ops.maxpool2d(x)
        gx = ops.maxpool2d_backward(idx, g, x.shape)
        rep = gradcheck(lambda v: float((g * ops.maxpool2d(v)[0]).sum()),
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

    def test_bit_identical_to_out_of_place_lerp(self):
        def lerp(x, n_out):
            lo, hi, frac = ops._resize_axis_coords(x.shape[-1], n_out)
            a = x[..., lo]
            return a + frac * (x[..., hi] - a)

        rng = np.random.default_rng(22)
        x = rng.normal(size=(3, 4, 5)) * 10.0 ** rng.integers(-3, 4, (3, 4, 5))
        for oh, ow in ((16, 16), (7, 11), (2, 3), (4, 5)):
            rows = lerp(x.transpose(0, 2, 1), oh).transpose(0, 2, 1)
            want = lerp(rows, ow)
            assert ops.bilinear_resize(x, oh, ow).tobytes() == want.tobytes()

    def test_constant_preserved_exactly(self):
        x = np.full((3, 4, 5), 0.3)
        for oh, ow in ((1, 1), (4, 5), (7, 11), (9, 2)):
            out = ops.bilinear_resize(x, oh, ow)
            assert (out == 0.3).all()

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

    @pytest.mark.parametrize("in_hw, out_hw", [
        ((4, 4), (64, 64)),      # upsample
        ((16, 16), (256, 256)),
        ((64, 64), (64, 64)),    # identity
        ((9, 9), (4, 4)),        # downsample
        ((7, 7), (2, 2)),
        ((5, 7), (13, 2)),       # non-square, up on one axis, down on the other
        ((1, 6), (5, 3)),        # an n_in == 1 axis
    ])
    def test_backward_bit_identical_to_add_at(self, in_hw, out_hw):
        rng = np.random.default_rng(in_hw[0] * 1000 + out_hw[0])
        g = rng.normal(size=(3,) + out_hw)
        got = ops.bilinear_resize_backward(g, *in_hw)
        assert got.shape == (3,) + in_hw
        assert got.tobytes() == resize_backward_oracle(g, *in_hw).tobytes()

    def test_backward_keeps_signed_zeros_of_add_at(self):
        # Targets fed only by -0.0 or 0.0 products must come out as the
        # oracle's 0.0 + (-0.0) sums do, byte for byte.
        rng = np.random.default_rng(18)
        g = rng.normal(size=(2, 9, 11))
        g[0] = -0.0
        g[1, :4] = 0.0
        g[1, 4:, ::2] = -0.0
        for in_hw in ((3, 4), (9, 11), (1, 1)):
            got = ops.bilinear_resize_backward(g, *in_hw)
            assert got.tobytes() == resize_backward_oracle(g, *in_hw).tobytes()


class TestConcat:
    def test_single_input_unchanged(self):
        x = np.arange(12.0).reshape(1, 3, 4)
        np.testing.assert_array_equal(ops.concat_channels([x]), x)

    def test_order_preserved(self):
        a = np.full((1, 2, 2), 1.0)
        b = np.full((1, 2, 2), 2.0)
        out = ops.concat_channels([a, b])
        np.testing.assert_array_equal(out[0], a[0])
        np.testing.assert_array_equal(out[1], b[0])

    def test_split_is_inverse(self):
        rng = np.random.default_rng(17)
        xs = [rng.normal(size=(c, 3, 3)) for c in (1, 2, 4)]
        parts = ops.split_channels(ops.concat_channels(xs), [1, 2, 4])
        for x, part in zip(xs, parts):
            np.testing.assert_array_equal(part, x)

    def test_rejects_spatial_mismatch(self):
        with pytest.raises(ValueError, match="spatial"):
            ops.concat_channels([np.zeros((1, 2, 2)), np.zeros((1, 3, 2))])


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
