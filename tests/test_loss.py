"""Smoothed F1 loss tests: golden values, gradients, properties."""

import numpy as np
import pytest

from dermfeat.gradcheck import gradcheck
from dermfeat.loss import f1_loss, f1_loss_grad
from oracles import f1_two_pass_oracle


def counts(pred, truth, channel):
    """One class's fuzzy (tp, fp, fn) from f1_loss's breakdown."""
    _, bd = f1_loss(pred, truth)
    return float(bd.tp[channel]), float(bd.fp[channel]), float(bd.fn[channel])


class TestFuzzyCounts:
    def test_exact_match(self):
        truth = np.zeros((4, 4, 4))
        truth[1, :2, :3] = 1.0  # 6 positives in class 1
        assert counts(truth, truth, 1) == (6.0, 0.0, 0.0)

    def test_all_zero_prediction(self):
        truth = np.zeros((4, 3, 3))
        truth[2, 0] = 1.0  # 3 positives
        assert counts(np.zeros_like(truth), truth, 2) == (0.0, 0.0, 3.0)

    def test_uniform_half_prediction(self):
        # N pixels, P positives: direct summation gives (P/2, (N-P)/2, P/2).
        truth = np.zeros((4, 4, 4))
        truth[0, 0] = 1.0  # P = 4 of N = 16
        pred = np.full_like(truth, 0.5)
        assert counts(pred, truth, 0) == (2.0, 6.0, 2.0)

    def test_rejects_out_of_range_pred(self):
        truth = np.zeros((4, 2, 2))
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            f1_loss(np.full_like(truth, 1.5), truth)
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            f1_loss_grad(np.full_like(truth, -0.5), truth)

    def test_rejects_non_binary_truth(self):
        pred = np.zeros((4, 2, 2))
        # An integer mask is read as stored, so a 2 or a -1 in it fails as
        # 0.3 does.
        for truth in (np.full_like(pred, 0.3), np.full(pred.shape, 2, np.uint8),
                      np.full(pred.shape, 2, np.uint16),
                      np.full(pred.shape, -1, np.int8)):
            with pytest.raises(ValueError, match="binary"):
                f1_loss(pred, truth)
            with pytest.raises(ValueError, match="binary"):
                f1_loss_grad(pred, truth)


class TestF1Loss:
    def test_golden_perfect_prediction(self):
        # 10 positives per class, eps 1: per-class term 20/21, loss 1/21.
        truth = np.zeros((4, 8, 8))
        for c in range(4):
            truth[c].ravel()[10 * c:10 * (c + 1)] = 1.0
        loss, bd = f1_loss(truth, truth)
        assert abs(loss - 1.0 / 21.0) < 1e-12
        np.testing.assert_allclose(bd.f1_term, 20.0 / 21.0, rtol=1e-15)
        np.testing.assert_array_equal(bd.tp, [10, 10, 10, 10])

    def test_zero_prediction_gives_exactly_one(self):
        rng = np.random.default_rng(30)
        truth = (rng.random((4, 6, 6)) < 0.3).astype(np.float64)
        loss, _ = f1_loss(np.zeros_like(truth), truth)
        assert loss == 1.0

    def test_empty_truth_and_prediction_gives_one(self):
        zeros = np.zeros((4, 5, 5))
        loss, bd = f1_loss(zeros, zeros)
        assert loss == 1.0
        np.testing.assert_array_equal(bd.f1_term, np.zeros(4))

    @pytest.mark.parametrize("channels", [1, 4, 7])
    def test_any_channel_count_scores_per_class(self, channels):
        # The class count is the input's channel extent, single or batched.
        rng = np.random.default_rng(41 + channels)
        pred = rng.random((2, channels, 5, 5))
        truth = (rng.random((2, channels, 5, 5)) < 0.4).astype(np.float64)
        for p, t in ((pred[0], truth[0]), (pred, truth)):
            loss, bd = f1_loss(p, t, 0.5)
            axes = tuple(a for a in range(p.ndim) if a != p.ndim - 3)
            tp = (p * t).sum(axis=axes)
            fp = (p * (1.0 - t)).sum(axis=axes)
            fn = ((1.0 - p) * t).sum(axis=axes)
            d = 2 * tp + fp + fn + 0.5
            terms = 2 * tp / d
            assert bd.f1_term.shape == (channels,)
            np.testing.assert_allclose(bd.f1_term, terms, rtol=1e-14)
            assert abs(loss - (1.0 - terms.mean())) < 1e-14
            shape = (channels, 1, 1)
            expected = -(t * (2 / d).reshape(shape)
                         - (2 * tp / d ** 2).reshape(shape)) / channels
            np.testing.assert_allclose(f1_loss_grad(p, t, 0.5)[2], expected,
                                       rtol=1e-13)

    def test_rejects_non_finite_prediction(self):
        # NaN fails every comparison, so a range check alone lets it through.
        pred = np.full((4, 2, 2), 0.5)
        pred[1, 0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            f1_loss(pred, np.zeros_like(pred))

    def test_loss_in_unit_interval(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            pred = rng.random((4, 5, 5))
            truth = (rng.random((4, 5, 5)) < 0.4).astype(np.float64)
            loss, _ = f1_loss(pred, truth)
            assert 0.0 < loss <= 1.0

    def test_raising_a_true_positive_strictly_decreases_loss(self):
        rng = np.random.default_rng(32)
        pred = rng.uniform(0.1, 0.8, (4, 5, 5))
        truth = (rng.random((4, 5, 5)) < 0.4).astype(np.float64)
        truth[2, 3, 3] = 1.0
        base, _ = f1_loss(pred, truth)
        bumped = pred.copy()
        bumped[2, 3, 3] += 0.1
        raised, _ = f1_loss(bumped, truth)
        assert raised < base

    def test_pixel_and_class_permutation_invariance(self):
        rng = np.random.default_rng(33)
        pred = rng.random((4, 6, 6))
        truth = (rng.random((4, 6, 6)) < 0.4).astype(np.float64)
        base, _ = f1_loss(pred, truth)

        perm = rng.permutation(36)
        pred_p = pred.reshape(4, 36)[:, perm].reshape(4, 6, 6)
        truth_p = truth.reshape(4, 36)[:, perm].reshape(4, 6, 6)
        pixel_permuted, _ = f1_loss(pred_p, truth_p)
        assert abs(pixel_permuted - base) < 1e-12

        cperm = rng.permutation(4)
        class_permuted, _ = f1_loss(pred[cperm], truth[cperm])
        assert abs(class_permuted - base) < 1e-12

    def test_per_class_independence(self):
        # Changing one class's pixels leaves the other classes' terms alone.
        rng = np.random.default_rng(34)
        pred = rng.random((4, 6, 6))
        truth = (rng.random((4, 6, 6)) < 0.4).astype(np.float64)
        _, before = f1_loss(pred, truth)
        pred2 = pred.copy()
        pred2[1] = rng.random((6, 6))
        truth2 = truth.copy()
        truth2[1] = 1.0
        _, after = f1_loss(pred2, truth2)
        for c in (0, 2, 3):
            assert before.f1_term[c] == after.f1_term[c]

    def test_batched_counts_are_pooled(self):
        rng = np.random.default_rng(35)
        a_pred = rng.random((4, 4, 4))
        b_pred = rng.random((4, 4, 4))
        a_truth = (rng.random((4, 4, 4)) < 0.4).astype(np.float64)
        b_truth = (rng.random((4, 4, 4)) < 0.4).astype(np.float64)
        batched, bd = f1_loss(np.stack([a_pred, b_pred]),
                              np.stack([a_truth, b_truth]))
        wide, bd_wide = f1_loss(np.concatenate([a_pred, b_pred], axis=1),
                                np.concatenate([a_truth, b_truth], axis=1))
        np.testing.assert_allclose(bd.tp, bd_wide.tp, rtol=1e-13)
        assert abs(batched - wide) < 1e-12


class TestF1Grad:
    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("channels", [1, 4, 7])
    def test_one_pass_bytes_match_two_pass_oracle(self, channels, batched):
        # The gradient reuses f1_loss's counts; the oracle counts again.
        rng = np.random.default_rng(60 + channels)
        shape = (3, channels, 6, 5) if batched else (channels, 6, 5)
        pred = rng.random(shape)
        truth = (rng.random(shape) < 0.4).astype(np.float64)
        loss, bd, grad = f1_loss_grad(pred, truth, 0.5)
        want = f1_two_pass_oracle(pred, truth, 0.5)
        got = (loss, bd.tp, bd.fp, bd.fn, bd.f1_term, grad)
        for name, g, w in zip(("loss", "tp", "fp", "fn", "f1_term", "grad"),
                              got, want):
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes(), name

    def test_selected_gradient_bytes_match_pixelwise_expression(self):
        # The oracle evaluates -(t*lin - const)/C at every pixel. A class
        # with no true positive (no positive pixel, or zero prediction on
        # each) has const = 0, where t = 0 gives -(0.0 - 0.0)/C = -0.0;
        # const/C would give +0.0, so the cases must reach such zeros.
        rng = np.random.default_rng(62)
        negative_zeros = 0
        for _ in range(300):
            channels = int(rng.integers(1, 6))
            extent = tuple(int(n) for n in rng.integers(1, 6, 2))
            batched = rng.random() < 0.5
            shape = ((int(rng.integers(1, 4)),) if batched else ()) + (
                channels, *extent)
            pred = rng.random(shape)
            truth = (rng.random(shape) < rng.random()).astype(np.float64)
            for c in range(channels):
                cls = (slice(None),) * batched + (c,)
                kind = rng.integers(4)
                if kind == 1:
                    truth[cls] = 0.0
                elif kind == 2:
                    pred[cls] = 0.0
                elif kind == 3:
                    truth[cls] = 1.0
            eps = float(rng.uniform(0.1, 2.0))
            _, _, grad = f1_loss_grad(pred, truth, eps)
            want = f1_two_pass_oracle(pred, truth, eps)[-1]
            assert grad.tobytes() == want.tobytes()
            negative_zeros += np.signbit(grad[grad == 0.0]).sum()
        assert negative_zeros > 0

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("dtype", [np.uint8, np.bool_])
    def test_truth_dtype_changes_no_byte(self, dtype, batched):
        # train passes the stored uint8 masks; each product, difference and
        # comparison with a float64 operand casts 0 and 1 exactly.
        rng = np.random.default_rng(63)
        shape = (3, 4, 6, 5) if batched else (4, 6, 5)
        pred = rng.random(shape)
        truth = (rng.random(shape) < 0.4).astype(np.float64)
        cls = (slice(None),) * batched
        pred[cls + (0,)] = 0.0  # class 0 has no true positive: -0.0 at t = 0
        pred[cls + (1, 0)] = 1.0
        truth[cls + (2,)] = 0.0
        want_loss, want_bd, want_grad = f1_loss_grad(pred, truth)
        assert np.signbit(want_grad[want_grad == 0.0]).any()
        loss, bd = f1_loss(pred, truth.astype(dtype))
        grad_loss, grad_bd, grad = f1_loss_grad(pred, truth.astype(dtype))
        assert loss == grad_loss == want_loss
        for name in ("tp", "fp", "fn", "f1_term"):
            want = getattr(want_bd, name)
            for got in (getattr(bd, name), getattr(grad_bd, name)):
                assert got.dtype == want.dtype, name
                assert got.tobytes() == want.tobytes(), name
        assert grad.dtype == np.float64
        assert grad.tobytes() == want_grad.tobytes()

    def test_all_negative_truth_gradient_sign(self):
        # With truth 0 everywhere in class c, d(loss)/d(pred_j) = tp/(2 D^2) >= 0.
        rng = np.random.default_rng(36)
        pred = rng.uniform(0.2, 0.8, (4, 4, 4))
        truth = (rng.random((4, 4, 4)) < 0.5).astype(np.float64)
        truth[1] = 0.0
        _, _, grad = f1_loss_grad(pred, truth)
        assert (grad[1] >= 0.0).all()
        tp, fp, fn = counts(pred, truth, 1)
        d = 2 * tp + fp + fn + 1.0
        np.testing.assert_allclose(grad[1], (1.0 / 4.0) * 2.0 * tp / d ** 2,
                                   rtol=1e-13)

    def test_zero_everywhere_gives_zero_gradient(self):
        zeros = np.zeros((4, 4, 4))
        np.testing.assert_array_equal(f1_loss_grad(zeros, zeros)[2], zeros)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(37)
        pred = rng.uniform(0.01, 0.99, (4, 8, 8))
        truth = (rng.random((4, 8, 8)) < 0.4).astype(np.float64)
        rep = gradcheck(lambda p: f1_loss(p, truth)[0], pred,
                        f1_loss_grad(pred, truth)[2], step=1e-5, tolerance=1e-6)
        assert rep.passed, rep.summary()

    def test_matches_finite_differences_batched(self):
        rng = np.random.default_rng(38)
        pred = rng.uniform(0.01, 0.99, (2, 4, 4, 4))
        truth = (rng.random((2, 4, 4, 4)) < 0.4).astype(np.float64)
        rep = gradcheck(lambda p: f1_loss(p, truth)[0], pred,
                        f1_loss_grad(pred, truth)[2], step=1e-5, tolerance=1e-6)
        assert rep.passed, rep.summary()

    def test_many_random_instances(self):
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            shape = (4, int(rng.integers(2, 9)), int(rng.integers(2, 9)))
            pred = rng.uniform(0.01, 0.99, shape)
            truth = (rng.random(shape) < rng.uniform(0.1, 0.6)).astype(np.float64)
            rep = gradcheck(lambda p: f1_loss(p, truth)[0], pred,
                            f1_loss_grad(pred, truth)[2], step=1e-5,
                            tolerance=1e-5)
            assert rep.passed, f"seed {seed}: {rep.summary()}"


class TestDiceLoss:
    """The one-channel F1 loss is the smoothed dice loss."""

    def test_perfect_binary_prediction(self):
        truth = np.zeros((1, 5, 5))
        truth[0, :3, :2] = 1.0  # P = 6
        loss, _ = f1_loss(truth, truth)
        assert abs(loss - (1.0 - 12.0 / 13.0)) < 1e-15

    def test_zero_prediction(self):
        truth = np.ones((1, 3, 3))
        loss, _ = f1_loss(np.zeros_like(truth), truth)
        assert loss == 1.0

    def test_equals_per_class_f1_term(self):
        rng = np.random.default_rng(39)
        pred = rng.random((1, 6, 6))
        truth = (rng.random((1, 6, 6)) < 0.4).astype(np.float64)
        dice, bd = f1_loss(pred, truth)
        tp, fp, fn = counts(pred, truth, 0)
        f1_term = 2 * tp / (2 * tp + fp + fn + 1.0)
        assert bd.f1_term[0] == f1_term
        assert dice == 1.0 - f1_term

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(40)
        pred = rng.uniform(0.01, 0.99, (1, 8, 8))
        truth = (rng.random((1, 8, 8)) < 0.4).astype(np.float64)
        _, _, grad = f1_loss_grad(pred, truth)
        rep = gradcheck(lambda p: f1_loss(p, truth)[0], pred, grad,
                        step=1e-5, tolerance=1e-6)
        assert rep.passed, rep.summary()


def test_rejects_negative_eps():
    # eps = 0 would divide 0/0 here: no positives and an all-zero prediction.
    zeros = np.zeros((4, 2, 2))
    for eps in (-1.0, 0.0):
        with pytest.raises(ValueError, match="eps"):
            f1_loss(zeros, zeros, eps=eps)
        with pytest.raises(ValueError, match="eps"):
            f1_loss_grad(zeros, zeros, eps=eps)
