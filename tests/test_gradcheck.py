"""Tests of the finite-difference checker and of the conditioning of the
canned model check instances."""

import numpy as np
import pytest

from dermfeat import checks, model
from dermfeat.gradcheck import gradcheck


def test_sum_of_squares():
    point = np.array([1.0, 2.0])
    analytic = np.array([2.0, 4.0])  # d(x^2)/dx by hand
    rep = gradcheck(lambda x: float((x ** 2).sum()), point, analytic,
                    step=1e-5, tolerance=1e-9)
    assert rep.passed, rep.summary()
    assert rep.max_rel_error < 1e-9


def test_linear_function_agrees_to_round_off():
    rng = np.random.default_rng(0)
    c = rng.normal(size=(3, 3))
    point = rng.normal(size=(3, 3))
    rep = gradcheck(lambda x: float((c * x).sum()), point, c, step=1e-5,
                    tolerance=1e-9)
    assert rep.passed, rep.summary()


def test_near_zero_entries_divide_by_the_floor():
    # Both gradients are below the 1e-4 floor, so the error 1e-6 is
    # divided by the floor, not by 1e-6.
    rep = gradcheck(lambda x: 0.0, np.zeros(2), np.array([0.0, 1e-6]))
    assert rep.max_rel_error == pytest.approx(1e-2)
    assert not rep.passed


def test_corrupted_gradient_reported_as_failure():
    point = np.array([1.0, 2.0, -0.5])
    analytic = 1.1 * 2.0 * point  # +10% corruption of d(x^2)/dx
    rep = gradcheck(lambda x: float((x ** 2).sum()), point, analytic,
                    step=1e-5, tolerance=1e-5)
    assert not rep.passed
    assert rep.max_rel_error > 1e-2


def test_non_finite_value_reported_with_location():
    point = np.array([1.0, 0.5])

    def fn(x):
        return float("nan") if x[1] > 0.50001 else float(x.sum())

    rep = gradcheck(fn, point, np.ones(2), step=1e-4, tolerance=1e-5)
    assert not rep.passed
    assert any("(1,)" in msg for msg in rep.failures)


def test_worst_index_points_at_bad_element():
    point = np.array([[1.0, 1.0], [1.0, 1.0]])
    analytic = 2.0 * point
    analytic[1, 0] += 0.5
    rep = gradcheck(lambda x: float((x ** 2).sum()), point, analytic)
    assert rep.worst_index == (1, 0)
    assert not rep.passed


def test_rejects_bad_step_and_shape():
    with pytest.raises(ValueError, match="step"):
        gradcheck(lambda x: 0.0, np.zeros(2), np.zeros(2), step=0.0)
    for tolerance in (0.0, -1.0):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            gradcheck(lambda x: 0.0, np.zeros(2), np.zeros(2),
                      tolerance=tolerance)
    with pytest.raises(ValueError, match="shape"):
        gradcheck(lambda x: 0.0, np.zeros(2), np.zeros(3))


def test_conditioning_reads_the_biased_pre_activation():
    # Zero weights: the pre-activation is the bias alone, so a bias of 0.5
    # sits clear of the relu kink and a zero bias sits on it.
    cfg = model.EncoderConfig(channels=(2,), in_channels=1)
    params = model.init_params(cfg, 0)
    params["block1.weight"][...] = 0.0
    params["block1.bias"][...] = 0.5
    _, cache = model.forward(params, cfg, np.ones((1, 4, 4)))
    assert checks._well_conditioned(params, cache)
    params["block1.bias"][...] = 0.0
    _, cache = model.forward(params, cfg, np.ones((1, 4, 4)))
    assert not checks._well_conditioned(params, cache)


@pytest.mark.parametrize("seed", [-1, -1000])
def test_checks_reject_negative_seed_by_name(seed):
    message = f"seed must be >= 0, got {seed}"
    for check in (checks.check_f1_loss, checks.check_model_params,
                  checks.check_model_input):
        with pytest.raises(ValueError, match=message):
            check(seed)
    with pytest.raises(ValueError, match=message):
        checks.run_suite(1, seed=seed)
