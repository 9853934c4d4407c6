"""Canned gradient-check suites: loss-level and end-to-end model checks.

Instances are drawn from seeded generators and conditioned away from the
relu/maxpool non-smooth points so central differences are valid; the
conditioning retries with derived seeds and is fully deterministic.
"""

from __future__ import annotations

import numpy as np

from . import model, ops
from .gradcheck import GradCheckReport, gradcheck
from .loss import LossConfig, dice_loss, f1_loss, f1_loss_grad
from .model import EncoderConfig

SMOOTH_MARGIN = 1e-3  # min |pre-activation| and pool top-2 gap


def check_f1_loss(seed: int, *, shape: tuple[int, int, int] = (4, 8, 8),
                  eps: float = 1.0, step: float = 1e-5,
                  tolerance: float = 1e-5) -> GradCheckReport:
    """Gradient-check f1_loss_grad on one random instance."""
    rng = np.random.default_rng(seed)
    cfg = LossConfig(eps=eps, class_count=shape[0])
    # Margins keep perturbed predictions inside the [0,1] contract.
    pred = rng.uniform(2 * step, 1.0 - 2 * step, shape)
    truth = (rng.random(shape) < 0.4).astype(np.float64)
    analytic = f1_loss_grad(pred, truth, cfg)
    return gradcheck(lambda p: f1_loss(p, truth, cfg)[0], pred, analytic,
                     step=step, tolerance=tolerance)


def check_dice_loss(seed: int, *, shape: tuple[int, int, int] = (1, 8, 8),
                    eps: float = 1.0, step: float = 1e-5,
                    tolerance: float = 1e-5) -> GradCheckReport:
    """Gradient-check the dice loss gradient on one random instance."""
    rng = np.random.default_rng(seed)
    cfg = LossConfig(eps=eps, class_count=1)
    pred = rng.uniform(2 * step, 1.0 - 2 * step, shape)
    truth = (rng.random(shape) < 0.4).astype(np.float64)
    _, analytic = dice_loss(pred, truth, cfg)
    return gradcheck(lambda p: dice_loss(p, truth, cfg)[0], pred, analytic,
                     step=step, tolerance=tolerance)


def _well_conditioned(params: model.ModelParams, cfg: EncoderConfig,
                      cache: model.ForwardCache) -> bool:
    """True when every pre-activation sits away from the relu kink and
    every pool window has a clear winner."""
    for i, x in enumerate(cache.block_inputs, start=1):
        z = ops.conv2d(x, params[f"block{i}.weight"], params[f"block{i}.bias"],
                       cfg.kernel // 2)
        if np.abs(z).min() <= SMOOTH_MARGIN:
            return False
    for a, _ in zip(cache.taps[:-1], cache.pool_argmax):
        c, h, w = a.shape
        windows = a.reshape(c, h // 2, 2, w // 2, 2)
        windows = windows.transpose(0, 1, 3, 2, 4).reshape(c, h // 2, w // 2, 4)
        top2 = np.partition(windows, 2, axis=-1)[..., 2:]
        if (top2[..., 1] - top2[..., 0]).min() <= SMOOTH_MARGIN:
            return False
    return True


def draw_model_instance(seed: int, *, image_hw: int = 8,
                        channels: tuple[int, ...] = (2, 2),
                        in_channels: int = 1, eps: float = 1.0,
                        max_attempts: int = 50):
    """Draw a smoothness-conditioned (cfg, params, image, truth, lcfg)."""
    cfg = EncoderConfig(channels=channels, in_channels=in_channels)
    lcfg = LossConfig(eps=eps)
    for attempt in range(max_attempts):
        rng = np.random.default_rng([seed, attempt])
        params = model.init_params(cfg, int(rng.integers(2 ** 31)))
        # Nonzero biases move pre-activations off the relu kink.
        for i in range(1, cfg.block_count + 1):
            b = params[f"block{i}.bias"]
            b += rng.uniform(0.05, 0.3, b.shape)
        image = rng.uniform(0.0, 1.0, (in_channels, image_hw, image_hw))
        truth = (rng.random((4, image_hw, image_hw)) < 0.4).astype(np.float64)
        _, cache = model.forward(params, cfg, image)
        if _well_conditioned(params, cfg, cache):
            return cfg, params, image, truth, lcfg
    raise RuntimeError(f"no well-conditioned model instance found for seed {seed}")


def check_model_params(seed: int, *, step: float = 1e-5,
                       tolerance: float = 1e-5, **kw) -> GradCheckReport:
    """End-to-end check of d(f1_loss(forward(image)))/d(params)."""
    cfg, params, image, truth, lcfg = draw_model_instance(seed, **kw)

    def value(vec: np.ndarray) -> float:
        probs, _ = model.forward(model.unflatten_params(cfg, vec), cfg, image)
        return f1_loss(probs, truth, lcfg)[0]

    probs, cache = model.forward(params, cfg, image)
    grad_params, _ = model.backward(params, cfg, cache,
                                    f1_loss_grad(probs, truth, lcfg))
    return gradcheck(value, model.flatten_params(params),
                     model.flatten_params(grad_params),
                     step=step, tolerance=tolerance)


def check_model_input(seed: int, *, step: float = 1e-5,
                      tolerance: float = 1e-5, **kw) -> GradCheckReport:
    """End-to-end check of d(f1_loss(forward(image)))/d(image)."""
    cfg, params, image, truth, lcfg = draw_model_instance(seed, **kw)

    def value(img: np.ndarray) -> float:
        probs, _ = model.forward(params, cfg, img)
        return f1_loss(probs, truth, lcfg)[0]

    probs, cache = model.forward(params, cfg, image)
    grad_probs = f1_loss_grad(probs, truth, lcfg)
    _, grad_image = model.backward(params, cfg, cache, grad_probs)
    return gradcheck(value, image, grad_image, step=step, tolerance=tolerance)


def run_suite(instances: int, *, seed: int = 0, step: float = 1e-5,
              tolerance: float = 1e-5) -> list[tuple[str, GradCheckReport]]:
    """Run every check family `instances` times; returns (name, report) pairs."""
    out = []
    for i in range(instances):
        out.append((f"f1_loss[{i}]",
                    check_f1_loss(seed + i, step=step, tolerance=tolerance)))
        out.append((f"dice_loss[{i}]",
                    check_dice_loss(seed + 1000 + i, step=step, tolerance=tolerance)))
        out.append((f"model_params[{i}]",
                    check_model_params(seed + 2000 + i, step=step,
                                       tolerance=tolerance)))
        out.append((f"model_input[{i}]",
                    check_model_input(seed + 3000 + i, step=step,
                                      tolerance=tolerance)))
    return out
