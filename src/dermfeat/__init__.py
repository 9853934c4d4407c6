"""Clinical dermoscopic feature detection at desk scale.

A hypercolumn fully-convolutional network trained under a smoothed
multi-class F1 loss, with superpixel-level label aggregation and AUROC
evaluation, exercised end to end on synthetic data.
"""

from .loss import f1_loss, f1_loss_grad
from .metrics import RocResult, auroc, evaluate
from .model import EncoderConfig, ModelParams, init_params, load_params, save_params
from .superpixels import (CLASS_COUNT, CLASS_NAMES, SuperpixelMap,
                          grid_superpixels, labels_to_mask, mask_to_scores)
from .train import TrainConfig, TrainReport

__version__ = "0.1.0"

# The training entry points live in dermfeat.train (the function would
# shadow its own submodule if re-exported here).
__all__ = [
    "CLASS_COUNT", "CLASS_NAMES", "EncoderConfig", "ModelParams", "RocResult",
    "SuperpixelMap", "TrainConfig", "TrainReport", "auroc", "evaluate",
    "f1_loss", "f1_loss_grad", "grid_superpixels", "init_params",
    "labels_to_mask", "load_params", "mask_to_scores", "save_params",
]
