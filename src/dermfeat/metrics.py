"""Superpixel-level AUROC per class, pooled over a dataset's images.

AUROC here is the Mann-Whitney statistic: the probability that a random
positive outranks a random negative, with ties credited 0.5. A class
with no positives (or no negatives) in the evaluation pool has no
defined AUROC and is excluded from the macro average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .superpixels import CLASS_COUNT, CLASS_NAMES


def _check_scores_labels(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=np.float64).ravel()
    if scores.shape != labels.shape:
        raise ValueError(f"{scores.size} scores but {labels.size} labels")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    if not np.isin(labels, (0.0, 1.0)).all():
        raise ValueError("labels must be binary")
    return scores, labels


def auroc(scores, labels) -> float:
    """Rank-based AUROC in O(n log n): U / (P*N) with average ranks on ties.

    Returns NaN when the input has a single class (undefined, never a crash).
    """
    scores, labels = _check_scores_labels(scores, labels)
    pos = labels == 1.0
    p = int(pos.sum())
    n = scores.size - p
    if p == 0 or n == 0:
        return math.nan

    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.size)
    sorted_scores = scores[order]
    # Average the ranks of tied runs.
    boundaries = np.flatnonzero(np.diff(sorted_scores) != 0.0) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [scores.size]))
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    u = ranks[pos].sum() - p * (p + 1) / 2.0
    return float(u / (p * n))


@dataclass
class ClassRoc:
    name: str
    auroc: float | None  # None when undefined for this pool
    positives: int
    negatives: int


@dataclass
class RocResult:
    per_class: list[ClassRoc]
    macro_average: float | None

    def to_json_dict(self) -> dict:
        return {
            "per_class": [
                {"class": c.name, "auroc": c.auroc, "positives": c.positives,
                 "negatives": c.negatives}
                for c in self.per_class
            ],
            "macro_average": self.macro_average,
        }


def evaluate(predictions, truths, sample_ids=None) -> RocResult:
    """Pool superpixels across all images per class and compute AUROC.

    predictions and truths are parallel sequences of [K_i, 4] arrays
    (scores in [0,1], binary labels). A non-finite score or one outside
    [0,1] raises ValueError naming its sample. The macro average runs over
    the classes whose pooled pool contains both positives and negatives.
    """
    if len(predictions) != len(truths):
        raise ValueError(f"{len(predictions)} prediction sets but "
                         f"{len(truths)} truth sets")
    if sample_ids is None:
        sample_ids = [f"image {i}" for i in range(len(predictions))]
    elif len(sample_ids) != len(predictions):
        raise ValueError(f"{len(sample_ids)} sample ids but "
                         f"{len(predictions)} prediction sets")
    checked = []
    for sid, pred, truth in zip(sample_ids, predictions, truths):
        pred = np.asarray(pred, dtype=np.float64)
        truth = np.asarray(truth, dtype=np.float64)
        if pred.shape != truth.shape or pred.ndim != 2 or pred.shape[1] != CLASS_COUNT:
            raise ValueError(
                f"{sid}: prediction shape {pred.shape} does not match truth "
                f"shape {truth.shape} (expected [K,{CLASS_COUNT}])")
        if not np.isfinite(pred).all():
            raise ValueError(f"{sid}: prediction scores must be finite")
        if not ((pred >= 0.0) & (pred <= 1.0)).all():
            raise ValueError(f"{sid}: prediction scores must lie in [0, 1]")
        checked.append((pred, truth))

    per_class: list[ClassRoc] = []
    defined: list[float] = []
    for c in range(CLASS_COUNT):
        # One class's pool at a time, contiguous, so auroc copies neither.
        scores = np.concatenate([pred[:, c] for pred, _ in checked])
        labels = np.concatenate([truth[:, c] for _, truth in checked])
        p = int((labels == 1.0).sum())
        n = int(labels.size - p)
        value = auroc(scores, labels)
        if math.isnan(value):
            per_class.append(ClassRoc(CLASS_NAMES[c], None, p, n))
        else:
            per_class.append(ClassRoc(CLASS_NAMES[c], float(value), p, n))
            defined.append(float(value))
    macro = float(np.mean(defined)) if defined else None
    return RocResult(per_class=per_class, macro_average=macro)
