"""Reference implementations that tests compare the fast code against."""

import math

import numpy as np

from dermfeat.metrics import _check_scores_labels


def auroc_oracle(scores, labels) -> float:
    """Exhaustive O(P*N) pair enumeration with 0.5 credit per tie."""
    scores, labels = _check_scores_labels(scores, labels)
    if scores.size > 10 ** 4:
        raise ValueError(f"oracle limited to 1e4 samples, got {scores.size}")
    pos = scores[labels == 1.0]
    neg = scores[labels == 0.0]
    if pos.size == 0 or neg.size == 0:
        return math.nan
    wins = np.count_nonzero(pos[:, None] > neg[None, :])
    ties = np.count_nonzero(pos[:, None] == neg[None, :])
    return float((wins + 0.5 * ties) / (pos.size * neg.size))
