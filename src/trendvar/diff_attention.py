"""Attention over first-order differences of the variation line.

The variation coefficients R* of one feature are differenced once, and the
squared differences (scaled by 1/sqrt(m), m the length of R* itself) are
softmax-normalised into attention weights.  The weighted differences
highlight where a patient's short-term variation jumps.  There is nothing
trainable here and R* is data, so the stage runs once per patient when a
cohort is prepared and never needs a gradient.  ``diff_attention`` is the
whole stage, with all of its checks, for n patients' c variation lines.
"""

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import ConfigError, NumericError


@dataclass
class AttentionOutputs:
    diff: np.ndarray
    weights: np.ndarray
    weighted_diff: np.ndarray


def softmax(scores):
    """Softmax over the last axis, stabilised by max subtraction."""
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def diff_attention(variation, names, ids):
    """Difference, attend and reweight an (n, c, m) stack of variation
    lines: ``names`` names its c features and ``ids`` its n patients.

    ``diff`` holds the adjacent differences x[i+1] - x[i] of each line,
    ``weights`` the softmax of their squares scaled by 1/sqrt(m), and
    ``weighted_diff`` their product.  Differences whose scores are not
    finite (lines so large that they overflow, or NaN) are rejected with
    the first such feature and patient.
    """
    variation = np.asarray(variation, dtype=np.float64)
    if variation.ndim != 3 or variation.shape[-1] < 2:
        raise ConfigError(
            f"diff_attention: expected an (n, c, m) stack with m >= 2, got "
            f"shape {variation.shape}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        diff = variation[..., 1:] - variation[..., :-1]
        scores = diff * diff * (1.0 / sqrt(variation.shape[-1]))
    finite = np.isfinite(scores).all(axis=-1)
    if not finite.all():
        patient, feature = np.argwhere(~finite)[0].tolist()
        raise NumericError(
            f"diff_attention: non-finite attention scores, feature "
            f"{names[feature]!r} of patient {ids[patient]!r}: the "
            f"differences of its variation line overflow")
    weights = softmax(scores)
    return AttentionOutputs(diff, weights, weights * diff)


def pool_features(weighted):
    """Mean over features of (..., c, m - 1) weighted differences."""
    return weighted.sum(axis=-2) * (1.0 / weighted.shape[-2])
