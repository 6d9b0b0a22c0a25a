"""Attention over first-order differences of the variation line.

The variation coefficients R* of one feature are differenced once, and the
squared differences (scaled by 1/sqrt(m), m the length of R* itself) are
softmax-normalised into attention weights.  The weighted differences
highlight where a patient's short-term variation jumps.  There is nothing
trainable here and R* is data, so the stage runs once per patient when a
cohort is prepared and never needs a gradient.

Every function works along the last axis, so one call covers a whole stack
of lines, shape (..., m).
"""

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import ConfigError, NumericError


@dataclass
class AttentionOutputs:
    weights: np.ndarray
    weighted_diff: np.ndarray


def softmax(scores):
    """Softmax over the last axis, stabilised by max subtraction."""
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def first_order_diff(values):
    """Adjacent differences along the last axis: out[i] = x[i+1] - x[i]."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim < 1 or values.shape[-1] < 2:
        raise ConfigError(
            f"first_order_diff: need lines of length >= 2, got shape "
            f"{values.shape}"
        )
    return values[..., 1:] - values[..., :-1]


def attention_weights(diff, dim):
    """Softmax over squared differences scaled by 1/sqrt(dim).

    ``dim`` is the length of the ORIGINAL coefficient line, one more than the
    difference vector; the scaling tracks the line the differences came from.
    """
    if dim < 2:
        raise ConfigError(f"attention_weights: dim must be >= 2, got {dim}")
    if not np.all(np.isfinite(diff)):
        raise NumericError(
            "attention_weights: non-finite difference values"
        )
    return softmax(diff * diff * (1.0 / sqrt(dim)))


def diff_attention(values):
    """Full stage for (..., m) lines: difference, attend, reweight."""
    diff = first_order_diff(values)
    weights = attention_weights(diff, diff.shape[-1] + 1)
    return AttentionOutputs(weights, weights * diff)


def pool_features(weighted):
    """Mean over features of (..., c, m - 1) weighted differences."""
    return weighted.sum(axis=-2) * (1.0 / weighted.shape[-2])
