"""Scalar Pearson correlation, the oracle of the report's batched rows.

``trendvar.metrics.trend_variation_report`` correlates every patient's
trend and variation lines at once; the tests check it against this
one-pair-at-a-time definition.
"""

import numpy as np

from trendvar.errors import DataError


def pearson(a, b):
    """Pearson correlation; constant input is an explicit error, not NaN."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise DataError(
            f"pearson: inputs {a.shape} and {b.shape} must be equal-length "
            f"vectors"
        )
    if a.size < 2:
        raise DataError(f"pearson: need at least 2 points, got {a.size}")
    if np.all(a == a[0]) or np.all(b == b[0]):
        raise DataError("pearson: correlation undefined for constant input")
    ca = a - a.mean()
    cb = b - b.mean()
    return float(np.dot(ca, cb) / np.sqrt(np.dot(ca, ca) * np.dot(cb, cb)))
