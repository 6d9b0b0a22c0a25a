"""Single-level symlet decomposition of visit series.

Each dynamic feature's series is split once into a trend line (lowpass) and
a variation line (highpass) with an orthonormal least-asymmetric filter pair.
Boundaries use half-sample symmetric extension, so a length-t series yields
floor((t + F - 1) / 2) coefficients per line, F = 2K being the filter length.
The split is linear: for each (order, length) it is one cached matrix, built
by adding every filter tap to the entry of the sample it reads after
reflection (``analysis_matrix``).  One series (``decompose``) and whole
stacks of series (``decompose_batch``) are split by one product with it.
The split is exactly invertible: ``reconstruct`` returns the original samples
to floating-point roundoff.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._symlet_coeffs import SYMLET_LOWPASS
from .errors import ConfigError, NumericError

MIN_ORDER = 2
MAX_ORDER = 20


@dataclass(frozen=True)
class FilterPair:
    """Orthonormal analysis filter pair for one symlet order."""

    order: int
    lowpass: np.ndarray
    highpass: np.ndarray

    @property
    def length(self):
        return 2 * self.order


@dataclass(frozen=True)
class TrendVariationPair:
    """One feature's decomposition: trend (lowpass) and variation (highpass)
    coefficient lines of equal length."""

    trend: np.ndarray
    variation: np.ndarray


def _quadrature_mirror(lowpass):
    # g[n] = (-1)^n h[F-1-n]: exact by construction, no rounding involved.
    flipped = lowpass[::-1].copy()
    flipped[1::2] *= -1.0
    return flipped


@lru_cache(maxsize=None)
def symlet_filters(order):
    """Return the read-only ``FilterPair`` for ``order`` in 2..20, built on
    the first call for that order and the same object on every later one."""
    if order not in SYMLET_LOWPASS:
        raise ConfigError(
            f"unsupported symlet order {order}: supported range is "
            f"{MIN_ORDER}..{MAX_ORDER}"
        )
    lowpass = np.array(SYMLET_LOWPASS[order], dtype=np.float64)
    highpass = _quadrature_mirror(lowpass)
    lowpass.flags.writeable = False
    highpass.flags.writeable = False
    return FilterPair(order, lowpass, highpass)


def coefficient_count(length, order):
    """Number of trend (and variation) coefficients for a length-t series."""
    if length < 1:
        raise ConfigError(f"series length must be positive, got {length}")
    return (length + 2 * order - 1) // 2


def decompose(x, order):
    """Split one series into its trend and variation coefficient lines as a
    stack of one in ``decompose_batch``, whose refusals of non-finite values
    name it feature 'x' of patient 0."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ConfigError(
            f"decompose: expected a non-empty 1-D series, got shape {x.shape}"
        )
    return TrendVariationPair(*decompose_batch(x[None, None], order,
                                               ("x",), (0,))[0, 0])


def reconstruct(pair, order, length):
    """Invert ``decompose``: rebuild the original length-t series."""
    filters = symlet_filters(order)
    expected = coefficient_count(length, order)
    if pair.trend.shape != (expected,) or pair.variation.shape != (expected,):
        raise ConfigError(
            f"reconstruct: coefficient length mismatch, expected {expected} "
            f"for length {length} at order {order}, got trend "
            f"{pair.trend.shape} and variation {pair.variation.shape}"
        )
    f = filters.length
    # The odd positions of a length t+F-1 buffer hold exactly m slots.
    up_len = length + f - 1
    up_trend = np.zeros(up_len)
    up_trend[1::2] = pair.trend
    up_var = np.zeros(up_len)
    up_var[1::2] = pair.variation
    rec = np.convolve(up_trend, filters.lowpass[::-1]) + np.convolve(
        up_var, filters.highpass[::-1]
    )
    return rec[f - 1: f - 1 + length]


@lru_cache(maxsize=64)
def analysis_matrix(order, length):
    """The split of every length-t series as one read-only (2m, t) matrix.

    Rows 0..m-1 produce the trend line and rows m..2m-1 the variation line.
    Coefficient k of a line is the sum over taps j of filter[j] times
    sample 2k + 1 - j, its index reflected into 0..t-1; each tap is added
    to the entry of its reflected sample, in tap order.
    """
    m = coefficient_count(length, order)  # rejects length < 1
    filters = symlet_filters(order)
    # Half-sample symmetric extension bounces with period 2t.
    sample = (2 * np.arange(m)[:, None] + 1
              - np.arange(filters.length)) % (2 * length)
    sample = np.minimum(sample, 2 * length - 1 - sample)
    coefficient = np.arange(m)[:, None]
    # Built as (t, 2m) and transposed: einsum's order of summation follows
    # this layout, and the bits of every split with it.
    matrix = np.zeros((length, 2 * m))
    np.add.at(matrix, (sample, coefficient), filters.lowpass)
    np.add.at(matrix, (sample, coefficient + m), filters.highpass)
    matrix = matrix.T
    matrix.flags.writeable = False
    return matrix


def _check_finite(stack, message, names, ids):
    """Reject the first non-finite entry of an (n, c, k) stack with
    ``message``, whose ``{}`` gets its place: its index on the last axis,
    its feature from ``names`` and its patient from ``ids``."""
    if np.isfinite(stack).all():
        return
    patient, feature, index = np.argwhere(~np.isfinite(stack))[0].tolist()
    raise NumericError("decompose_batch: " + message.format(
        f"{index}, feature {names[feature]!r} of patient {ids[patient]!r}"))


def decompose_batch(series, order, names, ids):
    """Split an (n, c, t) stack of series at once: ``names`` names its c
    features and ``ids`` its n patients.

    Returns lines of shape (n, c, 2, m): ``[..., 0, :]`` is the trend line
    and ``[..., 1, :]`` the variation line of each series, as ``decompose``
    gives them, from one product with ``analysis_matrix``.
    Each series' lines are bit for bit the same whatever else is stacked
    with it.
    Non-finite samples are rejected up front with their visit, feature and
    patient, because a single NaN would silently smear across 2K
    coefficients.  Finite samples so large that a coefficient overflows
    are rejected the same way.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 3 or series.shape[-1] < 1:
        raise ConfigError(
            f"decompose_batch: expected an (n, c, t) stack with t >= 1, got "
            f"shape {series.shape}"
        )
    _check_finite(series, "non-finite value at visit {}", names, ids)
    t = series.shape[-1]
    matrix = analysis_matrix(order, t)
    # einsum sums each output on its own, in a fixed order; a BLAS matmul
    # rounds a row differently depending on how many rows share the call.
    lines = np.einsum("rt,kt->rk", series.reshape(-1, t),
                      matrix).reshape(series.shape[:-1] + matrix.shape[:1])
    _check_finite(lines, "non-finite coefficient {}: the values overflow "
                  "the split", names, ids)
    return lines.reshape(series.shape[:-1] + (2, matrix.shape[0] // 2))


def decompose_ragged(cohort, order):
    """Split the visits of every patient of ``cohort``, one
    ``decompose_batch`` per distinct visit count.

    Yields ``(indices, lines)`` per distinct visit count, in order of first
    appearance: ``lines[k]`` is the (c, 2, m) split of the dynamic features
    of patient ``indices[k]``.  A group whose split fails is not yielded;
    after the last group, the first failing patient in cohort order raises.
    """
    offsets = cohort.offsets
    lengths = np.diff(offsets)
    _, first = np.unique(lengths, return_index=True)
    columns = np.arange(cohort.n_dynamic)[:, None]
    failed = []
    for t in lengths[np.sort(first)].tolist():
        indices = np.flatnonzero(lengths == t)
        # Gathered straight into (patients, c, t): one copy of the group.
        rows = offsets[indices, None, None] + np.arange(t)
        try:
            lines = decompose_batch(
                cohort.values[rows, columns], order, cohort.dynamic_names,
                [cohort.ids[i] for i in indices.tolist()])
        except NumericError:
            failed += indices.tolist()
            continue
        yield indices, lines
    # A group's error names its own first failure.  Each series splits alone
    # as in its group, so splitting the failed groups' patients one by one,
    # in cohort order, raises for the first failing one in the cohort.
    for i in sorted(failed):
        decompose_batch(cohort.values[offsets[i]:offsets[i + 1]].T[None],
                        order, cohort.dynamic_names, [cohort.ids[i]])
