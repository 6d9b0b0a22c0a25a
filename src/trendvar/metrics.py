"""Ranking metrics and correlation diagnostics, computed from first
principles.

AUROC uses the rank-sum formulation with midranks for ties, so a constant
scorer lands exactly at 0.5.  AUPRC is the area under the stepwise
precision-recall curve with one step per distinct threshold (ties move as a
block).  Multi-class scores are macro one-vs-rest averages; classes absent
from the evaluated set cannot be scored and are skipped but reported.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .wavelets import decompose_ragged


def _validate_binary(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or labels.shape != scores.shape:
        raise DataError(
            f"binary metric: scores {scores.shape} and labels "
            f"{labels.shape} must be equal-length vectors"
        )
    if not np.all((labels == 0) | (labels == 1)):
        raise DataError("binary metric: labels must be 0 or 1")
    if not np.all(np.isfinite(scores)):
        raise DataError("binary metric: non-finite score")
    return scores, labels.astype(np.int64)


def auroc_binary(scores, labels):
    """Probability a random positive outranks a random negative (ties half).

    Equivalent to the Mann-Whitney U statistic normalised by n_pos * n_neg.
    """
    scores, labels = _validate_binary(scores, labels)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError(
            f"auroc: need both classes, got {n_pos} positives and "
            f"{n_neg} negatives"
        )
    order = np.argsort(scores, kind="mergesort")
    # A tied block at sorted positions i..i+k-1 takes the midrank
    # i + (k - 1) / 2 + 1.
    _, first, counts = np.unique(scores[order], return_index=True,
                                 return_counts=True)
    ranks = np.empty(scores.size)
    ranks[order] = np.repeat(first + 0.5 * (counts - 1) + 1.0, counts)
    rank_sum = ranks[labels == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def auprc_binary(scores, labels):
    """Area under the precision-recall step curve.

    Thresholds sweep the distinct score values in descending order; each
    step adds (recall gain) * (precision at that threshold).
    """
    scores, labels = _validate_binary(scores, labels)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise DataError("auprc: no positive examples")
    order = np.argsort(-scores, kind="mergesort")
    sorted_scores = scores[order]
    # The last position of each tied block: a threshold's cut.
    seen = np.flatnonzero(np.append(sorted_scores[1:] != sorted_scores[:-1],
                                    True)) + 1
    true_pos = np.cumsum(labels[order])[seen - 1]
    recall = true_pos / n_pos
    gains = np.diff(recall, prepend=0.0) * (true_pos / seen)
    return float(_running_sum(gains))


@dataclass
class MacroResult:
    """Macro AUROC and AUPRC plus the per-class breakdown.

    ``per_class`` maps each scorable class to its ``(auroc, auprc)``.
    ``skipped`` lists classes that were absent (or universal) in the
    evaluated labels and therefore unscorable.
    """

    auroc: float
    auprc: float
    per_class: dict
    skipped: list


def macro_one_vs_rest(probs, labels):
    """Macro-averaged one-vs-rest AUROC and AUPRC over an (N, d)
    probability matrix."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if probs.ndim != 2 or labels.shape != (probs.shape[0],):
        raise DataError(
            f"macro metric: probs {probs.shape} and labels {labels.shape} "
            f"do not line up"
        )
    per_class = {}
    skipped = []
    for cls in range(probs.shape[1]):
        binary = (labels == cls).astype(np.int64)
        n_pos = int(binary.sum())
        if n_pos == 0 or n_pos == binary.size:
            skipped.append(cls)
            continue
        per_class[cls] = (auroc_binary(probs[:, cls], binary),
                          auprc_binary(probs[:, cls], binary))
    if not per_class:
        raise DataError(
            "macro metric: every class is degenerate in this evaluation set"
        )
    aurocs, auprcs = zip(*per_class.values())
    return MacroResult(float(np.mean(aurocs)), float(np.mean(auprcs)),
                       per_class, skipped)


@dataclass
class FeatureCorrelation:
    feature: str
    mean_abs_correlation: float
    mean_correlation: float
    n_defined: int
    n_undefined: int


def _pearson_rows(a, b):
    """Pearson r of each row pair of two (..., m) stacks, and which are
    defined: a pair with a constant side is not, and its r reads 0.  Lines
    whose squares overflow give a non-finite r, without a warning."""
    defined = ~((a == a[..., :1]).all(axis=-1) | (b == b[..., :1]).all(axis=-1))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ca = a - a.mean(axis=-1, keepdims=True)
        cb = b - b.mean(axis=-1, keepdims=True)
        r = (ca * cb).sum(axis=-1) / np.sqrt(
            (ca * ca).sum(axis=-1) * (cb * cb).sum(axis=-1))
    return np.where(defined, r, 0.0), defined


def _running_sum(x):
    """Sum over axis 0 strictly left to right (``np.sum`` pairs terms up)."""
    return np.cumsum(x, axis=0)[-1] if len(x) else np.zeros(x.shape[1:])


def trend_variation_report(cohort, order):
    """Rank the dynamic features of ``cohort`` by how strongly trend and
    variation co-move.

    For every patient and feature, correlate the trend line with the
    variation line; report the mean |r| per feature, descending.  Patients
    whose lines are constant count as undefined rather than poisoning the
    mean; a defined r that is not finite (values that overflow) is a
    ``NumericError`` that names the patient and feature.
    Patients are decomposed in groups of equal visit count; the sums over
    patients run in patient order.
    """
    feature_names = cohort.dynamic_names
    n_patients = len(cohort)
    r = np.zeros((n_patients, len(feature_names)))
    defined = np.zeros(r.shape, dtype=bool)
    for indices, lines in decompose_ragged(cohort, order):
        r[indices], defined[indices] = _pearson_rows(
            lines[..., 0, :], lines[..., 1, :])
    # A constant series has constant lines in exact arithmetic, but the
    # matrix product leaves them roundoff apart: test the series itself.
    starts = cohort.offsets[:-1]
    flat = np.maximum.reduceat(cohort.values, starts) \
        == np.minimum.reduceat(cohort.values, starts)
    r[flat] = 0.0
    defined[flat] = False
    if not np.isfinite(r).all():
        patient, column = np.argwhere(~np.isfinite(r))[0].tolist()
        raise NumericError(
            f"trend_variation_report: non-finite correlation for feature "
            f"{feature_names[column]!r} of patient {cohort.ids[patient]!r}: "
            f"its values overflow the computation"
        )
    # Undefined entries hold 0.0, so these running sums in patient order
    # equal the left-to-right sums over the defined ones.
    sums = _running_sum(r)
    abs_sums = _running_sum(np.abs(r))
    n_defined = defined.sum(axis=0)
    rows = []
    for j, name in enumerate(feature_names):
        n = int(n_defined[j])
        rows.append(FeatureCorrelation(
            feature=name,
            mean_abs_correlation=float(abs_sums[j]) / n if n else 0.0,
            mean_correlation=float(sums[j]) / n if n else 0.0,
            n_defined=n,
            n_undefined=n_patients - n,
        ))
    rows.sort(key=lambda row: (-row.mean_abs_correlation, row.feature))
    return rows
