"""The ranking metrics by enumeration, the oracles of ``trendvar.metrics``:
AUROC counts every positive/negative pair and AUPRC walks every distinct
threshold with a mask.  Neither shares code with the library's rank and
streaming implementations.
"""


def auroc_by_pairs(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (pos.size * neg.size)


def auprc_by_thresholds(scores, labels):
    n_pos = int(labels.sum())
    area = 0.0
    prev_recall = 0.0
    for threshold in sorted(set(scores.tolist()), reverse=True):
        mask = scores >= threshold
        tp = int(labels[mask].sum())
        recall = tp / n_pos
        area += (recall - prev_recall) * (tp / int(mask.sum()))
        prev_recall = recall
    return area
