"""Output checks for the benchmark's workloads.

Each check reads a command's output directory and returns a list of
problems; an empty list means the output is correct.  The checks parse the
CSVs themselves and recompute what they can without ``trendvar``; only the
decomposition check calls ``trendvar.wavelets.reconstruct``, the inverse
it is meant to exercise.
"""

import csv
import hashlib
import math
import os
from types import SimpleNamespace

import numpy as np


def file_digests(directory, names):
    """SHA-256 of each named file, for comparing repeated runs."""
    digests = {}
    for name in names:
        h = hashlib.sha256()
        with open(os.path.join(directory, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        digests[name] = h.hexdigest()
    return digests


def read_summary(path):
    values = {}
    with open(path) as fh:
        for line in fh:
            key, sep, value = line.partition(" = ")
            if sep and not key.startswith("fold "):
                values[key.strip()] = value.strip()
    return values


def read_labels(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return {pid: int(label) for pid, label in rows}


def read_visit_columns(path):
    """Raw visit series per (patient, feature), forward-filled as the
    data format specifies: rows sorted by visit_index, empty cells take the
    previous visit's value, leading gaps read 0."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        features = next(reader)[2:]
        rows = {}
        for row in reader:
            rows.setdefault(row[0], []).append(row)
    series = {}
    for pid, patient_rows in rows.items():
        patient_rows.sort(key=lambda r: int(r[1]))
        for j, name in enumerate(features):
            values, last = [], 0.0
            for row in patient_rows:
                cell = row[2 + j]
                last = float(cell) if cell else last
                values.append(last)
            series[pid, name] = np.array(values)
    return features, series


def check_train(out_dir, folds):
    problems = []
    expected = ["manifest.txt", "metrics.csv", "summary.txt"]
    for k in range(folds):
        expected += [f"epochs_fold{k}.csv", f"fold{k}.ckpt"]
    missing = [n for n in expected
               if not os.path.isfile(os.path.join(out_dir, n))]
    if missing:
        return [f"missing outputs: {', '.join(missing)}"]
    for k in range(folds):
        with open(os.path.join(out_dir, f"epochs_fold{k}.csv"),
                  newline="") as fh:
            losses = [float(row["mean_loss"]) for row in csv.DictReader(fh)]
        if not losses or not all(math.isfinite(v) for v in losses):
            problems.append(f"epochs_fold{k}.csv: missing or non-finite loss")
    summary = read_summary(os.path.join(out_dir, "summary.txt"))
    for key in ("mean_macro_auroc", "mean_macro_auprc"):
        if not math.isfinite(float(summary.get(key, "nan"))):
            problems.append(f"summary.txt: {key} missing or non-finite")
    return problems


def pairwise_auroc(scores, positive):
    """One-vs-rest AUROC by counting every positive/negative pair; a tie
    counts one half."""
    pos = scores[positive]
    neg = scores[~positive]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def check_score(out_dir, labels_path):
    problems = []
    labels = read_labels(labels_path)
    with open(os.path.join(out_dir, "scored.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    ids = [row[0] for row in body]
    if len(body) != len(labels) or set(ids) != set(labels):
        problems.append(
            f"scored.csv: {len(body)} rows for {len(labels)} patients")
        return problems
    probs = np.array([[float(v) for v in row[2:]] for row in body])
    if probs.shape[1] != len(header) - 2 or not np.all(np.isfinite(probs)):
        problems.append("scored.csv: malformed or non-finite probabilities")
        return problems
    worst = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
    if worst > 1e-12:
        problems.append(f"scored.csv: probabilities sum to 1 only within "
                        f"{worst:.3g}")
    truth = np.array([labels[pid] for pid in ids])
    present = [k for k in range(probs.shape[1])
               if 0 < np.sum(truth == k) < truth.size]
    own = float(np.mean([pairwise_auroc(probs[:, k], truth == k)
                         for k in present]))
    summary = read_summary(os.path.join(out_dir, "summary.txt"))
    reported = float(summary.get("macro_auroc", "nan"))
    if not abs(own - reported) <= 1e-9:
        problems.append(f"macro AUROC {reported!r} in summary.txt, "
                        f"{own!r} by pairwise counting")
    return problems


def check_decomposition(out_dir, visits_path, order, wavelets):
    features, raw = read_visit_columns(visits_path)
    lines = {}
    with open(os.path.join(out_dir, "decomposition.csv"), newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for pid, feature, kind, index, value in reader:
            line = lines.setdefault((pid, feature), ([], []))
            line[kind == "variation"].append((int(index), float(value)))
    if set(lines) != set(raw):
        return [f"decomposition.csv: {len(lines)} series for {len(raw)} "
                f"visit columns"]
    worst = 0.0
    for key, (trend, variation) in lines.items():
        pair = SimpleNamespace(
            trend=np.array([v for _, v in sorted(trend)]),
            variation=np.array([v for _, v in sorted(variation)]))
        column = raw[key]
        rebuilt = wavelets.reconstruct(pair, order, column.size)
        worst = max(worst, float(np.max(np.abs(rebuilt - column))))
    if not worst <= 1e-9:
        return [f"decomposition.csv: reconstruction error {worst:.3g}"]
    return []


def check_attention(out_dir):
    sums = {}
    negative = 0
    with open(os.path.join(out_dir, "attention.csv"), newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for pid, feature, _, _, weight, _ in reader:
            w = float(weight)
            negative += not w >= 0.0
            sums[pid, feature] = sums.get((pid, feature), 0.0) + w
    problems = []
    if negative:
        problems.append(f"attention.csv: {negative} negative weights")
    if not sums:
        problems.append("attention.csv: no weights")
    else:
        worst = max(abs(s - 1.0) for s in sums.values())
        if not worst <= 1e-12:
            problems.append(
                f"attention.csv: weights sum to 1 only within {worst:.3g}")
    return problems


def check_correlation(out_dir, visits_path):
    with open(visits_path, newline="") as fh:
        features = next(csv.reader(fh))[2:]
    with open(os.path.join(out_dir, "correlation.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if sorted(r["feature"] for r in rows) != sorted(features):
        problems.append(f"correlation.csv: {len(rows)} rows for "
                        f"{len(features)} features")
    for row in rows:
        for key in ("mean_abs_correlation", "mean_correlation"):
            if not abs(float(row[key])) <= 1.0:
                problems.append(f"correlation.csv: {row['feature']} {key} "
                                f"= {row[key]}")
    return problems
