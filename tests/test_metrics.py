"""Metric tests, against the enumeration oracles of ``metric_oracle``."""

import numpy as np
import pytest

from cohorts import cohort_of
from metric_oracle import auprc_by_thresholds, auroc_by_pairs
from pearson import pearson
from trendvar.data import SynthSpec, synth_generate
from trendvar.errors import DataError
from trendvar.metrics import (
    auprc_binary,
    auroc_binary,
    macro_one_vs_rest,
    trend_variation_report,
)
from wavelet_oracle import oracle_lines


def random_binary_instance(rng, force_ties):
    n = int(rng.integers(2, 13))
    labels = np.zeros(n, dtype=np.int64)
    labels[: int(rng.integers(1, n))] = 1
    rng.shuffle(labels)
    scores = rng.normal(size=n)
    if force_ties:
        scores = np.round(scores, 1)
    return scores, labels


def test_both_metrics_match_their_oracles_on_random_instances():
    rng = np.random.default_rng(42)
    for case in range(200):
        scores, labels = random_binary_instance(rng, force_ties=case % 2 == 0)
        expected_roc = auroc_by_pairs(scores, labels)
        assert auroc_binary(scores, labels) == pytest.approx(
            expected_roc, abs=1e-12), (scores, labels)
        expected_prc = auprc_by_thresholds(scores, labels)
        assert auprc_binary(scores, labels) == pytest.approx(
            expected_prc, abs=1e-12), (scores, labels)


def auroc_by_tie_blocks(scores, labels):
    """Midranks by walking the tied blocks of the sorted scores."""
    order = np.argsort(scores, kind="mergesort")
    ranked = scores[order]
    ranks = np.empty(scores.size)
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and ranked[j + 1] == ranked[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    return float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0)
                 / (n_pos * n_neg))


def test_both_metrics_equal_the_tie_block_walks_exactly():
    rng = np.random.default_rng(7)
    for case in range(300):
        scores, labels = random_binary_instance(rng, force_ties=case % 3 > 0)
        assert auroc_binary(scores, labels) \
            == auroc_by_tie_blocks(scores, labels), (scores, labels)
        assert auprc_binary(scores, labels) \
            == auprc_by_thresholds(scores, labels), (scores, labels)


def test_auroc_worked_examples():
    assert auroc_binary(np.array([0.1, 0.9]), np.array([0, 1])) == 1.0
    assert auroc_binary(np.array([0.9, 0.1]), np.array([0, 1])) == 0.0
    constant = auroc_binary(np.full(6, 0.3), np.array([0, 1, 0, 1, 0, 1]))
    assert constant == 0.5
    # one tie at the top: (0.5 + 1) / 2 pairwise wins
    tied = auroc_binary(np.array([0.5, 0.5, 0.3]), np.array([1, 0, 0]))
    assert tied == pytest.approx(0.75, abs=1e-15)


def test_auprc_worked_examples():
    # single positive ranked last: one step of recall 1 at precision 1/n
    scores = np.array([0.4, 0.3, 0.2, 0.1])
    labels = np.array([0, 0, 0, 1])
    assert auprc_binary(scores, labels) == pytest.approx(0.25, abs=1e-15)
    # perfect ranking
    assert auprc_binary(np.array([0.1, 0.2, 0.9, 0.8]),
                        np.array([0, 0, 1, 1])) == 1.0
    # constant scores collapse to a single block: area = prevalence
    assert auprc_binary(np.full(5, 0.7),
                        np.array([1, 0, 0, 1, 0])) == pytest.approx(0.4)


def test_auroc_complement_under_score_negation():
    rng = np.random.default_rng(3)
    for _ in range(30):
        scores, labels = random_binary_instance(rng, force_ties=True)
        total = auroc_binary(scores, labels) + auroc_binary(-scores, labels)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_metrics_are_invariant_under_monotone_transforms():
    rng = np.random.default_rng(4)
    for _ in range(30):
        scores, labels = random_binary_instance(rng, force_ties=True)
        for transform in (lambda s: 2.0 * s + 1.0, np.exp, np.arctan):
            assert auroc_binary(transform(scores), labels) == \
                auroc_binary(scores, labels)
            assert auprc_binary(transform(scores), labels) == \
                auprc_binary(scores, labels)


def test_binary_metric_validation():
    with pytest.raises(DataError, match="labels must be 0 or 1"):
        auroc_binary(np.array([0.1, 0.2]), np.array([1, 2]))
    with pytest.raises(DataError, match="equal-length"):
        auroc_binary(np.array([0.1, 0.2]), np.array([1, 0, 1]))
    with pytest.raises(DataError, match="non-finite score"):
        auroc_binary(np.array([0.1, np.nan]), np.array([1, 0]))
    with pytest.raises(DataError, match="need both classes"):
        auroc_binary(np.array([0.1, 0.2]), np.array([1, 1]))
    with pytest.raises(DataError, match="no positive"):
        auprc_binary(np.array([0.1, 0.2]), np.array([0, 0]))


# -- macro averaging ----------------------------------------------------------

def test_macro_average_over_three_present_classes():
    probs = np.array([
        [0.8, 0.1, 0.1],
        [0.2, 0.6, 0.2],
        [0.1, 0.2, 0.7],
        [0.5, 0.3, 0.2],
        [0.2, 0.5, 0.3],
        [0.3, 0.3, 0.4],
    ])
    labels = np.array([0, 1, 2, 0, 1, 2])
    result = macro_one_vs_rest(probs, labels)
    assert sorted(result.per_class) == [0, 1, 2]
    assert result.skipped == []
    for c in range(3):
        binary = (labels == c).astype(int)
        assert result.per_class[c] == (auroc_binary(probs[:, c], binary),
                                       auprc_binary(probs[:, c], binary))
    aurocs, auprcs = zip(*result.per_class.values())
    assert result.auroc == pytest.approx(np.mean(aurocs), abs=1e-15)
    assert result.auprc == pytest.approx(np.mean(auprcs), abs=1e-15)


def test_macro_skips_absent_classes_but_reports_them():
    probs = np.array([[0.7, 0.2, 0.1],
                      [0.3, 0.6, 0.1],
                      [0.4, 0.5, 0.1]])
    labels = np.array([0, 1, 0])  # class 2 never appears
    result = macro_one_vs_rest(probs, labels)
    assert result.skipped == [2]
    assert sorted(result.per_class) == [0, 1]
    assert result.auprc == pytest.approx(
        np.mean([result.per_class[0][1], result.per_class[1][1]]), abs=1e-15)


def test_macro_fails_when_every_class_is_degenerate():
    probs = np.array([[0.6, 0.4], [0.3, 0.7]])
    labels = np.array([1, 1])
    with pytest.raises(DataError, match="every class is degenerate"):
        macro_one_vs_rest(probs, labels)


def test_macro_rejects_bad_shapes():
    probs = np.array([[0.6, 0.4], [0.3, 0.7]])
    with pytest.raises(DataError, match="do not line up"):
        macro_one_vs_rest(probs, np.array([0, 1, 0]))
    with pytest.raises(DataError, match="do not line up"):
        macro_one_vs_rest(probs[0], np.array([0]))


# -- correlation ---------------------------------------------------------------

def test_pearson_worked_examples():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert pearson(x, 3.0 * x - 1.0) == pytest.approx(1.0, abs=1e-12)
    assert pearson(x, -0.5 * x + 2.0) == pytest.approx(-1.0, abs=1e-12)
    # orthogonal contrast vectors
    assert pearson(np.array([-1.0, 0.0, 1.0]),
                   np.array([1.0, -2.0, 1.0])) == pytest.approx(0.0,
                                                                abs=1e-15)


def test_pearson_affine_invariance():
    rng = np.random.default_rng(5)
    a = rng.normal(size=20)
    b = rng.normal(size=20)
    r = pearson(a, b)
    assert pearson(5.0 * a + 2.0, b) == pytest.approx(r, abs=1e-12)
    assert pearson(a, -2.0 * b + 7.0) == pytest.approx(-r, abs=1e-12)


def test_pearson_validation():
    with pytest.raises(DataError, match="constant input"):
        pearson(np.array([1.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(DataError, match="constant input"):
        pearson(np.array([1.0, 2.0, 3.0]), np.array([4.0, 4.0, 4.0]))
    with pytest.raises(DataError, match="at least 2 points"):
        pearson(np.array([1.0]), np.array([2.0]))
    with pytest.raises(DataError, match="equal-length"):
        pearson(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))


def test_report_ranks_coupled_feature_above_noise():
    spec = SynthSpec(
        n_patients=12, n_classes=2, slopes=(1.0, -1.0),
        amplitudes=(0.8, 0.8), corr_signs=(1.0, 1.0),
        n_dynamic=2, n_noise_features=1, noise_scale=0.05,
        mean_visits=14.0, seed=11,
    )
    cohort = synth_generate(spec)
    rows = trend_variation_report(cohort, order=2)
    assert [r.feature for r in rows][0] == "dyn_0"
    assert rows[0].mean_abs_correlation > rows[1].mean_abs_correlation
    assert rows[0].n_defined == 12
    assert rows[0].n_undefined == 0


def test_report_counts_undefined_patients():
    flat = np.column_stack([np.full(10, 2.0), np.linspace(0.0, 1.0, 10)])
    live = np.column_stack([np.sin(np.arange(10.0)),
                            np.linspace(1.0, 0.0, 10)])
    rows = trend_variation_report(cohort_of([flat, live], names=("a", "b")),
                                  order=2)
    by_name = {r.feature: r for r in rows}
    assert by_name["a"].n_undefined == 1  # the constant column
    assert by_name["a"].n_defined == 1
    assert by_name["b"].n_defined == 2


def test_report_matches_a_per_patient_pearson_loop():
    rng = np.random.default_rng(21)
    tables = {}
    for k in range(40):
        matrix = rng.normal(size=(int(rng.integers(1, 12)), 3))
        if k % 5 == 0:
            matrix[:, 1] = 0.5  # a constant column: undefined
        tables[f"p{k}"] = matrix
    rows = trend_variation_report(
        cohort_of(list(tables.values()), names=("a", "b", "c")), order=3)
    for j, row in enumerate(sorted(rows, key=lambda r: r.feature)):
        rs = []
        for matrix in tables.values():
            try:
                rs.append(pearson(*oracle_lines(matrix[:, j], 3)))
            except DataError:
                pass
        assert row.n_defined == len(rs)
        assert row.n_undefined == len(tables) - len(rs)
        assert row.mean_correlation == pytest.approx(np.mean(rs), abs=1e-12)
        assert row.mean_abs_correlation == pytest.approx(
            np.mean(np.abs(rs)), abs=1e-12)
