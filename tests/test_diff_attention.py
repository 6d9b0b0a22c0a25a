"""Difference-attention tests; the worked example is checked against an
independent high-precision oracle (mpmath) rather than hand-copied digits."""

import mpmath as mp
import numpy as np
import pytest

from gradcheck import finite_diff_check
from trendvar.diff_attention import (
    attention_weights,
    diff_attention,
    first_order_diff,
    pool_features,
)
from trendvar.errors import ConfigError, NumericError
from trendvar.model import (
    ABLATION_PRESETS,
    ModelConfig,
    ModelParams,
    backward,
    cross_entropy,
    forward,
    one_hot,
    prepare,
)


def oracle_attention(values):
    """Softmax over squared diffs / sqrt(m) at 50 significant digits."""
    with mp.workdps(50):
        # mpf(float) converts the binary64 value exactly
        vals = [mp.mpf(float(v)) for v in values]
        diffs = [b - a for a, b in zip(vals, vals[1:])]
        scale = 1 / mp.sqrt(len(vals))
        scores = [d * d * scale for d in diffs]
        top = max(scores)
        exps = [mp.e ** (s - top) for s in scores]
        total = sum(exps)
        alpha = [e / total for e in exps]
        weighted = [a * d for a, d in zip(alpha, diffs)]
        return ([float(a) for a in alpha], [float(w) for w in weighted])


def run_attention(values):
    out = diff_attention(np.asarray(values, dtype=float))
    return out.weights, out.weighted_diff


def test_first_order_diff_examples():
    d = first_order_diff([1.0, 3.0, 2.0])
    assert d == pytest.approx([2.0, -1.0])
    d2 = first_order_diff([4.0, 4.0, 4.0, 4.0])
    assert np.abs(d2).max() == 0.0
    d3 = first_order_diff([0.0, 5.0])
    assert d3 == pytest.approx([5.0])
    rows = first_order_diff([[1.0, 3.0, 2.0], [0.0, 0.5, 2.0]])
    np.testing.assert_array_equal(rows, [[2.0, -1.0], [0.5, 1.5]])


def test_first_order_diff_needs_two_points():
    with pytest.raises(ConfigError, match=">= 2"):
        first_order_diff([1.0])


def test_worked_example_against_oracle():
    weights, weighted = run_attention([1.0, 3.0, 2.0])
    exp_alpha, exp_weighted = oracle_attention([1.0, 3.0, 2.0])
    np.testing.assert_allclose(weights, exp_alpha, atol=1e-12)
    np.testing.assert_allclose(weighted, exp_weighted, atol=1e-12)
    # frozen digits for this case (oracle output, kept for readability)
    assert weights == pytest.approx([0.84967455, 0.15032545], abs=1e-8)
    assert weighted == pytest.approx([1.69934911, -0.15032545], abs=1e-8)


def test_random_cases_against_oracle():
    rng = np.random.default_rng(8)
    for _ in range(25):
        values = rng.normal(size=int(rng.integers(2, 12))) * 3
        weights, weighted = run_attention(values)
        exp_alpha, exp_weighted = oracle_attention(values)
        np.testing.assert_allclose(weights, exp_alpha, atol=1e-12)
        np.testing.assert_allclose(weighted, exp_weighted, atol=1e-12)


def test_constant_line_gives_uniform_weights_and_zero_output():
    weights, weighted = run_attention([4.0, 4.0, 4.0, 4.0])
    assert weights == pytest.approx(np.full(3, 1 / 3), abs=1e-15)
    assert np.abs(weighted).max() == 0.0


def test_two_point_line_gets_full_weight():
    weights, weighted = run_attention([0.0, 5.0])
    assert weights == pytest.approx([1.0], abs=1e-15)
    assert weighted == pytest.approx([5.0])


def test_weights_sum_to_one_and_stay_positive():
    rng = np.random.default_rng(5)
    for _ in range(200):
        values = rng.normal(size=int(rng.integers(2, 15)))
        weights, _ = run_attention(values)
        assert abs(weights.sum() - 1.0) <= 1e-12
        assert weights.min() > 0.0


def test_weights_stay_normalised_for_huge_swings():
    # squared jumps this large underflow the losing weights to exact zero,
    # which is fine; the winner still carries the full mass
    rng = np.random.default_rng(15)
    for _ in range(50):
        values = rng.normal(size=int(rng.integers(2, 15))) * 40
        weights, _ = run_attention(values)
        assert abs(weights.sum() - 1.0) <= 1e-12
        assert weights.min() >= 0.0


def test_negation_invariance_of_weights():
    # (-d)^2 == d^2, so weights are exactly unchanged; outputs flip sign.
    rng = np.random.default_rng(6)
    values = rng.normal(size=9)
    w_pos, out_pos = run_attention(values)
    w_neg, out_neg = run_attention(-values)
    np.testing.assert_array_equal(w_pos, w_neg)
    np.testing.assert_allclose(out_neg, -out_pos, atol=1e-15)


def test_translation_invariance():
    rng = np.random.default_rng(7)
    values = rng.normal(size=8)
    w_base, out_base = run_attention(values)
    w_shift, out_shift = run_attention(values + 3.5)
    np.testing.assert_allclose(w_shift, w_base, atol=1e-12)
    np.testing.assert_allclose(out_shift, out_base, atol=1e-12)


def test_weights_concentrate_on_the_big_jump():
    _, weighted = run_attention([0.0, 0.1, 0.2, 5.0, 5.1])
    weights, _ = run_attention([0.0, 0.1, 0.2, 5.0, 5.1])
    assert np.argmax(weights) == 2
    assert weights[2] > 0.9


def test_sign_of_weighted_output_matches_differences():
    rng = np.random.default_rng(10)
    values = np.cumsum(rng.normal(size=10))
    diffs = np.diff(values)
    _, weighted = run_attention(values)
    np.testing.assert_array_equal(np.sign(weighted), np.sign(diffs))


def test_attention_weights_reject_nonfinite():
    with pytest.raises(NumericError, match="non-finite"):
        attention_weights(np.array([1.0, np.nan]), 3)


def test_gradient_through_attention_matches_finite_differences():
    # The stage has no parameters and its input is data, so the only
    # gradient that passes through its output is the one into the head
    # weights that read the pooled vector.
    config = ModelConfig(t_max=8, n_dynamic=2, n_static=2, n_classes=3,
                         order=3, flags=ABLATION_PRESETS["A3"])
    rng = np.random.default_rng(12)
    params = ModelParams.initialized(config, rng)
    labels = np.array([0, 1, 2, 1])
    batch = prepare(rng.normal(size=(4, 8, 2)), rng.normal(size=(4, 2)),
                    labels, config)

    def loss_fn():
        return cross_entropy(forward(batch, params).probs, one_hot(labels, 3))

    grads = backward(batch, params, forward(batch, params))
    err = finite_diff_check(loss_fn, [params.out_diff], [grads.out_diff],
                            samples=params.out_diff.size,
                            rng=np.random.default_rng(0))
    assert err <= 1e-4


def test_pool_features_examples_and_errors():
    a = np.array([1.0, 2.0])
    b = np.array([-1.0, -2.0])
    pooled = pool_features(np.stack([a, b]))
    assert np.abs(pooled).max() == 0.0

    only = pool_features(a[None])
    np.testing.assert_array_equal(only, a)

    same = pool_features(np.stack([a, a, a]))
    np.testing.assert_allclose(same, a, atol=1e-15)

    # A batch pools each patient over its own features.
    batch = pool_features(np.stack([np.stack([a, b]), np.stack([a, a])]))
    np.testing.assert_array_equal(batch, [[0.0, 0.0], a])
