"""Dilated correlation stage tests with a quadruple-loop oracle."""

import numpy as np
import pytest

from conv_oracle import oracle_conv
from trendvar.dilated import (
    combined_width,
    conv_branch,
    correlation_forward,
)
from trendvar.errors import ConfigError


def _branch(kt, kb, bias, dilation):
    """``conv_branch``'s kernels, bias and dilation arguments."""
    return (np.array([kt, kb], dtype=float), np.asarray(bias, dtype=float),
            dilation)


def test_worked_example_dilation_one():
    stacked = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
    branch = _branch([[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]],
                     [0.0, 0.0], 1)
    out = conv_branch(stacked, *branch)
    assert out[0] == pytest.approx([7.0, 9.0, 11.0])


def test_worked_example_dilation_zero_keeps_width():
    stacked = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
    branch = _branch([[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]],
                     [0.0, 0.0], 0)
    out = conv_branch(stacked, *branch)
    assert out.shape == (2, 4)
    assert out[0] == pytest.approx([6.0, 8.0, 10.0, 12.0])


def test_zero_kernels_zero_bias_give_zeros_after_tanh():
    stacked = np.random.default_rng(0).normal(size=(2, 9))
    out = correlation_forward(stacked, np.zeros((3, 2, 2, 2)),
                              np.zeros((3, 2)), (0, 1, 3))
    assert np.abs(out).max() == 0.0


def test_matches_oracle_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(50):
        width = int(rng.integers(1, 5))
        dilation = int(rng.integers(0, 5))
        m = dilation * (width - 1) + int(rng.integers(1, 8))
        stacked = rng.normal(size=(2, m))
        kt = rng.normal(size=(2, width))
        kb = rng.normal(size=(2, width))
        bias = rng.normal(size=2)
        out = conv_branch(stacked, *_branch(kt, kb, bias, dilation))
        np.testing.assert_allclose(
            out, oracle_conv(stacked, kt, kb, bias, dilation), atol=1e-12)


@pytest.mark.parametrize("width", [1, 2, 3, 4])
@pytest.mark.parametrize("dilation", [0, 1, 2, 3, 4])
def test_batched_stacks_match_oracle_per_grid(width, dilation):
    # One call over an (N, c, 2, m) stack equals the oracle on each (n, c)
    # grid, with per-feature (c, 2, 2, w) and with shared (2, 2, w) kernels.
    # At dilation 0 every tap reads the same column.
    rng = np.random.default_rng(100 * width + dilation)
    n, c = 3, 2
    m = dilation * (width - 1) + 5
    stacked = rng.normal(size=(n, c, 2, m))
    per_feature = (rng.normal(size=(c, 2, 2, width)), rng.normal(size=(c, 2)))
    shared = (rng.normal(size=(2, 2, width)), rng.normal(size=2))
    for kernels, bias in (per_feature, shared):
        out = conv_branch(stacked, kernels, bias, dilation)
        assert out.shape == (n, c, 2, m - dilation * (width - 1))
        for i in range(n):
            for j in range(c):
                k = kernels[j] if kernels.ndim == 4 else kernels
                b = bias[j] if bias.ndim == 2 else bias
                np.testing.assert_allclose(
                    out[i, j], oracle_conv(stacked[i, j], k[0], k[1], b,
                                           dilation), atol=1e-12)


def test_preactivation_linearity_in_input():
    rng = np.random.default_rng(9)
    d1 = rng.normal(size=(2, 8))
    d2 = rng.normal(size=(2, 8))
    branch = _branch(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)),
                     np.zeros(2), 2)

    def run(data):
        return conv_branch(data, *branch)

    np.testing.assert_allclose(
        run(2.0 * d1 + d2), 2.0 * run(d1) + run(d2), atol=1e-12)


def test_cross_row_kernels_see_both_lines():
    # Zero the top input row: outputs must still move with the bottom row.
    rng = np.random.default_rng(3)
    bottom_only = np.vstack([np.zeros(6), rng.normal(size=6)])
    branch = _branch(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)),
                     np.zeros(2), 1)
    out = conv_branch(bottom_only, *branch)
    assert np.abs(out).max() > 0.1


def test_correlation_forward_concatenates_branch_maps():
    # m=22 with width 2 and rates (0,1,3): 22 + 21 + 19 = 62 columns.
    rng = np.random.default_rng(1)
    stacked = rng.normal(size=(2, 22))
    kernels = rng.normal(size=(3, 2, 2, 2))
    bias = rng.normal(size=(3, 2))
    combined = correlation_forward(stacked, kernels, bias, (0, 1, 3))
    assert combined.shape == (2, 62)
    for bi, (rate, cols) in enumerate(zip(
            (0, 1, 3), (slice(0, 22), slice(22, 43), slice(43, 62)))):
        np.testing.assert_array_equal(
            combined[:, cols],
            np.tanh(conv_branch(stacked, kernels[bi], bias[bi], rate)))


def test_correlation_forward_is_deterministic():
    rng = np.random.default_rng(2)
    stacked = rng.normal(size=(2, 10))
    kernels = rng.normal(size=(3, 2, 2, 2))
    bias = rng.normal(size=(3, 2))
    first = correlation_forward(stacked, kernels, bias, (0, 1, 3))
    second = correlation_forward(stacked, kernels, bias, (0, 1, 3))
    np.testing.assert_array_equal(first, second)


def test_single_output_column_boundary():
    # m exactly equals the receptive field: one output column survives.
    stacked = np.arange(8.0).reshape(1, -1).repeat(2, axis=0)
    branch = _branch(np.ones((2, 2)), np.ones((2, 2)), np.zeros(2), 7)
    out = conv_branch(stacked, *branch)
    assert out.shape == (2, 1)


def test_too_short_input_reports_required_minimum():
    branch = _branch(np.ones((2, 3)), np.ones((2, 3)), np.zeros(2), 4)
    with pytest.raises(ConfigError, match="at least 9"):
        conv_branch(np.ones((2, 8)), *branch)


def test_combined_width_formula_and_error():
    assert combined_width(22, (0, 1, 3), 2) == 62
    assert combined_width(5, (0, 0, 0), 1) == 15
    with pytest.raises(ConfigError, match="cannot support"):
        combined_width(3, (0, 1, 3), 2)


def test_output_columns_shrink_with_dilation():
    rng = np.random.default_rng(11)
    stacked = rng.normal(size=(2, 12))
    widths = []
    for rate in (0, 1, 2, 3, 5):
        branch = _branch(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)),
                         np.zeros(2), rate)
        widths.append(conv_branch(stacked, *branch).shape[1])
    assert widths == [12, 11, 10, 9, 7]

