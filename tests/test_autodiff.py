"""Gradient tests of the 2D MEN dilated correlation on its own: worked
values, the locality of its adjoint, and finite differences of
``correlation_backward`` against a tap-by-tap forward.

The model-level gradient tests, keyed by the operations of the fixed graph,
are in ``test_gradients.py``.
"""

import numpy as np
import pytest

from gradcheck import finite_diff_check
from trendvar.dilated import (
    conv_branch,
    correlation_backward,
    correlation_forward,
)


# kernel_top and kernel_bottom of every worked branch.
WORKED_KERNELS = np.array([[[1.0, 0.0], [0.0, 1.0]],
                           [[0.0, 1.0], [1.0, 0.0]]])


def test_dilated_conv_worked_values():
    d = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
    out1, out0 = (conv_branch(d, WORKED_KERNELS, np.zeros(2), rate)
                  for rate in (1, 0))
    # dilation 1: top row j = D0[j] + D1[j+1]
    assert out1[0] == pytest.approx([7.0, 9.0, 11.0])
    assert out1[1] == pytest.approx([7.0, 9.0, 11.0])
    # dilation 0: both taps on one column
    assert out0[0] == pytest.approx([6.0, 8.0, 10.0, 12.0])
    assert out0.shape == (2, 4)
    # adjoint: a unit gradient on the dilation-1 map (pre-activation, as
    # maps of zeros make tanh' = 1) sums each input row over the taps'
    # windows: kernel[o, i, tap] gets sum(D_i[tap:tap + 3])
    grad = np.zeros((1, 1, 2, 11))
    grad[..., :3] = 1.0
    d_kernels, d_bias = correlation_backward(
        d[None, None], np.zeros_like(grad), grad, (1, 0, 0), 2)
    d_top, d_bottom = d_kernels[0, 0]
    np.testing.assert_array_equal(d_top, [[6.0, 9.0], [18.0, 21.0]])
    np.testing.assert_array_equal(d_bottom, [[6.0, 9.0], [18.0, 21.0]])
    np.testing.assert_array_equal(d_bias[0, 0], [3.0, 3.0])
    for part in (d_kernels[:, 1:], d_bias[:, 1:]):
        assert np.abs(part).max() == 0.0


def test_concat_and_slice_roundtrip_grads():
    # A gradient on one column block of the concatenated map reaches only
    # the branch and the feature that produced that block.
    rng = np.random.default_rng(2)
    lines = rng.normal(size=(3, 2, 2, 6))
    grad = np.zeros((3, 2, 2, 6 + 5 + 3))
    grad[:, 1, :, 6:11] = rng.normal(size=(3, 2, 5))
    for part in correlation_backward(lines, np.zeros_like(grad), grad,
                                     (0, 1, 3), 2):
        assert np.abs(part[0]).max() == 0.0
        for bi in range(3):
            assert (np.abs(part[1, bi]).max() > 0.0) == (bi == 1)


def tap_by_tap_forward(lines, kernels, bias, dilations):
    """``correlation_forward`` written out one tap at a time, so that it
    shares no window layout with the code under test."""
    width = kernels.shape[-1]
    maps = []
    for bi, d in enumerate(dilations):
        out_len = lines.shape[-1] - d * (width - 1)
        pre = bias[..., bi, :, None]
        for tap in range(width):
            pre = pre + np.einsum("...oi,...il->...ol",
                                  kernels[..., bi, :, :, tap],
                                  lines[..., d * tap:d * tap + out_len])
        maps.append(np.tanh(pre))
    return np.concatenate(maps, axis=-1)


@pytest.mark.parametrize("width", [1, 2, 3, 4])
@pytest.mark.parametrize("dilations", [(0, 1, 2), (3, 4, 0)])
def test_correlation_backward_matches_finite_differences(width, dilations):
    # Every kernel and bias entry of every feature and branch is checked
    # against central differences of sum(grad * forward maps).
    rng = np.random.default_rng(10 * width + dilations[0])
    m = max(dilations) * (width - 1) + 4
    lines = rng.normal(size=(3, 2, 2, m))
    kernels = rng.normal(size=(2, 3, 2, 2, width))
    bias = rng.normal(size=(2, 3, 2))
    maps = tap_by_tap_forward(lines, kernels, bias, dilations)
    np.testing.assert_allclose(
        correlation_forward(lines, kernels, bias, dilations), maps,
        atol=1e-12)
    grad = rng.normal(size=maps.shape)
    d_kernels, d_bias = correlation_backward(lines, maps, grad, dilations,
                                             width)

    def loss():
        return float(np.sum(grad * tap_by_tap_forward(lines, kernels, bias,
                                                      dilations)))

    assert finite_diff_check(loss, [kernels, bias], [d_kernels, d_bias],
                             samples=kernels.size + bias.size) <= 1e-7
