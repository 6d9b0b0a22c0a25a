"""Correlation extraction over stacked trend/variation lines.

The two coefficient lines of one feature are stacked into a (2, m) grid and
scanned by three dilated convolution branches (adjacent, short-range and
long-range, dilation rates 0/1/3 by default).  Every output row mixes taps
from BOTH input rows, so each branch sees trend and variation jointly rather
than as separate channels.  Branch outputs are concatenated column-wise into
one (2, Q) map per feature.

Everything here works on stacks of such grids, shape (..., 2, m).  A branch's
kernels are (..., 2 out rows, 2 in rows, width): output row 0 (top) and row 1
(bottom) each draw on both input rows.  Its bias is (..., 2), one entry per
output row.  Both broadcast against the leading axes of the stack, so one
call covers a whole batch of patients and features.

Each branch runs as one contraction, forward and backward, over a stack of
its input windows: (..., 2·w, L), one row per (input row, tap) pair, the
im2col unfolding of Chellapilla et al. (2006).  The windows are built per
call, so they never cover more than the batch at hand.
"""

import numpy as np

from .errors import ShapeMismatchError

DEFAULT_DILATIONS = (0, 1, 3)
DEFAULT_KERNEL_WIDTH = 2


def branch_length(m, dilation, width):
    """Output columns of one branch on an m-column input; raises if none."""
    out_len = m - dilation * (width - 1)
    if out_len < 1:
        raise ShapeMismatchError(
            f"dilated conv: {m} coefficient columns cannot support width "
            f"{width} at dilation {dilation}; need at least "
            f"{dilation * (width - 1) + 1}"
        )
    return out_len


def combined_width(m, dilations, width):
    """Total column count after concatenating all branch outputs."""
    return sum(branch_length(m, d, width) for d in dilations)


def _windows(stacked, dilation, width, out_len):
    """Stack the input windows of every tap: (..., 2, m) -> (..., 2·w, L).

    Row ``i * width + tap`` is input row i from column ``dilation * tap`` on,
    the order of a kernel's (2, w) in-row/tap block flattened to 2·w.
    """
    starts = [dilation * k for k in range(width)]
    windows = np.stack([stacked[..., s:s + out_len] for s in starts], axis=-2)
    return windows.reshape(*stacked.shape[:-2], 2 * width, out_len)


def conv_branch(stacked, kernels, bias, dilation, activate=True):
    """Run one dilated branch over (..., 2, m) stacks.

    Output column j of row o is bias[o] + sum over input rows i and taps of
    kernels[o, i, tap] * stacked[i, j + dilation * tap].  ``activate=False``
    skips the tanh, exposing the affine map itself (used by linearity checks
    and worked-value tests).
    """
    stacked = np.asarray(stacked, dtype=np.float64)
    width = kernels.shape[-1]
    out_len = branch_length(stacked.shape[-1], dilation, width)
    taps = kernels.reshape(*kernels.shape[:-2], 2 * width)
    out = (taps @ _windows(stacked, dilation, width, out_len)
           + np.asarray(bias)[..., :, None])
    return np.tanh(out) if activate else out


def correlation_forward(lines, kernels, bias, dilations):
    """Run the three branches on (..., 2, m) stacks and concatenate.

    ``kernels`` (..., 3, 2, 2, width) and ``bias`` (..., 3, 2) hold the
    three branches, as ``ModelParams.branch_kernels`` and ``branch_bias``
    do; branch b runs at rate ``dilations[b]``.  Output width is the sum of
    the per-branch widths.
    """
    return np.concatenate(
        [conv_branch(lines, kernels[..., bi, :, :, :], bias[..., bi, :], d)
         for bi, d in enumerate(dilations)], axis=-1)


def correlation_backward(lines, maps, grad_maps, dilations, width):
    """Gradients of sum(grad_maps * maps) with respect to every branch.

    ``lines`` is the (N, c, 2, m) input batch, ``maps`` the activated output
    of ``correlation_forward`` on it and ``grad_maps`` the adjoint of those
    maps, for branches of kernel width ``width`` at rates ``dilations``.
    Returns the kernel and bias gradients summed over patients and shaped
    per feature: (c, 3, 2, 2, width) and (c, 3, 2).
    """
    grad_pre = grad_maps * (1.0 - maps * maps)
    _, c, _, m = lines.shape
    d_kernels = np.empty((c, len(dilations), 2, 2, width))
    d_bias = np.empty((c, len(dilations), 2))
    offset = 0
    for bi, dilation in enumerate(dilations):
        out_len = branch_length(m, dilation, width)
        g = grad_pre[..., offset:offset + out_len]
        offset += out_len
        d_kernels[:, bi] = np.einsum(
            "njol,njkl->jok", g,
            _windows(lines, dilation, width, out_len)).reshape(c, 2, 2, width)
        d_bias[:, bi] = g.sum(axis=(0, -1))
    return d_kernels, d_bias
