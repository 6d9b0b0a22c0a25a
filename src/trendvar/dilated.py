"""Correlation extraction over stacked trend/variation lines.

The two coefficient lines of one feature are stacked into a (2, m) grid and
scanned by three dilated convolution branches (adjacent, short-range and
long-range, dilation rates 0/1/3 by default).  Every output row mixes taps
from BOTH input rows, so each branch sees trend and variation jointly rather
than as separate channels.  Branch outputs are concatenated column-wise into
one (2, Q) map per feature.

Everything here works on stacks of such grids, shape (..., 2, m); kernel and
bias arrays broadcast against the leading axes, so one call covers a whole
batch of patients and features.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeMismatchError

DEFAULT_DILATIONS = (0, 1, 3)
DEFAULT_KERNEL_WIDTH = 2


@dataclass
class BranchParams:
    """Trainable state of one dilation branch.

    ``kernels`` is (..., 2 out rows, 2 in rows, width): output row 0 (top)
    and row 1 (bottom) each draw on both input rows.  ``bias`` is (..., 2),
    one entry per output row.
    """

    kernels: np.ndarray
    bias: np.ndarray
    dilation: int

    @property
    def width(self):
        return self.kernels.shape[-1]

    def output_length(self, m):
        """Output columns for an m-column input; raises if there are none."""
        out_len = m - self.dilation * (self.width - 1)
        if out_len < 1:
            raise ShapeMismatchError(
                f"dilated conv: input length {m} too short for width "
                f"{self.width} at dilation {self.dilation}; need at least "
                f"{self.dilation * (self.width - 1) + 1}"
            )
        return out_len


def conv_branch(stacked, params, activate=True):
    """Run one dilated branch over (..., 2, m) stacks.

    Output column j of row o is bias[o] + sum over input rows i and taps of
    kernel[o, i, tap] * stacked[i, j + dilation * tap].  ``activate=False``
    skips the tanh, exposing the affine map itself (used by linearity checks
    and worked-value tests).
    """
    stacked = np.asarray(stacked, dtype=np.float64)
    out_len = params.output_length(stacked.shape[-1])
    kernels = params.kernels
    out = np.asarray(params.bias)[..., :, None]
    for tap in range(params.width):
        s = tap * params.dilation
        segment = stacked[..., None, :, s:s + out_len]
        out = out + (kernels[..., tap, None] * segment).sum(axis=-2)
    return np.tanh(out) if activate else out


def correlation_forward(stacked, branches, activate=True):
    """Run all three branches on (..., 2, m) stacks and concatenate.

    ``branches`` must hold exactly three ``BranchParams`` (adjacent, short,
    long).  Output width is the sum of the per-branch widths.
    """
    if len(branches) != 3:
        raise ConfigError(
            f"correlation_forward: expected 3 branches, got {len(branches)}"
        )
    return np.concatenate(
        [conv_branch(stacked, b, activate) for b in branches], axis=-1)


def correlation_backward(lines, branches, maps, grad_maps):
    """Gradients of sum(grad_maps * maps) with respect to every branch.

    ``lines`` is the (N, c, 2, m) input batch, ``maps`` the activated output
    of ``correlation_forward`` on it and ``grad_maps`` the adjoint of those
    maps.  Returns one (d kernels, d bias) pair per branch, each summed over
    patients and shaped per feature: (c, 2, 2, width) and (c, 2).
    """
    grad_pre = grad_maps * (1.0 - maps * maps)
    m = lines.shape[-1]
    grads = []
    offset = 0
    for branch in branches:
        out_len = branch.output_length(m)
        g = grad_pre[..., offset:offset + out_len]
        offset += out_len
        d_kernels = np.empty(g.shape[1:-2] + (2, 2, branch.width))
        for tap in range(branch.width):
            s = tap * branch.dilation
            d_kernels[..., tap] = np.einsum(
                "njol,njil->joi", g, lines[..., s:s + out_len])
        grads.append((d_kernels, g.sum(axis=(0, -1))))
    return grads


def combined_width(m, dilations, width):
    """Total column count after concatenating all branch outputs."""
    total = 0
    for d in dilations:
        out_len = m - d * (width - 1)
        if out_len < 1:
            raise ConfigError(
                f"combined_width: {m} coefficient columns cannot support "
                f"width {width} at dilation {d}; need at least "
                f"{d * (width - 1) + 1}"
            )
        total += out_len
    return total
