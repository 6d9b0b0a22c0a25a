"""One 2D MEN branch by explicit loops, the oracle of the dilated stage:
out[o, q] = b[o] + sum_i sum_tap k_o[i, tap] * line_i[q + dilation * tap],
with no numpy product, so that a bug in ``trendvar.dilated`` cannot hide
behind a matching bug in a test.
"""

import numpy as np


def oracle_conv(stacked, kernel_top, kernel_bottom, bias, dilation):
    """Definitionally faithful re-implementation: four explicit loops."""
    _, m = stacked.shape
    width = kernel_top.shape[1]
    out_len = m - dilation * (width - 1)
    out = np.zeros((2, out_len))
    for row, kernel in enumerate((kernel_top, kernel_bottom)):
        for j in range(out_len):
            acc = bias[row]
            for k in range(2):
                for tap in range(width):
                    acc += stacked[k, j + dilation * tap] * kernel[k, tap]
            out[row, j] = acc
    return out
