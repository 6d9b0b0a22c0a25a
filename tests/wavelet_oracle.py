"""The symlet split by direct summation, the oracle of the wavelet stage.

It re-derives the whole analysis path (index reflection, correlation,
decimation) with explicit loops and no numpy product, so a bug in
``trendvar.wavelets`` cannot hide behind a matching bug in a test.
"""

import numpy as np

from trendvar.wavelets import symlet_filters


def _reflect(i, t):
    # half-sample symmetric extension bounces with period 2t
    i %= 2 * t
    return i if i < t else 2 * t - 1 - i


def oracle_line(x, filt):
    """Trend or variation line by direct summation over reflected indices."""
    t = len(x)
    f = len(filt)
    out = []
    for i in range((t + f - 1) // 2):
        n = 2 * i + 1
        acc = 0.0
        for k in range(f):
            acc += x[_reflect(n + k - (f - 1), t)] * filt[f - 1 - k]
        out.append(acc)
    return np.array(out)


def oracle_lines(x, order):
    """The trend and variation lines of series ``x`` at ``order``."""
    filters = symlet_filters(order)
    return oracle_line(x, filters.lowpass), oracle_line(x, filters.highpass)
