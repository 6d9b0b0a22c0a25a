"""Central-difference audit of hand-derived gradients.

The model's gradients are written out in closed form (``model.backward``);
this test helper is the independent oracle they are checked against.
"""

import numpy as np

from trendvar.errors import NumericError


def finite_diff_check(loss_fn, arrays, grads, samples=100, step=1e-5,
                      rng=None):
    """Compare analytic gradients against central finite differences.

    ``loss_fn()`` must return the loss as a float computed from the current
    contents of ``arrays``, which are perturbed in place one coordinate at
    a time (and restored); it must be deterministic.  ``grads`` holds the
    analytic gradient of each array at the unperturbed point.  Returns the
    worst relative error over ``samples`` randomly chosen coordinates across
    ``arrays``; the denominator is max(|analytic|, |numeric|, 1e-8) so
    near-zero gradients do not divide by zero.
    """
    if step <= 0:
        raise ValueError(f"finite_diff_check: step must be positive, got {step}")
    arrays = list(arrays)
    grads = [np.asarray(g, dtype=np.float64) for g in grads]
    sizes = [a.size for a in arrays]
    total = sum(sizes)
    if total == 0:
        return 0.0
    if rng is None:
        rng = np.random.default_rng(0)
    count = min(samples, total)
    chosen = rng.choice(total, size=count, replace=False)

    def value_only():
        v = float(loss_fn())
        if not np.isfinite(v):
            raise NumericError(
                "finite_diff_check: non-finite loss under perturbation"
            )
        return v

    worst = 0.0
    for flat in chosen:
        idx = int(flat)
        ai = 0
        while idx >= sizes[ai]:
            idx -= sizes[ai]
            ai += 1
        a = arrays[ai]
        original = a.flat[idx]
        a.flat[idx] = original + step
        plus = value_only()
        a.flat[idx] = original - step
        minus = value_only()
        a.flat[idx] = original
        numeric = (plus - minus) / (2.0 * step)
        exact = grads[ai].flat[idx]
        rel = abs(exact - numeric) / max(abs(exact), abs(numeric), 1e-8)
        worst = max(worst, rel)
    return worst
