"""Gradient tests for the closed-form engine: worked values, additivity over
patients and finite differences.

The worked values up top pin conventions (what the mean loss and the clamp
mean) so a refactor cannot silently change them; the dilated taps' worked
values and their adjoint's checks are in ``test_autodiff.py``.  The
sweeps at the bottom are the real audit.  They are keyed by the elementary
operations the fixed graph is built from; each key selects a configuration
that uses the operation and the parameters whose gradient passes through it.
"""

import numpy as np
import pytest

from cohorts import prepare_arrays
from gradcheck import finite_diff_check
from trendvar.diff_attention import softmax
from trendvar.dilated import conv_branch
from trendvar.errors import ConfigError, DataError
from trendvar.model import (
    ABLATION_PRESETS,
    ModelConfig,
    ModelParams,
    backward,
    cross_entropy,
    forward,
)


def small_batch(config, rng, n=3):
    labels = rng.integers(0, config.n_classes, size=n)
    return prepare_arrays(
        rng.normal(size=(n, config.t_max, config.n_dynamic)),
        rng.normal(size=(n, config.n_static)), labels, config)


def loss_and_grads(batch, params):
    acts = forward(batch, params)
    loss = cross_entropy(acts.probs, batch.labels)
    return loss, dict(backward(batch, params, acts).named_arrays())


def test_sum_of_squares_gradient():
    # The audit passes the true gradient 2w of sum(w^2) and flags 1w.
    w = np.array([3.0])
    assert 2.0 * w == pytest.approx([6.0], abs=1e-12)
    assert finite_diff_check(lambda: float(np.sum(w * w)), [w],
                             [2.0 * w]) <= 1e-9
    assert finite_diff_check(lambda: float(np.sum(w * w)), [w],
                             [w.copy()]) == pytest.approx(0.5, abs=1e-9)


def test_tanh_at_zero_has_unit_slope():
    # With a zero static embedding, tanh passes the head adjoint unchanged:
    # d loss / d static_bias = out_static^T mean(p - onehot).
    config = ModelConfig(t_max=8, n_dynamic=2, n_static=2, n_classes=3,
                         order=2)
    rng = np.random.default_rng(4)
    params = ModelParams.initialized(config, rng)
    params.static_weight[...] = 0.0
    batch = small_batch(config, rng)
    probs = forward(batch, params).probs
    _, grads = loss_and_grads(batch, params)
    d_logits = (probs - np.eye(3)[batch.labels]).mean(axis=0)
    np.testing.assert_allclose(grads["static_bias"],
                               params.out_static.T @ d_logits, atol=1e-15)


def test_softmax_uniform_on_zeros():
    assert softmax(np.zeros(3)) == pytest.approx(np.full(3, 1 / 3), abs=1e-15)
    np.testing.assert_allclose(softmax(np.zeros((2, 4))), 0.25, atol=1e-15)


def test_softmax_cross_entropy_gradient_closed_form():
    # Only the output bias is non-zero, so every patient's logits are z and
    # d(mean -log softmax(z)[label]) / dz = mean(softmax(z) - onehot(label)).
    config = ModelConfig(t_max=8, n_dynamic=2, n_static=2, n_classes=3,
                         order=2, flags=ABLATION_PRESETS["A4"])
    params = ModelParams(config)
    params.out_bias[...] = [0.2, -0.4, 1.1]
    batch = prepare_arrays(np.zeros((2, 8, 2)), np.zeros((2, 2)), [1, 1],
                           config)
    _, grads = loss_and_grads(batch, params)
    z = params.out_bias
    p = np.exp(z - z.max())
    p /= p.sum()
    expected = p - np.array([0.0, 1.0, 0.0])
    assert grads["out_bias"] == pytest.approx(expected, abs=1e-12)


def test_gradients_cover_the_parameters_not_the_data():
    # Gradients cover exactly the parameters; the data is left untouched.
    config = ModelConfig(t_max=8, n_dynamic=2, n_static=2, n_classes=2,
                         order=2)
    rng = np.random.default_rng(3)
    params = ModelParams.initialized(config, rng)
    batch = small_batch(config, rng)
    before = [batch.lines.copy(), batch.static.copy(),
              batch.h_variation.copy()]
    _, grads = loss_and_grads(batch, params)
    assert set(grads) == {name for name, _ in params.named_arrays()}
    for old, new in zip(before, (batch.lines, batch.static,
                                 batch.h_variation)):
        np.testing.assert_array_equal(old, new)


def test_a_cut_off_parameter_gets_zero_gradient():
    # A zero head block cuts the static embedding off from the loss.
    config = ModelConfig(t_max=8, n_dynamic=2, n_static=2, n_classes=2,
                         order=2)
    rng = np.random.default_rng(5)
    params = ModelParams.initialized(config, rng)
    params.out_static[...] = 0.0
    _, grads = loss_and_grads(small_batch(config, rng), params)
    assert np.abs(grads["static_weight"]).max() == 0.0
    assert np.abs(grads["static_bias"]).max() == 0.0
    assert np.abs(grads["out_static"]).max() > 0.0


def test_backward_of_an_empty_batch_is_rejected():
    config = ModelConfig(t_max=8, n_dynamic=2, n_static=2, n_classes=2,
                         order=2)
    params = ModelParams(config)
    empty = small_batch(config, np.random.default_rng(0)).take(slice(0, 0))
    with pytest.raises(DataError, match="empty"):
        backward(empty, params, forward(empty, params))


def test_misshaped_inputs_name_the_stage_and_shapes():
    config = ModelConfig(t_max=8, n_dynamic=2, n_static=2, n_classes=2,
                         order=2)
    with pytest.raises(ConfigError, match="dimension mismatch: model expects "
                       "2 dynamic features, data has 3"):
        prepare_arrays(np.zeros((1, 8, 3)), np.zeros((1, 2)), [0], config)

    with pytest.raises(ConfigError, match="at least"):
        conv_branch(np.ones((2, 3)), np.ones((2, 2, 2)), np.ones(2), 5)


def test_finite_diff_check_exact_on_quadratics():
    w = np.array([1.0, -2.0, 0.5])
    err = finite_diff_check(lambda: float(np.sum(w * w)), [w], [2.0 * w],
                            samples=3)
    assert err <= 1e-7


def test_finite_diff_check_rejects_bad_step():
    w = np.array([1.0])
    with pytest.raises(ValueError, match="step"):
        finite_diff_check(lambda: float(np.sum(w)), [w], [np.ones(1)],
                          step=0.0)


# ---------------------------------------------------------------------------
# Sweeps over random configurations, keyed by graph operation.
#
# operation: (preset, parameters whose gradient passes through it), where
# "branches" means every correlation kernel and bias and "all" every
# parameter of the model.

OPERATIONS = {
    "add": ("A4", ("static_bias", "out_bias")),
    "add_scalar": ("A4", ("mix_bias",)),
    "concat": ("A6", "branches"),
    "dilated_conv": ("A7", "branches"),
    "log_clamped": ("A1", ("out_bias",)),
    "matvec": ("A5", ("static_weight", "out_static", "out_dynamic",
                      "out_diff")),
    "mul": ("A3", ("out_diff",)),
    "scale": ("A3", "all"),
    "slice1d": ("A2", ("out_bias", "out_static")),
    "softmax": ("A4", ("out_bias", "out_static", "out_dynamic")),
    "sub": ("A5", ("out_diff",)),
    "sum": ("A6", "all"),
    "tanh": ("A6", ("static_weight", "static_bias", "mix_weight",
                    "mix_bias")),
    "vecmat": ("A4", ("mix_weight",)),
}


def _random_case(op_id, rng):
    """A random model, batch and the parameter names to audit."""
    preset, which = OPERATIONS[op_id]
    flags = ABLATION_PRESETS[preset]
    while True:
        try:
            config = ModelConfig(
                t_max=int(rng.integers(4, 15)),
                n_dynamic=int(rng.integers(1, 4)),
                n_static=int(rng.integers(1, 4)),
                n_classes=int(rng.integers(2, 5)),
                order=int(rng.integers(2, 6)),
                kernel_width=int(rng.integers(1, 4)),
                dilations=tuple(int(d) for d in rng.integers(0, 4, size=3)),
                flags=flags,
                shared_branches=bool(rng.integers(0, 2)),
            )
            break
        except ConfigError:
            continue  # a branch too wide for the line; draw again
    params = ModelParams.initialized(config, rng)
    batch = small_batch(config, rng, n=int(rng.integers(2, 6)))
    names = [name for name, _ in params.named_arrays()]
    if which == "branches":
        names = [name for name in names if name.startswith("branch_")]
    elif which != "all":
        names = [name for name in names if name in which]
    assert names, op_id
    return params, batch, names


@pytest.mark.parametrize("op_id", sorted(OPERATIONS))
def test_adjoint_linearity(op_id):
    """The gradient of a summed loss is additive over patients: the batch
    gradient equals the size-weighted gradients of any two halves."""
    rng = np.random.default_rng(sum(map(ord, op_id)))
    for _ in range(5):
        params, batch, names = _random_case(op_id, rng)
        n = len(batch)
        k = int(rng.integers(1, n))
        _, g_all = loss_and_grads(batch, params)
        _, g_head = loss_and_grads(batch.take(slice(0, k)), params)
        _, g_tail = loss_and_grads(batch.take(slice(k, n)), params)
        for name in names:
            np.testing.assert_allclose(
                k * g_head[name] + (n - k) * g_tail[name], n * g_all[name],
                atol=1e-10, err_msg=name)


@pytest.mark.parametrize("op_id", sorted(OPERATIONS))
def test_operation_gradients_match_finite_differences(op_id):
    """20 random configurations per operation, 1e-4 relative tolerance."""
    rng = np.random.default_rng(sum(map(ord, op_id)) + 1)
    worst = 0.0
    for trial in range(20):
        params, batch, names = _random_case(op_id, rng)
        def loss_fn():
            return cross_entropy(forward(batch, params).probs, batch.labels)

        _, grads = loss_and_grads(batch, params)
        arrays = dict(params.named_arrays())
        err = finite_diff_check(
            loss_fn, [arrays[n] for n in names], [grads[n] for n in names],
            samples=12, step=1e-5, rng=np.random.default_rng(trial))
        worst = max(worst, err)
    assert worst <= 1e-4, f"{op_id}: worst relative error {worst}"
