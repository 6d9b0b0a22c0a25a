"""Optimizer, training loop and cross-validation tests."""

from dataclasses import fields

import numpy as np
import pytest

from cohorts import prepare_raw
from trendvar import training
from trendvar.data import (
    Cohort,
    SynthSpec,
    compute_stats,
    synth_generate,
)
from trendvar.errors import ConfigError, DataError, NumericError
from trendvar.metrics import macro_one_vs_rest
from trendvar.model import ModelConfig, ModelParams, parameter_count, prepare
from trendvar.training import (
    AdamState,
    TrainConfig,
    adam_step,
    cross_validate,
    fold_assignment,
    predict_probs,
    run_fold,
    train,
)


def toy_cohort(n=18, seed=7, noise=0.05):
    spec = SynthSpec(
        n_patients=n, n_classes=2, slopes=(1.0, -1.0),
        amplitudes=(0.2, 0.2), corr_signs=(1.0, 1.0),
        n_dynamic=2, n_static=2, mean_visits=8.0,
        noise_scale=noise, seed=seed,
    )
    return synth_generate(spec)


def toy_config(**over):
    base = dict(t_max=8, n_dynamic=2, n_static=2, n_classes=2, order=2)
    base.update(over)
    return ModelConfig(**base)


# -- Adam -------------------------------------------------------------------

def test_train_config_validation():
    for bad in (-1e-3, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="learning rate"):
            TrainConfig(learning_rate=bad)
    with pytest.raises(ConfigError, match="batch size"):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError, match="epochs"):
        TrainConfig(epochs=-1)


def test_adam_first_step_closed_form():
    # at t=1 both bias corrections cancel the (1-beta) factors exactly, so
    # the update is lr * g / (|g| + eps) per coordinate
    config = toy_config()
    rng = np.random.default_rng(0)
    size = parameter_count(config)
    params = ModelParams(config)
    params.flat[...] = rng.normal(size=size)
    theta = params.flat.copy()
    grad = rng.normal(size=size)
    state = AdamState(size)
    grads = ModelParams(config)
    grads.flat[...] = grad
    adam_step(params, grads, state, learning_rate=0.05)
    expected = theta - 0.05 * grad / (np.abs(grad) + 1e-8)
    np.testing.assert_allclose(params.flat, expected, atol=1e-15)
    assert state.step_count == 1


def test_adam_zero_gradient_leaves_values_alone():
    config = toy_config()
    params = ModelParams.initialized(config, np.random.default_rng(0))
    before = params.flat.copy()
    state = AdamState(before.size)
    for _ in range(2):
        adam_step(params, ModelParams(config), state, learning_rate=0.1)
    np.testing.assert_array_equal(params.flat, before)
    assert state.step_count == 2


def test_adam_rejects_nonfinite_gradient_by_name():
    config = toy_config()
    params = ModelParams(config)
    state = AdamState(params.flat.size)
    grads = ModelParams(config)
    grads.mix_weight[1] = np.inf
    with pytest.raises(NumericError, match=r"gradient in mix_weight\[1\]$"):
        adam_step(params, grads, state, 0.1)
    grads = ModelParams(config)
    grads.branch_kernels[1, 2, 1, 0, 1] = np.nan
    with pytest.raises(NumericError,
                       match=r"branch_kernels\[1, 2, 1, 0, 1\]$"):
        adam_step(params, grads, state, 0.1)
    grads = ModelParams(config)
    grads.mix_bias[...] = np.inf  # a scalar is named without an index
    with pytest.raises(NumericError, match=r"gradient in mix_bias$"):
        adam_step(params, grads, state, 0.1)
    # the check runs before any update
    assert state.step_count == 0
    assert np.abs(params.flat).max() == 0.0


def test_adam_minimizes_a_quadratic():
    config = toy_config()
    params = ModelParams(config)
    grads = ModelParams(config)
    target = np.linspace(-3.0, 3.0, params.flat.size)
    state = AdamState(params.flat.size)
    for _ in range(400):
        grads.flat[...] = 2.0 * (params.flat - target)
        adam_step(params, grads, state, learning_rate=0.05)
    assert np.abs(params.flat - target).max() < 0.05


class ReferenceAdam:
    """Adam as one loop over the named arrays, one moment pair per array.

    The flat ``adam_step`` must reproduce it bit for bit: it performs the
    same elementwise operations, only on one vector.
    """

    def __init__(self, arrays, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.first = [np.zeros_like(a) for a in arrays]
        self.second = [np.zeros_like(a) for a in arrays]

    def step(self, named_arrays, grads, learning_rate):
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** t
        bias2 = 1.0 - b2 ** t
        for i, (name, value) in enumerate(named_arrays):
            grad = grads[name]
            m = self.first[i]
            v = self.second[i]
            m *= b1
            m += (1.0 - b1) * grad
            v *= b2
            v += (1.0 - b2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            value -= learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)


@pytest.mark.parametrize("shared", [False, True])
def test_flat_adam_matches_the_per_array_loop_bitwise(shared):
    config = ModelConfig(t_max=16, n_dynamic=3, n_static=3, n_classes=3,
                         order=14, shared_branches=shared)
    rng = np.random.default_rng(17)
    params = ModelParams.initialized(config, rng)
    reference = [(name, value.copy()) for name, value in params.named_arrays()]
    ref_state = ReferenceAdam([value for _, value in reference])
    state = AdamState(params.flat.size)
    size = params.flat.size
    for _ in range(5):
        # gradients over eight orders of magnitude, some exactly zero
        grad = (rng.normal(size=size) * 10.0 ** rng.uniform(-6, 2, size=size)
                * (rng.random(size) > 0.1))
        grads = ModelParams(config)
        grads.flat[...] = grad
        adam_step(params, grads, state, learning_rate=0.003)
        ref_state.step(reference, dict(grads.named_arrays()), 0.003)
    for (name, value), (_, expected) in zip(params.named_arrays(), reference):
        np.testing.assert_array_equal(value, expected, err_msg=name)
    for flat, per_array in ((state.first, ref_state.first),
                            (state.second, ref_state.second)):
        np.testing.assert_array_equal(
            flat, np.concatenate([m.ravel() for m in per_array]))


# -- training loop ----------------------------------------------------------

def test_train_rejects_empty_set():
    config = toy_config()
    params = ModelParams(config)
    samples = prepare_raw(toy_cohort(), config)
    with pytest.raises(DataError, match="empty training set"):
        train(samples.take(slice(0, 0)), params, TrainConfig())


def test_zero_learning_rate_keeps_initial_parameters():
    config = toy_config()
    cohort = toy_cohort()
    samples = prepare_raw(cohort, config)
    params = ModelParams.initialized(config, np.random.default_rng(3))
    before = [t.copy() for _, t in params.named_arrays()]
    log, state = train(samples, params,
                       TrainConfig(learning_rate=0.0, epochs=3, batch_size=4))
    for prev, (_, value) in zip(before, params.named_arrays()):
        np.testing.assert_array_equal(prev, value)
    assert len(log) == 3


def test_training_is_bitwise_deterministic():
    config = toy_config()
    cohort = toy_cohort()
    samples = prepare_raw(cohort, config)

    def fit():
        params = ModelParams.initialized(config, np.random.default_rng(5))
        log, _ = train(samples, params,
                       TrainConfig(learning_rate=1e-3, epochs=3,
                                   batch_size=5, seed=11))
        return params, log

    p1, log1 = fit()
    p2, log2 = fit()
    for (_, a), (_, b) in zip(p1.named_arrays(), p2.named_arrays()):
        np.testing.assert_array_equal(a, b)
    assert log1.tolist() == log2.tolist()


def test_shuffle_seed_matters_for_small_batches():
    config = toy_config()
    cohort = toy_cohort()
    samples = prepare_raw(cohort, config)

    def fit(seed):
        params = ModelParams.initialized(config, np.random.default_rng(5))
        train(samples, params,
              TrainConfig(learning_rate=1e-2, epochs=2, batch_size=3,
                          seed=seed))
        return params

    p_a = fit(1)
    p_b = fit(2)
    assert any(not np.array_equal(a, b)
               for (_, a), (_, b) in zip(p_a.named_arrays(),
                                         p_b.named_arrays()))


def test_step_count_tracks_batches():
    config = toy_config()
    cohort = toy_cohort(n=10)
    samples = prepare_raw(cohort, config)
    params = ModelParams.initialized(config, np.random.default_rng(0))
    _, state = train(samples, params,
                     TrainConfig(epochs=4, batch_size=64))
    assert state.step_count == 4  # one full batch per epoch
    params = ModelParams.initialized(config, np.random.default_rng(0))
    _, state = train(samples, params,
                     TrainConfig(epochs=4, batch_size=4))
    assert state.step_count == 4 * 3  # ceil(10 / 4) batches per epoch


def test_loss_log_shape_and_learning_progress():
    config = toy_config()
    cohort = toy_cohort(n=12, noise=0.02)
    stats = compute_stats(cohort)
    samples = prepare(cohort, stats, config)
    params = ModelParams.initialized(config, np.random.default_rng(1))
    log, _ = train(samples, params,
                   TrainConfig(learning_rate=1e-2, epochs=30, batch_size=12))
    assert log.shape == (30,)
    assert np.all(np.isfinite(log))
    assert log[-1] < log[0]


def test_predict_probs_shape_and_simplex():
    config = toy_config()
    cohort = toy_cohort(n=6)
    params = ModelParams.initialized(config, np.random.default_rng(2))
    probs = predict_probs(cohort, compute_stats(cohort), params)
    assert probs.shape == (6, 2)
    np.testing.assert_allclose(probs.sum(axis=1), np.ones(6), atol=1e-12)


def test_train_rejects_parameters_its_last_step_overflows(monkeypatch):
    config = toy_config()
    samples = prepare_raw(toy_cohort(n=10), config)
    params = ModelParams.initialized(config, np.random.default_rng(0))
    steps = []

    def overflowing_step(params, grads, state, learning_rate):
        steps.append(1)
        params.flat[3] = np.inf

    # Each batch's loss is taken before its step: only the parameter check
    # sees what an epoch's last step did.
    monkeypatch.setattr(training, "adam_step", overflowing_step)
    with pytest.raises(NumericError,
                       match="non-finite parameters after epoch 0"):
        train(samples, params, TrainConfig(epochs=2, batch_size=64))
    assert len(steps) == 1


def test_nan_probabilities_stop_train_at_their_own_step(monkeypatch):
    # A NaN loss needs a NaN probability, and the same step's gradient is
    # NaN with it: Adam refuses the step before any epoch's mean loss.
    config = toy_config()
    samples = prepare_raw(toy_cohort(n=10), config)
    params = ModelParams.initialized(config, np.random.default_rng(0))
    real_forward = training.forward
    calls = []

    def nan_forward(batch, params):
        acts = real_forward(batch, params)
        calls.append(1)
        if len(calls) == 2:
            acts.probs[...] = np.nan
        return acts

    monkeypatch.setattr(training, "forward", nan_forward)
    with pytest.raises(NumericError, match="non-finite gradient in"):
        train(samples, params, TrainConfig(epochs=2, batch_size=4))
    assert len(calls) == 2


def test_predict_probs_rejects_an_overflowing_forward_pass():
    config = toy_config()
    cohort = toy_cohort(n=6)
    params = ModelParams.initialized(config, np.random.default_rng(2))
    params.flat[:] = np.copysign(1e308, params.flat)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericError) as error:
        predict_probs(cohort, compute_stats(cohort), params)
    assert str(error.value) == (
        "non-finite class probabilities for patient 'p0': the parameters "
        "overflow the forward pass")


# -- fold assignment --------------------------------------------------------

def test_fold_assignment_partitions_everything():
    folds = fold_assignment(23, 5, seed=4)
    assert len(folds) == 5
    sizes = [len(f) for f in folds]
    assert max(sizes) - min(sizes) <= 1
    assert sum(sizes) == 23
    joined = np.concatenate(folds)
    assert sorted(joined.tolist()) == list(range(23))
    for fold in folds:
        assert np.all(np.diff(fold) > 0)  # reported sorted


def test_fold_assignment_is_seeded():
    a = fold_assignment(40, 10, seed=9)
    b = fold_assignment(40, 10, seed=9)
    for fa, fb in zip(a, b):
        np.testing.assert_array_equal(fa, fb)
    c = fold_assignment(40, 10, seed=10)
    assert any(not np.array_equal(fa, fc) for fa, fc in zip(a, c))


def test_fold_assignment_errors():
    with pytest.raises(DataError, match="cannot fill"):
        fold_assignment(3, 10, seed=0)
    with pytest.raises(ConfigError, match="k >= 2"):
        fold_assignment(10, 1, seed=0)


# -- cross-validation -------------------------------------------------------

def outlier_cohort():
    """Five ordinary patients plus one wildly offset outlier."""
    rng = np.random.default_rng(0)
    visits, static = [], []
    for i in range(5):
        visits.append(rng.normal(size=(8, 2)))
        static.append(rng.normal(size=2))
    visits.append(np.full((8, 2), 1000.0))
    static.append(np.full(2, 1000.0))
    return Cohort.stack([f"p{i}" for i in range(6)], visits, static,
                        [0, 1, 0, 1, 0, 1], ("d0", "d1"), ("s0", "s1"), 2)


def test_run_fold_normalizes_with_training_patients_only():
    cohort = outlier_cohort()
    config = toy_config()
    # test fold holds the outlier plus one ordinary patient of each class
    result = run_fold(cohort, config, TrainConfig(epochs=0), fold=0,
                      test_indices=np.array([4, 5]))
    train_only = compute_stats(cohort.take(slice(0, 4)))
    np.testing.assert_array_equal(result.stats.dynamic_mean,
                                  train_only.dynamic_mean)
    np.testing.assert_array_equal(result.stats.dynamic_std,
                                  train_only.dynamic_std)
    np.testing.assert_array_equal(result.stats.static_mean,
                                  train_only.static_mean)
    # the outlier would have dragged the pooled mean far away
    pooled = compute_stats(cohort)
    assert abs(pooled.dynamic_mean[0] - train_only.dynamic_mean[0]) > 100


def test_constant_predictor_scores_exactly_half_auroc(monkeypatch):
    cohort = toy_cohort(n=16)
    config = toy_config()
    # Every fold starts from all-zero parameters.
    monkeypatch.setattr(ModelParams, "initialized",
                        classmethod(lambda cls, config, rng: cls(config)))
    result = cross_validate(cohort, 2, config,
                            TrainConfig(epochs=0, seed=3))
    for fold, test_idx in zip(result.folds, fold_assignment(16, 2, seed=3)):
        probs = predict_probs(cohort.take(test_idx), fold.stats, fold.params)
        np.testing.assert_allclose(probs, 0.5, atol=1e-15)
        assert fold.scores.auroc == 0.5
        assert 0.0 < fold.scores.auprc < 1.0
    assert result.mean_auroc == 0.5


def test_cross_validate_respects_fold_assignment():
    cohort = toy_cohort(n=15)
    config = toy_config()
    result = cross_validate(cohort, 3, config, TrainConfig(epochs=0, seed=8))
    expected = fold_assignment(15, 3, seed=8)
    assert len(result.folds) == 3
    for fold, exp in zip(result.folds, expected):
        # Train-only stats pin down which patients were held out.
        outside = np.ones(15, bool)
        outside[exp] = False
        want = compute_stats(cohort.take(np.flatnonzero(outside)))
        for field in fields(want):
            np.testing.assert_array_equal(getattr(fold.stats, field.name),
                                          getattr(want, field.name))
        probs = predict_probs(cohort.take(exp), fold.stats, fold.params)
        assert len(probs) == len(exp)


def test_fold_scores_are_what_eval_gives_its_checkpoint():
    """A fold's scores are those of scoring its held-out patients with its
    own stats and parameters, the path ``eval`` takes: train and eval
    share one preprocessing path."""
    # Noisy enough that no fold scores 1.0: other stats or parameters
    # would move the scores.
    cohort = toy_cohort(n=60, noise=2.0)
    config = toy_config()
    result = cross_validate(cohort, 3, config,
                            TrainConfig(learning_rate=0.01, epochs=3,
                                        batch_size=8, seed=8))
    for fold, test_idx in zip(result.folds, fold_assignment(60, 3, seed=8)):
        probs = predict_probs(cohort.take(test_idx), fold.stats, fold.params)
        assert fold.scores == macro_one_vs_rest(probs,
                                                cohort.labels[test_idx])


def test_fold_initializations_differ():
    cohort = toy_cohort(n=12)
    config = toy_config()
    result = cross_validate(cohort, 2, config, TrainConfig(epochs=0, seed=0))
    a, b = result.folds
    assert not np.array_equal(a.params.static_weight,
                              b.params.static_weight)

