"""Training loop, Adam optimizer and k-fold cross-validation.

Batches are built from a per-epoch shuffled index; each batch runs one
closed-form forward and backward pass, so one optimizer step per batch sees
the mean-loss gradient regardless of how the batch divides.  Every random
choice (fold assignment, init, shuffling) derives from the seed, making runs
bit-reproducible.
"""

from dataclasses import dataclass, replace

import numpy as np

from .data import compute_stats, normalize, pad_to_length
from .errors import ConfigError, DataError, NumericError
from .metrics import macro_one_vs_rest
from .model import (
    ModelParams,
    backward,
    cross_entropy,
    forward,
    prepare,
)

# Patients per block of ``normalized_blocks``, the scoring loop of ``eval``,
# ``inspect-attention`` and the CV test folds: bounds the activation memory
# of scoring a large cohort.  Chosen by peak RSS of ``eval`` on 1200
# patients with 8 features and about 24 visits (x86-64 Linux, numpy 2.4
# with OpenBLAS): 46.0 / 40.6 / 38.1 / 37.4 MiB at 256 / 128 / 64 / 32.
PREDICT_BLOCK = 64

# Adam's decay rates and offset: Kingma & Ba's (2015) defaults.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 64
    epochs: int = 50
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ConfigError(
                f"train config: learning rate must be finite and >= 0, got "
                f"{self.learning_rate}"
            )
        if self.batch_size < 1:
            raise ConfigError(
                f"train config: batch size must be >= 1, got {self.batch_size}"
            )
        if self.epochs < 0:
            raise ConfigError(
                f"train config: epochs must be >= 0, got {self.epochs}"
            )


class AdamState:
    """First/second moment vectors, laid out like ``ModelParams.flat``."""

    def __init__(self, size):
        self.step_count = 0
        self.first = np.zeros(size)
        self.second = np.zeros(size)


def adam_step(params, grads, state, learning_rate):
    """One bias-corrected Adam update of ``params.flat``, in place.

    ``grads`` is a ``ModelParams`` of the same config holding the gradient
    (what ``backward`` returns); the update is Algorithm 1 of Kingma & Ba
    on the one flat vector.
    """
    grad = grads.flat
    if not np.isfinite(grad).all():
        name = next(name for name, value in grads.named_arrays()
                    if not np.isfinite(value).all())
        raise NumericError(f"non-finite gradient in {name}")
    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    m = state.first
    v = state.second
    m *= b1
    m += (1.0 - b1) * grad
    v *= b2
    v += (1.0 - b2) * grad * grad
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    params.flat -= learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def train(batch, params, train_config):
    """Fit ``params`` on a prepared batch; returns the epoch losses and the
    optimizer state.

    ``params`` is updated in place.  ``losses[e]`` is epoch e's mean
    cross-entropy over all patients at the point each was visited.
    Huge steps overflow silently: the finiteness checks after each epoch
    and in ``adam_step`` report the divergence.
    """
    n = len(batch)
    if n == 0:
        raise DataError("train: empty training set")
    rng = np.random.default_rng(
        np.random.SeedSequence(train_config.seed, spawn_key=(1,)))
    state = AdamState(params.flat.size)
    losses = np.empty(train_config.epochs)
    for epoch in range(train_config.epochs):
        order = rng.permutation(n)
        loss_total = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, train_config.batch_size):
                part = batch.take(order[start:start + train_config.batch_size])
                acts = forward(part, params)
                loss_total += cross_entropy(acts.probs, part.labels) * len(part)
                adam_step(params, backward(part, params, acts), state,
                          train_config.learning_rate)
        mean_loss = loss_total / n
        if not np.isfinite(mean_loss):
            raise NumericError(
                f"training diverged: non-finite mean loss at epoch {epoch}"
            )
        # The loss saw the parameters before the epoch's last step.
        if not np.isfinite(params.flat).all():
            raise NumericError(
                f"training diverged: non-finite parameters after epoch {epoch}"
            )
        losses[epoch] = mean_loss
    return losses, state


def normalized_blocks(cohort, stats):
    """``cohort`` z-scored with ``stats``, in slices of ``PREDICT_BLOCK``
    patients: scoring holds one slice's arrays at once."""
    for start in range(0, len(cohort), PREDICT_BLOCK):
        yield normalize(cohort.take(slice(start, start + PREDICT_BLOCK)),
                        stats)


def predict_probs(cohort, stats, params):
    """The (N, d) class probabilities of a raw cohort under ``params``,
    prepared and forwarded one ``normalized_blocks`` block at a time.

    Finite but huge parameters (a diverged fit) can overflow the forward
    pass: a non-finite probability is a numerical error, not a score.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        probs = np.concatenate([
            forward(prepare_cohort(block, params.config), params).probs
            for block in normalized_blocks(cohort, stats)])
    bad = ~np.isfinite(probs).all(axis=1)
    if bad.any():
        raise NumericError(
            f"non-finite class probabilities for patient "
            f"{cohort.ids[int(np.argmax(bad))]}: the parameters overflow "
            f"the forward pass"
        )
    return probs


def prepare_cohort(cohort, config):
    """Prepared batch of every patient of a normalized cohort, padded to the
    model's ``t_max``."""
    return prepare(pad_to_length(cohort, config.t_max), cohort.static,
                   cohort.labels, config)


@dataclass
class FoldResult:
    fold: int
    stats: object
    params: ModelParams
    epoch_log: np.ndarray
    probs: np.ndarray
    scores: object


@dataclass
class CVResult:
    folds: list

    @property
    def mean_auroc(self):
        return float(np.mean([f.scores.auroc for f in self.folds]))

    @property
    def mean_auprc(self):
        return float(np.mean([f.scores.auprc for f in self.folds]))


def fold_assignment(n_patients, k, seed):
    """Seeded permutation split into k near-equal disjoint folds."""
    if k < 2:
        raise ConfigError(f"cross-validation: need k >= 2 folds, got {k}")
    if n_patients < k:
        raise DataError(
            f"cross-validation: {n_patients} patients cannot fill {k} folds"
        )
    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(0,)))
    permuted = rng.permutation(n_patients)
    return [np.sort(chunk) for chunk in np.array_split(permuted, k)]


def run_fold(cohort, config, train_config, fold, test_indices, param_init=None):
    """Train on everything outside ``test_indices``, evaluate inside.

    Normalization stats come from the training patients only; the held-out
    fold is z-scored with those same stats, never its own.
    """
    # A mask, not ``np.setdiff1d``: its ``unique`` imports ``numpy.ma``,
    # about 13 ms of every ``train``'s start-up.
    outside = np.ones(len(cohort), bool)
    outside[test_indices] = False
    train_part = cohort.take(np.flatnonzero(outside))
    stats = compute_stats(train_part)
    fold_seed_rng = np.random.default_rng(
        np.random.SeedSequence(train_config.seed, spawn_key=(2, fold)))
    if param_init is None:
        params = ModelParams.initialized(config, fold_seed_rng)
    else:
        params = param_init(config, fold_seed_rng)
    fold_train_config = replace(
        train_config, seed=int(fold_seed_rng.integers(0, 2 ** 31 - 1)))
    epoch_log, _ = train(prepare_cohort(normalize(train_part, stats), config),
                         params, fold_train_config)
    probs = predict_probs(cohort.take(test_indices), stats, params)
    return FoldResult(fold, stats, params, epoch_log, probs,
                      macro_one_vs_rest(probs, cohort.labels[test_indices]))


def cross_validate(cohort, k, config, train_config, param_init=None):
    """k-fold cross-validation over a raw (unpadded, unnormalized) cohort."""
    folds = fold_assignment(len(cohort), k, train_config.seed)
    results = [
        run_fold(cohort, config, train_config, fold, folds[fold], param_init)
        for fold in range(k)
    ]
    return CVResult(results)
