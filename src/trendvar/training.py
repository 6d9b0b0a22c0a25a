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
    one_hot,
    prepare,
)

# Patients per forward pass in ``predict_probs``: bounds the activation
# memory of scoring a large cohort.
PREDICT_BLOCK = 256


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

    def __init__(self, size, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
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
    b1, b2 = state.beta1, state.beta2
    m = state.first
    v = state.second
    m *= b1
    m += (1.0 - b1) * grad
    v *= b2
    v += (1.0 - b2) * grad * grad
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    params.flat -= learning_rate * m_hat / (np.sqrt(v_hat) + state.eps)


@dataclass
class EpochRecord:
    epoch: int
    mean_loss: float


def train(batch, params, train_config):
    """Fit ``params`` on a prepared batch; returns the epoch loss log.

    ``params`` is updated in place.  Loss reported per epoch is the mean
    cross-entropy over all patients at the point each was visited.
    """
    n = len(batch)
    if n == 0:
        raise DataError("train: empty training set")
    rng = np.random.default_rng(
        np.random.SeedSequence(train_config.seed, spawn_key=(1,)))
    state = AdamState(params.flat.size)
    onehot = one_hot(batch.labels, params.config.n_classes)
    log = []
    for epoch in range(train_config.epochs):
        order = rng.permutation(n)
        loss_total = 0.0
        for start in range(0, n, train_config.batch_size):
            index = order[start:start + train_config.batch_size]
            part = batch.take(index)
            acts = forward(part, params)
            loss_total += cross_entropy(acts.probs, onehot[index]) * len(index)
            adam_step(params, backward(part, params, acts), state,
                      train_config.learning_rate)
        mean_loss = loss_total / n
        if not np.isfinite(mean_loss):
            raise NumericError(
                f"training diverged: non-finite mean loss at epoch {epoch}"
            )
        log.append(EpochRecord(epoch, mean_loss))
    return log, state


def predict_probs(batch, params):
    """Forward a prepared batch; returns an (N, d) probability matrix."""
    return np.concatenate([
        forward(batch.take(slice(start, start + PREDICT_BLOCK)), params).probs
        for start in range(0, len(batch), PREDICT_BLOCK)
    ])


def prepare_cohort(cohort, config):
    """Prepared batch of every patient of an already-padded cohort."""
    return prepare(np.stack([p.visits for p in cohort.patients]),
                   np.stack([p.static for p in cohort.patients]),
                   cohort.labels(), config)


@dataclass
class FoldResult:
    fold: int
    test_indices: np.ndarray
    stats: object
    params: ModelParams
    epoch_log: list
    probs: np.ndarray
    labels: np.ndarray
    auroc: object
    auprc: object


@dataclass
class CVResult:
    folds: list
    fold_indices: list

    @property
    def mean_auroc(self):
        return float(np.mean([f.auroc.value for f in self.folds]))

    @property
    def mean_auprc(self):
        return float(np.mean([f.auprc.value for f in self.folds]))


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
    test_set = set(int(i) for i in test_indices)
    train_patients = [p for i, p in enumerate(cohort.patients)
                      if i not in test_set]
    test_patients = [p for i, p in enumerate(cohort.patients)
                     if i in test_set]
    stats = compute_stats(train_patients)
    normalized = normalize(
        replace(cohort, patients=tuple(train_patients + test_patients)),
        stats,
    )
    prepared = prepare_cohort(pad_to_length(normalized, config.t_max), config)
    n_train = len(train_patients)
    fold_seed_rng = np.random.default_rng(
        np.random.SeedSequence(train_config.seed, spawn_key=(2, fold)))
    if param_init is None:
        params = ModelParams.initialized(config, fold_seed_rng)
    else:
        params = param_init(config, fold_seed_rng)
    fold_train_config = TrainConfig(
        learning_rate=train_config.learning_rate,
        batch_size=train_config.batch_size,
        epochs=train_config.epochs,
        seed=int(fold_seed_rng.integers(0, 2 ** 31 - 1)),
    )
    epoch_log, _ = train(prepared.take(slice(0, n_train)), params,
                         fold_train_config)
    probs = predict_probs(prepared.take(slice(n_train, None)), params)
    labels = np.array([p.label for p in test_patients], dtype=np.int64)
    auroc = macro_one_vs_rest(probs, labels, "auroc")
    auprc = macro_one_vs_rest(probs, labels, "auprc")
    return FoldResult(fold, np.asarray(test_indices), stats, params,
                      epoch_log, probs, labels, auroc, auprc)


def cross_validate(cohort, k, config, train_config, param_init=None):
    """k-fold cross-validation over a raw (unpadded, unnormalized) cohort."""
    folds = fold_assignment(len(cohort.patients), k, train_config.seed)
    results = [
        run_fold(cohort, config, train_config, fold, folds[fold], param_init)
        for fold in range(k)
    ]
    return CVResult(results, folds)
