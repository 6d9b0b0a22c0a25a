"""Model assembly: static embedding, dynamic fusion and the prediction head.

A batch of N patients flows through as:

  visits (N, t_max, c) --decompose--> trend/variation lines (N, c, 2, m)
    -> per-feature correlation maps (or the raw lines when that stage is off)
    -> column-wise concatenation and a learned row mix -> h_dy
  statics (N, s) -> affine + tanh -> h_st
  variation lines -> difference attention -> pooled h_var   (optional)
  logits = W1 h_st + W2 h_dy [+ W3 h_var] + b -> softmax

The decomposition and the attention stage have no trainable inputs, so
``prepare`` runs them once per cohort.  ``forward`` and ``backward`` are one
closed-form pass each over the whole batch.

Every stage can be switched off by ablation flags except the head itself;
disabled stages contribute nothing (their weights do not even exist).
"""

import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .diff_attention import diff_attention, pool_features, softmax
from .dilated import (
    BranchParams,
    DEFAULT_DILATIONS,
    DEFAULT_KERNEL_WIDTH,
    combined_width,
    correlation_backward,
    correlation_forward,
    stack_pair,
)
from .errors import ConfigError, DataError, NumericError
from .wavelets import MAX_ORDER, MIN_ORDER, coefficient_count, decompose_matrix

# Probabilities are clamped here before the log of the loss.
PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class AblationFlags:
    """Which stages participate in the forward pass."""

    use_trend: bool = True
    use_variation: bool = True
    use_correlation: bool = True
    use_diff_attention: bool = True

    def __post_init__(self):
        if not (self.use_trend or self.use_variation):
            raise ConfigError(
                "ablation flags: at least one of trend/variation must be on"
            )
        if self.use_correlation and not (self.use_trend and self.use_variation):
            raise ConfigError(
                "ablation flags: the correlation stage needs both the trend "
                "and the variation lines"
            )


ABLATION_PRESETS = {
    "A1": AblationFlags(True, False, False, False),
    "A2": AblationFlags(False, True, False, False),
    "A3": AblationFlags(False, True, False, True),
    "A4": AblationFlags(True, True, False, False),
    "A5": AblationFlags(True, True, False, True),
    "A6": AblationFlags(True, True, True, False),
    "A7": AblationFlags(True, True, True, True),
}


def ablation_from_name(name):
    try:
        return ABLATION_PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown ablation config {name!r}: choose one of "
            f"{', '.join(sorted(ABLATION_PRESETS))}"
        ) from None


@dataclass(frozen=True)
class ModelConfig:
    t_max: int
    n_dynamic: int
    n_static: int
    n_classes: int
    order: int = 14
    kernel_width: int = DEFAULT_KERNEL_WIDTH
    dilations: tuple = DEFAULT_DILATIONS
    flags: AblationFlags = field(default_factory=AblationFlags)
    shared_branches: bool = False

    def __post_init__(self):
        for label, value in (("t_max", self.t_max),
                             ("n_dynamic", self.n_dynamic),
                             ("n_static", self.n_static),
                             ("n_classes", self.n_classes)):
            if value < 1:
                raise ConfigError(f"model config: {label} must be >= 1, got {value}")
        if self.n_classes < 2:
            raise ConfigError(
                f"model config: need at least 2 classes, got {self.n_classes}"
            )
        if not (MIN_ORDER <= self.order <= MAX_ORDER):
            raise ConfigError(
                f"model config: symlet order {self.order} outside "
                f"{MIN_ORDER}..{MAX_ORDER}"
            )
        if self.kernel_width < 1:
            raise ConfigError(
                f"model config: kernel width must be >= 1, got {self.kernel_width}"
            )
        object.__setattr__(self, "dilations", tuple(int(d) for d in self.dilations))
        if len(self.dilations) != 3 or any(d < 0 for d in self.dilations):
            raise ConfigError(
                f"model config: dilations must be three non-negative rates, "
                f"got {self.dilations}"
            )
        if self.flags.use_correlation:
            # Raises if any branch would produce an empty map.
            combined_width(self.coeff_len, self.dilations, self.kernel_width)
        if self.flags.use_diff_attention and self.coeff_len < 2:
            raise ConfigError(
                f"model config: difference attention needs at least 2 "
                f"coefficients, got {self.coeff_len}"
            )

    @property
    def coeff_len(self):
        return coefficient_count(self.t_max, self.order)

    @property
    def map_rows(self):
        if self.flags.use_correlation:
            return 2
        if self.flags.use_trend and self.flags.use_variation:
            return 2
        return 1

    @property
    def map_cols(self):
        if self.flags.use_correlation:
            return combined_width(self.coeff_len, self.dilations,
                                  self.kernel_width)
        return self.coeff_len

    @property
    def fused_len(self):
        return self.map_cols * self.n_dynamic


class ModelParams:
    """All trainable arrays of one model, in a fixed declaration order.

    The order is the serialization contract for checkpoints and the draw
    order for initialization, so it must never depend on anything but the
    config.  Arrays are updated in place, so the attributes and the ordered
    list always refer to the same storage.
    """

    def __init__(self, config):
        self.config = config
        d = config.n_classes
        ordered = []

        def weight(name, shape, fan_in):
            value = np.zeros(shape)
            ordered.append((name, value, fan_in))
            return value

        def bias(name, shape):
            value = np.zeros(shape)
            ordered.append((name, value, None))
            return value

        self.static_weight = weight(
            "static_weight", (d, config.n_static), config.n_static)
        self.static_bias = bias("static_bias", (d,))
        self.branch_sets = []
        if config.flags.use_correlation:
            n_sets = 1 if config.shared_branches else config.n_dynamic
            w = config.kernel_width
            for si in range(n_sets):
                branches = []
                for bi, rate in enumerate(config.dilations):
                    prefix = _branch_prefix(si, bi)
                    branches.append(BranchParams(
                        kernel_top=weight(prefix + ".kernel_top", (2, w), 2 * w),
                        kernel_bottom=weight(
                            prefix + ".kernel_bottom", (2, w), 2 * w),
                        bias=bias(prefix + ".bias", (2,)),
                        dilation=rate,
                    ))
                self.branch_sets.append(branches)
        rows = config.map_rows
        self.mix_weight = weight("mix_weight", (rows,), rows)
        self.mix_bias = bias("mix_bias", ())
        self.out_static = weight("out_static", (d, d), d)
        self.out_dynamic = weight(
            "out_dynamic", (d, config.fused_len), config.fused_len)
        if config.flags.use_diff_attention:
            diff_len = config.coeff_len - 1
            self.out_diff = weight("out_diff", (d, diff_len), diff_len)
        else:
            self.out_diff = None
        self.out_bias = bias("out_bias", (d,))
        self._ordered = ordered

    @classmethod
    def initialized(cls, config, rng):
        """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases."""
        params = cls(config)
        for _, value, fan_in in params._ordered:
            if fan_in is None:
                continue
            bound = 1.0 / np.sqrt(fan_in)
            value[...] = rng.uniform(-bound, bound, size=value.shape)
        return params

    def named_arrays(self):
        return [(name, value) for name, value, _ in self._ordered]

    def arrays(self):
        return [value for _, value, _ in self._ordered]

    def branches_for(self, feature):
        if self.config.shared_branches:
            return self.branch_sets[0]
        return self.branch_sets[feature]

    def stacked_branches(self):
        """The three branches with every set stacked on a leading axis.

        Arrays are (sets, 2, width) and (sets, 2); one set broadcasts over
        all features when branches are shared.
        """
        sets = self.branch_sets
        return [
            BranchParams(
                kernel_top=np.stack([s[bi].kernel_top for s in sets]),
                kernel_bottom=np.stack([s[bi].kernel_bottom for s in sets]),
                bias=np.stack([s[bi].bias for s in sets]),
                dilation=rate,
            )
            for bi, rate in enumerate(self.config.dilations)
        ]

    def copy(self):
        clone = ModelParams(self.config)
        for (_, src, _), (_, dst, _) in zip(self._ordered, clone._ordered):
            dst[...] = src
        return clone


def _branch_prefix(set_index, branch_index):
    return f"branch[{set_index}][{branch_index}]"


@dataclass(frozen=True)
class PreparedBatch:
    """Patients after decomposition, as dense arrays for repeated passes.

    Nothing here is trainable, so it is computed once per cohort: the
    trend/variation lines ``(N, c, 2, m)``, the statics ``(N, s)``, the
    labels ``(N,)`` and, when difference attention is on, the pooled
    attention vector ``(N, m - 1)`` (None otherwise).
    """

    config: ModelConfig
    lines: np.ndarray
    static: np.ndarray
    labels: np.ndarray
    h_variation: "np.ndarray | None"

    def __len__(self):
        return self.labels.shape[0]

    def take(self, index):
        """The patients selected by ``index`` (a slice or index array)."""
        return PreparedBatch(
            self.config, self.lines[index], self.static[index],
            self.labels[index],
            None if self.h_variation is None else self.h_variation[index],
        )


def prepare(visits, static, labels, config):
    """Decompose a padded, normalized cohort into a ``PreparedBatch``.

    ``visits`` is (N, t_max, c), ``static`` (N, s) and ``labels`` (N,).
    """
    visits = np.asarray(visits, dtype=np.float64)
    static = np.asarray(static, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if visits.ndim != 3 or visits.shape[1:] != (config.t_max,
                                                config.n_dynamic):
        raise ConfigError(
            f"prepare: visits shape {visits.shape} does not match model "
            f"(N, {config.t_max}, {config.n_dynamic})"
        )
    n = visits.shape[0]
    if static.shape != (n, config.n_static):
        raise ConfigError(
            f"prepare: static shape {static.shape} does not match model "
            f"({n}, {config.n_static})"
        )
    if labels.shape != (n,):
        raise ConfigError(
            f"prepare: {n} patients but labels of shape {labels.shape}"
        )
    if n and (labels.min() < 0 or labels.max() >= config.n_classes):
        raise ConfigError(
            f"prepare: labels outside 0..{config.n_classes - 1}"
        )
    if not np.all(np.isfinite(static)):
        raise NumericError("prepare: non-finite static feature")
    lines = np.empty((n, config.n_dynamic, 2, config.coeff_len))
    for i in range(n):
        for j, pair in enumerate(decompose_matrix(visits[i], config.order)):
            lines[i, j] = stack_pair(pair)
    h_variation = None
    if config.flags.use_diff_attention:
        weighted = diff_attention(lines[:, :, 1]).weighted_diff
        h_variation = pool_features(np.swapaxes(weighted, 0, 1))
    return PreparedBatch(config, lines, static, labels, h_variation)


def embed_static(static, params):
    """Affine map of the static vectors followed by tanh."""
    return np.tanh(static @ params.static_weight.T + params.static_bias)


def fuse_dynamic(feature_maps, params):
    """Concatenate per-feature maps column-wise and mix rows into a vector.

    ``feature_maps`` holds one (..., rows, Q) map per feature.  Returns the
    fused (..., rows, c*Q) map and its mixed, activated (..., c*Q) vector.
    """
    if len(feature_maps) == 0:
        raise ConfigError("fuse_dynamic: no feature maps")
    shape = np.shape(feature_maps[0])
    for fm in feature_maps[1:]:
        if np.shape(fm) != shape:
            raise ConfigError(
                f"fuse_dynamic: ragged feature maps, {shape} vs {np.shape(fm)}"
            )
    fused = np.concatenate(feature_maps, axis=-1)
    return fused, np.tanh(params.mix_weight @ fused + params.mix_bias)


def predict(h_static, h_dynamic, h_variation, params):
    """Combine embeddings into class probabilities.

    ``h_variation`` is None when difference attention is off; the term is
    simply absent rather than zeroed.
    """
    logits = h_static @ params.out_static.T + h_dynamic @ params.out_dynamic.T
    if h_variation is not None:
        if params.out_diff is None:
            raise ConfigError(
                "predict: attention embedding given but this model was built "
                "without the attention head"
            )
        logits = logits + h_variation @ params.out_diff.T
    return softmax(logits + params.out_bias)


@dataclass
class Activations:
    """What one forward pass keeps for the backward pass.

    ``maps`` is (N, c, rows, Q), ``fused`` (N, rows, c*Q), the embeddings
    (N, d) and (N, c*Q), ``probs`` (N, d).
    """

    maps: np.ndarray
    fused: np.ndarray
    h_static: np.ndarray
    h_dynamic: np.ndarray
    probs: np.ndarray


def forward(batch, params):
    """Class probabilities (and activations) for a prepared batch."""
    config = params.config
    if batch.config != config:
        raise ConfigError(
            "forward: batch was prepared for a different model config"
        )
    flags = config.flags
    if flags.use_correlation:
        maps = correlation_forward(batch.lines, params.stacked_branches())
    elif flags.use_trend and flags.use_variation:
        maps = batch.lines
    elif flags.use_trend:
        maps = batch.lines[:, :, :1]
    else:
        maps = batch.lines[:, :, 1:]
    fused, h_dynamic = fuse_dynamic(np.swapaxes(maps, 0, 1), params)
    h_static = embed_static(batch.static, params)
    probs = predict(h_static, h_dynamic, batch.h_variation, params)
    return Activations(maps, fused, h_static, h_dynamic, probs)


def backward(batch, params, acts):
    """Closed-form gradients of the batch-mean cross-entropy.

    Hand-derived reverse mode through the fixed graph, given the
    activations ``forward`` returned for ``batch``.  Returns a dict mapping
    every parameter name to its gradient.  A patient whose label
    probability sits at or below the log clamp contributes nothing, like
    the clamp itself.
    """
    n = len(batch)
    if n == 0:
        raise DataError("backward: empty batch")
    rows = np.arange(n)
    live = acts.probs[rows, batch.labels] > PROB_FLOOR
    # d(-log p_label)/d logits = p - onehot, for softmax probabilities p.
    d_logits = acts.probs.copy()
    d_logits[rows, batch.labels] -= 1.0
    d_logits *= (live / n)[:, None]
    grads = {
        "out_bias": d_logits.sum(axis=0),
        "out_static": d_logits.T @ acts.h_static,
        "out_dynamic": d_logits.T @ acts.h_dynamic,
    }
    if params.out_diff is not None:
        grads["out_diff"] = d_logits.T @ batch.h_variation
    d_static = (d_logits @ params.out_static) * (1.0 - acts.h_static ** 2)
    grads["static_weight"] = d_static.T @ batch.static
    grads["static_bias"] = d_static.sum(axis=0)
    d_dynamic = (d_logits @ params.out_dynamic) * (1.0 - acts.h_dynamic ** 2)
    grads["mix_weight"] = np.einsum("nq,nrq->r", d_dynamic, acts.fused)
    grads["mix_bias"] = d_dynamic.sum()
    if params.config.flags.use_correlation:
        _, c, map_rows, q = acts.maps.shape
        d_fused = params.mix_weight[:, None] * d_dynamic[:, None, :]
        d_maps = d_fused.reshape(n, map_rows, c, q).swapaxes(1, 2)
        per_branch = correlation_backward(
            batch.lines, params.stacked_branches(), acts.maps, d_maps)
        shared = params.config.shared_branches
        for bi, branch_grads in enumerate(per_branch):
            d_top, d_bottom, d_bias = (
                g.sum(axis=0, keepdims=True) if shared else g
                for g in branch_grads)
            for si in range(len(params.branch_sets)):
                prefix = _branch_prefix(si, bi)
                grads[prefix + ".kernel_top"] = d_top[si]
                grads[prefix + ".kernel_bottom"] = d_bottom[si]
                grads[prefix + ".bias"] = d_bias[si]
    return grads


def one_hot(labels, n_classes):
    """One-hot rows for a label or an array of labels."""
    labels = np.asarray(labels)
    bad = labels[(labels < 0) | (labels >= n_classes)]
    if bad.size:
        raise ConfigError(
            f"one_hot: label {bad.flat[0]} outside 0..{n_classes - 1}"
        )
    return (labels[..., None] == np.arange(n_classes)).astype(np.float64)


def cross_entropy(probs, onehot_rows):
    """Mean negative log-likelihood over a batch of probability rows.

    Probabilities are clamped at ``PROB_FLOOR`` before the log, so a
    confidently wrong prediction yields a large finite loss instead of an
    infinity.
    """
    probs = np.asarray(probs, dtype=np.float64)
    onehot_rows = np.asarray(onehot_rows, dtype=np.float64)
    if onehot_rows.ndim != 2 or probs.shape[0] != onehot_rows.shape[0]:
        raise ConfigError(
            f"cross_entropy: {probs.shape[0]} predictions vs label block "
            f"of shape {onehot_rows.shape}"
        )
    valid = (((onehot_rows == 0.0) | (onehot_rows == 1.0)).all(axis=1)
             & (onehot_rows.sum(axis=1) == 1.0))
    if not valid.all():
        i = int(np.argmin(valid))
        raise ConfigError(
            f"cross_entropy: row {i} is not one-hot: {onehot_rows[i].tolist()}"
        )
    if probs.shape != onehot_rows.shape:
        raise ConfigError(
            f"cross_entropy: {onehot_rows.shape[1]} classes but the "
            f"predictions have shape {probs.shape}"
        )
    picked = probs[np.arange(probs.shape[0]), onehot_rows.argmax(axis=1)]
    return float(-np.log(np.maximum(picked, PROB_FLOOR)).mean())


# ---------------------------------------------------------------------------
# Checkpoint serialization (version 1, little-endian).
#
# magic | u32 version | config block | u8 has_stats [stats arrays]
#   | u32 tensor count | tensors in declaration order
#
# The config block is: u32 x 9 (t_max, n_dynamic, n_static, n_classes,
# order, kernel_width, three dilation rates) then u8 flag bits
# (1 trend, 2 variation, 4 correlation, 8 attention, 16 shared branches).
# Stats and tensors are stored as u32 ndim, u32 dims, float64 values.

CHECKPOINT_MAGIC = b"TVARCKPT"
CHECKPOINT_VERSION = 1


def _pack_array(out, arr):
    # np.ascontiguousarray would promote 0-d to 1-d; tobytes() copies to C
    # order on its own, so plain asarray preserves scalar shapes.
    arr = np.asarray(arr, dtype=np.float64)
    out.append(struct.pack("<I", arr.ndim))
    for dim in arr.shape:
        out.append(struct.pack("<I", dim))
    out.append(arr.tobytes())


class _Reader:
    def __init__(self, blob, path):
        self.blob = blob
        self.path = path
        self.offset = 0

    def take(self, count):
        if self.offset + count > len(self.blob):
            raise ConfigError(f"corrupt checkpoint {self.path}: truncated")
        piece = self.blob[self.offset:self.offset + count]
        self.offset += count
        return piece

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def u8(self):
        return struct.unpack("<B", self.take(1))[0]

    def array(self):
        ndim = self.u32()
        if ndim > 4:
            raise ConfigError(
                f"corrupt checkpoint {self.path}: implausible rank {ndim}"
            )
        shape = tuple(self.u32() for _ in range(ndim))
        count = int(np.prod(shape)) if shape else 1
        if count > 50_000_000:
            raise ConfigError(
                f"corrupt checkpoint {self.path}: implausible tensor size"
            )
        data = np.frombuffer(self.take(count * 8), dtype="<f8").reshape(shape)
        return data.astype(np.float64)

    def done(self):
        if self.offset != len(self.blob):
            raise ConfigError(
                f"corrupt checkpoint {self.path}: "
                f"{len(self.blob) - self.offset} trailing bytes"
            )


def _flag_byte(config):
    bits = 0
    if config.flags.use_trend:
        bits |= 1
    if config.flags.use_variation:
        bits |= 2
    if config.flags.use_correlation:
        bits |= 4
    if config.flags.use_diff_attention:
        bits |= 8
    if config.shared_branches:
        bits |= 16
    return bits


def save_checkpoint(path, params, config, stats=None):
    """Serialize params + config (+ optional normalization stats) to disk.

    Storing the training-time normalization stats lets a later scoring run
    reproduce the exact preprocessing the weights were fitted under.
    """
    out = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    out.append(struct.pack(
        "<9I", config.t_max, config.n_dynamic, config.n_static,
        config.n_classes, config.order, config.kernel_width,
        *config.dilations,
    ))
    out.append(struct.pack("<B", _flag_byte(config)))
    if stats is None:
        out.append(struct.pack("<B", 0))
    else:
        out.append(struct.pack("<B", 1))
        for arr in (stats.dynamic_mean, stats.dynamic_std,
                    stats.static_mean, stats.static_std):
            _pack_array(out, arr)
    arrays = params.named_arrays()
    out.append(struct.pack("<I", len(arrays)))
    for _, value in arrays:
        _pack_array(out, value)
    with open(path, "wb") as fh:
        fh.write(b"".join(out))


def _check_stats(stats, config, path):
    """Stored normalization stats must fit the stored model config."""
    for name, size in (("dynamic_mean", config.n_dynamic),
                       ("dynamic_std", config.n_dynamic),
                       ("static_mean", config.n_static),
                       ("static_std", config.n_static)):
        value = getattr(stats, name)
        if value.shape != (size,):
            raise ConfigError(
                f"corrupt checkpoint {path}: stats {name} has shape "
                f"{value.shape}, expected ({size},)"
            )
        if not np.all(np.isfinite(value)):
            raise ConfigError(
                f"corrupt checkpoint {path}: non-finite values in stats "
                f"{name}"
            )
        if name.endswith("_std") and np.any(value < 0):
            raise ConfigError(
                f"corrupt checkpoint {path}: negative values in stats {name}"
            )


@dataclass
class CheckpointBundle:
    params: ModelParams
    config: ModelConfig
    stats: "object | None"


def load_checkpoint(path):
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(blob) < len(CHECKPOINT_MAGIC) or \
            blob[:len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise ConfigError(f"unrecognized checkpoint file: {path}")
    reader = _Reader(blob, path)
    reader.take(len(CHECKPOINT_MAGIC))
    version = reader.u32()
    if version != CHECKPOINT_VERSION:
        raise ConfigError(
            f"unsupported checkpoint version {version} in {path}"
        )
    t_max, n_dynamic, n_static, n_classes, order, kernel_width, d0, d1, d2 = \
        struct.unpack("<9I", reader.take(36))
    bits = reader.u8()
    flags = AblationFlags(
        use_trend=bool(bits & 1),
        use_variation=bool(bits & 2),
        use_correlation=bool(bits & 4),
        use_diff_attention=bool(bits & 8),
    )
    config = ModelConfig(
        t_max=t_max, n_dynamic=n_dynamic, n_static=n_static,
        n_classes=n_classes, order=order, kernel_width=kernel_width,
        dilations=(d0, d1, d2), flags=flags,
        shared_branches=bool(bits & 16),
    )
    stats = None
    if reader.u8():
        from .data import FeatureStats
        stats = FeatureStats(
            dynamic_mean=reader.array(), dynamic_std=reader.array(),
            static_mean=reader.array(), static_std=reader.array(),
        )
        _check_stats(stats, config, path)
    count = reader.u32()
    params = ModelParams(config)
    expected = params.named_arrays()
    if count != len(expected):
        raise ConfigError(
            f"corrupt checkpoint {path}: holds {count} tensors, model "
            f"declares {len(expected)}"
        )
    for name, value in expected:
        data = reader.array()
        if data.shape != value.shape:
            raise ConfigError(
                f"corrupt checkpoint {path}: tensor {name} has shape "
                f"{data.shape}, expected {value.shape}"
            )
        if not np.all(np.isfinite(data)):
            raise NumericError(
                f"corrupt checkpoint {path}: non-finite values in {name}"
            )
        value[...] = data
    reader.done()
    return CheckpointBundle(params, config, stats)


def config_with(config, **changes):
    """Frozen-dataclass update helper used by sweeps."""
    return replace(config, **changes)
