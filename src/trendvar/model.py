"""Model assembly: static embedding, dynamic fusion and the prediction head.

A batch of N patients flows through as:

  visits (N, t_max, c) --decompose--> trend/variation lines (N, c, 2, m)
    -> per-feature correlation maps (or the raw lines when that stage is off)
    -> column-wise concatenation and a learned row mix -> h_dy
  statics (N, s) -> affine + tanh -> h_st
  variation lines -> difference attention -> pooled h_var   (optional)
  logits = W1 h_st + W2 h_dy [+ W3 h_var] + b -> softmax

The z-scoring, the decomposition and the attention stage have no trainable
inputs, so ``prepare`` runs them once per cohort.  ``forward`` and
``backward`` are one closed-form pass each over the whole batch.

Every stage can be switched off by ablation flags except the head itself;
disabled stages contribute nothing (their weights do not even exist).
"""

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .data import FeatureStats, normalize, pad_to_length
from .diff_attention import diff_attention, pool_features, softmax
from .dilated import (
    DEFAULT_DILATIONS,
    DEFAULT_KERNEL_WIDTH,
    combined_width,
    correlation_backward,
    correlation_forward,
)
from .errors import ConfigError, DataError, NumericError
from .wavelets import MAX_ORDER, MIN_ORDER, coefficient_count, decompose_batch

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
        # A checkpoint stores these, the order and the dilation rates as u32
        # (see save_checkpoint).
        for label, value in (("t_max", self.t_max),
                             ("n_dynamic", self.n_dynamic),
                             ("n_static", self.n_static),
                             ("n_classes", self.n_classes),
                             ("kernel width", self.kernel_width)):
            if not 1 <= value < 2 ** 32:
                raise ConfigError(
                    f"model config: {label} must be >= 1 and fit a "
                    f"checkpoint's 32-bit field, got {value}")
        if self.n_classes < 2:
            raise ConfigError(
                f"model config: need at least 2 classes, got {self.n_classes}"
            )
        if not (MIN_ORDER <= self.order <= MAX_ORDER):
            raise ConfigError(
                f"model config: symlet order {self.order} outside "
                f"{MIN_ORDER}..{MAX_ORDER}"
            )
        object.__setattr__(self, "dilations", tuple(int(d) for d in self.dilations))
        if len(self.dilations) != 3 or any(not 0 <= d < 2 ** 32
                                           for d in self.dilations):
            raise ConfigError(
                f"model config: dilations must be three non-negative rates "
                f"that fit a checkpoint's 32-bit fields, got {self.dilations}"
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
        return 2 if self.flags.use_trend and self.flags.use_variation else 1

    @property
    def map_cols(self):
        if self.flags.use_correlation:
            return combined_width(self.coeff_len, self.dilations,
                                  self.kernel_width)
        return self.coeff_len

    @property
    def fused_len(self):
        return self.map_cols * self.n_dynamic


def _layout(config):
    """The parameter arrays of ``config`` as (name, shape, fan_in).

    The order is the declaration order: the checkpoint serialization order
    and the initialization draw order, so it depends on nothing but the
    config.  Biases have fan_in None.  The correlation kernels of every set
    and branch come as one ``branches`` entry of shape
    (sets, 3, 4 * width + 2); each (set, branch) block is kernel_top (2, w)
    | kernel_bottom (2, w) | bias (2,).  So the list has at most eight
    entries whatever the config, and sizing an untrusted one is cheap.
    """
    d = config.n_classes
    layout = [("static_weight", (d, config.n_static), config.n_static),
              ("static_bias", (d,), None)]
    if config.flags.use_correlation:
        w = config.kernel_width
        sets = 1 if config.shared_branches else config.n_dynamic
        layout.append(
            ("branches", (sets, len(config.dilations), 4 * w + 2), 2 * w))
    rows = config.map_rows
    layout += [("mix_weight", (rows,), rows),
               ("mix_bias", (), None),
               ("out_static", (d, d), d),
               ("out_dynamic", (d, config.fused_len), config.fused_len)]
    if config.flags.use_diff_attention:
        diff_len = config.coeff_len - 1
        layout.append(("out_diff", (d, diff_len), diff_len))
    layout.append(("out_bias", (d,), None))
    return layout


def parameter_count(config):
    """The number of values ``ModelParams(config)`` holds, without allocating.

    A checkpoint loader sizes an untrusted config with it first.
    """
    return sum(math.prod(shape) for _, shape, _ in _layout(config))


class ModelParams:
    """All trainable values of one model in one float64 buffer, ``flat``.

    Every named array is a view into ``flat``, laid out in declaration order
    (see ``_layout``), so an in-place update of the buffer is an update of
    every array and vice versa.  ``branch_kernels`` (sets, 3, 2, 2, width)
    and ``branch_bias`` (sets, 3, 2) view the correlation branches; one set
    serves every feature when branches are shared.  ``config`` is the model
    the values belong to; a checkpoint stores it with them.
    """

    def __init__(self, config):
        self.config = config
        layout = _layout(config)
        sizes = [math.prod(shape) for _, shape, _ in layout]
        self.flat = np.zeros(sum(sizes))
        self.branch_kernels = self.branch_bias = self.out_diff = None
        offset = 0
        for (name, shape, _), size in zip(layout, sizes):
            view = self.flat[offset:offset + size].reshape(shape)
            offset += size
            if name == "branches":
                w = config.kernel_width
                self.branch_kernels = view[..., :4 * w].reshape(
                    shape[:2] + (2, 2, w))
                self.branch_bias = view[..., 4 * w:]
            else:
                setattr(self, name, view)

    def _entries(self):
        """(name, array, fan_in) of every named array, declaration order."""
        for name, shape, fan_in in _layout(self.config):
            if name != "branches":
                yield name, getattr(self, name), fan_in
                continue
            for si, bi in np.ndindex(shape[:2]):
                prefix = f"branch[{si}][{bi}]"
                kernels = self.branch_kernels[si, bi]
                yield prefix + ".kernel_top", kernels[0], fan_in
                yield prefix + ".kernel_bottom", kernels[1], fan_in
                yield prefix + ".bias", self.branch_bias[si, bi], None

    @classmethod
    def initialized(cls, config, rng):
        """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases."""
        params = cls(config)
        for _, value, fan_in in params._entries():
            if fan_in is None:
                continue
            bound = 1.0 / np.sqrt(fan_in)
            value[...] = rng.uniform(-bound, bound, size=value.shape)
        return params

    def named_arrays(self):
        return [(name, value) for name, value, _ in self._entries()]


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


def prepare(cohort, stats, config):
    """A raw ``Cohort`` z-scored with ``stats``, padded to the model's
    ``t_max`` and decomposed into a ``PreparedBatch``.

    Training, scoring and ``inspect-attention`` all prepare through here,
    so each sees a patient as the others do.  A split or attention scores
    that overflow name their patient and feature.
    """
    widths = (cohort.values.shape[1], cohort.static.shape[1])
    if widths != (config.n_dynamic, config.n_static):
        raise ConfigError(
            f"prepare: the cohort has {widths[0]} dynamic and {widths[1]} "
            f"static features, the model {config.n_dynamic} and "
            f"{config.n_static}"
        )
    labels = cohort.labels
    if len(cohort) and (labels.min() < 0 or labels.max() >= config.n_classes):
        raise ConfigError(
            f"prepare: labels outside 0..{config.n_classes - 1}"
        )
    cohort = normalize(cohort, stats)
    finite = np.isfinite(cohort.static).all(axis=1)
    if not finite.all():
        raise NumericError(
            f"prepare: non-finite static feature of patient "
            f"{cohort.ids[np.argmin(finite)]!r}")
    visits = pad_to_length(cohort, config.t_max)
    lines = decompose_batch(np.swapaxes(visits, 1, 2), config.order,
                            cohort.dynamic_names, cohort.ids)
    h_variation = None
    if config.flags.use_diff_attention:
        variation = lines[:, :, 1]
        # The differences of finite but huge variation lines, or their
        # squares, overflow the attention scores.
        finite = np.isfinite(np.square(np.diff(variation))).all(axis=-1)
        if not finite.all():
            patient, feature = np.argwhere(~finite)[0].tolist()
            raise NumericError(
                f"prepare: non-finite attention scores, feature "
                f"{cohort.dynamic_names[feature]!r} of patient "
                f"{cohort.ids[patient]!r}: the differences of its variation "
                f"line overflow")
        h_variation = pool_features(diff_attention(variation).weighted_diff)
    return PreparedBatch(config, lines, cohort.static, labels, h_variation)


# The head's ``h @ W.T`` as an einsum, which sums each output on its own: a
# patient's row does not depend on how many rows share the call.
HEAD_PRODUCT = "...k,dk->...d"


def embed_static(static, params):
    """Affine map of the static vectors followed by tanh."""
    return np.tanh(np.einsum(HEAD_PRODUCT, static, params.static_weight)
                   + params.static_bias)


def fuse_dynamic(maps, params):
    """Concatenate per-feature maps column-wise and mix rows into a vector.

    ``maps`` is (N, c, rows, Q), one map per patient and feature.  Returns
    the fused (N, rows, c*Q) map, feature blocks in feature order, and its
    mixed, activated (N, c*Q) vector.
    """
    n, c, rows, q = maps.shape
    fused = maps.swapaxes(1, 2).reshape(n, rows, c * q)
    return fused, np.tanh(params.mix_weight @ fused + params.mix_bias)


def predict(h_static, h_dynamic, h_variation, params):
    """Combine embeddings into class probabilities.

    ``h_variation`` is None when difference attention is off; the term is
    simply absent rather than zeroed.
    """
    logits = (np.einsum(HEAD_PRODUCT, h_static, params.out_static)
              + np.einsum(HEAD_PRODUCT, h_dynamic, params.out_dynamic))
    if h_variation is not None:
        if params.out_diff is None:
            raise ConfigError(
                "predict: attention embedding given but this model was built "
                "without the attention head"
            )
        logits = logits + np.einsum(HEAD_PRODUCT, h_variation,
                                    params.out_diff)
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
        maps = correlation_forward(batch.lines, params.branch_kernels,
                                   params.branch_bias, config.dilations)
    elif flags.use_trend and flags.use_variation:
        maps = batch.lines
    elif flags.use_trend:
        maps = batch.lines[:, :, :1]
    else:
        maps = batch.lines[:, :, 1:]
    fused, h_dynamic = fuse_dynamic(maps, params)
    h_static = embed_static(batch.static, params)
    probs = predict(h_static, h_dynamic, batch.h_variation, params)
    return Activations(maps, fused, h_static, h_dynamic, probs)


def backward(batch, params, acts):
    """Closed-form gradients of the batch-mean cross-entropy.

    Hand-derived reverse mode through the fixed graph, given the
    activations ``forward`` returned for ``batch``.  Returns the gradient
    as a ``ModelParams`` of the same config, so it has the parameters'
    layout and names.  A patient whose label probability sits at or below
    the log clamp contributes nothing, like the clamp itself.
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
    grad = ModelParams(params.config)
    grad.out_bias[...] = d_logits.sum(axis=0)
    grad.out_static[...] = d_logits.T @ acts.h_static
    grad.out_dynamic[...] = d_logits.T @ acts.h_dynamic
    if params.out_diff is not None:
        grad.out_diff[...] = d_logits.T @ batch.h_variation
    d_static = (d_logits @ params.out_static) * (1.0 - acts.h_static ** 2)
    grad.static_weight[...] = d_static.T @ batch.static
    grad.static_bias[...] = d_static.sum(axis=0)
    d_dynamic = (d_logits @ params.out_dynamic) * (1.0 - acts.h_dynamic ** 2)
    grad.mix_weight[...] = np.einsum("nq,nrq->r", d_dynamic, acts.fused)
    grad.mix_bias[...] = d_dynamic.sum()
    config = params.config
    if config.flags.use_correlation:
        _, c, map_rows, q = acts.maps.shape
        d_fused = params.mix_weight[:, None] * d_dynamic[:, None, :]
        d_maps = d_fused.reshape(n, map_rows, c, q).swapaxes(1, 2)
        d_kernels, d_bias = correlation_backward(
            batch.lines, acts.maps, d_maps, config.dilations,
            config.kernel_width)
        if config.shared_branches:
            # One shared set gets the sum of every feature's gradient.
            d_kernels, d_bias = d_kernels.sum(axis=0), d_bias.sum(axis=0)
        grad.branch_kernels[...] = d_kernels
        grad.branch_bias[...] = d_bias
    return grad


def cross_entropy(probs, labels):
    """Mean negative log-likelihood of integer ``labels`` under (N, d)
    probability rows.

    Probabilities are clamped at ``PROB_FLOOR`` before the log, so a
    confidently wrong prediction yields a large finite loss instead of an
    infinity.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if (probs.ndim != 2 or labels.shape != probs.shape[:1]
            or labels.dtype.kind not in "iu"):
        raise ConfigError(
            f"cross_entropy: predictions of shape {probs.shape} vs labels "
            f"of shape {labels.shape} and dtype {labels.dtype}"
        )
    bad = labels[(labels < 0) | (labels >= probs.shape[1])]
    if bad.size:
        raise ConfigError(
            f"cross_entropy: label {bad[0]} outside 0..{probs.shape[1] - 1}"
        )
    picked = probs[np.arange(probs.shape[0]), labels]
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
        count = math.prod(shape)
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


# The ablation flags in the order of their bits, from bit 0; bit 4 is
# shared_branches.
_FLAG_BITS = ("use_trend", "use_variation", "use_correlation",
              "use_diff_attention")


def _flag_byte(config):
    on = [getattr(config.flags, name) for name in _FLAG_BITS]
    return sum(bool(value) << bit
               for bit, value in enumerate(on + [config.shared_branches]))


def save_checkpoint(path, params, stats=None):
    """Serialize params with their config (+ optional normalization stats)
    to disk.

    Storing the training-time normalization stats lets a later scoring run
    reproduce the exact preprocessing the weights were fitted under.
    """
    config = params.config
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
    flags = AblationFlags(**{name: bool(bits >> bit & 1)
                             for bit, name in enumerate(_FLAG_BITS)})
    config = ModelConfig(
        t_max=t_max, n_dynamic=n_dynamic, n_static=n_static,
        n_classes=n_classes, order=order, kernel_width=kernel_width,
        dilations=(d0, d1, d2), flags=flags,
        shared_branches=bool(bits & 16),
    )
    # Stats and tensors follow; a damaged config must not size an
    # allocation larger than the file that carries it.
    needed = 8 * parameter_count(config)
    left = len(blob) - reader.offset
    if needed > left:
        raise ConfigError(
            f"corrupt checkpoint {path}: truncated or damaged config: its "
            f"parameters need {needed} bytes, {left} are left"
        )
    stats = None
    if reader.u8():
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
    return CheckpointBundle(params, stats)
