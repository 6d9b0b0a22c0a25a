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
import zlib
from dataclasses import astuple, dataclass, field

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
    config.  Biases have fan_in None.  The list has at most ten entries
    whatever the config, so sizing an untrusted one is cheap.
    """
    d = config.n_classes
    layout = [("static_weight", (d, config.n_static), config.n_static),
              ("static_bias", (d,), None)]
    if config.flags.use_correlation:
        w = config.kernel_width
        sets = 1 if config.shared_branches else config.n_dynamic
        branches = len(config.dilations)
        layout += [("branch_kernels", (sets, branches, 2, 2, w), 2 * w),
                   ("branch_bias", (sets, branches, 2), None)]
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
            setattr(self, name, self.flat[offset:offset + size].reshape(shape))
            offset += size

    @classmethod
    def initialized(cls, config, rng):
        """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases:
        one draw per weight entry of ``_layout``, in its order."""
        params = cls(config)
        for name, _, fan_in in _layout(config):
            if fan_in is not None:
                value = getattr(params, name)
                bound = 1.0 / np.sqrt(fan_in)
                value[...] = rng.uniform(-bound, bound, size=value.shape)
        return params

    def named_arrays(self):
        """(name, array) of every entry of ``_layout``, in its order."""
        return [(name, getattr(self, name))
                for name, _, _ in _layout(self.config)]

    def first_nonfinite(self):
        """The first non-finite value in declaration order as
        ``name[index]`` (a scalar as its bare name), or None."""
        for name, value in self.named_arrays():
            bad = np.argwhere(~np.isfinite(value))
            if len(bad):
                index = ", ".join(map(str, bad[0].tolist()))
                return f"{name}[{index}]" if index else name
        return None


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


def check_fit(cohort, config):
    """Refuse a ``Cohort`` whose feature widths or labels do not fit the
    model of ``config``.

    This is the one place that compares data with a model: ``prepare``,
    ``eval`` and ``inspect-attention`` all check through here.
    """
    for kind, expected, width in (
            ("dynamic", config.n_dynamic, cohort.values.shape[1]),
            ("static", config.n_static, cohort.static.shape[1])):
        if width != expected:
            raise ConfigError(
                f"dimension mismatch: model expects {expected} {kind} "
                f"features, data has {width}")
    labels = cohort.labels
    if len(cohort) and (labels.min() < 0 or labels.max() >= config.n_classes):
        raise ConfigError(
            f"dimension mismatch: model predicts {config.n_classes} classes, "
            f"data labels span {labels.min()}..{labels.max()}"
        )


def prepare(cohort, stats, config):
    """A raw ``Cohort`` z-scored with ``stats``, padded to the model's
    ``t_max`` and decomposed into a ``PreparedBatch``.

    Training, scoring and ``inspect-attention`` all prepare through here,
    so each sees a patient as the others do.  A cohort that does not fit
    ``config`` is refused by ``check_fit``; a split or attention scores
    that overflow name their patient and feature.
    """
    check_fit(cohort, config)
    cohort = normalize(cohort, stats)
    bad = np.argwhere(~np.isfinite(cohort.static))
    if bad.size:
        patient, column = bad[0].tolist()
        raise NumericError(
            f"prepare: non-finite static feature "
            f"{cohort.static_names[column]!r} of patient "
            f"{cohort.ids[patient]!r}")
    visits = pad_to_length(cohort, config.t_max)
    lines = decompose_batch(np.swapaxes(visits, 1, 2), config.order,
                            cohort.dynamic_names, cohort.ids)
    h_variation = None
    if config.flags.use_diff_attention:
        h_variation = pool_features(diff_attention(
            lines[:, :, 1], cohort.dynamic_names, cohort.ids).weighted_diff)
    return PreparedBatch(config, lines, cohort.static, cohort.labels,
                         h_variation)


# The head's ``h @ W.T`` as an einsum, which sums each output on its own: a
# patient's row does not depend on how many rows share the call.
HEAD_PRODUCT = "...k,dk->...d"


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
    """Class probabilities (and activations) for a prepared batch.

    One closed-form pass over the whole batch, stage by stage in the order
    ``backward`` undoes them: maps, fused map and row mix, static
    embedding, logits, softmax.
    """
    config = params.config
    if batch.config != config:
        raise ConfigError(
            "forward: batch was prepared for a different model config"
        )
    flags = config.flags
    if flags.use_correlation:
        maps = correlation_forward(batch.lines, params.branch_kernels,
                                   params.branch_bias, config.dilations)
    else:
        first = 0 if flags.use_trend else 1
        maps = batch.lines[:, :, first:first + config.map_rows]
    # Feature blocks side by side, in feature order, then the row mix.
    n, c, rows, q = maps.shape
    fused = maps.swapaxes(1, 2).reshape(n, rows, c * q)
    h_dynamic = np.tanh(params.mix_weight @ fused + params.mix_bias)
    h_static = np.tanh(np.einsum(HEAD_PRODUCT, batch.static,
                                 params.static_weight) + params.static_bias)
    logits = (np.einsum(HEAD_PRODUCT, h_static, params.out_static)
              + np.einsum(HEAD_PRODUCT, h_dynamic, params.out_dynamic))
    if batch.h_variation is not None:
        logits = logits + np.einsum(HEAD_PRODUCT, batch.h_variation,
                                    params.out_diff)
    probs = softmax(logits + params.out_bias)
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
# Checkpoint serialization (version 4, little-endian).
#
# magic | u32 version | u32 x 9 config | u8 flag bits | float64 values
#   | u32 CRC-32
#
# The config is t_max, n_dynamic, n_static, n_classes, order, kernel_width
# and the three dilation rates; the flag bits are the AblationFlags fields
# in declaration order from bit 0 (1 trend, 2 variation, 4 correlation,
# 8 attention), then 16 for shared branches.  The values are the training
# stats (dynamic mean, dynamic std, static mean, static std), then
# ``params.flat``: the ``_layout`` entries in order, each in C order.  The
# config fixes every shape, so no array carries a header and the config
# alone gives the file's exact length.  The CRC-32 (``zlib.crc32``) covers
# every byte before it.  A version-3 file has the same length but another
# value order, so only its version field refuses it.

CHECKPOINT_MAGIC = b"TVARCKPT"
CHECKPOINT_VERSION = 4
_HEADER = struct.Struct("<8sI9IB")
_CRC = struct.Struct("<I")


def _stats_sizes(config):
    """The length of each stats array a checkpoint stores, in file order."""
    d, s = config.n_dynamic, config.n_static
    return dict(dynamic_mean=d, dynamic_std=d, static_mean=s, static_std=s)


def save_checkpoint(path, params, stats):
    """Serialize params with their config and the normalization stats they
    were trained under.

    The stats let a later scoring run reproduce the exact preprocessing the
    weights were fitted under.  Stats whose shapes do not fit the config
    are a ``ConfigError``.
    """
    config = params.config
    sizes = _stats_sizes(config)
    arrays = [np.asarray(getattr(stats, name), dtype=np.float64)
              for name in sizes]
    for (name, size), value in zip(sizes.items(), arrays):
        if value.shape != (size,):
            raise ConfigError(
                f"save_checkpoint: stats {name} has shape {value.shape}, "
                f"the model needs ({size},)"
            )
    on = [*astuple(config.flags), config.shared_branches]
    flag_bits = sum(bool(value) << bit for bit, value in enumerate(on))
    header = _HEADER.pack(
        CHECKPOINT_MAGIC, CHECKPOINT_VERSION, config.t_max, config.n_dynamic,
        config.n_static, config.n_classes, config.order, config.kernel_width,
        *config.dilations, flag_bits)
    values = np.concatenate([*arrays, params.flat]).astype("<f8")
    body = header + values.tobytes()
    with open(path, "wb") as fh:
        fh.write(body + _CRC.pack(zlib.crc32(body)))


@dataclass
class CheckpointBundle:
    params: ModelParams
    stats: FeatureStats


def load_checkpoint(path):
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read checkpoint {path}: {exc}") from exc
    if blob[:len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise ConfigError(f"unrecognized checkpoint file: {path}")
    if len(blob) < _HEADER.size:
        raise ConfigError(f"corrupt checkpoint {path}: truncated")
    (_, version, t_max, n_dynamic, n_static, n_classes, order, kernel_width,
     d0, d1, d2, bits) = _HEADER.unpack_from(blob)
    if version != CHECKPOINT_VERSION:
        raise ConfigError(
            f"unsupported checkpoint version {version} in {path}"
        )
    if bits >> 5:  # bits 0-4 are the flags
        raise ConfigError(
            f"corrupt checkpoint {path}: unknown flag bits {bits:#04x}"
        )
    flags = AblationFlags(*(bool(bits >> bit & 1) for bit in range(4)))
    config = ModelConfig(
        t_max=t_max, n_dynamic=n_dynamic, n_static=n_static,
        n_classes=n_classes, order=order, kernel_width=kernel_width,
        dilations=(d0, d1, d2), flags=flags,
        shared_branches=bool(bits & 16),
    )
    sizes = _stats_sizes(config)
    n_stats = sum(sizes.values())
    # Checked before anything is allocated: a damaged config must not size
    # an allocation larger than the file that carries it.
    expected = _HEADER.size + 8 * (n_stats + parameter_count(config)) \
        + _CRC.size
    if len(blob) < expected:
        raise ConfigError(
            f"corrupt checkpoint {path}: truncated or damaged config: it "
            f"needs {expected} bytes, the file has {len(blob)}"
        )
    if len(blob) > expected:
        raise ConfigError(
            f"corrupt checkpoint {path}: {len(blob) - expected} trailing bytes"
        )
    body = memoryview(blob)[:-_CRC.size]
    if zlib.crc32(body) != _CRC.unpack_from(blob, len(body))[0]:
        raise ConfigError(f"corrupt checkpoint {path}: checksum mismatch")
    values = np.frombuffer(body, dtype="<f8", offset=_HEADER.size)
    stats = FeatureStats(*np.split(values[:n_stats].astype(np.float64),
                                   np.cumsum(list(sizes.values()))[:-1]))
    # A hand-built file can carry a valid checksum.
    for name in sizes:
        value = getattr(stats, name)
        if not np.isfinite(value).all():
            raise ConfigError(
                f"corrupt checkpoint {path}: non-finite values in stats "
                f"{name}"
            )
        if name.endswith("_std") and (value < 0).any():
            raise ConfigError(
                f"corrupt checkpoint {path}: negative values in stats {name}"
            )
    params = ModelParams(config)
    params.flat[...] = values[n_stats:]
    if not np.isfinite(params.flat).all():
        raise NumericError(f"corrupt checkpoint {path}: non-finite values "
                           f"in {params.first_nonfinite()}")
    return CheckpointBundle(params, stats)
