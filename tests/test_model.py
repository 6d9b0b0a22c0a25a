"""Model assembly tests.

The full forward pass is checked against a plain-numpy, one-patient-at-a-time
re-computation that shares no code with the batched engine, plus hand-worked
head values.  The closed-form backward is audited by finite differences.
"""

import math
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohorts import cohort_of, prepare_arrays, unit_stats
from conv_oracle import oracle_conv
from gradcheck import finite_diff_check
from trendvar.data import FeatureStats
from trendvar.errors import ConfigError, NumericError
from trendvar.model import (
    ABLATION_PRESETS,
    AblationFlags,
    ModelConfig,
    ModelParams,
    _layout,
    ablation_from_name,
    backward,
    cross_entropy,
    embed_static,
    forward,
    fuse_dynamic,
    load_checkpoint,
    parameter_count,
    predict,
    prepare,
    save_checkpoint,
)
from trendvar.wavelets import MAX_ORDER, MIN_ORDER, coefficient_count
from wavelet_oracle import oracle_lines


def small_config(**over):
    base = dict(t_max=8, n_dynamic=2, n_static=3, n_classes=2, order=2)
    base.update(over)
    return ModelConfig(**base)


def make_batch(config, rng, n=1, labels=None):
    visits = rng.normal(size=(n, config.t_max, config.n_dynamic))
    static = rng.normal(size=(n, config.n_static))
    if labels is None:
        labels = np.zeros(n, dtype=np.int64)
    return prepare_arrays(visits, static, labels, config), visits, static


# -- head pieces ------------------------------------------------------------

def test_embed_static_matches_numpy():
    config = small_config()
    rng = np.random.default_rng(0)
    params = ModelParams.initialized(config, rng)
    static = rng.normal(size=3)
    h = embed_static(static, params)
    expected = np.tanh(params.static_weight @ static + params.static_bias)
    np.testing.assert_allclose(h, expected, atol=1e-15)


def test_fuse_dynamic_row_selection():
    # mix weight [1, 0] picks the top row of the concatenated map exactly
    config = small_config()
    params = ModelParams(config)
    params.mix_weight[...] = [1.0, 0.0]
    top = np.arange(6.0)
    bottom = np.full(6, 100.0)
    _, h = fuse_dynamic(np.vstack([top, bottom])[None, None], params)
    np.testing.assert_allclose(h[0], np.tanh(top), atol=1e-15)


def test_fuse_dynamic_concatenates_in_feature_order():
    config = small_config()
    params = ModelParams(config)
    params.mix_weight[...] = [1.0, 0.0]
    a = np.vstack([np.array([1.0, 2.0]), np.zeros(2)])
    b = np.vstack([np.array([3.0, 4.0]), np.zeros(2)])
    fused, h = fuse_dynamic(np.stack([a, b])[None], params)
    np.testing.assert_array_equal(fused[0], np.hstack([a, b]))
    np.testing.assert_allclose(h[0], np.tanh([1.0, 2.0, 3.0, 4.0]),
                               atol=1e-15)


def test_predict_zero_weights_yield_uniform():
    config = small_config(n_classes=4)
    params = ModelParams(config)  # all zeros
    probs = predict(np.ones(4), np.ones(config.fused_len), None, params)
    np.testing.assert_allclose(probs, np.full(4, 0.25), atol=1e-15)


def test_predict_bias_only_logits():
    # logits [ln 2, 0, 0] -> probabilities [1/2, 1/4, 1/4]
    config = small_config(n_classes=3)
    params = ModelParams(config)
    params.out_bias[...] = [math.log(2.0), 0.0, 0.0]
    probs = predict(np.zeros(3), np.zeros(config.fused_len), None, params)
    np.testing.assert_allclose(probs, [0.5, 0.25, 0.25], atol=1e-12)


def test_predict_rejects_attention_term_without_head():
    config = small_config(
        flags=AblationFlags(True, True, True, False))
    params = ModelParams(config)
    assert params.out_diff is None
    with pytest.raises(ConfigError, match="without the attention head"):
        predict(np.zeros(2), np.zeros(config.fused_len),
                np.zeros(config.coeff_len - 1), params)


# -- loss -------------------------------------------------------------------

def test_cross_entropy_worked_values():
    certain = cross_entropy([[0.0, 1.0]], [1])
    assert certain == pytest.approx(0.0, abs=1e-12)

    half = cross_entropy([[0.5, 0.5]], [0])
    assert half == pytest.approx(math.log(2.0), abs=1e-12)

    pair = cross_entropy([[0.5, 0.5], [0.25, 0.75]], [0, 0])
    expected = (math.log(2.0) + math.log(4.0)) / 2.0
    assert pair == pytest.approx(expected, abs=1e-12)


def test_cross_entropy_clamps_zero_probability():
    loss = cross_entropy([[1.0, 0.0]], [1])
    assert loss == pytest.approx(-math.log(1e-12), rel=1e-9)
    assert np.isfinite(loss)


def test_cross_entropy_validates_rows():
    with pytest.raises(ConfigError, match="label 2 outside 0..1"):
        cross_entropy([[0.5, 0.5]], [2])
    with pytest.raises(ConfigError, match="label -1 outside 0..1"):
        cross_entropy([[0.5, 0.5], [0.5, 0.5]], [0, -1])
    with pytest.raises(ConfigError, match="labels of shape"):
        cross_entropy([[0.5, 0.5]], [0, 1])
    with pytest.raises(ConfigError, match="labels of shape"):
        cross_entropy([[0.5, 0.5]], [[1, 0]])
    with pytest.raises(ConfigError, match="dtype float64"):
        cross_entropy([[0.5, 0.5]], [1.0])
    with pytest.raises(ConfigError, match="predictions of shape"):
        cross_entropy([0.5, 0.5], [0, 1])


# -- configuration ----------------------------------------------------------

def test_ablation_flag_constraints():
    with pytest.raises(ConfigError, match="at least one"):
        AblationFlags(False, False, False, False)
    with pytest.raises(ConfigError, match="correlation stage needs both"):
        AblationFlags(True, False, True, False)
    with pytest.raises(ConfigError, match="correlation stage needs both"):
        AblationFlags(False, True, True, True)


def test_ablation_presets_cover_expected_grid():
    assert set(ABLATION_PRESETS) == {f"A{i}" for i in range(1, 8)}
    assert ABLATION_PRESETS["A1"] == AblationFlags(True, False, False, False)
    assert ABLATION_PRESETS["A7"] == AblationFlags(True, True, True, True)
    assert ablation_from_name("A3") is ABLATION_PRESETS["A3"]
    with pytest.raises(ConfigError, match="unknown ablation"):
        ablation_from_name("A8")


def test_model_config_validation():
    with pytest.raises(ConfigError, match="symlet order"):
        small_config(order=1)
    with pytest.raises(ConfigError, match="symlet order"):
        small_config(order=21)
    with pytest.raises(ConfigError, match="at least 2 classes"):
        small_config(n_classes=1)
    with pytest.raises(ConfigError, match="kernel width"):
        small_config(kernel_width=0)
    with pytest.raises(ConfigError, match="three non-negative"):
        small_config(dilations=(0, 1))
    with pytest.raises(ConfigError, match="three non-negative"):
        small_config(dilations=(0, 1, -2))
    with pytest.raises(ConfigError, match="t_max"):
        small_config(t_max=0)
    # a history too short for the widest dilated branch
    with pytest.raises(ConfigError):
        small_config(t_max=2)
    # the checkpoint stores these fields as u32
    for field, value in (("t_max", 2 ** 32), ("n_dynamic", 2 ** 32),
                         ("n_static", 2 ** 40), ("n_classes", 2 ** 32),
                         ("kernel_width", 2 ** 32),
                         ("dilations", (0, 0, 2 ** 32))):
        with pytest.raises(ConfigError, match="32-bit"):
            small_config(**{"dilations": (0, 0, 0), field: value})


def test_model_config_derived_sizes():
    config = small_config(t_max=10, order=2)
    assert config.coeff_len == (10 + 2 * 2 - 1) // 2  # 6
    assert config.map_rows == 2
    # dilations (0,1,3), width 2: 5 + 5 + 3 columns
    assert config.map_cols == (6 - 0) + (6 - 1) + (6 - 3)
    assert config.fused_len == config.map_cols * 2

    lone = small_config(flags=AblationFlags(True, False, False, False))
    assert lone.map_rows == 1
    assert lone.map_cols == lone.coeff_len

    plain = small_config(flags=AblationFlags(True, True, False, False))
    assert plain.map_rows == 2
    assert plain.map_cols == plain.coeff_len


def test_every_history_gives_attention_two_coefficients():
    # FTM's floor((t + 2K - 1) / 2) is at least 2 for t >= 1 and K >= 2, so
    # difference attention always has a first-order difference to weigh.
    assert coefficient_count(1, MIN_ORDER) == 2
    for order in range(MIN_ORDER, MAX_ORDER + 1):
        for t in range(1, 51):
            assert coefficient_count(t, order) >= 2, (t, order)
    config = small_config(t_max=1, flags=AblationFlags(True, True, False, True))
    assert config.coeff_len == 2


# -- parameters -------------------------------------------------------------

def test_initialization_is_seeded_and_bounded():
    config = small_config()
    a = ModelParams.initialized(config, np.random.default_rng(3))
    b = ModelParams.initialized(config, np.random.default_rng(3))
    for (name_a, ta), (_, tb) in zip(a.named_arrays(), b.named_arrays()):
        np.testing.assert_array_equal(ta, tb)
        if name_a.endswith("bias"):
            assert np.abs(ta).max() == 0.0
    c = ModelParams.initialized(config, np.random.default_rng(4))
    assert any(not np.array_equal(ta, tc)
               for (_, ta), (_, tc) in zip(a.named_arrays(),
                                           c.named_arrays()))
    bound = 1.0 / math.sqrt(config.n_static)
    assert np.abs(a.static_weight).max() <= bound


def test_attention_head_is_structurally_absent_when_disabled():
    on = ModelParams(small_config())
    off = ModelParams(small_config(
        flags=AblationFlags(True, True, True, False)))
    assert on.out_diff is not None
    assert off.out_diff is None
    names_off = [n for n, _ in off.named_arrays()]
    assert "out_diff" not in names_off


def test_branch_sets_follow_sharing_flag():
    # (sets, branches, out rows, in rows, width): one set per feature, or
    # one set for all of them when shared.
    per_feature = ModelParams(small_config())
    assert per_feature.branch_kernels.shape == (2, 3, 2, 2, 2)
    assert per_feature.branch_bias.shape == (2, 3, 2)
    shared = ModelParams(small_config(shared_branches=True))
    assert shared.branch_kernels.shape == (1, 3, 2, 2, 2)
    assert shared.branch_bias.shape == (1, 3, 2)
    no_corr = ModelParams(small_config(
        flags=AblationFlags(True, True, False, False)))
    assert no_corr.branch_kernels is None and no_corr.branch_bias is None
    assert not any(name.startswith("branch_")
                   for name, _ in no_corr.named_arrays())


def test_params_of_a_copied_buffer_are_independent():
    config = small_config()
    params = ModelParams.initialized(config, np.random.default_rng(1))
    clone = ModelParams(config)
    clone.flat[...] = params.flat
    clone.static_weight[0, 0] += 10.0
    assert params.static_weight[0, 0] != clone.static_weight[0, 0]


def test_prepare_shape_checks():
    config = small_config()
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError, match="model expects 2 dynamic "
                       "features, data has 3$"):
        prepare_arrays(rng.normal(size=(1, 8, 3)), np.zeros((1, 3)), [0],
                       config)
    with pytest.raises(ConfigError, match="model expects 3 static "
                       "features, data has 4$"):
        prepare(cohort_of(rng.normal(size=(1, 8, 2)), np.zeros((1, 4))),
                unit_stats(2, 3), config)
    with pytest.raises(ConfigError, match="labels"):
        prepare_arrays(rng.normal(size=(1, 8, 2)), np.zeros((1, 3)), [2],
                       config)
    with pytest.raises(NumericError) as error:
        prepare_arrays(rng.normal(size=(2, 8, 2)),
                       np.array([[0.0, 1.0, 1.0], [0.0, np.nan, np.inf]]),
                       [0, 0], config)
    assert str(error.value) == \
        "prepare: non-finite static feature 's1' of patient 'p1'"


# -- full forward pass ------------------------------------------------------

def numpy_correlation_maps(visits, params, config):
    """Per-patient loop re-computation of the correlation stage.

    Returns the concatenated branch maps of each feature, straight from the
    definition out[o, q] = tanh(b[o] + sum_i sum_tap k_o[i, tap] *
    line_i[q + dilation * tap]).
    """
    maps = []
    for j in range(config.n_dynamic):
        lines = oracle_lines(visits[:, j], config.order)
        blocks = []
        kernel_set = 0 if config.shared_branches else j
        for kernels, bias, dilation in zip(params.branch_kernels[kernel_set],
                                           params.branch_bias[kernel_set],
                                           config.dilations):
            block = oracle_conv(np.array(lines), kernels[0], kernels[1],
                                bias, dilation)
            blocks.append([[math.tanh(x) for x in row] for row in block])
        maps.append(np.hstack(blocks))
    return maps


def numpy_forward_plain(visits, static, params, config):
    """Independent recomputation of one patient's probabilities."""
    flags = config.flags
    if flags.use_correlation:
        maps = numpy_correlation_maps(visits, params, config)
    else:
        maps = []
        for j in range(config.n_dynamic):
            trend, variation = oracle_lines(visits[:, j], config.order)
            if flags.use_trend and flags.use_variation:
                maps.append(np.vstack([trend, variation]))
            elif flags.use_trend:
                maps.append(trend[None, :])
            else:
                maps.append(variation[None, :])
    fused = np.hstack(maps)
    h_dy = np.tanh(params.mix_weight @ fused + params.mix_bias)
    h_st = np.tanh(params.static_weight @ static + params.static_bias)
    logits = (params.out_static @ h_st
              + params.out_dynamic @ h_dy + params.out_bias)
    if flags.use_diff_attention:
        pooled = np.zeros(config.coeff_len - 1)
        for j in range(config.n_dynamic):
            line = oracle_lines(visits[:, j], config.order)[1]
            delta = np.diff(line)
            scores = delta * delta / math.sqrt(line.shape[0])
            e = np.exp(scores - scores.max())
            pooled += (e / e.sum()) * delta
        pooled /= config.n_dynamic
        logits = logits + params.out_diff @ pooled
    e = np.exp(logits - logits.max())
    return e / e.sum()


@pytest.mark.parametrize("preset", sorted(ABLATION_PRESETS))
def test_forward_matches_numpy_oracle(preset):
    flags = ABLATION_PRESETS[preset]
    for shared in ((False, True) if flags.use_correlation else (False,)):
        config = small_config(flags=flags, shared_branches=shared)
        rng = np.random.default_rng(11)
        params = ModelParams.initialized(config, rng)
        # Initialization zeroes every bias: draw them, so the oracle sees
        # each bias term.
        for bias in (params.static_bias, params.branch_bias,
                     params.mix_bias, params.out_bias):
            if bias is not None:
                bias[...] = rng.uniform(-1.0, 1.0, size=bias.shape)
        batch, visits, static = make_batch(config, rng, n=4)
        probs = forward(batch, params).probs
        for i in range(4):
            expected = numpy_forward_plain(visits[i], static[i], params,
                                           config)
            np.testing.assert_allclose(probs[i], expected, atol=1e-12)


@pytest.mark.parametrize("preset", sorted(ABLATION_PRESETS))
def test_forward_is_a_probability_simplex(preset):
    config = small_config(flags=ABLATION_PRESETS[preset], n_classes=3)
    rng = np.random.default_rng(21)
    params = ModelParams.initialized(config, rng)
    batch, _, _ = make_batch(config, rng, n=5)
    probs = forward(batch, params).probs
    assert probs.shape == (5, 3)
    assert np.all(np.isfinite(probs))
    assert probs.min() >= 0.0
    assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(preset=st.sampled_from(sorted(ABLATION_PRESETS)),
       order=st.sampled_from([2, 6, 14, 20]),
       t_max=st.integers(16, 40),
       n=st.integers(1, 300),
       seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_forward_row_does_not_depend_on_the_rest_of_the_batch(
        preset, order, t_max, n, seed, data):
    config = small_config(flags=ABLATION_PRESETS[preset], order=order,
                          t_max=t_max, n_dynamic=3, n_static=4, n_classes=3)
    rng = np.random.default_rng(seed)
    params = ModelParams.initialized(config, rng)
    batch, _, _ = make_batch(config, rng, n=n)
    k = data.draw(st.integers(0, n - 1))
    probs = forward(batch, params).probs
    np.testing.assert_array_equal(
        forward(batch.take(slice(k, k + 1)), params).probs[0], probs[k])


def test_forward_rejects_a_batch_prepared_for_another_config():
    config = small_config()
    other = small_config(flags=ABLATION_PRESETS["A6"])
    batch, _, _ = make_batch(other, np.random.default_rng(0))
    with pytest.raises(ConfigError, match="different model config"):
        forward(batch, ModelParams(config))


def test_trend_only_sees_level_but_variation_only_does_not():
    """Patients whose histories are flat lines at different levels.

    The variation line of a flat series is zero (up to filter roundoff), so
    a variation-only model collapses them to one prediction; the trend line
    keeps the level, so a trend-only model separates them.
    """
    static = np.zeros((1, 3))

    def probs_for(config, level):
        params = ModelParams.initialized(config, np.random.default_rng(9))
        visits = np.full((1, config.t_max, config.n_dynamic), level)
        batch = prepare_arrays(visits, static, [0], config)
        return forward(batch, params).probs[0]

    trend_cfg = small_config(flags=ABLATION_PRESETS["A1"])
    var_cfg = small_config(flags=ABLATION_PRESETS["A2"])

    p_var_a = probs_for(var_cfg, 0.4)
    p_var_b = probs_for(var_cfg, -0.8)
    np.testing.assert_allclose(p_var_a, p_var_b, atol=1e-9)

    p_tr_a = probs_for(trend_cfg, 0.4)
    p_tr_b = probs_for(trend_cfg, -0.8)
    assert np.abs(p_tr_a - p_tr_b).max() > 1e-3


def test_forward_gradient_reaches_every_parameter():
    config = small_config()
    rng = np.random.default_rng(33)
    params = ModelParams.initialized(config, rng)
    batch, _, _ = make_batch(config, rng)
    grads = dict(
        backward(batch, params, forward(batch, params)).named_arrays())
    assert set(grads) == {name for name, _ in params.named_arrays()}
    for name, value in params.named_arrays():
        g = grads[name]
        assert np.shape(g) == value.shape
        assert np.all(np.isfinite(g)), name


@pytest.mark.parametrize("preset", ["A6", "A7"])
def test_shared_branch_gradients_match_finite_differences(preset):
    """One kernel set serves every feature, so its gradient is the sum of
    the per-feature contributions."""
    config = ModelConfig(t_max=10, n_dynamic=3, n_static=2, n_classes=3,
                         order=4, flags=ABLATION_PRESETS[preset],
                         shared_branches=True)
    rng = np.random.default_rng(501)
    params = ModelParams.initialized(config, rng)
    batch, _, _ = make_batch(config, rng, n=3, labels=np.array([0, 2, 1]))
    def loss_fn():
        return cross_entropy(forward(batch, params).probs, batch.labels)

    grads = dict(
        backward(batch, params, forward(batch, params)).named_arrays())
    names = [name for name, _ in params.named_arrays()
             if name.startswith("branch_")]
    assert names == ["branch_kernels", "branch_bias"]
    arrays = dict(params.named_arrays())
    assert arrays["branch_kernels"].shape[0] == 1
    err = finite_diff_check(
        loss_fn, [arrays[n] for n in names], [grads[n] for n in names],
        samples=100, step=1e-5, rng=np.random.default_rng(7))
    assert err <= 1e-4


# -- checkpoints ------------------------------------------------------------

def random_stats(config, rng):
    """Stats of the config's widths, with positive stds."""
    d, s = config.n_dynamic, config.n_static
    return FeatureStats(rng.normal(size=d), rng.uniform(0.1, 3.0, size=d),
                        rng.normal(size=s), rng.uniform(0.1, 3.0, size=s))


def roundtrip(tmp_path, config, stats=None):
    """Save and load a model of ``config``, with random stats when none are
    given."""
    rng = np.random.default_rng(5)
    params = ModelParams.initialized(config, rng)
    if stats is None:
        stats = random_stats(config, rng)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, stats)
    return params, load_checkpoint(path), path


def test_checkpoint_roundtrip_bitwise(tmp_path):
    config = small_config()
    stats = random_stats(config, np.random.default_rng(9))
    params, bundle, _ = roundtrip(tmp_path, config, stats)
    assert bundle.params.config == config
    for (name, src), (_, dst) in zip(params.named_arrays(),
                                     bundle.params.named_arrays()):
        np.testing.assert_array_equal(src, dst, err_msg=name)
    for name in ("dynamic_mean", "dynamic_std", "static_mean", "static_std"):
        loaded = getattr(bundle.stats, name)
        assert loaded.dtype == np.float64
        assert loaded.tobytes() == getattr(stats, name).tobytes(), name


def test_checkpoint_preserves_flags_and_stats(tmp_path):
    config = small_config(flags=ABLATION_PRESETS["A3"], order=6,
                          dilations=(0, 2, 3))
    stats = FeatureStats(
        dynamic_mean=np.array([0.5, -1.0]),
        dynamic_std=np.array([1.5, 2.0]),
        static_mean=np.array([0.0, 1.0, 2.0]),
        static_std=np.array([1.0, 1.0, 3.0]),
    )
    _, bundle, _ = roundtrip(tmp_path, config, stats=stats)
    assert bundle.params.config.flags == ABLATION_PRESETS["A3"]
    assert bundle.params.config.order == 6
    assert bundle.params.config.dilations == (0, 2, 3)
    np.testing.assert_array_equal(bundle.stats.dynamic_mean,
                                  stats.dynamic_mean)
    np.testing.assert_array_equal(bundle.stats.static_std, stats.static_std)


def test_checkpoint_rejects_foreign_and_damaged_files(tmp_path):
    config = small_config()
    _, _, path = roundtrip(tmp_path, config)

    alien = tmp_path / "alien.bin"
    alien.write_bytes(b"PNGXXXXX" + b"\x00" * 64)
    with pytest.raises(ConfigError, match="unrecognized checkpoint"):
        load_checkpoint(alien)

    blob = path.read_bytes()
    clipped = tmp_path / "clipped.ckpt"
    clipped.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(ConfigError, match="truncated"):
        load_checkpoint(clipped)

    padded = tmp_path / "padded.ckpt"
    padded.write_bytes(blob + b"\x00" * 8)
    with pytest.raises(ConfigError, match="trailing"):
        load_checkpoint(padded)

    flipped = tmp_path / "flipped.ckpt"
    flipped.write_bytes(blob[:-20] + bytes([blob[-20] ^ 0x10]) + blob[-19:])
    with pytest.raises(ConfigError, match="checksum mismatch"):
        load_checkpoint(flipped)

    missing = tmp_path / "nope.ckpt"
    with pytest.raises(ConfigError, match="cannot read"):
        load_checkpoint(missing)

    # stats whose shapes do not fit the model are refused when written
    good = dict(dynamic_mean=np.zeros(2), dynamic_std=np.ones(2),
                static_mean=np.zeros(3), static_std=np.ones(3))
    for field, bad in (("dynamic_mean", np.zeros(5)),
                       ("static_std", np.ones((3, 1)))):
        stats = FeatureStats(**{**good, field: bad})
        misshaped = tmp_path / f"stats_{field}.ckpt"
        with pytest.raises(ConfigError, match=f"stats {field} has shape"):
            save_checkpoint(misshaped, ModelParams(config), stats=stats)
        assert not misshaped.exists()

    # well-formed files whose stats are not usable for z-scoring
    for field, bad, message in (
            ("dynamic_std", np.array([1.0, np.nan]), "non-finite"),
            ("static_std", np.array([1.0, -1.0, 1.0]), "negative")):
        stats = FeatureStats(**{**good, field: bad})
        damaged = tmp_path / f"stats_{field}.ckpt"
        save_checkpoint(damaged, ModelParams(config), stats=stats)
        with pytest.raises(ConfigError,
                           match=f"corrupt checkpoint .*{message}"):
            load_checkpoint(damaged)


def test_non_finite_parameters_are_named(tmp_path):
    config = small_config()
    params = ModelParams.initialized(config, np.random.default_rng(5))
    params.out_dynamic[1, 2] = np.inf
    path = tmp_path / "inf.ckpt"
    save_checkpoint(path, params, random_stats(config,
                                               np.random.default_rng(6)))
    with pytest.raises(NumericError,
                       match=r"non-finite values in out_dynamic\[1, 2\]$"):
        load_checkpoint(path)


def test_unknown_flag_bits_are_a_config_error(tmp_path):
    _, _, path = roundtrip(tmp_path, small_config())
    blob = bytearray(path.read_bytes())
    assert blob[48] == 15  # A7, unshared
    for high in (0x20, 0x40, 0x80, 0xe0):
        damaged = bytearray(blob)
        damaged[48] |= high
        path.write_bytes(bytes(damaged))
        with pytest.raises(ConfigError,
                           match=f"unknown flag bits {15 | high:#04x}"):
            load_checkpoint(path)


@pytest.mark.parametrize("name", sorted(ABLATION_PRESETS))
@pytest.mark.parametrize("shared", [False, True])
def test_checkpoint_length_is_fixed_by_the_config(tmp_path, name, shared):
    config = small_config(flags=ABLATION_PRESETS[name], order=3, t_max=11,
                          dilations=(0, 2, 1), kernel_width=3,
                          shared_branches=shared)
    params, bundle, path = roundtrip(tmp_path, config)
    assert path.stat().st_size == \
        53 + 8 * (2 * (2 + 3) + parameter_count(config))
    np.testing.assert_array_equal(bundle.params.flat, params.flat)


@pytest.mark.parametrize("name", sorted(ABLATION_PRESETS))
@pytest.mark.parametrize("shared", [False, True])
def test_parameter_count_matches_the_allocated_arrays(tmp_path, name,
                                                      shared):
    config = small_config(flags=ABLATION_PRESETS[name], order=3, t_max=11,
                          dilations=(0, 2, 1), kernel_width=3,
                          shared_branches=shared)
    params = ModelParams(config)
    assert parameter_count(config) == params.flat.size
    # The version-4 value order: every stage that is on, in this order.
    off = set()
    if not config.flags.use_correlation:
        off |= {"branch_kernels", "branch_bias"}
    if not config.flags.use_diff_attention:
        off.add("out_diff")
    names = [entry for entry, _ in params.named_arrays()]
    assert names == [entry for entry, _, _ in _layout(config)]
    assert names == [
        entry for entry in ("static_weight", "static_bias", "branch_kernels",
                            "branch_bias", "mix_weight", "mix_bias",
                            "out_static", "out_dynamic", "out_diff",
                            "out_bias")
        if entry not in off]
    arrays = [a for _, a in params.named_arrays()]
    assert all(np.shares_memory(a, params.flat) for a in arrays)
    # With the buffer holding its own indices, the named arrays read back
    # 0, 1, 2, ... in declaration order: they tile it with no gap and no
    # overlap.  A checkpoint stores them so after its stats.
    params.flat[...] = np.arange(params.flat.size)
    np.testing.assert_array_equal(
        np.concatenate([a.ravel() for a in arrays]),
        np.arange(params.flat.size))
    path = tmp_path / "arange.ckpt"
    save_checkpoint(path, params,
                    random_stats(config, np.random.default_rng(2)))
    n_stats = 2 * (config.n_dynamic + config.n_static)
    np.testing.assert_array_equal(
        np.frombuffer(path.read_bytes()[49 + 8 * n_stats:-4], "<f8"),
        np.arange(params.flat.size))


def _fuzz_checkpoint():
    """A checkpoint with every stage, and its structural bytes.

    The structural bytes are the 49-byte header (magic, version, config and
    flags) and the trailing CRC-32; between them is float64 data.
    """
    config = small_config(flags=ABLATION_PRESETS["A7"], order=2, t_max=6)
    stats = FeatureStats(np.zeros(2), np.ones(2), np.zeros(3), np.ones(3))
    params = ModelParams.initialized(config, np.random.default_rng(2))
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/fuzz.ckpt"
        save_checkpoint(path, params, stats)
        with open(path, "rb") as fh:
            blob = fh.read()
    assert len(blob) == 53 + 8 * (10 + params.flat.size)
    return blob, [*range(49), *range(len(blob) - 4, len(blob))]


_FUZZ_BLOB, _FUZZ_STRUCTURAL = _fuzz_checkpoint()


def _load_bytes(blob, tmp_dir):
    path = tmp_dir / "damaged.ckpt"
    path.write_bytes(blob)
    return load_checkpoint(path)


def test_every_truncation_is_a_config_error(tmp_path):
    for length in range(len(_FUZZ_BLOB)):
        with pytest.raises(ConfigError):
            _load_bytes(_FUZZ_BLOB[:length], tmp_path)


def test_every_appended_byte_count_is_a_config_error(tmp_path):
    for extra in range(1, 17):
        with pytest.raises(ConfigError, match=f"{extra} trailing bytes"):
            _load_bytes(_FUZZ_BLOB + b"\x00" * extra, tmp_path)


def test_bit_flips_in_the_structure_load_or_raise_named_errors(tmp_path):
    for position in _FUZZ_STRUCTURAL:
        for bit in range(8):
            damaged = bytearray(_FUZZ_BLOB)
            damaged[position] ^= 1 << bit
            try:
                _load_bytes(bytes(damaged), tmp_path)
            except (ConfigError, NumericError):
                pass


def test_every_single_bit_flip_is_a_named_error(tmp_path):
    for position in range(len(_FUZZ_BLOB)):
        for bit in range(8):
            damaged = bytearray(_FUZZ_BLOB)
            damaged[position] ^= 1 << bit
            with pytest.raises((ConfigError, NumericError)):
                _load_bytes(bytes(damaged), tmp_path)


def test_a_huge_damaged_tmax_is_refused_before_allocation(tmp_path):
    damaged = bytearray(_FUZZ_BLOB)
    damaged[15] ^= 0x80  # the high byte of t_max
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="truncated or damaged config"):
            _load_bytes(bytes(damaged), tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
