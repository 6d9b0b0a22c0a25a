"""Acceptance gate: ten checks covering the numerical core, the gradients,
the learning behaviour and the command line surface.

Each check prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and enforces both its tolerance and its runtime budget.  The learning checks
(7 and 8) train real models and together take a few minutes; everything else
is seconds.
"""

import math
import subprocess
import sys
import time

import numpy as np

from gradcheck import finite_diff_check
from trendvar.data import SynthSpec, compute_stats, normalize, synth_generate
from trendvar.diff_attention import diff_attention
from trendvar.dilated import conv_branch
from trendvar.metrics import auprc_binary, auroc_binary, macro_one_vs_rest
from trendvar.model import (
    ABLATION_PRESETS,
    ModelConfig,
    ModelParams,
    backward,
    cross_entropy,
    forward,
    one_hot,
    prepare,
)
from trendvar.training import (
    TrainConfig,
    predict_probs,
    prepare_cohort,
    train,
)
from trendvar.wavelets import (
    MAX_ORDER,
    MIN_ORDER,
    decompose,
    reconstruct,
    symlet_filters,
)


def report(num, label, ok, detail):
    line = f"[criterion {num:2d}] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


# -- 1: filter bank invariants ------------------------------------------------

def test_criterion_01_filter_bank_invariants():
    start = time.perf_counter()
    worst_sum = 0.0
    worst_energy = 0.0
    worst_moment = 0.0
    qmf_exact = True
    for order in range(MIN_ORDER, MAX_ORDER + 1):
        pair = symlet_filters(order)
        h, g = pair.lowpass, pair.highpass
        flen = h.size
        worst_sum = max(worst_sum, abs(h.sum() - math.sqrt(2.0)))
        worst_energy = max(worst_energy, abs(np.dot(h, h) - 1.0))
        mirror = np.array([(-1.0) ** n * h[flen - 1 - n] for n in range(flen)])
        if not np.array_equal(g, mirror):
            qmf_exact = False
        n = np.arange(flen, dtype=np.float64)
        for p in range(order):
            moment = abs(np.dot(n ** p, g))
            worst_moment = max(worst_moment, moment / (1e-7 * flen ** p))
    elapsed = time.perf_counter() - start
    ok = (worst_sum <= 1e-12 and worst_energy <= 1e-12 and qmf_exact
          and worst_moment <= 1.0 and elapsed < 1.0)
    report(1, "filter bank invariants K=2..20", ok,
           f"sum err {worst_sum:.2e}, energy err {worst_energy:.2e}, "
           f"QMF exact {qmf_exact}, moment ratio {worst_moment:.2e}, "
           f"{elapsed:.2f} s")
    assert worst_sum <= 1e-12
    assert worst_energy <= 1e-12
    assert qmf_exact
    assert worst_moment <= 1.0
    assert elapsed < 1.0


# -- 2: perfect reconstruction --------------------------------------------------

def test_criterion_02_perfect_reconstruction():
    start = time.perf_counter()
    worst = 0.0
    for order in range(MIN_ORDER, MAX_ORDER + 1):
        for length in (1, 5, 10, 50):
            for seed in range(5):
                rng = np.random.default_rng(1000 * order + 10 * length + seed)
                x = rng.normal(size=length) * 3.0
                pair = decompose(x, order)
                back = reconstruct(pair, order, length)
                worst = max(worst, np.abs(back - x).max())
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    report(2, "wavelet round trip K=2..20, t in {1,5,10,50}", ok,
           f"max abs err {worst:.2e}, {elapsed:.2f} s")
    assert worst <= 1e-10
    assert elapsed < 5.0


# -- 3: dilated convolution oracle ----------------------------------------------

def conv_oracle(stacked, kernel_top, kernel_bottom, bias, dilation):
    width = kernel_top.shape[1]
    m = stacked.shape[1]
    out_len = m - dilation * (width - 1)
    out = np.empty((2, out_len))
    for p, kernel in enumerate((kernel_top, kernel_bottom)):
        for j in range(out_len):
            total = bias[p]
            for k in range(2):
                for tap in range(width):
                    total += stacked[k, j + dilation * tap] * kernel[k, tap]
            out[p, j] = total
    return out


def test_criterion_03_convolution_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(50):
        width = int(rng.integers(1, 4))
        dilation = int(rng.choice((0, 1, 3)))
        m_low = dilation * (width - 1) + 1
        m = int(rng.integers(m_low, 41))
        stacked = rng.normal(size=(2, m))
        kernel_top = rng.normal(size=(2, width))
        kernel_bottom = rng.normal(size=(2, width))
        bias = rng.normal(size=2)
        out = conv_branch(stacked, np.stack([kernel_top, kernel_bottom]),
                          bias, dilation, activate=False)
        expected = conv_oracle(stacked, kernel_top, kernel_bottom, bias,
                               dilation)
        worst = max(worst, np.abs(out - expected).max())
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report(3, "dilated convolution vs quadruple-loop oracle", ok,
           f"max abs err {worst:.2e} over 50 instances, {elapsed:.2f} s")
    assert worst <= 1e-12
    assert elapsed < 1.0


# -- 4: metric oracles -----------------------------------------------------------

def auroc_oracle(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (pos.size * neg.size)


def auprc_oracle(scores, labels):
    n_pos = int(labels.sum())
    area = 0.0
    prev_recall = 0.0
    for threshold in sorted(set(scores.tolist()), reverse=True):
        mask = scores >= threshold
        tp = int(labels[mask].sum())
        recall = tp / n_pos
        area += (recall - prev_recall) * (tp / int(mask.sum()))
        prev_recall = recall
    return area


def test_criterion_04_metric_oracles():
    start = time.perf_counter()
    worked = auroc_binary(np.array([0.9, 0.8, 0.4, 0.3]),
                          np.array([1, 0, 1, 0]))
    rng = np.random.default_rng(4242)
    worst = 0.0
    for case in range(200):
        n = int(rng.integers(2, 13))
        labels = np.zeros(n, dtype=np.int64)
        labels[: int(rng.integers(1, n))] = 1
        rng.shuffle(labels)
        scores = rng.normal(size=n)
        if case % 2 == 0:
            scores = np.round(scores, 1)  # force ties
        worst = max(worst, abs(auroc_binary(scores, labels)
                               - auroc_oracle(scores, labels)))
        worst = max(worst, abs(auprc_binary(scores, labels)
                               - auprc_oracle(scores, labels)))
    elapsed = time.perf_counter() - start
    ok = worked == 0.75 and worst <= 1e-12 and elapsed < 2.0
    report(4, "ranking metrics vs enumeration oracles", ok,
           f"worked example {worked}, max err {worst:.2e} over 200 "
           f"instances, {elapsed:.2f} s")
    assert worked == 0.75
    assert worst <= 1e-12
    assert elapsed < 2.0


# -- 5: gradients ------------------------------------------------------------------

def test_criterion_05_gradient_audit_all_configs():
    start = time.perf_counter()
    results = {}
    for name in sorted(ABLATION_PRESETS):
        config = ModelConfig(t_max=10, n_dynamic=2, n_static=2, n_classes=3,
                             order=4, flags=ABLATION_PRESETS[name])
        rng = np.random.default_rng(500)
        params = ModelParams.initialized(config, rng)
        drawn = [(rng.normal(size=(10, 2)), rng.normal(size=2))
                 for _ in range(2)]
        batch = prepare(np.stack([v for v, _ in drawn]),
                        np.stack([s for _, s in drawn]), [0, 2], config)
        onehots = one_hot(batch.labels, 3)

        def loss_fn():
            return cross_entropy(forward(batch, params).probs, onehots)

        grads = backward(batch, params, forward(batch, params))
        results[name] = finite_diff_check(
            loss_fn, params.arrays(), grads.arrays(), samples=100,
            step=1e-5, rng=np.random.default_rng(7))
    elapsed = time.perf_counter() - start
    worst = max(results.values())
    ok = worst <= 1e-4 and elapsed < 30.0
    detail = ", ".join(f"{k} {v:.1e}" for k, v in results.items())
    report(5, "finite-difference gradient audit A1..A7", ok,
           f"{detail}, {elapsed:.1f} s")
    assert worst <= 1e-4, results
    assert elapsed < 30.0


# -- 6: attention invariants ---------------------------------------------------------

def test_criterion_06_attention_invariants():
    start = time.perf_counter()
    rng = np.random.default_rng(66)
    worst_sum = 0.0
    worst_shift = 0.0
    all_nonneg = True
    negation_exact = True
    for case in range(1000):
        length = int(rng.integers(2, 17))
        scale = 10.0 ** rng.uniform(-2, 2)
        values = rng.normal(size=length) * scale
        out = diff_attention(values)
        weights = out.weights
        worst_sum = max(worst_sum, abs(weights.sum() - 1.0))
        all_nonneg = all_nonneg and weights.min() >= 0.0
        flipped = diff_attention(-values)
        negation_exact = negation_exact and np.array_equal(
            weights, flipped.weights)
        shift = float(rng.uniform(-3, 3))
        shifted = diff_attention(values + shift)
        worst_shift = max(
            worst_shift,
            np.abs(shifted.weighted_diff
                   - out.weighted_diff).max() / max(scale, 1.0))
    elapsed = time.perf_counter() - start
    ok = (worst_sum <= 1e-12 and all_nonneg and negation_exact
          and worst_shift <= 1e-9 and elapsed < 1.0)
    report(6, "difference attention invariants, 1000 inputs", ok,
           f"sum err {worst_sum:.1e}, nonneg {all_nonneg}, negation exact "
           f"{negation_exact}, shift err {worst_shift:.1e}, {elapsed:.2f} s")
    assert worst_sum <= 1e-12
    assert all_nonneg
    assert negation_exact
    assert worst_shift <= 1e-9
    assert elapsed < 1.0


# -- 7: learning check ------------------------------------------------------------------

def learning_trial(seed):
    """800/200 split on a separable 3-class cohort, full config, K=6."""
    spec = SynthSpec(
        n_patients=1000, n_classes=3,
        slopes=(-1.0, 0.0, 1.0), amplitudes=(0.3, 0.9, 0.6),
        corr_signs=(1.0, -1.0, 1.0), n_dynamic=5, n_static=3,
        mean_visits=10.0, noise_scale=0.2, seed=seed,
    )
    cohort = synth_generate(spec)
    perm = np.random.default_rng(seed).permutation(spec.n_patients)
    train_idx, test_idx = perm[:800], perm[800:]
    config = ModelConfig(t_max=10, n_dynamic=5, n_static=3, n_classes=3,
                         order=6)
    stats = compute_stats(cohort.take(train_idx))
    params = ModelParams.initialized(config, np.random.default_rng(seed + 1))
    train(prepare_cohort(normalize(cohort.take(train_idx), stats), config),
          params,
          TrainConfig(learning_rate=1e-4, batch_size=64, epochs=50,
                      seed=seed))
    probs = predict_probs(cohort.take(test_idx), stats, params)
    labels = cohort.labels[test_idx]
    return (macro_one_vs_rest(probs, labels, "auroc").value,
            macro_one_vs_rest(probs, labels, "auprc").value)


def test_criterion_07_learning_on_separable_cohort():
    start = time.perf_counter()
    scores = [learning_trial(seed) for seed in (0, 1, 2)]
    mean_auroc = float(np.mean([s[0] for s in scores]))
    mean_auprc = float(np.mean([s[1] for s in scores]))
    elapsed = time.perf_counter() - start
    ok = mean_auroc >= 0.95 and mean_auprc >= 0.90 and elapsed < 300.0
    report(7, "held-out learning, 3 seeds", ok,
           f"mean macro AUROC {mean_auroc:.4f} (>= 0.95), "
           f"mean macro AUPRC {mean_auprc:.4f} (>= 0.90), {elapsed:.0f} s")
    assert mean_auroc >= 0.95, scores
    assert mean_auprc >= 0.90, scores
    assert elapsed < 300.0


# -- 8: ablation ordering ------------------------------------------------------------------

def ablation_trial(seed, preset):
    """Cohort whose only class signal is the trend/variation coupling sign."""
    spec = SynthSpec(
        n_patients=400, n_classes=2, slopes=(1.0, 1.0),
        amplitudes=(0.8, 0.8), corr_signs=(1.0, -1.0),
        n_dynamic=3, n_static=2, mean_visits=12.0, noise_scale=0.1,
        randomize_trend_direction=True, static_class_weight=0.0, seed=seed,
    )
    cohort = synth_generate(spec)
    perm = np.random.default_rng(seed + 50).permutation(spec.n_patients)
    train_idx, test_idx = perm[:320], perm[320:]
    config = ModelConfig(t_max=12, n_dynamic=3, n_static=2, n_classes=2,
                         order=6, flags=ABLATION_PRESETS[preset])
    stats = compute_stats(cohort.take(train_idx))
    params = ModelParams.initialized(config, np.random.default_rng(seed + 1))
    train(prepare_cohort(normalize(cohort.take(train_idx), stats), config),
          params,
          TrainConfig(learning_rate=1e-3, batch_size=32, epochs=40,
                      seed=seed))
    probs = predict_probs(cohort.take(test_idx), stats, params)
    labels = cohort.labels[test_idx]
    return macro_one_vs_rest(probs, labels, "auroc").value


def test_criterion_08_correlation_stage_ablation_ordering():
    start = time.perf_counter()
    seeds = (0, 1, 2, 3, 4)
    means = {}
    for preset in ("A6", "A1", "A2"):
        means[preset] = float(np.mean([ablation_trial(s, preset)
                                       for s in seeds]))
    gap = means["A6"] - max(means["A1"], means["A2"])
    elapsed = time.perf_counter() - start
    ok = (means["A6"] >= 0.85 and means["A1"] <= 0.65
          and means["A2"] <= 0.65 and gap >= 0.15 and elapsed < 600.0)
    report(8, "coupling-only cohort ablation ordering, 5 seeds", ok,
           f"A6 {means['A6']:.3f} (>= 0.85), A1 {means['A1']:.3f} and "
           f"A2 {means['A2']:.3f} (<= 0.65), gap {gap:.3f} (>= 0.15), "
           f"{elapsed:.0f} s")
    assert means["A6"] >= 0.85, means
    assert means["A1"] <= 0.65, means
    assert means["A2"] <= 0.65, means
    assert gap >= 0.15, means
    assert elapsed < 600.0


# -- 9: CLI determinism -------------------------------------------------------------------

def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "trendvar.cli", *[str(a) for a in args]],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_criterion_09_cli_runs_are_byte_identical(tmp_path):
    start = time.perf_counter()
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_cli("train", "--synth", "default", "--seed", "7", "--out", out_a)
    run_cli("train", "--synth", "default", "--seed", "7", "--out", out_b)
    compared = []
    identical = True
    names = ["metrics.csv", "summary.txt"]
    names += [f"epochs_fold{k}.csv" for k in range(10)]
    names += [f"fold{k}.ckpt" for k in range(10)]
    for name in names:
        same = (out_a / name).read_bytes() == (out_b / name).read_bytes()
        compared.append(name)
        identical = identical and same
    elapsed = time.perf_counter() - start
    ok = identical and elapsed < 300.0
    report(9, "two identical CLI training runs", ok,
           f"{len(compared)} files byte-compared, identical {identical}, "
           f"{elapsed:.0f} s")
    assert identical
    assert elapsed < 300.0


# -- 10: symlet sweep plumbing ----------------------------------------------------------------

def test_criterion_10_sweep_matches_standalone_runs(tmp_path):
    start = time.perf_counter()
    data = tmp_path / "data"
    run_cli("synth", "--patients", "40", "--classes", "2",
            "--slopes", "1,-1", "--amplitudes", "0.4,0.4",
            "--corr-signs", "1,1", "--features", "2",
            "--static-features", "2", "--mean-visits", "6",
            "--noise", "0.1", "--seed", "5", "--out", data)
    shared = ["--visits", data / "visits.csv", "--static", data / "static.csv",
              "--labels", data / "labels.csv", "--tmax", "8",
              "--folds", "2", "--epochs", "1", "--batch", "8",
              "--lr", "0.001", "--seed", "9"]
    sweep_out = tmp_path / "sweep"
    run_cli("sweep-symlets", *shared, "--out", sweep_out)
    lines = (sweep_out / "sweep.csv").read_text().strip().splitlines()
    rows = {}
    for line in lines[1:]:
        order, auroc, auprc = line.split(",")
        rows[int(order)] = (float(auroc), float(auprc))
    orders_ok = sorted(rows) == list(range(2, 21))
    worst = 0.0
    for order in range(2, 21):
        single = tmp_path / f"k{order}"
        run_cli("train", *shared, "--symlet", str(order), "--out", single)
        mean_line = [line for line in
                     (single / "metrics.csv").read_text().splitlines()
                     if line.startswith("mean,macro,")][0]
        _, _, auroc, auprc = mean_line.split(",")
        worst = max(worst,
                    abs(float(auroc) - rows[order][0]),
                    abs(float(auprc) - rows[order][1]))
    elapsed = time.perf_counter() - start
    ok = orders_ok and worst <= 1e-12 and elapsed < 1800.0
    report(10, "symlet sweep vs 19 standalone runs", ok,
           f"19 rows {orders_ok}, max mismatch {worst:.2e}, {elapsed:.0f} s")
    assert orders_ok
    assert worst <= 1e-12
    assert elapsed < 1800.0
