"""Command line interface.

Subcommands: synth, train, eval, decompose, correlate, inspect-attention,
sweep-symlets.  Every run resolves its effective configuration from
defaults, an optional ``--settings`` file (``key = value`` lines) and
explicit flags, in that precedence order, then echoes the result as a
manifest and writes it to ``<out>/manifest.txt`` before producing anything
else.  All floats are written with repr(), so repeated runs with the same
inputs produce byte-identical files.

Exit codes: 0 success, 1 configuration problem, 2 data problem,
3 numerical failure.
"""

# Only what every command needs is imported here.  Each handler imports the
# modules it runs itself, so ``synth`` does not load (and, without cached
# bytecode, compile) the model, training and metrics modules it never uses.
import argparse
import os
import re
import sys
import warnings
from dataclasses import replace

import numpy as np

from .data import (
    SynthSpec,
    compute_stats,
    csv_field,
    load_cohort,
    load_visit_table,
    synth_generate,
    write_cohort,
)
from .errors import ConfigError, DataError, NumericError, TrendvarError

# The most bytes one array of a run may take.  The size options (--tmax,
# --epochs and synth's sizes) and the model's parameter buffer are checked
# against an estimate of their largest array before anything is allocated:
# too large is a configuration error.
MAX_ARRAY_BYTES = 2 ** 32


def _fmt(value):
    return repr(float(value))


def _parse_int(text):
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None


def _parse_seed(text):
    seed = _parse_int(text)
    if seed < 0:
        raise ConfigError(f"expected a non-negative seed, got {seed}")
    return seed


def _parse_float(text):
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None


def _parse_bool(text):
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_dilations(text):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ConfigError(
            f"expected three comma-separated dilation rates, got {text!r}"
        )
    return tuple(_parse_int(p) for p in parts)


def _parse_float_tuple(text):
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}")
    return tuple(_parse_float(p) for p in parts)


class _Option:
    def __init__(self, flag, convert, default, help_text, is_switch=False):
        self.flag = flag
        self.dest = flag.lstrip("-").replace("-", "_")
        self.convert = convert
        self.default = default
        self.help = help_text
        self.is_switch = is_switch


def _opt(flag, convert, default, help_text):
    return _Option(flag, convert, default, help_text)


def _switch(flag, help_text):
    return _Option(flag, _parse_bool, False, help_text, is_switch=True)


_DATA_OPTS = [
    _opt("--visits", str, None, "visits.csv path"),
    _opt("--static", str, None, "static.csv path"),
    _opt("--labels", str, None, "labels.csv path"),
    _opt("--synth", str, None, "synthetic preset name instead of data paths"),
]

_MODEL_OPTS = [
    _opt("--symlet", _parse_int, 14, "symlet order K (2..20)"),
    _opt("--kernel-width", _parse_int, 2, "convolution kernel width"),
    _opt("--dilations", _parse_dilations, (0, 1, 3),
         "three branch dilation rates, e.g. 0,1,3"),
    _opt("--tmax", _parse_int, 0,
         "visits per patient after padding (0 = longest history)"),
    _opt("--config", str, "A7", "ablation config A1..A7"),
    _switch("--shared-branches", "share convolution kernels across features"),
]

_TRAIN_OPTS = [
    _opt("--lr", _parse_float, 1e-4, "Adam learning rate"),
    _opt("--batch", _parse_int, 64, "batch size"),
    _opt("--epochs", _parse_int, 50, "training epochs"),
    _opt("--folds", _parse_int, 10, "cross-validation folds"),
]

_SEED_OPT = _opt("--seed", _parse_seed, 0, "master random seed")
_OUT_OPT = _opt("--out", str, None, "output directory (required)")
_SETTINGS_OPT = _opt("--settings", str, None,
                     "settings file with key = value lines")
_FEATURE_OPT = _opt("--feature", str, None,
                    "restrict to one dynamic feature by name")
_CHECKPOINT_OPT = _opt("--checkpoint", str, None, "model checkpoint path")

_SYNTH_OPTS = [
    _opt("--patients", _parse_int, 120, "number of patients"),
    _opt("--classes", _parse_int, 3, "number of classes"),
    _opt("--slopes", _parse_float_tuple, (-1.2, 0.0, 1.2),
         "per-class trend slopes"),
    _opt("--amplitudes", _parse_float_tuple, (0.4, 1.0, 0.7),
         "per-class oscillation amplitudes"),
    _opt("--corr-signs", _parse_float_tuple, (1.0, -1.0, 1.0),
         "per-class trend/variation coupling signs"),
    _opt("--features", _parse_int, 5, "dynamic features"),
    _opt("--static-features", _parse_int, 4, "static features"),
    _opt("--mean-visits", _parse_float, 12.0, "mean visits per patient"),
    _opt("--noise", _parse_float, 0.15, "observation noise std"),
    _opt("--noise-features", _parse_int, 0, "trailing pure-noise features"),
    _switch("--randomize-trend", "flip trend direction per feature at random"),
    _opt("--static-weight", _parse_float, 0.2,
         "class leaning of the binary statics"),
]

_COMMANDS = {
    "synth": _SYNTH_OPTS + [_SEED_OPT, _OUT_OPT, _SETTINGS_OPT],
    "train": _DATA_OPTS + _MODEL_OPTS + _TRAIN_OPTS
        + [_SEED_OPT, _OUT_OPT, _SETTINGS_OPT],
    "eval": _DATA_OPTS + [_CHECKPOINT_OPT, _SEED_OPT, _OUT_OPT,
                          _SETTINGS_OPT],
    "decompose": [_DATA_OPTS[0], _DATA_OPTS[3], _MODEL_OPTS[0], _FEATURE_OPT,
                  _SEED_OPT, _OUT_OPT, _SETTINGS_OPT],
    "correlate": [_DATA_OPTS[0], _DATA_OPTS[3], _MODEL_OPTS[0], _SEED_OPT,
                  _OUT_OPT, _SETTINGS_OPT],
    "inspect-attention": [_DATA_OPTS[0], _DATA_OPTS[3], _CHECKPOINT_OPT,
                          _FEATURE_OPT, _SEED_OPT, _OUT_OPT, _SETTINGS_OPT],
    # The sweep sets every symlet order itself: no --symlet.
    "sweep-symlets": _DATA_OPTS + _MODEL_OPTS[1:] + _TRAIN_OPTS
        + [_SEED_OPT, _OUT_OPT, _SETTINGS_OPT],
}

SYNTH_PRESETS = {
    # Mixed slopes, amplitudes and coupling signs: every stage has signal.
    "default": SynthSpec(
        n_patients=120, n_classes=3, slopes=(-1.2, 0.0, 1.2),
        amplitudes=(0.4, 1.0, 0.7), corr_signs=(1.0, -1.0, 1.0),
        n_dynamic=5, n_static=4, mean_visits=12.0, noise_scale=0.15,
    ),
    # Larger three-class cohort for learning checks.
    "threeclass": SynthSpec(
        n_patients=1000, n_classes=3, slopes=(-1.0, 0.0, 1.0),
        amplitudes=(0.3, 0.9, 0.6), corr_signs=(1.0, -1.0, 1.0),
        n_dynamic=3, n_static=3, mean_visits=12.0, noise_scale=0.2,
    ),
    # Class signal lives ONLY in the trend/variation coupling sign: trend
    # direction is a per-feature coin flip and statics carry nothing.
    "coupled": SynthSpec(
        n_patients=400, n_classes=2, slopes=(1.0, 1.0),
        amplitudes=(0.8, 0.8), corr_signs=(1.0, -1.0),
        n_dynamic=3, n_static=2, mean_visits=12.0, noise_scale=0.1,
        randomize_trend_direction=True, static_class_weight=0.0,
    ),
}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only plain negative numbers for values, and so
        # ``--slopes -1,0,1`` for a missing value.  Every token that starts
        # with a minus and a digit, or a minus, a point and a digit, is a
        # value here; no trendvar flag starts that way.
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise ConfigError(message)


def _build_parser():
    parser = _Parser(prog="trendvar", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for command, options in _COMMANDS.items():
        cmd_parser = sub.add_parser(command, add_help=True)
        for option in options:
            if option.is_switch:
                cmd_parser.add_argument(
                    option.flag, dest=option.dest, action="store_const",
                    const="true", default=None, help=option.help)
            else:
                cmd_parser.add_argument(
                    option.flag, dest=option.dest, type=str, default=None,
                    help=option.help)
    return parser


def _read_settings(path):
    """``key = value`` lines of a UTF-8 settings file as a dict of strings."""
    try:
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read settings file {path}: {exc}") from exc
    values = {}
    for line_no, raw in enumerate(lines, start=1):
        try:
            stripped = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise ConfigError(
                f"{path}:{line_no}: not UTF-8 text ({exc.reason})"
            ) from None
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"{path}:{line_no}: expected 'key = value', got {stripped!r}"
            )
        key, _, value = stripped.partition("=")
        key = key.strip().replace("-", "_")
        if not key:
            raise ConfigError(f"{path}:{line_no}: empty key")
        if key in values:
            raise ConfigError(f"{path}:{line_no}: duplicate key {key!r}")
        values[key] = value.strip()
    return values


def _resolve(args, options):
    """Merge defaults, settings file and explicit flags into one dict."""
    settings = {}
    if getattr(args, "settings", None):
        settings = _read_settings(args.settings)
    effective = {}
    for option in options:
        if option.dest == "settings":
            effective[option.dest] = getattr(args, "settings", None)
            continue
        raw_cli = getattr(args, option.dest, None)
        raw_file = settings.pop(option.dest, None)
        if raw_cli is not None:
            effective[option.dest] = option.convert(raw_cli)
        elif raw_file is not None:
            effective[option.dest] = option.convert(raw_file)
        else:
            effective[option.dest] = option.default
    if settings:
        unknown = ", ".join(sorted(settings))
        raise ConfigError(f"unknown settings keys: {unknown}")
    return effective


def _manifest_value(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(_manifest_value(v) for v in value)
    return str(value)


def _write_manifest(out_dir, command, effective):
    lines = [f"command = {command}"]
    for key in sorted(effective):
        if key == "settings":
            continue
        lines.append(f"{key} = {_manifest_value(effective[key])}")
    text = "\n".join(lines) + "\n"
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"cannot create output directory {out_dir}: {exc}") from None
    with open(os.path.join(out_dir, "manifest.txt"), "w") as fh:
        fh.write(text)
    sys.stdout.write(text)


def _require_out(opts):
    if not opts.get("out"):
        raise ConfigError("--out is required")
    return opts["out"]


def _preset_spec(name, seed):
    if name not in SYNTH_PRESETS:
        raise ConfigError(
            f"unknown synthetic preset {name!r}: choose from "
            f"{', '.join(sorted(SYNTH_PRESETS))}"
        )
    return replace(SYNTH_PRESETS[name], seed=seed)


def _load_cohort(opts, visits_only=False):
    """The cohort of a --synth preset or of the data paths; with
    ``visits_only``, of --visits alone (no statics, every label 0)."""
    keys = ("visits",) if visits_only else ("visits", "static", "labels")
    if opts.get("synth"):
        if any(opts.get(key) for key in keys):
            raise ConfigError(
                f"provide either --synth or "
                f"{', '.join('--' + key for key in keys)}, not both"
            )
        return synth_generate(_preset_spec(opts["synth"], opts["seed"]))
    missing = [f"--{key}" for key in keys if not opts.get(key)]
    if missing:
        raise ConfigError(
            f"missing {', '.join(missing)} (or use --synth <preset>)"
        )
    if visits_only:
        return load_visit_table(opts["visits"])
    return load_cohort(opts["visits"], opts["static"], opts["labels"])


def _check_size(options, nbytes):
    """Refuse a run whose largest array would take ``nbytes``, if that is
    over ``MAX_ARRAY_BYTES``; ``options`` names what sets its size."""
    if nbytes > MAX_ARRAY_BYTES:
        raise ConfigError(
            f"{options} would need an array of about {nbytes / 2 ** 30:.3g} "
            f"GiB, over the {MAX_ARRAY_BYTES / 2 ** 30:g} GiB limit"
        )


def _resolve_tmax(opts, cohort):
    tmax = opts["tmax"]
    if tmax == 0:
        tmax = int(np.diff(cohort.offsets).max())
    if tmax < 1:
        raise ConfigError(f"--tmax must be >= 1, got {tmax}")
    # The padded (N, tmax, c) batch, or the tmax x tmax identity the
    # wavelet analysis matrix is built from.
    _check_size(f"--tmax {tmax}",
                8 * tmax * max(tmax, len(cohort) * cohort.n_dynamic))
    return tmax


def _model_config(opts, cohort, tmax):
    from .model import ModelConfig, ablation_from_name, parameter_count

    if cohort.n_classes < 2:
        raise DataError("cohort holds a single class; nothing to discriminate")
    config = ModelConfig(
        t_max=tmax,
        n_dynamic=cohort.n_dynamic,
        n_static=cohort.n_static,
        n_classes=cohort.n_classes,
        order=opts["symlet"],
        kernel_width=opts["kernel_width"],
        dilations=opts["dilations"],
        flags=ablation_from_name(opts["config"]),
        shared_branches=opts["shared_branches"],
    )
    # The one flat parameter buffer; labels.csv sets the class count.
    _check_size(f"a model of {config.n_classes} classes with --kernel-width "
                f"{config.kernel_width} and --tmax {tmax}",
                8 * parameter_count(config))
    return config


def _train_config(opts):
    from .training import TrainConfig

    # The loss log of a fold holds one float per epoch.
    _check_size(f"--epochs {opts['epochs']}", 8 * opts["epochs"])
    return TrainConfig(
        learning_rate=opts["lr"],
        batch_size=opts["batch"],
        epochs=opts["epochs"],
        seed=opts["seed"],
    )


def _write_metric_rows(path, rows):
    with open(path, "w") as fh:
        fh.write("fold,class,auroc,auprc\n")
        for fold, cls, auroc, auprc in rows:
            a = _fmt(auroc) if auroc is not None else ""
            p = _fmt(auprc) if auprc is not None else ""
            fh.write(f"{fold},{cls},{a},{p}\n")


def _metric_rows_for(fold_label, scores):
    rows = [(fold_label, cls, *scores.per_class.get(cls, (None, None)))
            for cls in sorted([*scores.per_class, *scores.skipped])]
    rows.append((fold_label, "macro", scores.auroc, scores.auprc))
    return rows


def cmd_synth(opts):
    out = _require_out(opts)
    # The cohort's visit rows and statics.
    _check_size(
        f"--patients {opts['patients']} with --mean-visits "
        f"{opts['mean_visits']!r}, --features {opts['features']} and "
        f"--static-features {opts['static_features']}",
        8 * opts["patients"] * (opts["mean_visits"] * opts["features"]
                                + opts["static_features"]))
    spec = SynthSpec(
        n_patients=opts["patients"],
        n_classes=opts["classes"],
        slopes=opts["slopes"],
        amplitudes=opts["amplitudes"],
        corr_signs=opts["corr_signs"],
        n_dynamic=opts["features"],
        n_static=opts["static_features"],
        mean_visits=opts["mean_visits"],
        noise_scale=opts["noise"],
        n_noise_features=opts["noise_features"],
        randomize_trend_direction=opts["randomize_trend"],
        static_class_weight=opts["static_weight"],
        seed=opts["seed"],
    )
    _write_manifest(out, "synth", opts)
    cohort = synth_generate(spec)
    write_cohort(cohort, out)
    sys.stdout.write(
        f"wrote {len(cohort)} patients, "
        f"{cohort.n_dynamic} dynamic / {cohort.n_static} static features\n"
    )


def _run_cv(opts, cohort, config, train_config, out):
    from .model import save_checkpoint
    from .training import cross_validate

    cv = cross_validate(cohort, opts["folds"], config, train_config)
    rows = []
    for fold in cv.folds:
        rows.extend(_metric_rows_for(fold.fold, fold.scores))
        with open(os.path.join(out, f"epochs_fold{fold.fold}.csv"), "w") as fh:
            fh.write("epoch,mean_loss\n")
            for epoch, loss in enumerate(fold.epoch_log):
                fh.write(f"{epoch},{_fmt(loss)}\n")
        save_checkpoint(os.path.join(out, f"fold{fold.fold}.ckpt"),
                        fold.params, fold.stats)
    rows.append(("mean", "macro", cv.mean_auroc, cv.mean_auprc))
    _write_metric_rows(os.path.join(out, "metrics.csv"), rows)
    summary = [
        f"folds = {opts['folds']}",
        f"mean_macro_auroc = {_fmt(cv.mean_auroc)}",
        f"mean_macro_auprc = {_fmt(cv.mean_auprc)}",
    ]
    for fold in cv.folds:
        scores = fold.scores
        skipped = ",".join(map(str, scores.skipped)) or "none"
        summary.append(
            f"fold {fold.fold}: auroc = {_fmt(scores.auroc)} "
            f"auprc = {_fmt(scores.auprc)} skipped = {skipped}"
        )
    with open(os.path.join(out, "summary.txt"), "w") as fh:
        fh.write("\n".join(summary) + "\n")
    sys.stdout.write(
        f"mean macro auroc = {_fmt(cv.mean_auroc)}\n"
        f"mean macro auprc = {_fmt(cv.mean_auprc)}\n"
    )
    return cv


def cmd_train(opts):
    out = _require_out(opts)
    cohort = _load_cohort(opts)
    tmax = _resolve_tmax(opts, cohort)
    config = _model_config(opts, cohort, tmax)
    train_config = _train_config(opts)
    effective = dict(opts)
    effective["tmax"] = tmax
    _write_manifest(out, "train", effective)
    _run_cv(opts, cohort, config, train_config, out)


def cmd_sweep(opts):
    from .training import cross_validate
    from .wavelets import MAX_ORDER, MIN_ORDER

    out = _require_out(opts)
    cohort = _load_cohort(opts)
    tmax = _resolve_tmax(opts, cohort)
    train_config = _train_config(opts)
    configs = [_model_config(dict(opts, symlet=order), cohort, tmax)
               for order in range(MIN_ORDER, MAX_ORDER + 1)]
    effective = dict(opts)
    effective["tmax"] = tmax
    effective["symlet"] = "2..20"
    _write_manifest(out, "sweep-symlets", effective)
    results = []
    for config in configs:
        cv = cross_validate(cohort, opts["folds"], config, train_config)
        results.append((config.order, cv.mean_auroc, cv.mean_auprc))
    with open(os.path.join(out, "sweep.csv"), "w") as fh:
        fh.write("order,mean_macro_auroc,mean_macro_auprc\n")
        for order, auroc, auprc in results:
            fh.write(f"{order},{_fmt(auroc)},{_fmt(auprc)}\n")
    best = max(results, key=lambda r: (r[1], -r[0]))
    with open(os.path.join(out, "summary.txt"), "w") as fh:
        fh.write(f"best_order = {best[0]}\n")
        fh.write(f"best_mean_macro_auroc = {_fmt(best[1])}\n")
    sys.stdout.write(
        f"best order = {best[0]} (auroc {_fmt(best[1])})\n"
    )


def _scoring_stats(bundle, cohort, effective):
    """The stats the checkpoint's weights were trained under.

    A checkpoint without them falls back to the cohort's own stats, and
    ``effective`` gains a ``stats`` line for the manifest that says so.
    """
    if bundle.stats is not None:
        return bundle.stats
    effective["stats"] = "evaluation cohort (checkpoint has none)"
    return compute_stats(cohort)


def cmd_eval(opts):
    from .metrics import macro_one_vs_rest
    from .model import load_checkpoint
    from .training import predict_probs

    out = _require_out(opts)
    if not opts.get("checkpoint"):
        raise ConfigError("--checkpoint is required")
    bundle = load_checkpoint(opts["checkpoint"])
    cohort = _load_cohort(opts)
    config = bundle.params.config
    if cohort.n_dynamic != config.n_dynamic \
            or cohort.n_static != config.n_static:
        raise ConfigError(
            f"checkpoint/data dimension mismatch: model expects "
            f"{config.n_dynamic} dynamic and {config.n_static} static "
            f"features, data has {cohort.n_dynamic} and {cohort.n_static}"
        )
    if cohort.n_classes > config.n_classes:
        raise ConfigError(
            f"checkpoint/data dimension mismatch: model predicts "
            f"{config.n_classes} classes, data labels reach "
            f"{cohort.n_classes - 1}"
        )
    effective = dict(opts)
    stats = _scoring_stats(bundle, cohort, effective)
    _write_manifest(out, "eval", effective)
    probs = predict_probs(cohort, stats, bundle.params)
    with open(os.path.join(out, "scored.csv"), "w") as fh:
        header = ",".join(f"prob_{k}" for k in range(config.n_classes))
        fh.write(f"patient_id,label,{header}\n")
        for pid, label, row in zip(cohort.ids, cohort.labels.tolist(), probs):
            cells = ",".join(_fmt(v) for v in row)
            fh.write(f"{csv_field(pid)},{label},{cells}\n")
    scores = macro_one_vs_rest(probs, cohort.labels)
    _write_metric_rows(os.path.join(out, "metrics.csv"),
                       _metric_rows_for(0, scores))
    with open(os.path.join(out, "summary.txt"), "w") as fh:
        fh.write(f"macro_auroc = {_fmt(scores.auroc)}\n")
        fh.write(f"macro_auprc = {_fmt(scores.auprc)}\n")
    sys.stdout.write(
        f"macro auroc = {_fmt(scores.auroc)}\n"
        f"macro auprc = {_fmt(scores.auprc)}\n"
    )


# Patients per block of ``_write_blocks``: what ``render`` is given at once,
# and so the preparation ``inspect-attention`` holds at once, as
# ``training.PREDICT_BLOCK`` is for ``eval``.
_ROW_BLOCK = 64


def _exit_on_sigterm(signum, frame):
    # Unwinds ``_write_blocks``, which removes its temporary files and stops
    # its workers on the way out.
    raise SystemExit(128 + signum)


def _write_run(run, render, write, parent=None):
    """Write the rows of each block of ``run`` with ``write``.  A worker
    passes the pid of its ``parent`` and stops between blocks once that
    process is gone."""
    for block in run:
        if parent is not None and os.getppid() != parent:
            raise SystemExit(1)
        for text in render(block):
            write(text.encode())


def _fork_worker(run, render, part):
    """Fork a worker that writes the rows of ``run`` to the file ``part``
    and exits 0, or 1 on any exception; returns its pid."""
    import signal

    parent = os.getpid()
    # Until the worker has its own signal handling, a signal would run this
    # process's Python handlers in it and unwind into the caller's code.
    held = {signal.SIGINT, signal.SIGTERM}
    signal.pthread_sigmask(signal.SIG_BLOCK, held)
    try:
        with warnings.catch_warnings():
            # Python 3.12 warns that a fork of a process with threads may
            # deadlock in the child.  The threads are OpenBLAS's pool, which
            # its own pthread_atfork handler stops before a fork; a worker
            # calls no BLAS product (the wavelet split, the preparation and
            # the attention are einsums and elementwise) and leaves by
            # os._exit, running no exit handler.
            warnings.filterwarnings(
                "ignore", r"This process \(pid=\d+\) is multi-threaded, "
                r"use of fork\(\) may lead to deadlocks in the child\.",
                DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            try:
                signal.signal(signal.SIGTERM, signal.SIG_DFL)
                signal.pthread_sigmask(signal.SIG_UNBLOCK, held)
                with open(part, "wb") as fh:
                    _write_run(run, render, fh.write, parent)
                os._exit(0)
            finally:
                os._exit(1)
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, held)
    return pid


def _write_blocks(path, header, n_patients, render):
    """Write ``header``, then the rows of each block of ``_ROW_BLOCK``
    patients to ``path``: ``render(block)``, for a slice ``block`` of
    ``range(n_patients)``, yields them as one string per patient.

    The blocks are split into n runs of consecutive blocks, one per CPU
    this process may run on (at most one per block).  This process writes
    run 0 after the header; forked workers write the others to part files
    beside it, which it appends in run order.  A run whose worker failed
    is rendered again here, which raises the worker's error, the first in
    file order; with one CPU or one block nothing is forked, and the bytes
    written do not depend on n.  The rows go to a temporary file that
    replaces ``path`` once all are written, so a failed or terminated run
    leaves neither; no worker outlives the call.
    """
    import shutil
    import signal

    blocks = [slice(start, start + _ROW_BLOCK)
              for start in range(0, n_patients, _ROW_BLOCK)]
    cpus = (len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else 1)
    n = max(1, min(cpus, len(blocks)))
    runs = [blocks[k * len(blocks) // n:(k + 1) * len(blocks) // n]
            for k in range(n)]
    temporary = f"{path}.{os.getpid()}.tmp"
    parts = [f"{temporary}{k}" for k in range(1, n)]
    previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    workers = []
    try:
        for run, part in zip(runs[1:], parts):
            workers.append(_fork_worker(run, render, part))
        with open(temporary, "wb") as fh:
            fh.write(header.encode())
            _write_run(runs[0], render, fh.write)
            for run, part, pid in zip(runs[1:], parts, workers):
                # WNOWAIT leaves the worker to be reaped below, with the
                # others, whatever interrupts this loop.
                status = os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
                if (status.si_code, status.si_status) != (os.CLD_EXITED, 0):
                    _write_run(run, render, lambda rows: None)
                    raise TrendvarError(
                        "a worker process ended before writing its rows")
                with open(part, "rb") as rows:
                    shutil.copyfileobj(rows, fh)
        os.replace(temporary, path)
    finally:
        for pid in workers:
            os.kill(pid, signal.SIGTERM)
        for pid in workers:
            os.waitpid(pid, 0)
        for name in (temporary, *parts):
            if os.path.exists(name):
                os.remove(name)
        signal.signal(signal.SIGTERM, previous or signal.SIG_DFL)


def _select_features(names, wanted):
    if wanted is None:
        return list(names)
    if wanted not in names:
        raise ConfigError(
            f"unknown feature {wanted!r}: available: {', '.join(names)}"
        )
    return [wanted]


def cmd_decompose(opts):
    from .wavelets import coefficient_count, decompose_batch, symlet_filters

    out = _require_out(opts)
    order = opts["symlet"]
    symlet_filters(order)  # an unknown order is a config error
    cohort = _load_cohort(opts, visits_only=True)
    names = cohort.dynamic_names
    chosen = _select_features(names, opts.get("feature"))
    _write_manifest(out, "decompose", opts)
    first = names.index(chosen[0])
    columns = slice(first, first + len(chosen))
    row_labels = {}  # coefficient count -> ",feature,kind,index," per row

    def render(block):
        for patient in range(len(cohort))[block]:
            pid = cohort.ids[patient]
            # One patient's (1, c, t) stack, to keep its own visit count.
            lines = decompose_batch(cohort.visits(patient)[:, columns].T[None],
                                    order, chosen, (pid,))
            m = lines.shape[-1]
            if m not in row_labels:
                row_labels[m] = [f",{csv_field(name)},{kind},{i},"
                                 for name in chosen
                                 for kind in ("trend", "variation")
                                 for i in range(m)]
            field = csv_field(pid)
            yield "".join([f"{field}{label}{value!r}\n"
                           for label, value in zip(row_labels[m],
                                                   lines.ravel().tolist())])

    _write_blocks(os.path.join(out, "decomposition.csv"),
                  "patient_id,feature,kind,index,value\n", len(cohort),
                  render)
    count = 2 * len(chosen) * sum(coefficient_count(t, order) for t in
                                  np.diff(cohort.offsets).tolist())
    sys.stdout.write(f"wrote {count} coefficient rows\n")


def cmd_correlate(opts):
    from .metrics import trend_variation_report
    from .wavelets import symlet_filters

    out = _require_out(opts)
    symlet_filters(opts["symlet"])  # an unknown order is a config error
    cohort = _load_cohort(opts, visits_only=True)
    _write_manifest(out, "correlate", opts)
    rows = trend_variation_report(cohort, opts["symlet"])
    path = os.path.join(out, "correlation.csv")
    with open(path, "w") as fh:
        fh.write("rank,feature,mean_abs_correlation,mean_correlation,"
                 "n_defined,n_undefined,top5\n")
        for rank, row in enumerate(rows, start=1):
            flag = "true" if rank <= 5 else "false"
            fh.write(
                f"{rank},{csv_field(row.feature)},"
                f"{_fmt(row.mean_abs_correlation)},"
                f"{_fmt(row.mean_correlation)},{row.n_defined},"
                f"{row.n_undefined},{flag}\n"
            )
    for rank, row in enumerate(rows[:5], start=1):
        sys.stdout.write(
            f"{rank}. {row.feature}: mean |r| = "
            f"{_fmt(row.mean_abs_correlation)}\n"
        )


def cmd_inspect_attention(opts):
    from .diff_attention import diff_attention
    from .model import load_checkpoint, prepare

    out = _require_out(opts)
    if not opts.get("checkpoint"):
        raise ConfigError("--checkpoint is required")
    bundle = load_checkpoint(opts["checkpoint"])
    config = bundle.params.config
    if not config.flags.use_diff_attention:
        raise ConfigError(
            "difference attention is disabled in this checkpoint; nothing "
            "to inspect"
        )
    cohort = _load_cohort(opts, visits_only=True)
    names = cohort.dynamic_names
    if len(names) != config.n_dynamic:
        raise ConfigError(
            f"checkpoint/data dimension mismatch: model expects "
            f"{config.n_dynamic} dynamic features, data has {len(names)}"
        )
    chosen = _select_features(names, opts.get("feature"))
    # The visits alone, with zero statics of the model's width, take the
    # same z-scoring and preparation as eval.
    cohort = replace(cohort,
                     static=np.zeros((len(cohort), config.n_static)))
    effective = dict(opts)
    stats = _scoring_stats(bundle, cohort, effective)
    _write_manifest(out, "inspect-attention", effective)
    columns = [names.index(name) for name in chosen]
    labels = [f",{csv_field(name)},{i}," for name in chosen
              for i in range(config.coeff_len - 1)]

    def render(block):
        part = cohort.take(block)
        # Overflow is checked for by prepare, which names its patient.
        with np.errstate(over="ignore", invalid="ignore"):
            variation = prepare(part, stats, config).lines[:, columns, 1]
            result = diff_attention(variation)
        deltas = np.diff(variation, axis=-1)
        for pid, delta, weight, weighted in zip(
                map(csv_field, part.ids), deltas, result.weights,
                result.weighted_diff):
            yield "".join([
                f"{pid}{label}{d!r},{w!r},{x!r}\n"
                for label, d, w, x in zip(
                    labels, delta.ravel().tolist(), weight.ravel().tolist(),
                    weighted.ravel().tolist())])

    _write_blocks(os.path.join(out, "attention.csv"),
                  "patient_id,feature,position,delta,weight,weighted\n",
                  len(cohort), render)
    sys.stdout.write(f"wrote attention weights for {len(cohort)} patients\n")


_HANDLERS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "eval": cmd_eval,
    "decompose": cmd_decompose,
    "correlate": cmd_correlate,
    "inspect-attention": cmd_inspect_attention,
    "sweep-symlets": cmd_sweep,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise ConfigError(
                f"missing command: choose from {', '.join(sorted(_HANDLERS))}"
            )
        opts = _resolve(args, _COMMANDS[args.command])
        _HANDLERS[args.command](opts)
        # A closed stdout fails here rather than at the interpreter's exit.
        sys.stdout.flush()
        return 0
    except BrokenPipeError:
        # The recipe of Python's signal docs: stdout goes to devnull, so the
        # interpreter's final flush of what is left does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.write("error: standard output was closed\n")
        return 1
    except ConfigError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 1
    except DataError as exc:
        sys.stderr.write(f"data error: {exc}\n")
        return 2
    except NumericError as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return 3
    except TrendvarError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
