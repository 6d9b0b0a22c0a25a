"""End-to-end CLI tests, run through subprocesses like a real user would."""

import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from trendvar.data import compute_stats, load_cohort
from trendvar.model import load_checkpoint, save_checkpoint


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "trendvar.cli", *[str(a) for a in args]],
        capture_output=True, text=True,
    )


def run_ok(*args):
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    return proc


SMALL_SYNTH = [
    "--patients", "14", "--classes", "2",
    "--slopes", "1,-1", "--amplitudes", "0.3,0.3", "--corr-signs", "1,1",
    "--features", "2", "--static-features", "2",
    "--mean-visits", "6", "--noise", "0.1",
]

TRAIN_ARGS = [
    "--symlet", "2", "--tmax", "8", "--folds", "2",
    "--epochs", "2", "--batch", "8", "--lr", "0.001", "--seed", "1",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synthesized cohort and one trained run shared by the module."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    run_ok("synth", *SMALL_SYNTH, "--seed", "3", "--out", data)
    train_out = root / "train"
    proc = run_ok("train", "--visits", data / "visits.csv",
                  "--static", data / "static.csv",
                  "--labels", data / "labels.csv",
                  *TRAIN_ARGS, "--out", train_out)
    return {"root": root, "data": data, "train": train_out,
            "train_stdout": proc.stdout}


def read(path):
    return path.read_text()


def data_flags(workspace):
    d = workspace["data"]
    return ["--visits", d / "visits.csv", "--static", d / "static.csv",
            "--labels", d / "labels.csv"]


# -- synth --------------------------------------------------------------------

def test_synth_writes_a_loadable_cohort(workspace):
    data = workspace["data"]
    for name in ("visits.csv", "static.csv", "labels.csv", "manifest.txt"):
        assert (data / name).exists()
    cohort = load_cohort(data / "visits.csv", data / "static.csv",
                         data / "labels.csv")
    assert len(cohort.patients) == 14
    assert cohort.n_dynamic == 2
    manifest = read(data / "manifest.txt")
    assert "command = synth" in manifest
    assert "patients = 14" in manifest
    assert "slopes = 1.0,-1.0" in manifest


def test_synth_is_reproducible(tmp_path, workspace):
    other = tmp_path / "again"
    run_ok("synth", *SMALL_SYNTH, "--seed", "3", "--out", other)
    for name in ("visits.csv", "static.csv", "labels.csv"):
        assert (other / name).read_bytes() == \
            (workspace["data"] / name).read_bytes()


def test_synth_presets_exist(tmp_path):
    out = tmp_path / "preset"
    proc = run_cli("train", "--synth", "nosuch", "--epochs", "0",
                   "--out", out)
    assert proc.returncode == 1
    assert "unknown synthetic preset" in proc.stderr
    assert "coupled" in proc.stderr and "default" in proc.stderr


# -- train --------------------------------------------------------------------

def test_train_produces_the_advertised_files(workspace):
    out = workspace["train"]
    for name in ("manifest.txt", "metrics.csv", "summary.txt",
                 "epochs_fold0.csv", "epochs_fold1.csv",
                 "fold0.ckpt", "fold1.ckpt"):
        assert (out / name).exists(), name
    stdout = workspace["train_stdout"]
    assert "mean macro auroc = " in stdout
    assert stdout.startswith("command = train")
    manifest = read(out / "manifest.txt")
    assert "epochs = 2" in manifest
    assert "tmax = 8" in manifest  # resolved value, not the 0 placeholder
    assert stdout.index(manifest.splitlines()[0]) == 0


def test_metrics_csv_has_per_class_and_mean_rows(workspace):
    lines = read(workspace["train"] / "metrics.csv").strip().splitlines()
    assert lines[0] == "fold,class,auroc,auprc"
    assert lines[-1].startswith("mean,macro,")
    # 2 folds x (2 classes + macro) + final mean row
    assert len(lines) == 1 + 2 * 3 + 1
    for line in lines[1:]:
        fold, cls, auroc, auprc = line.split(",")
        assert float(auroc) <= 1.0 and float(auprc) <= 1.0


def test_train_rerun_is_byte_identical(tmp_path, workspace):
    out2 = tmp_path / "rerun"
    run_ok("train", *data_flags(workspace), *TRAIN_ARGS, "--out", out2)
    for name in ("metrics.csv", "summary.txt", "epochs_fold0.csv",
                 "epochs_fold1.csv", "fold0.ckpt", "fold1.ckpt"):
        assert (out2 / name).read_bytes() == \
            (workspace["train"] / name).read_bytes(), name


def test_settings_file_fills_in_and_flags_override(tmp_path, workspace):
    settings = tmp_path / "run.conf"
    settings.write_text(
        "# comment line\n"
        "epochs = 1\n"
        "symlet = 2\n"
        "tmax = 8\n"
        "folds = 2\n"
        "seed = 1\n"
    )
    from_file = tmp_path / "fromfile"
    run_ok("train", *data_flags(workspace), "--settings", settings,
           "--out", from_file)
    assert "epochs = 1" in read(from_file / "manifest.txt")
    assert len(read(from_file / "epochs_fold0.csv").strip()
               .splitlines()) == 2  # header + 1 epoch

    overridden = tmp_path / "override"
    run_ok("train", *data_flags(workspace), "--settings", settings,
           "--epochs", "2", "--out", overridden)
    assert "epochs = 2" in read(overridden / "manifest.txt")


def test_unknown_settings_key_is_rejected(tmp_path, workspace):
    settings = tmp_path / "bad.conf"
    settings.write_text("epochs = 1\nrocket_boost = yes\n")
    proc = run_cli("train", *data_flags(workspace), "--settings", settings,
                   "--out", tmp_path / "o")
    assert proc.returncode == 1
    assert "unknown settings keys: rocket_boost" in proc.stderr


# -- exit codes -----------------------------------------------------------------

def test_exit_codes(tmp_path, workspace):
    # 1: configuration problems
    assert run_cli("train", "--synth", "default",
                   "--symlet", "99", "--epochs", "0",
                   "--out", tmp_path / "a").returncode == 1
    assert run_cli("train", "--synth", "default", "--visits", "x.csv",
                   "--out", tmp_path / "b").returncode == 1
    assert run_cli("train", "--synth", "default").returncode == 1  # no --out
    assert run_cli().returncode == 1  # no command
    proc = run_cli("nosuchcommand")
    assert proc.returncode == 1
    for flags in (["--lr", "-1"], ["--lr", "nan"], ["--folds", "1"]):
        proc = run_cli("train", *data_flags(workspace), *TRAIN_ARGS, *flags,
                       "--out", tmp_path / "bad")
        assert proc.returncode == 1, (flags, proc.stderr)
        assert "configuration error" in proc.stderr
    undecodable = tmp_path / "latin1.conf"
    undecodable.write_bytes(b"seed = 1\n\xff\xfe = 2\n")
    proc = run_cli("train", *data_flags(workspace), "--settings", undecodable,
                   "--out", tmp_path / "e")
    assert proc.returncode == 1
    assert f"{undecodable}:2: not UTF-8 text" in proc.stderr
    assert "Traceback" not in proc.stderr

    # 2: data problems
    proc = run_cli("train", "--visits", tmp_path / "missing.csv",
                   "--static", tmp_path / "m2.csv",
                   "--labels", tmp_path / "m3.csv",
                   "--out", tmp_path / "c")
    assert proc.returncode == 2
    assert "data error" in proc.stderr

    degenerate = run_cli("synth", "--patients", "8", "--classes", "2",
                         "--slopes", "1,1", "--amplitudes", "0.5,0.5",
                         "--corr-signs", "1,1", "--out", tmp_path / "d")
    assert degenerate.returncode == 2
    assert "degenerate class parameters" in degenerate.stderr


def test_uncreatable_out_is_a_config_error(tmp_path):
    blocker = tmp_path / "plain_file"
    blocker.write_text("not a directory\n")
    out = blocker / "sub"
    proc = run_cli("synth", *SMALL_SYNTH, "--out", out)
    assert proc.returncode == 1
    assert f"cannot create output directory {out}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_single_class_cohort_is_a_data_error(tmp_path):
    (tmp_path / "v.csv").write_text(
        "patient_id,visit_index,x\na,0,1.0\na,1,2.0\nb,0,3.0\nb,1,4.0\n")
    (tmp_path / "s.csv").write_text("patient_id,s\na,1.0\nb,0.0\n")
    (tmp_path / "y.csv").write_text("patient_id,label\na,0\nb,0\n")
    proc = run_cli("train", "--visits", tmp_path / "v.csv",
                   "--static", tmp_path / "s.csv",
                   "--labels", tmp_path / "y.csv",
                   "--out", tmp_path / "out")
    assert proc.returncode == 2
    assert "single class" in proc.stderr


@pytest.mark.parametrize("kind", ["visits", "static", "labels"])
def test_undecodable_or_oversized_cells_exit_2(tmp_path, workspace, kind):
    source = workspace["data"] / f"{kind}.csv"
    lines = source.read_bytes().splitlines(keepends=True)
    for fault, damaged_line, message in (
            ("bad_byte", lines[2].replace(b",", b"\xe9,", 1),
             f"{kind}.csv:3: not UTF-8 text"),
            ("long_field", lines[2].replace(b",", b"," + b"7" * 140_000, 1),
             f"{kind}.csv:3: field larger than field limit")):
        data = tmp_path / fault
        data.mkdir()
        for name in ("visits", "static", "labels"):
            content = (workspace["data"] / f"{name}.csv").read_bytes()
            if name == kind:
                content = b"".join(lines[:2] + [damaged_line] + lines[3:])
            (data / f"{name}.csv").write_bytes(content)
        proc = run_cli("train", "--visits", data / "visits.csv",
                       "--static", data / "static.csv",
                       "--labels", data / "labels.csv", *TRAIN_ARGS,
                       "--out", tmp_path / f"out_{fault}")
        assert proc.returncode == 2, (fault, proc.stderr)
        assert message in proc.stderr, (fault, proc.stderr)
        assert "Traceback" not in proc.stderr


# -- eval -----------------------------------------------------------------------

def test_eval_scores_every_patient_deterministically(tmp_path, workspace):
    ckpt = workspace["train"] / "fold0.ckpt"
    out1 = tmp_path / "eval1"
    proc = run_ok("eval", *data_flags(workspace), "--checkpoint", ckpt,
                  "--out", out1)
    assert "macro auroc = " in proc.stdout
    lines = read(out1 / "scored.csv").strip().splitlines()
    assert lines[0] == "patient_id,label,prob_0,prob_1"
    assert len(lines) == 15  # header + 14 patients
    probs = np.array([[float(c) for c in line.split(",")[2:]]
                      for line in lines[1:]])
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    out2 = tmp_path / "eval2"
    run_ok("eval", *data_flags(workspace), "--checkpoint", ckpt,
           "--out", out2)
    assert (out1 / "scored.csv").read_bytes() == \
        (out2 / "scored.csv").read_bytes()
    assert (out1 / "metrics.csv").read_bytes() == \
        (out2 / "metrics.csv").read_bytes()


def test_eval_rejects_mismatched_data(tmp_path, workspace):
    ckpt = workspace["train"] / "fold0.ckpt"
    other = tmp_path / "wide"
    run_ok("synth", "--patients", "6", "--classes", "2",
           "--slopes", "1,-1", "--amplitudes", "0.3,0.3",
           "--corr-signs", "1,1", "--features", "4",
           "--static-features", "2", "--out", other)
    proc = run_cli("eval", "--visits", other / "visits.csv",
                   "--static", other / "static.csv",
                   "--labels", other / "labels.csv",
                   "--checkpoint", ckpt, "--out", tmp_path / "o")
    assert proc.returncode == 1
    assert "dimension mismatch" in proc.stderr
    assert "4" in proc.stderr


def test_eval_rejects_foreign_checkpoint_files(tmp_path, workspace):
    junk = tmp_path / "junk.ckpt"
    junk.write_bytes(b"not a checkpoint at all")
    proc = run_cli("eval", *data_flags(workspace), "--checkpoint", junk,
                   "--out", tmp_path / "o")
    assert proc.returncode == 1
    assert "unrecognized checkpoint" in proc.stderr


def test_checkpoint_with_misshaped_stats_is_a_config_error(tmp_path,
                                                          workspace):
    bundle = load_checkpoint(workspace["train"] / "fold0.ckpt")
    stats = replace(bundle.stats, dynamic_mean=np.zeros(5),
                    dynamic_std=np.ones(5))
    damaged = tmp_path / "damaged.ckpt"
    save_checkpoint(damaged, bundle.params, bundle.config, stats)
    for command, flags in (("eval", data_flags(workspace)),
                           ("inspect-attention",
                            ["--visits", workspace["data"] / "visits.csv"])):
        proc = run_cli(command, *flags, "--checkpoint", damaged,
                       "--out", tmp_path / command)
        assert proc.returncode == 1, proc.stderr
        assert "corrupt checkpoint" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_checkpoint_with_a_flipped_tmax_bit_is_rejected_unallocated(
        tmp_path, workspace):
    blob = bytearray((workspace["train"] / "fold0.ckpt").read_bytes())
    # Byte 15 is the high byte of t_max: this t_max would size a
    # parameter array of hundreds of GiB.
    blob[15] ^= 0x80
    damaged = tmp_path / "flipped.ckpt"
    damaged.write_bytes(bytes(blob))
    proc = run_cli("eval", *data_flags(workspace), "--checkpoint", damaged,
                   "--out", tmp_path / "o")
    assert proc.returncode == 1, proc.stderr
    assert "corrupt checkpoint" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_checkpoint_without_stats_uses_the_cohort_stats(tmp_path, workspace):
    bundle = load_checkpoint(workspace["train"] / "fold0.ckpt")
    bare = tmp_path / "bare.ckpt"
    save_checkpoint(bare, bundle.params, bundle.config, None)
    own = tmp_path / "own.ckpt"
    d = workspace["data"]
    cohort = load_cohort(d / "visits.csv", d / "static.csv",
                         d / "labels.csv")
    save_checkpoint(own, bundle.params, bundle.config,
                    compute_stats(cohort.patients))
    note = "stats = evaluation cohort (checkpoint has none)\n"
    for command, flags, output in (
            ("eval", data_flags(workspace), "scored.csv"),
            ("inspect-attention", ["--visits", d / "visits.csv"],
             "attention.csv")):
        fallback = tmp_path / f"{command}_bare"
        proc = run_ok(command, *flags, "--checkpoint", bare,
                      "--out", fallback)
        assert note in read(fallback / "manifest.txt")
        assert note in proc.stdout
        explicit = tmp_path / f"{command}_own"
        run_ok(command, *flags, "--checkpoint", own, "--out", explicit)
        assert "stats =" not in read(explicit / "manifest.txt")
        # The fallback z-scores exactly as the cohort's own stats do.
        assert (fallback / output).read_bytes() == \
            (explicit / output).read_bytes(), command


def test_diagnostics_rerun_is_byte_identical(tmp_path, workspace):
    visits = workspace["data"] / "visits.csv"
    ckpt = workspace["train"] / "fold0.ckpt"
    for command, flags, output in (
            ("decompose", ["--symlet", "3"], "decomposition.csv"),
            ("correlate", ["--symlet", "3"], "correlation.csv"),
            ("inspect-attention", ["--checkpoint", ckpt], "attention.csv")):
        first, second = (tmp_path / f"{command}{k}" for k in (1, 2))
        for out in (first, second):
            run_ok(command, "--visits", visits, *flags, "--out", out)
        assert (first / output).read_bytes() == \
            (second / output).read_bytes(), command


# -- decompose / correlate ---------------------------------------------------------

def test_decompose_row_count_matches_its_own_report(tmp_path, workspace):
    out = tmp_path / "dec"
    proc = run_ok("decompose", "--visits", workspace["data"] / "visits.csv",
                  "--symlet", "2", "--out", out)
    lines = read(out / "decomposition.csv").strip().splitlines()
    assert lines[0] == "patient_id,feature,kind,index,value"
    reported = int(proc.stdout.strip().rsplit("wrote ", 1)[1].split()[0])
    assert len(lines) - 1 == reported
    kinds = {line.split(",")[2] for line in lines[1:]}
    assert kinds == {"trend", "variation"}


def test_decompose_constant_feature_values(tmp_path):
    (tmp_path / "v.csv").write_text(
        "patient_id,visit_index,flat\n" +
        "".join(f"a,{i},2.0\n" for i in range(6)))
    out = tmp_path / "dec"
    run_ok("decompose", "--visits", tmp_path / "v.csv", "--symlet", "2",
           "--out", out)
    rows = read(out / "decomposition.csv").strip().splitlines()[1:]
    trend = [float(r.split(",")[4]) for r in rows
             if r.split(",")[2] == "trend"]
    variation = [float(r.split(",")[4]) for r in rows
                 if r.split(",")[2] == "variation"]
    np.testing.assert_allclose(trend, 2.0 * np.sqrt(2.0), atol=1e-12)
    np.testing.assert_allclose(variation, 0.0, atol=1e-12)


def test_decompose_unknown_feature(tmp_path, workspace):
    proc = run_cli("decompose", "--visits", workspace["data"] / "visits.csv",
                   "--feature", "nope", "--out", tmp_path / "o")
    assert proc.returncode == 1
    assert "unknown feature 'nope'" in proc.stderr
    assert "dyn_0" in proc.stderr


def test_correlate_ranks_features(tmp_path, workspace):
    out = tmp_path / "corr"
    proc = run_ok("correlate", "--visits", workspace["data"] / "visits.csv",
                  "--symlet", "2", "--out", out)
    lines = read(out / "correlation.csv").strip().splitlines()
    assert lines[0].startswith("rank,feature,")
    ranks = [int(line.split(",")[0]) for line in lines[1:]]
    assert ranks == [1, 2]
    values = [float(line.split(",")[2]) for line in lines[1:]]
    assert values == sorted(values, reverse=True)
    assert all(line.split(",")[6] == "true" for line in lines[1:])
    assert "1. dyn_" in proc.stdout


# -- inspect-attention -------------------------------------------------------------

def test_attention_weights_sum_to_one_per_feature(tmp_path, workspace):
    out = tmp_path / "att"
    proc = run_ok("inspect-attention",
                  "--visits", workspace["data"] / "visits.csv",
                  "--checkpoint", workspace["train"] / "fold0.ckpt",
                  "--out", out)
    assert "wrote attention weights for 14 patients" in proc.stdout
    lines = read(out / "attention.csv").strip().splitlines()
    assert lines[0] == "patient_id,feature,position,delta,weight,weighted"
    sums = {}
    for line in lines[1:]:
        pid, feature, _, delta, weight, weighted = line.split(",")
        key = (pid, feature)
        sums[key] = sums.get(key, 0.0) + float(weight)
        assert float(weighted) == pytest.approx(
            float(delta) * float(weight), abs=1e-9)
    assert len(sums) == 14 * 2
    for key, total in sums.items():
        assert total == pytest.approx(1.0, abs=1e-9), key


def test_inspect_attention_requires_the_attention_stage(tmp_path, workspace):
    no_att = tmp_path / "noatt"
    run_ok("train", *data_flags(workspace), *TRAIN_ARGS, "--config", "A6",
           "--out", no_att)
    proc = run_cli("inspect-attention",
                   "--visits", workspace["data"] / "visits.csv",
                   "--checkpoint", no_att / "fold0.ckpt",
                   "--out", tmp_path / "o")
    assert proc.returncode == 1
    assert "difference attention is disabled" in proc.stderr


# -- sweep ------------------------------------------------------------------------

def test_sweep_covers_every_order(tmp_path, workspace):
    out = tmp_path / "sweep"
    proc = run_ok("sweep-symlets", *data_flags(workspace),
                  "--tmax", "8", "--folds", "2", "--epochs", "0",
                  "--seed", "1", "--out", out)
    lines = read(out / "sweep.csv").strip().splitlines()
    assert lines[0] == "order,mean_macro_auroc,mean_macro_auprc"
    orders = [int(line.split(",")[0]) for line in lines[1:]]
    assert orders == list(range(2, 21))
    summary = read(out / "summary.txt")
    assert "best_order = " in summary
    assert "best order = " in proc.stdout
    manifest = read(out / "manifest.txt")
    assert "symlet = 2..20" in manifest
