"""End-to-end CLI tests, run through subprocesses like a real user would."""

import contextlib
import csv
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendvar import cli
from trendvar.data import (
    FeatureStats,
    compute_stats,
    load_cohort,
    synth_generate,
    write_cohort,
)
from trendvar.diff_attention import diff_attention
from trendvar.errors import TrendvarError
from trendvar.model import (
    ModelConfig,
    ModelParams,
    ablation_from_name,
    load_checkpoint,
    prepare,
    save_checkpoint,
)
from trendvar.training import predict_probs


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
    assert len(cohort) == 14
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


def test_negative_list_values_parse_in_either_form(tmp_path, capsys):
    parser = cli._build_parser()
    lists = {"--slopes": "-1,0,1", "--corr-signs": "-1,1,1",
             "--amplitudes": "-.5,1,1"}
    spaced = parser.parse_args(
        ["synth", *[part for item in lists.items() for part in item]])
    joined = parser.parse_args(
        ["synth", *[f"{flag}={value}" for flag, value in lists.items()]])
    assert vars(spaced) == vars(joined)
    assert (spaced.slopes, spaced.amplitudes) == ("-1,0,1", "-.5,1,1")
    # A flag is still not a value.
    assert cli.main(["synth", "--slopes", "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 1
    assert "argument --slopes: expected one argument" in \
        capsys.readouterr().err


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


def test_unknown_settings_key_is_rejected(tmp_path, workspace, capsys):
    settings = tmp_path / "bad.conf"
    settings.write_text("epochs = 1\nrocket_boost = yes\n")
    proc = run_cli("train", *data_flags(workspace), "--settings", settings,
                   "--out", tmp_path / "o")
    assert proc.returncode == 1
    assert "unknown settings keys: rocket_boost" in proc.stderr
    nested = tmp_path / "nested.conf"
    nested.write_text("settings = /nonexistent/file\n")
    code = cli.main(["decompose", "--synth", "default", "--settings",
                     str(nested), "--out", str(tmp_path / "n")])
    assert code == 1
    assert "unknown settings keys: settings" in capsys.readouterr().err


# -- exit codes -----------------------------------------------------------------

def test_exit_codes(tmp_path, workspace):
    # 1: configuration problems
    assert run_cli("train", "--synth", "default",
                   "--symlet", "99", "--epochs", "0",
                   "--out", tmp_path / "a").returncode == 1
    assert run_cli("train", "--synth", "default", "--visits", "x.csv",
                   "--out", tmp_path / "b").returncode == 1
    assert run_cli("train", "--synth", "default").returncode == 1  # no --out
    # The sweep sets every order itself: --symlet, flag or key, is unknown.
    assert run_cli("sweep-symlets", "--synth", "default", "--symlet", "5",
                   "--out", tmp_path / "g").returncode == 1
    symlet_key = tmp_path / "symlet.conf"
    symlet_key.write_text("symlet = 5\n")
    proc = run_cli("sweep-symlets", "--synth", "default", "--settings",
                   symlet_key, "--out", tmp_path / "h")
    assert proc.returncode == 1
    assert "unknown settings keys: symlet" in proc.stderr
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

    for flags, named in (
            (["--noise", "-1"], "spec: noise_scale"),
            (["--noise", "nan"], "spec: noise_scale"),
            (["--static-weight", "nan"], "spec: static_class_weight"),
            (["--slopes=nan,-1"], "spec: slopes must be finite"),
            (["--amplitudes=inf,0.3"], "spec: amplitudes must be finite"),
            (["--corr-signs=1,nan"], "spec: corr_signs must be finite"),
            (["--amplitudes=1e308,0.3"],
             "cohort: visit values of dyn_0 overflow")):
        proc = run_cli("synth", *SMALL_SYNTH, *flags, "--out",
                       tmp_path / "synth_bad")
        assert proc.returncode == 2, (flags, proc.stderr)
        assert f"data error: synthetic {named}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "Warning" not in proc.stderr

    # A feature name repeated in the header of visits.csv or static.csv.
    d = workspace["data"]
    bad_visits = tmp_path / "repeated_visits.csv"
    bad_visits.write_text("patient_id,visit_index,a,a\n" + read(
        d / "visits.csv").split("\n", 1)[1])
    bad_static = tmp_path / "repeated_static.csv"
    bad_static.write_text("patient_id,s,s\n" + read(
        d / "static.csv").split("\n", 1)[1])
    labels = ["--labels", d / "labels.csv"]
    for argv, path in (
            (["decompose", "--visits", bad_visits, "--feature", "a"],
             bad_visits),
            (["train", "--visits", bad_visits, "--static", d / "static.csv",
              *labels], bad_visits),
            (["train", "--visits", d / "visits.csv", "--static", bad_static,
              *labels], bad_static)):
        proc = run_cli(*argv, "--out", tmp_path / "repeated")
        assert proc.returncode == 2, (argv, proc.stderr)
        assert f"{path}:1: repeated feature name" in proc.stderr
        assert "Traceback" not in proc.stderr

    # 3: numerical failures.  The one Adam step of this fit leaves the
    # parameters finite but near 1e308, and the forward pass that scores
    # the held-out fold overflows.
    proc = run_cli("train", "--synth", "default", "--folds", "2",
                   "--epochs", "1", "--lr", "1e308", "--out", tmp_path / "f")
    assert proc.returncode == 3, proc.stderr
    assert "numerical error: non-finite class probabilities" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_closed_stdout_exits_1_without_a_traceback(tmp_path):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "trendvar.cli", "synth", *SMALL_SYNTH,
             "--out", str(tmp_path / "cohort")],
            stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == "error: standard output was closed\n"


# Valid settings lines that keep a run cheap, if one ever got through.
_VALID_SETTINGS = ["epochs = 1", "folds = 2", "batch = 16", "symlet = 2",
                   "seed = 7", "config = A6", "lr = 0.001"]
_HUGE_OR_NEGATIVE = st.one_of(st.integers(min_value=2 ** 32),
                              st.integers(max_value=-1))
_NOT_A_NUMBER = st.sampled_from(["nan", "inf", "-inf", "1e999", "-1e999",
                                 "9" * 5000, "0x10", "", "1,2"])


@st.composite
def _hostile_settings(draw):
    """A settings file ``train`` must refuse: valid lines plus one line of
    non-UTF-8 bytes, a duplicate key, an unknown key or an extreme value."""
    lines = draw(st.lists(st.sampled_from(_VALID_SETTINGS), unique=True,
                          max_size=4))
    lines = [line.encode() for line in lines]
    kind = draw(st.sampled_from(["bytes", "duplicate", "unknown", "extreme"]))
    if kind == "bytes":
        junk = draw(st.binary(max_size=30).filter(
            lambda b: b"\n" not in b and b"\r" not in b))
        cut = draw(st.integers(0, len(junk)))
        bad = junk[:cut] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"])) \
            + junk[cut:]
    elif kind == "duplicate":
        key = draw(st.sampled_from(["epochs", "kernel-width", "kernel_width",
                                    "seed"]))
        lines.append(f"{key.replace('-', '_')} = 1".encode())
        bad = f"  {key}={draw(st.integers(0, 9))}".encode()
    elif kind == "unknown":
        # A settings file cannot name another one.
        known = {option.dest for option in cli._COMMANDS["train"]} \
            - {"settings"}
        key = draw(st.one_of(st.just("settings"), st.text(
            alphabet="abcdefghijklmnopqrstuvwxyzAZ09_- ", min_size=1,
            max_size=12)).filter(
                lambda k: k.strip() and k.strip().replace("-", "_")
                not in known))
        bad = f"{key} = {draw(st.integers())}".encode()
    else:
        key, value = draw(st.one_of(
            st.tuples(st.sampled_from(["tmax", "symlet", "kernel_width",
                                       "folds"]),
                      st.one_of(_HUGE_OR_NEGATIVE, _NOT_A_NUMBER)),
            st.tuples(st.sampled_from(["seed", "epochs"]),
                      st.one_of(st.integers(max_value=-1), _NOT_A_NUMBER)),
            st.tuples(st.just("batch"), st.integers(max_value=0)),
            st.tuples(st.just("dilations"),
                      _HUGE_OR_NEGATIVE.map(lambda d: f"0,0,{d}")),
            st.tuples(st.just("lr"), st.sampled_from(
                ["nan", "inf", "-inf", "1e999", "-1e999", "-0.5"]))))
        bad = f"{key} = {value}".encode()
    lines = draw(st.permutations(lines + [bad]))
    return b"\n".join(lines) + draw(st.sampled_from([b"", b"\n", b"\r\n"]))


@settings(max_examples=80, deadline=None)
@given(content=_hostile_settings())
def test_hostile_settings_files_exit_1_or_2_without_a_traceback(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "settings.txt")
        path.write_bytes(content)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["train", "--synth", "default", "--settings",
                             str(path), "--out", str(Path(tmp, "out"))])
    assert code in (1, 2), (content, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_uncreatable_out_is_a_config_error(tmp_path):
    blocker = tmp_path / "plain_file"
    blocker.write_text("not a directory\n")
    out = blocker / "sub"
    proc = run_cli("synth", *SMALL_SYNTH, "--out", out)
    assert proc.returncode == 1
    assert f"cannot create output directory {out}" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, named", [
    (["train", "--synth", "default", "--tmax", "99999999999"],
     "--tmax 99999999999"),
    (["sweep-symlets", "--synth", "default", "--tmax", "3000000"],
     "--tmax 3000000"),
    (["train", "--synth", "default", "--settings", "tmax.txt"],
     "--tmax 99999999999"),
    (["synth", "--patients", "3", "--features", "2000000000"],
     "--features 2000000000"),
    (["synth", "--patients", "100000000000"], "--patients 100000000000"),
    (["synth", "--static-features", "10000000000"],
     "--static-features 10000000000"),
    (["synth", "--mean-visits", "1e12"], "--mean-visits 1000000000000.0"),
    (["synth", "--mean-visits", "inf"], "--mean-visits inf"),
    (["train", "--visits", "v.csv", "--static", "s.csv", "--labels",
      "y.csv", "--symlet", "2", "--tmax", "8"], "1000001 classes"),
    (["train", "--synth", "default", "--kernel-width", "1000000000",
      "--dilations", "0,0,0"], "--kernel-width 1000000000"),
    (["train", "--synth", "default", "--epochs", "100000000000000"],
     "--epochs 100000000000000"),
    (["sweep-symlets", "--synth", "default", "--epochs", "100000000000000"],
     "--epochs 100000000000000"),
], ids=["train-tmax", "sweep-tmax", "settings-tmax", "synth-features",
        "synth-patients", "synth-static-features", "synth-mean-visits",
        "synth-mean-visits-inf", "train-label", "train-kernel-width",
        "train-epochs", "sweep-epochs"])
def test_oversized_sizes_are_config_errors_before_allocating(
        tmp_path, monkeypatch, capsys, argv, named):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tmax.txt").write_text("tmax = 99999999999\n")
    # A cohort whose largest label sizes a model of 1000001 classes.
    (tmp_path / "v.csv").write_text(
        "patient_id,visit_index,x\na,0,1.0\na,1,2.0\nb,0,3.0\nb,1,4.0\n")
    (tmp_path / "s.csv").write_text("patient_id,s\na,1.0\nb,0.0\n")
    (tmp_path / "y.csv").write_text("patient_id,label\na,0\nb,1000000\n")
    tracemalloc.start()
    try:
        code = cli.main([*argv, "--out", str(tmp_path / "out")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 1, err
    assert named in err and "GiB limit" in err
    assert "Traceback" not in err
    # Refused before the run began: no manifest, nothing large allocated.
    assert not (tmp_path / "out").exists()
    assert peak < 16 * 2 ** 20, peak


@pytest.mark.parametrize("argv, named", [
    (["decompose", "--synth", "default", "--symlet", "1"], "symlet order 1"),
    (["correlate", "--synth", "default", "--symlet", "0"], "symlet order 0"),
    # Order 2 leaves 3 coefficients, and dilation 3 needs 4.
    (["sweep-symlets", "--synth", "default", "--tmax", "3"],
     "3 coefficient columns"),
], ids=["decompose-symlet", "correlate-symlet", "sweep-tmax"])
def test_invalid_orders_are_config_errors_before_the_manifest(
        tmp_path, capsys, argv, named):
    code = cli.main([*argv, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1, err
    assert named in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _write_overflow_cohort(root, values):
    """Six patients of eight visits whose feature ``a`` takes ``values``
    and whose feature ``b`` is ordinary."""
    root.mkdir()
    rows = [f"p{p},{v},{values[v]!r},{p + 0.1 * v * (p % 3)!r}"
            for p in range(6) for v in range(8)]
    (root / "visits.csv").write_text(
        "patient_id,visit_index,a,b\n" + "\n".join(rows) + "\n")
    (root / "static.csv").write_text(
        "patient_id,s0\n" + "".join(f"p{p},{p % 2}\n" for p in range(6)))
    (root / "labels.csv").write_text(
        "patient_id,label\n" + "".join(f"p{p},{p % 2}\n" for p in range(6)))


@pytest.mark.parametrize("command, values", [
    # The std of a feature alternating +-1e308 overflows.
    ("train", [1e308, -1e308] * 4),
    # Its trend/variation lines are finite, their Pearson r is not.
    ("correlate", [1e308, -1e308] * 4),
    # Its trend coefficients overflow.
    ("decompose", [1.6e308 + v * 0.0125e308 for v in range(8)]),
], ids=["train", "correlate", "decompose"])
def test_finite_data_that_overflows_is_a_numeric_error(
        tmp_path, capsys, command, values):
    data = tmp_path / "data"
    _write_overflow_cohort(data, values)
    argv = [command, "--visits", str(data / "visits.csv"), "--symlet", "2",
            "--out", str(tmp_path / "out")]
    if command == "train":
        argv += ["--static", str(data / "static.csv"), "--labels",
                 str(data / "labels.csv"), "--folds", "2", "--epochs", "1"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 3, err
    assert [line for line in err.splitlines()
            if line.startswith("numerical error:") and "'a'" in line], err
    assert "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not list((tmp_path / "out").glob("*.ckpt"))


def test_checkpoint_field_overflow_is_a_config_error_before_training(
        tmp_path, capsys):
    # The checkpoint stores each dilation rate as u32.
    code = cli.main(["train", "--synth", "default", "--kernel-width", "1",
                     "--dilations", "0,0,4294967296", "--folds", "2",
                     "--epochs", "1", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1, err
    assert "dilations must be three non-negative rates that fit a " \
        "checkpoint's 32-bit fields, got (0, 0, 4294967296)" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


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


# -- damaged static.csv / labels.csv -------------------------------------------

_IDS = [f"p{i}" for i in range(6)]
_FILES = {
    "visits": ["patient_id,visit_index,x"]
    + [f"{pid},{v},{i + 0.25 * v}" for i, pid in enumerate(_IDS)
       for v in range(4)],
    "static": ["patient_id,age,sex"]
    + [f"{pid},{40.0 + i},{i % 2}.0" for i, pid in enumerate(_IDS)],
    "labels": ["patient_id,label"]
    + [f"{pid},{i % 2}" for i, pid in enumerate(_IDS)],
}


@st.composite
def _damaged(draw):
    """(file kind, damage, its lines): one duplicate id, missing patient,
    stray id, ragged row or (labels.csv) float or negative label, or no
    damage at all."""
    kind = draw(st.sampled_from(["static", "labels"]))
    lines = list(_FILES[kind])
    row = draw(st.integers(1, len(_IDS)))
    cells = lines[row].split(",")
    damage = draw(st.sampled_from(
        ["none", "duplicate", "missing", "stray", "ragged"]
        + (["float label", "negative label"] if kind == "labels" else [])))
    if damage == "duplicate":
        cells[1:] = draw(st.sampled_from([cells[1:], ["1"] * len(cells[1:])]))
        lines.insert(draw(st.integers(1, len(lines))), ",".join(cells))
    elif damage == "missing":
        del lines[row]
    elif damage == "stray":
        lines[row] = ",".join([draw(st.sampled_from(["q", "p", "P0", " p1"])),
                               *cells[1:]])
    elif damage == "ragged":
        extra = draw(st.lists(st.sampled_from(["", "1", "2.5"]),
                              min_size=1, max_size=3))
        cells = draw(st.sampled_from([cells[:-1], cells + extra]))
        lines[row] = ",".join(cells)
    elif damage == "float label":
        label = draw(st.floats(allow_nan=True, allow_infinity=True))
        lines[row] = f"{cells[0]},{label!r}"
    elif damage == "negative label":
        lines[row] = f"{cells[0]},{draw(st.integers(max_value=-1))}"
    return kind, damage, lines


@settings(max_examples=80, deadline=None)
@given(damaged=_damaged())
def test_damaged_static_or_labels_exit_2_without_a_traceback(damaged):
    kind, damage, lines = damaged
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, content in {**_FILES, kind: lines}.items():
            paths[name] = Path(tmp, f"{name}.csv")
            paths[name].write_text("\n".join(content) + "\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([
                "train", "--visits", str(paths["visits"]),
                "--static", str(paths["static"]),
                "--labels", str(paths["labels"]), "--symlet", "2",
                "--tmax", "8", "--folds", "2", "--epochs", "1",
                "--out", str(Path(tmp, "out"))])
    if damage == "none":  # the intact cohort trains
        assert code == 0, err.getvalue()
        return
    assert code == 2, (lines, err.getvalue())
    assert err.getvalue().startswith("data error: "), err.getvalue()
    assert "Traceback" not in err.getvalue()


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


def test_eval_block_loop_memory_does_not_grow_with_the_cohort(
        tmp_path, monkeypatch):
    wide = replace(cli.SYNTH_PRESETS["default"], n_patients=1024,
                   n_dynamic=8, n_static=4, mean_visits=24.0, seed=1)
    large = synth_generate(wide)
    small = large.take(slice(0, 256))
    config = ModelConfig(t_max=29, n_dynamic=8, n_static=4, n_classes=3,
                         flags=ablation_from_name("A7"))
    params = ModelParams.initialized(config, np.random.default_rng(0))
    stats = compute_stats(large)

    def decompose(cohort):
        monkeypatch.setattr(cli, "_load_cohort",
                            lambda opts, visits_only: cohort)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.cmd_decompose({"out": str(tmp_path), "symlet": 14,
                               "feature": cohort.dynamic_names[0]})

    # eval's scoring loop and decompose's write loop, each on a cohort that
    # exists before tracing starts, so only what the loop allocates counts.
    runs = {"eval": lambda cohort: predict_probs(cohort, stats, params),
            "decompose": decompose}
    for name, run in runs.items():
        run(small.take(slice(0, 8)))  # warm caches
        peaks = []
        for cohort in (small, large):
            tracemalloc.start()
            try:
                probs = run(cohort)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            if name == "eval":
                assert probs.shape == (len(cohort), 3)
            peaks.append(peak)
        # Four times the patients, one block or patient at a time.
        assert peaks[1] <= 1.1 * peaks[0], (name, peaks)


def test_eval_rows_do_not_depend_on_the_rest_of_the_file(tmp_path):
    """A patient's scored row is the same whether it is scored with the
    whole file or with only the first k patients."""
    whole = tmp_path / "whole"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["synth", "--patients", "150", "--features", "8",
                         "--static-features", "4", "--mean-visits", "24",
                         "--seed", "1001", "--out", str(whole)]) == 0
        cohort = load_cohort(whole / "visits.csv", whole / "static.csv",
                             whole / "labels.csv")
        config = ModelConfig(t_max=16, n_dynamic=8, n_static=4,
                             n_classes=3, order=14)
        ckpt = tmp_path / "t16.ckpt"
        save_checkpoint(ckpt, ModelParams.initialized(
            config, np.random.default_rng(4)), compute_stats(cohort))

        def scored(data, out):
            assert cli.main([
                "eval", "--visits", str(data / "visits.csv"),
                "--static", str(data / "static.csv"),
                "--labels", str(data / "labels.csv"),
                "--checkpoint", str(ckpt), "--out", str(out)]) == 0
            return read(out / "scored.csv").splitlines()[1:]

        rows = scored(whole, tmp_path / "eval_whole")
        for k in (2, 37, 100):
            first = tmp_path / f"first{k}"
            write_cohort(cohort.take(slice(0, k)), first)
            assert scored(first, tmp_path / f"eval_first{k}") == rows[:k], k


def test_every_output_row_has_its_headers_width(tmp_path, capsys):
    """Ids and feature names that hold a comma, a quote or a line break
    are quoted in every file written, so each row parses to the width of
    its header and gives the id back."""
    ids = ("p,1", 'p"2', "p\n3", "p\r4", "plain", 'a,"b"')
    cohort = replace(
        synth_generate(cli.SYNTH_PRESETS["default"]).take(slice(0, len(ids))),
        ids=ids, dynamic_names=("a,1", 'b"2', "c\n3", "d", "e"))
    data = tmp_path / "data"
    write_cohort(cohort, data)
    config = ModelConfig(t_max=8, n_dynamic=5, n_static=4, n_classes=3,
                         order=2)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, ModelParams.initialized(
        config, np.random.default_rng(0)), compute_stats(cohort))
    visits = ["--visits", str(data / "visits.csv")]
    outputs = [data / name for name in ("visits.csv", "static.csv",
                                        "labels.csv")]
    for argv, output in (
            (["eval", *visits, "--static", str(data / "static.csv"),
              "--labels", str(data / "labels.csv"), "--checkpoint",
              str(ckpt)], "scored.csv"),
            (["decompose", *visits, "--symlet", "2"], "decomposition.csv"),
            (["correlate", *visits, "--symlet", "2"], "correlation.csv"),
            (["inspect-attention", *visits, "--checkpoint", str(ckpt)],
             "attention.csv")):
        out = tmp_path / argv[0]
        assert cli.main([*argv, "--out", str(out)]) == 0, \
            capsys.readouterr().err
        outputs.append(out / output)
    for path in outputs:
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert rows, path
        assert {len(row) for row in rows} == {len(header)}, path
        # The id column, or correlate's feature column.
        column, wanted = (1, cohort.dynamic_names) \
            if path.name == "correlation.csv" else (0, ids)
        assert {row[column] for row in rows} == set(wanted), path


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
    save_checkpoint(damaged, bundle.params, stats)
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
    save_checkpoint(bare, bundle.params, None)
    own = tmp_path / "own.ckpt"
    d = workspace["data"]
    cohort = load_cohort(d / "visits.csv", d / "static.csv",
                         d / "labels.csv")
    save_checkpoint(own, bundle.params, compute_stats(cohort))
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


# -- the diagnostics' row writer -------------------------------------------------

def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def _cpus(monkeypatch, cpus):
    """Make the writer see ``cpus`` (None: no ``sched_getaffinity``) and
    return the list that each fork appends to.  Each fork warns in the
    parent as Python 3.12 does in a process with threads, which OpenBLAS's
    pool makes this one; the suite turns that warning into an error."""
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))
    forks, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
            warnings.warn(f"This process (pid={os.getpid()}) is "
                          f"multi-threaded, use of fork() may lead to "
                          f"deadlocks in the child.", DeprecationWarning)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


def test_diagnostic_rows_do_not_depend_on_the_cpu_count(tmp_path, capsys,
                                                         monkeypatch):
    # Four and a bit blocks of patients with ragged visit counts.
    data = tmp_path / "data"
    assert cli.main(["synth", "--patients", str(4 * cli._ROW_BLOCK + 7),
                     "--features", "3", "--static-features", "2",
                     "--mean-visits", "9", "--seed", "8",
                     "--out", str(data)]) == 0
    config = ModelConfig(t_max=11, n_dynamic=3, n_static=2, n_classes=3,
                         order=3)
    ckpt = tmp_path / "t11.ckpt"
    save_checkpoint(ckpt, ModelParams.initialized(
        config, np.random.default_rng(2)))
    visits = ["--visits", str(data / "visits.csv")]
    runs = {
        "decomposition.csv": [
            ["decompose", *visits, "--symlet", "5"],
            ["decompose", *visits, "--symlet", "2", "--feature", "dyn_1"]],
        "attention.csv": [
            ["inspect-attention", *visits, "--checkpoint", str(ckpt)],
            ["inspect-attention", *visits, "--checkpoint", str(ckpt),
             "--feature", "dyn_2"]],
    }
    written = {}
    for cpus, workers in ((None, 1), ({0}, 1), ({0, 1, 2, 3}, 4)):
        with monkeypatch.context() as patch:
            forks = _cpus(patch, cpus)
            for output, argvs in runs.items():
                for k, argv in enumerate(argvs):
                    out = tmp_path / f"{output}{k}_{workers}_{cpus is None}"
                    assert cli.main([*argv, "--out", str(out)]) == 0
                    assert sorted(os.listdir(out)) == \
                        sorted(["manifest.txt", output])
                    assert _no_child_left()
                    written.setdefault((output, k), []).append(
                        (out / output).read_bytes())
        assert len(forks) == 4 * (workers - 1)
    capsys.readouterr()
    for key, contents in written.items():
        assert contents[0].count(b"\n") > 4 * cli._ROW_BLOCK, key
        assert contents[1:] == contents[:1] * 2, key


@pytest.mark.parametrize("patients", [(5,), (cli._ROW_BLOCK + 3,),
                                      (3 * cli._ROW_BLOCK + 1,),
                                      (cli._ROW_BLOCK + 3,
                                       3 * cli._ROW_BLOCK + 1)],
                         ids=["parent", "worker1", "worker3", "workers1and3"])
def test_an_overflow_in_any_block_names_its_patient_and_leaves_nothing(
        tmp_path, capsys, monkeypatch, patients):
    # Four blocks on four CPUs make four runs of one block each: run 0 is
    # rendered by this process and run k by worker k.  The values of each
    # bad patient's feature ``a`` overflow its split; the first in the file
    # is the one named.
    rows = []
    for p in range(4 * cli._ROW_BLOCK):
        for v in range(5 + p % 4):
            a = 1.6e308 + v * 0.0125e308 if p in patients else p + v
            rows.append(f"q{p},{v},{a!r},{v * 0.5}\n")
    visits = tmp_path / "visits.csv"
    visits.write_text("patient_id,visit_index,a,b\n" + "".join(rows))
    forks = _cpus(monkeypatch, {0, 1, 2, 3})
    out = tmp_path / "out"
    code = cli.main(["decompose", "--visits", str(visits), "--symlet", "2",
                     "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3, err
    assert err.startswith(f"numerical error: decompose_batch: non-finite "
                          f"coefficient 0, feature 'a' of patient "
                          f"'q{patients[0]}': the values overflow the "
                          f"split"), err
    assert len(forks) == 3
    assert os.listdir(out) == ["manifest.txt"]
    assert _no_child_left()


def test_correlate_names_the_patient_whose_split_overflows(tmp_path, capsys):
    counts = (6, 5, 5, 6)
    (tmp_path / "v.csv").write_text("patient_id,visit_index,a,b\n" + "".join(
        f"p{p + 1},{v},{1.7e308 if p == 3 else v!r},{v * p}\n"
        for p, t in enumerate(counts) for v in range(t)))
    code = cli.main(["correlate", "--visits", str(tmp_path / "v.csv"),
                     "--symlet", "2", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 3, err
    assert "feature 'a' of patient 'p4'" in err, err


def _q_argv(tmp_path, command, dynamic_std, keep_q66=True):
    """The argv of ``command`` on patients q0..q69: feature a alternates
    -1, 1 (mean 0, std 1) but for patient q66, whose a is 1.7e308.  The
    checkpoint's stats have mean 0 and the given ``dynamic_std``."""
    patients = [p for p in range(70) if keep_q66 or p != 66]
    (tmp_path / "visits.csv").write_text(
        "patient_id,visit_index,a,b\n" + "".join(
            f"q{p},{v},{1.7e308 if p == 66 else (-1.0) ** (v + 1)!r},"
            f"{v * 0.5!r}\n" for p in patients for v in range(4)))
    (tmp_path / "static.csv").write_text(
        "patient_id,s\n" + "".join(f"q{p},{p % 3}\n" for p in patients))
    (tmp_path / "labels.csv").write_text(
        "patient_id,label\n" + "".join(f"q{p},{p % 2}\n" for p in patients))
    config = ModelConfig(t_max=4, n_dynamic=2, n_static=1, n_classes=2,
                         order=4)
    save_checkpoint(tmp_path / "m.ckpt",
                    ModelParams.initialized(config, np.random.default_rng(0)),
                    FeatureStats(np.zeros(2), np.array(dynamic_std),
                                 np.zeros(1), np.ones(1)))
    argv = [command, "--visits", str(tmp_path / "visits.csv"),
            "--out", str(tmp_path / "out")]
    if command != "inspect-attention":
        argv += ["--static", str(tmp_path / "static.csv"),
                 "--labels", str(tmp_path / "labels.csv")]
    if command == "train":
        argv += ["--symlet", "4", "--folds", "2", "--epochs", "1"]
    else:
        argv += ["--checkpoint", str(tmp_path / "m.ckpt")]
    return argv


@pytest.mark.parametrize("command", ["train", "eval", "inspect-attention"])
def test_every_command_names_the_patient_whose_split_overflows(
        tmp_path, capsys, command):
    # q66's a of 1.7e308 stays finite under the stats of the others and
    # the checkpoint's, and overflows the split.  Seed 0 holds q66 out of
    # fold 0, so train scores it with the stats of the others.
    code = cli.main(_q_argv(tmp_path, command, (1.0, 1.0)))
    err = capsys.readouterr().err
    assert code == 3, err
    assert "feature 'a' of patient 'q66'" in err, err


@pytest.mark.parametrize("keep_q66", [False, True],
                         ids=["without_q66", "with_q66"])
@pytest.mark.parametrize("std", [1e-300, 1e-308])
@pytest.mark.parametrize("command", ["eval", "inspect-attention"])
def test_attention_scores_that_overflow_name_their_patient(
        tmp_path, capsys, command, std, keep_q66):
    # A std of 1e-300 z-scores a's -1, 1 to finite lines whose squared
    # differences overflow, from patient q0 on; one of 1e-308 makes the
    # differences themselves overflow.  q66's own z-score overflows too,
    # in a later block.  The suite turns any numpy warning into an error.
    code = cli.main(_q_argv(tmp_path, command, (std, 1.0), keep_q66))
    err = capsys.readouterr().err
    assert code == 3, err
    assert err == ("numerical error: prepare: non-finite attention scores, "
                   "feature 'a' of patient 'q0': the differences of its "
                   "variation line overflow\n"), err
    assert os.listdir(tmp_path / "out") == ["manifest.txt"]


def test_sigterm_stops_every_worker_and_leaves_no_file(tmp_path,
                                                       monkeypatch):
    forks = _cpus(monkeypatch, {0, 1, 2})
    parent = os.getpid()

    def render(block):
        # This process is sent SIGTERM in its own block; the workers wait.
        if os.getpid() == parent:
            os.kill(parent, signal.SIGTERM)
        time.sleep(30)
        yield "never\n"

    before = signal.getsignal(signal.SIGTERM)
    start = time.monotonic()
    with pytest.raises(SystemExit) as stopped:
        cli._write_blocks(str(tmp_path / "rows.csv"), "h\n",
                          3 * cli._ROW_BLOCK, render)
    assert stopped.value.code == 128 + signal.SIGTERM
    assert time.monotonic() - start < 20
    assert len(forks) == 2
    assert os.listdir(tmp_path) == []
    assert _no_child_left()
    assert signal.getsignal(signal.SIGTERM) == before


def test_a_worker_that_dies_is_a_named_error(tmp_path, monkeypatch):
    _cpus(monkeypatch, {0, 1})
    parent = os.getpid()

    def render(block):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        yield "row\n"

    with pytest.raises(TrendvarError, match="worker process ended"):
        cli._write_blocks(str(tmp_path / "rows.csv"), "h\n",
                          2 * cli._ROW_BLOCK, render)
    assert os.listdir(tmp_path) == []
    assert _no_child_left()


def test_a_worker_stops_once_its_parent_is_gone(tmp_path, monkeypatch):
    # A writer process with one worker, whose run of 200 slow blocks would
    # take 20 s.  Every process holding the pipe's write end has exited
    # once its read end sees EOF, zombie or not.
    _cpus(monkeypatch, {0, 1})
    read_fd, write_fd = os.pipe()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        writer = os.fork()
    if writer == 0:
        try:
            os.close(read_fd)

            def render(block):
                if os.getpid() != writer_pid:
                    os.write(write_fd, b"w")
                time.sleep(0.1)
                yield "row\n"

            writer_pid = os.getpid()
            cli._write_blocks(str(tmp_path / "rows.csv"), "h\n",
                              400 * cli._ROW_BLOCK, render)
        finally:
            os._exit(0)
    os.close(write_fd)
    with open(read_fd, "rb", buffering=0) as pipe:
        assert pipe.read(1) == b"w"
        os.kill(writer, signal.SIGKILL)
        os.waitpid(writer, 0)
        start = time.monotonic()
        while pipe.read(1):
            assert time.monotonic() - start < 5
    assert time.monotonic() - start < 5
    assert _no_child_left()


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


def test_inspect_attention_shows_what_the_model_saw(tmp_path, workspace):
    # Every weight is, to the last bit, the attention of the variation
    # lines that the model's own preparation gives eval's cohort under the
    # checkpoint's stats and config.
    ckpt = workspace["train"] / "fold0.ckpt"
    out = tmp_path / "att"
    d = workspace["data"]
    run_ok("inspect-attention", "--visits", d / "visits.csv",
           "--checkpoint", ckpt, "--out", out)
    bundle = load_checkpoint(ckpt)
    cohort = load_cohort(d / "visits.csv", d / "static.csv",
                         d / "labels.csv")
    batch = prepare(cohort, bundle.stats, bundle.params.config)
    weights = diff_attention(batch.lines[:, :, 1]).weights
    expected = {(pid, name, str(i)): repr(w)
                for pid, per_feature in zip(cohort.ids, weights.tolist())
                for name, row in zip(cohort.dynamic_names, per_feature)
                for i, w in enumerate(row)}
    rows = read(out / "attention.csv").strip().splitlines()[1:]
    written = {tuple(row.split(",")[:3]): row.split(",")[4] for row in rows}
    assert len(written) == len(rows)
    assert written == expected


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


# -- imports ----------------------------------------------------------------------

_CORE = ["trendvar", "trendvar.cli", "trendvar.data", "trendvar.errors"]
_WAVELETS = ["trendvar._symlet_coeffs", "trendvar.wavelets"]
_MODEL = sorted(_CORE + _WAVELETS + [
    "trendvar.diff_attention", "trendvar.dilated", "trendvar.model"])
_EVERY_MODULE = sorted(_MODEL + ["trendvar.metrics", "trendvar.training"])

# Runs ``main`` as the console script does and reports, as its last line of
# stderr, the trendvar modules loaded and whether numpy.ma is among them.
_IMPORT_PROBE = """
import json, sys
from trendvar.cli import main
code = main(sys.argv[1:])
sys.stderr.write(json.dumps([
    sorted(m for m in sys.modules if m.split(".")[0] == "trendvar"),
    "numpy.ma" in sys.modules]) + "\\n")
sys.exit(code)
"""


_IMPORT_CASES = [
    (["synth", *SMALL_SYNTH], _CORE),
    (["decompose", "--visits", "{data}/visits.csv", "--symlet", "2"],
     sorted(_CORE + _WAVELETS)),
    (["correlate", "--visits", "{data}/visits.csv", "--symlet", "2"],
     sorted(_CORE + _WAVELETS + ["trendvar.metrics"])),
    (["train", "--synth", "default", "--symlet", "2", "--folds", "2",
      "--epochs", "1"], _EVERY_MODULE),
    (["eval", "--visits", "{data}/visits.csv", "--static",
      "{data}/static.csv", "--labels", "{data}/labels.csv",
      "--checkpoint", "{train}/fold0.ckpt"], _EVERY_MODULE),
    (["inspect-attention", "--visits", "{data}/visits.csv",
      "--checkpoint", "{train}/fold0.ckpt"], _MODEL),
    (["sweep-symlets", "--synth", "default", "--tmax", "8", "--folds", "2",
      "--epochs", "0"], _EVERY_MODULE),
]


@pytest.mark.parametrize("argv, modules", _IMPORT_CASES,
                         ids=[argv[0] for argv, _ in _IMPORT_CASES])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, workspace,
                                                      argv, modules):
    paths = {"data": workspace["data"], "train": workspace["train"]}
    argv = [arg.format(**paths) for arg in argv]
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *argv, "--out", tmp_path / "o"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    loaded, has_numpy_ma = json.loads(proc.stderr.splitlines()[-1])
    assert loaded == modules
    assert not has_numpy_ma
