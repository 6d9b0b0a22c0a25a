"""Benchmark of the trendvar command line.

    python3 perfbench/run.py --workload cv_train_a7 --seed 1 --seconds 25 \
        --trace 0

Run from the root of a source checkout.  Set-up writes the workload's
inputs with ``trendvar synth`` (and ``trendvar train`` for a checkpoint);
the timed commands then run one at a time, each in a fresh interpreter
exactly as the ``trendvar`` console script starts them, until ``--seconds``
are spent.  Each command's time is scaled to a reference speed of the
machine (see ``SpeedReference``).  Every output is checked.  The last line of stdout is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of
``traced.py`` with ``--trace 1``.  See README.md beside this file.
"""

import argparse
import collections
import ctypes
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

# What the ``trendvar`` console script runs (pyproject.toml, project.scripts).
ENTRY = "import sys; from trendvar.cli import main; sys.exit(main())"
COMMAND_TIMEOUT_S = 150
# Set-up runs at least SETUP_REPEATS times and, while it is short, until
# SETUP_MIN_S are spent, so that its median rests on several samples.
SETUP_REPEATS = 3
SETUP_MIN_S = 4.0
SETUP_MAX_REPEATS = 12
SYMLET = "14"

# The ``threeclass`` preset of trendvar.cli, written to CSV.
THREECLASS = ["--patients", "1000", "--classes", "3", "--slopes=-1,0,1",
              "--amplitudes", "0.3,0.9,0.6", "--corr-signs", "1,-1,1",
              "--features", "3", "--static-features", "3",
              "--mean-visits", "12", "--noise", "0.2"]
CV_FOLDS = 2
CV_EPOCHS = 1
# 8 dynamic and 4 static features, about 24 visits per patient.
WIDE = ["--features", "8", "--static-features", "4", "--mean-visits", "24"]
WIDE_PATIENTS = 1200
CKPT_PATIENTS = 200
CKPT_SEED_OFFSET = 1_000_000

# The reference loop: small numpy operations and interpreter work, the mix
# the program's hot path spends its time on.  It takes between about 0.15
# and 0.35 s on a 2-vCPU 2.0 GHz Xeon virtual machine, as the host's load
# varies.  A command is scaled by the mean of the REF_NEIGHBOURS loops on
# each side of it.  REF_SHARE is the share of a command's time taken to
# follow the loop's speed; the rest (process start, file and memory traffic)
# follows it less.  0.75 gave the steadiest results on that machine, in
# five-seed sets of every workload and in a 12-minute log of repeated
# trains, whose log time regressed on log loop time with slope 0.74.
REF_SIGNAL = np.arange(64.0)
REF_FILTER = REF_SIGNAL[:14].copy()
REF_ITERATIONS = 20_000
REF_NOMINAL_S = 0.25
REF_NEIGHBOURS = 3
REF_SHARE = 0.75


def data_flags(cohort):
    return ["--visits", os.path.join(cohort, "visits.csv"),
            "--static", os.path.join(cohort, "static.csv"),
            "--labels", os.path.join(cohort, "labels.csv")]


def count_patients(cohort):
    return len(checks.read_labels(os.path.join(cohort, "labels.csv")))


# One timed command: ``argv(out_dir)`` builds its arguments, ``check(out_dir)``
# lists problems in its output, ``stable_files`` must repeat byte for byte.
Step = collections.namedtuple("Step", "name argv check stable_files")


class CvTrain:
    name = "cv_train_a7"
    quality_keys = ("mean_macro_auroc", "mean_macro_auprc")

    def setup(self, d, seed):
        return [["synth", *THREECLASS, "--seed", str(seed),
                 "--out", os.path.join(d, "cohort")]]

    def inputs(self, d):
        return [os.path.join(d, "cohort", n)
                for n in ("visits.csv", "static.csv", "labels.csv")]

    def steps(self, d, seed):
        stable = ["metrics.csv", "summary.txt"] + [
            f"{kind}{k}.{ext}" for k in range(CV_FOLDS)
            for kind, ext in (("epochs_fold", "csv"), ("fold", "ckpt"))]
        return [Step(
            "train",
            lambda out: ["train", *data_flags(os.path.join(d, "cohort")),
                         "--config", "A7", "--symlet", SYMLET, "--tmax", "16",
                         "--folds", str(CV_FOLDS), "--epochs", str(CV_EPOCHS),
                         "--lr", "0.003", "--seed", str(seed), "--out", out],
            lambda out: checks.check_train(out, CV_FOLDS),
            stable)]

    def work(self, d):
        # Patient-epochs: the training-set sizes of all folds sum to
        # (folds - 1) * N.
        return (CV_FOLDS - 1) * count_patients(os.path.join(d, "cohort")) \
            * CV_EPOCHS


class WideCohort:
    """Set-up shared by the scoring and diagnostics workloads."""

    def setup(self, d, seed):
        ckpt_cohort = os.path.join(d, "ckpt_cohort")
        return [
            ["synth", "--patients", str(WIDE_PATIENTS), *WIDE,
             "--seed", str(seed), "--out", os.path.join(d, "cohort")],
            ["synth", "--patients", str(CKPT_PATIENTS), *WIDE,
             "--seed", str(CKPT_SEED_OFFSET + seed), "--out", ckpt_cohort],
            ["train", *data_flags(ckpt_cohort), "--config", "A7",
             "--symlet", SYMLET, "--tmax", "29", "--folds", "2",
             "--epochs", "1", "--lr", "0.01", "--seed", str(seed),
             "--out", os.path.join(d, "ckpt_run")],
        ]

    def inputs(self, d):
        return [os.path.join(d, "cohort", n)
                for n in ("visits.csv", "static.csv", "labels.csv")] \
            + [os.path.join(d, "ckpt_run", "fold0.ckpt")]


class ScoreCsv(WideCohort):
    name = "score_csv"
    quality_keys = ("macro_auroc", "macro_auprc")

    def steps(self, d, seed):
        cohort = os.path.join(d, "cohort")
        return [Step(
            "eval",
            lambda out: ["eval", *data_flags(cohort), "--checkpoint",
                         os.path.join(d, "ckpt_run", "fold0.ckpt"),
                         "--out", out],
            lambda out: checks.check_score(
                out, os.path.join(cohort, "labels.csv")),
            ["scored.csv", "metrics.csv", "summary.txt"])]

    def work(self, d):
        return count_patients(os.path.join(d, "cohort"))


class DiagnoseCsv(WideCohort):
    name = "diagnose_csv"
    quality_keys = ()

    def steps(self, d, seed):
        visits = os.path.join(d, "cohort", "visits.csv")
        ckpt = os.path.join(d, "ckpt_run", "fold0.ckpt")

        def check_decomposition(out):
            sys.path.insert(0, SRC)
            from trendvar import wavelets
            return checks.check_decomposition(out, visits, int(SYMLET),
                                              wavelets)

        return [
            Step("decompose",
                 lambda out: ["decompose", "--visits", visits,
                              "--symlet", SYMLET, "--out", out],
                 check_decomposition, ["decomposition.csv"]),
            Step("correlate",
                 lambda out: ["correlate", "--visits", visits,
                              "--symlet", SYMLET, "--out", out],
                 lambda out: checks.check_correlation(out, visits),
                 ["correlation.csv"]),
            Step("inspect-attention",
                 lambda out: ["inspect-attention", "--visits", visits,
                              "--checkpoint", ckpt, "--out", out],
                 checks.check_attention, ["attention.csv"]),
        ]

    def work(self, d):
        return count_patients(os.path.join(d, "cohort")) * 3


WORKLOADS = {w.name: w for w in (CvTrain(), ScoreCsv(), DiagnoseCsv())}


Outcome = collections.namedtuple("Outcome", "code wall_s rss_mib")


def run_process(argv, log_path):
    """Run one process to completion; wall time and its own peak RSS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
            if proc.returncode is None:  # interrupted: leave nothing running
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux.
    return Outcome(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def reference_loop():
    """Time of the reference loop at the machine's current speed."""
    acc = 0.0
    start = time.perf_counter()
    for _ in range(REF_ITERATIONS):
        acc += float((np.convolve(REF_SIGNAL, REF_FILTER, mode="valid")
                      * 2.0 + 1.0).sum())
        for j in range(30):
            acc += j * 0.5
    return time.perf_counter() - start


class SpeedReference:
    """Scales command times to a fixed speed of the machine.

    A shared host changes the speed of its cores by up to a factor of two
    within minutes, and flips between a fast and a slow state within
    fractions of a second.  The reference loop runs in this process before
    the first command and after each one.  A command's wall time, divided by
    the mean of the REF_NEIGHBOURS loop times on each side of it over
    REF_NOMINAL_S, raised to REF_SHARE, is its time at the reference speed:
    the mean follows the drift over minutes and averages out the quick
    flips.  Without ``enabled`` nothing is scaled.
    """

    def __init__(self, enabled):
        self.loops = [reference_loop()] if enabled else None
        self.walls = []

    def record(self, wall_s):
        """Keep a command's wall time; returns its index."""
        self.walls.append(wall_s)
        if self.loops is not None:
            self.loops.append(reference_loop())
        return len(self.walls) - 1

    def scaled(self, i):
        """Wall time of command ``i`` at the reference speed."""
        if self.loops is None:
            return self.walls[i]
        near = self.loops[max(0, i + 1 - REF_NEIGHBOURS):
                          i + 1 + REF_NEIGHBOURS]
        speed = REF_NOMINAL_S / statistics.mean(near)
        return self.walls[i] * speed ** REF_SHARE


def trendvar(args, log_path):
    return run_process([sys.executable, "-c", ENTRY, *args], log_path)


def trendvar_traced(args, log_path, spans_path):
    return run_process([sys.executable, os.path.join(HERE, "traced.py"),
                        "--src", SRC, "--spans", spans_path, "--", *args],
                       log_path)


def set_up(workload, run_dir, seed, speed, repeat):
    """Build the inputs, several times with ``repeat``; returns (dir, the
    ``speed`` indices of each set-up's commands, problems)."""
    repeats, min_s = (SETUP_REPEATS, SETUP_MIN_S) if repeat else (1, 0.0)
    setups, digests = [], []
    spent = 0.0
    while len(setups) < repeats or (spent < min_s
                                    and len(setups) < SETUP_MAX_REPEATS):
        i = len(setups)
        d = os.path.join(run_dir, f"setup{i}")
        os.makedirs(d)
        setups.append([])
        for j, argv in enumerate(workload.setup(d, seed)):
            outcome = trendvar(argv, os.path.join(d, f"setup{j}.log"))
            if outcome.code != 0:
                with open(os.path.join(d, f"setup{j}.log"), "rb") as fh:
                    sys.stderr.write(fh.read().decode(errors="replace"))
                raise RuntimeError(
                    f"set-up command {argv[0]} exited {outcome.code}")
            spent += outcome.wall_s
            setups[-1].append(speed.record(outcome.wall_s))
        paths = workload.inputs(d)
        digests.append([checks.file_digests(os.path.dirname(p),
                                            [os.path.basename(p)])
                        for p in paths])
        if i:
            shutil.rmtree(d)
    problems = []
    if any(dg != digests[0] for dg in digests[1:]):
        problems.append("set-up: the same seed gave different inputs")
    return os.path.join(run_dir, "setup0"), setups, problems


class Rep:
    def __init__(self, traced_run):
        self.traced = traced_run
        self.walls = []  # per command
        self.marks = []  # per command, its index in the SpeedReference
        self.rss_mib = 0.0
        self.spans = []

    @property
    def wall_s(self):
        return sum(self.walls)


def measure(workload, inputs, run_dir, seed, seconds, trace, speed):
    """Closed loop: repeat the workload's commands one at a time until
    ``seconds`` are spent, recording each in ``speed``.  With
    ``trace`` untraced and traced repetitions alternate.  Returns the
    repetitions, the commands attempted and failed, and the problems
    found."""
    steps = workload.steps(inputs, seed)
    reps, reference = [], {}
    attempted = failed = 0
    problems = []
    start = time.perf_counter()
    while True:
        rep = Rep(traced_run=bool(trace) and len(reps) % 2 == 1)
        rep_dir = os.path.join(run_dir, f"rep{len(reps)}")
        for step in steps:
            out = os.path.join(rep_dir, step.name)
            os.makedirs(out)
            log = os.path.join(rep_dir, f"{step.name}.log")
            if rep.traced:
                spans = os.path.join(rep_dir, f"{step.name}.spans.json")
                outcome = trendvar_traced(step.argv(out), log, spans)
                if outcome.code == 0:
                    with open(spans) as fh:
                        rep.spans.append(json.load(fh))
            else:
                outcome = trendvar(step.argv(out), log)
            rep.walls.append(outcome.wall_s)
            rep.marks.append(speed.record(outcome.wall_s))
            rep.rss_mib = max(rep.rss_mib, outcome.rss_mib)
            attempted += 1
            problem = None
            if outcome.code != 0:
                problem = f"{step.name} exited {outcome.code}"
            else:
                try:
                    digest = checks.file_digests(out, step.stable_files)
                except OSError as exc:
                    problem = f"{step.name}: {exc}"
                else:
                    if reference.setdefault(step.name, digest) != digest:
                        problem = (f"{step.name}: output differs from the "
                                   f"first run with the same seed")
            if problem:
                failed += 1
                problems.append(problem)
        if reps:
            shutil.rmtree(rep_dir)
        reps.append(rep)
        # Start another repetition only if it should end nearer the end of
        # the window than stopping now does, judged by the last one of the
        # same kind, so that a run measures about ``seconds`` on average.
        next_traced = bool(trace) and len(reps) % 2 == 1
        same_kind = [r.wall_s for r in reps if r.traced == next_traced]
        next_wall = same_kind[-1] if same_kind else rep.wall_s
        elapsed = time.perf_counter() - start
        if len(reps) >= 2 and elapsed + next_wall / 2 > seconds:
            break
    # Full checks on the first repetition; later ones matched its bytes.
    for step in steps:
        out = os.path.join(run_dir, "rep0", step.name)
        try:
            found = step.check(out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            found = [f"{step.name}: unreadable output: {exc!r}"]
        if found:
            failed += 1
            problems.extend(found)
    return reps, attempted, failed, problems


def supported_percentile(n):
    """Highest whole percentile with at least ten samples beyond it."""
    for p in range(99, 49, -1):
        if n * (100 - p) / 100.0 >= 10:
            return p
    return None


def environment():
    """The environment the commands run in.  They inherit this process's
    CPU set and environment variables, so its nproc and OpenBLAS thread
    count are theirs."""
    env = {"nproc": len(os.sched_getaffinity(0)),
           "python": sys.version.split()[0], "numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
        env["blas_config"] = blas.get("openblas configuration", "")
    except (KeyError, TypeError):
        env["blas"] = "unknown"
    env["blas_threads"] = blas_threads()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env[var] = os.environ.get(var, "unset")
    env["commit"] = git_commit()
    return env


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, left as found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                  "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def metric(value, unit):
    return {"value": value, "unit": unit}


def median_repetition(per_command):
    """Sum over the commands of each one's median time: a stall that hits
    different commands in different repetitions moves no median."""
    return sum(statistics.median(times) for times in zip(*per_command))


def end_to_end(workload, run_dir, inputs, speed, setups, reps):
    setup_times = [sum(speed.scaled(i) for i in s) for s in setups]
    setup_raw = [sum(speed.walls[i] for i in s) for s in setups]
    scaled = [[speed.scaled(i) for i in r.marks] for r in reps]
    walls = [sum(s) for s in scaled]
    wall = median_repetition(scaled)
    raw = [r.wall_s for r in reps]
    summary = checks.read_summary(
        os.path.join(run_dir, "rep0", workload.steps(inputs, 0)[0].name,
                     "summary.txt")) if workload.quality_keys else {}
    lines = [f"setup_s        {statistics.median(setup_times):.4f} s "
             f"(median of {len(setup_times)} set-ups at reference speed; "
             f"raw median {statistics.median(setup_raw):.4f} s)"]
    p = supported_percentile(len(walls))
    tail = (f", p{p} {np.percentile(walls, p):.4f} s" if p else
            ", no tail percentile: it needs at least 20 runs")
    lines.append(f"wall_s         {wall:.4f} s (per-command medians of "
                 f"{len(walls)} runs at reference speed{tail}; each run: "
                 f"{' '.join(f'{w:.3f}' for w in walls)}; raw median "
                 f"{median_repetition([r.walls for r in reps]):.4f} s, "
                 f"each: {' '.join(f'{w:.3f}' for w in raw)})")
    work = workload.work(inputs)
    lines.append(f"patients_per_s {work / wall:.2f} 1/s ({work} per run)")
    rss = statistics.median(r.rss_mib for r in reps)
    lines.append(f"peak_rss_mib   {rss:.1f} MiB")
    for key in workload.quality_keys:
        label = key.replace("mean_", "")
        lines.append(f"{label:<14} {float(summary[key]):.6f} 1 "
                     f"(from summary.txt)")
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "wall_s": metric(wall, "s"),
        "patients_per_s": metric(work / wall, "1/s"),
        "peak_rss_mib": metric(rss, "MiB"),
    }
    return metrics, lines


def per_layer(reps):
    import traced  # only traced runs depend on the tracer

    untraced = statistics.median(r.wall_s for r in reps if not r.traced)
    rounds = [traced.layer_metrics(r.spans, r.wall_s, untraced)
              for r in reps if r.traced]
    metrics = {}
    for name, (_, unit) in rounds[0][0].items():
        metrics[name] = metric(
            statistics.median(values[name][0] for values, _, _ in rounds),
            unit)
    lines = [f"{name:<40} {m['value']:.6g} {m['unit']}"
             for name, m in metrics.items()]
    absent = sorted({a for _, found, _ in rounds for a in found})
    if absent:
        lines.append(f"absent layers (reported as 0): {', '.join(absent)}")
    for error in sorted({e for _, _, errs in rounds for e in errs}):
        lines.append(f"counter failed: {error}")
    lines.append(f"traced runs: {len(rounds)}, untraced runs: "
                 f"{len(reps) - len(rounds)}")
    return metrics, lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.
                                     RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "trendvar", "cli.py")):
        sys.stderr.write(f"no trendvar sources under {SRC}: run from the "
                         f"root of a trendvar checkout\n")
        return 2
    workload = WORKLOADS[args.workload]
    env = environment()
    speed = SpeedReference(enabled=not args.trace)
    run_dir = os.path.join(
        WORK, f"{workload.name}-s{args.seed}-t{args.trace}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        inputs, setups, problems = set_up(
            workload, run_dir, args.seed, speed, repeat=not args.trace)
        reps, attempted, failed, found = measure(
            workload, inputs, run_dir, args.seed, args.seconds, args.trace,
            speed)
        problems += found
        if args.trace:
            metrics, lines = per_layer(reps)
        else:
            metrics, lines = end_to_end(workload, run_dir, inputs,
                                        speed, setups, reps)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    for key, value in env.items():
        print(f"env {key} = {value}")
    for line in lines:
        print(line)
    print(f"failed_ratio   {failed / attempted:.4f} 1 "
          f"({failed} of {attempted} commands)")
    for problem in problems:
        print(f"problem: {problem}")
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
