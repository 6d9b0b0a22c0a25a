"""Span tracing for the benchmark's traced runs.

Run as a script, this replays one trendvar command in-process through
``trendvar.cli.main`` with the layer functions listed in ``TARGETS``
wrapped, and writes the recorded spans to a JSON file when the command
ends:

    python3 perfbench/traced.py --src src --spans spans.json -- eval ...

Imported, it provides ``layer_metrics``, which turns the span files of one
traced repetition into the per-layer metrics of ``BENCHMARK.json``.
``run.py`` imports it for traced runs only, so the untraced measurement
does not depend on anything here.

A span is ``[name_id, start, end, parent]``, times from
``time.perf_counter`` and ``parent`` the index of the enclosing span or -1.
A layer's self time is its span minus its direct child spans.
"""

import argparse
import functools
import importlib
import json
import os
import sys
import time


def _cohort_rows(args, kwargs, result):
    """The static and label rows of a cohort; its visit rows are counted
    by the ``load_visit_table`` call inside ``load_cohort``."""
    return 2 * len(result.patients)


def _table_rows(args, kwargs, result):
    tables = result[0]
    return sum(matrix.shape[0] for matrix in tables.values())


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


# (module, attribute, counter name, counter fn).  The counter fn sees the
# call's arguments and result; its value is added to the named counter.
# Only layer boundaries are wrapped: the autodiff primitives run some sixty
# times per patient and are counted through the tape instead.
TARGETS = [
    ("cli", "main", None, None),
    ("data", "load_cohort", "data.load.rows", _cohort_rows),
    ("data", "load_visit_table", "data.load.rows", _table_rows),
    ("data", "compute_stats", None, None),
    ("data", "normalize", None, None),
    ("data", "pad_to_length", None, None),
    ("wavelets", "decompose", None, None),
    ("model", "prepare_sample", None, None),
    ("model", "forward", None, None),
    ("model", "save_checkpoint", "model.checkpoint.bytes", _file_bytes),
    ("model", "load_checkpoint", "model.checkpoint.bytes", _file_bytes),
    ("dilated", "correlation_forward", None, None),
    ("diff_attention", "diff_attention", None, None),
    ("autodiff", "Tape.backward", None, None),
    ("training", "train", None, None),
    ("training", "adam_step", None, None),
    ("training", "run_fold", None, None),
    ("training", "predict_probs", None, None),
    ("metrics", "macro_one_vs_rest", None, None),
    ("metrics", "trend_variation_report", None, None),
]


# Counters that keep their largest value instead of a sum.  One checkpoint's
# size does not depend on how many folds save one.
MAX_COUNTERS = {"model.checkpoint.bytes"}


def combine(counter, old, value):
    if old is None:
        return value
    return max(old, value) if counter in MAX_COUNTERS else old + value


class Tracer:
    """Records spans and counters in memory until ``dump``."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.counts = {}
        self.absent = []
        self.hook_errors = []
        self._stack = []

    def wrap(self, name, fn, counter=None, count_fn=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name_id, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count_fn is not None:
                self.count(counter, name,
                           lambda: count_fn(args, kwargs, result))
            return result

        return wrapper

    def guard(self, name, fn):
        """``fn()``, or None if it fails.  A counter that no longer fits the
        program is recorded and skipped: it must not stop the run."""
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - recorded and reported
            self.hook_errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return None

    def count(self, counter, name, value_fn):
        """Add ``value_fn()`` to ``counter`` (or keep the larger, for a
        counter in MAX_COUNTERS)."""
        value = self.guard(name, value_fn)
        if value is not None:
            self.counts[counter] = combine(counter, self.counts.get(counter),
                                           value)

    def dump(self, path, exit_code):
        with open(path, "w") as fh:
            json.dump({
                "names": self.names, "spans": self.spans,
                "counts": self.counts, "absent": self.absent,
                "hook_errors": self.hook_errors, "exit_code": exit_code,
            }, fh)


def _patch_everywhere(original, replacement):
    """Rebind ``original`` in every loaded trendvar module.

    ``from .data import load_cohort`` copies the function into the
    importing module, so wrapping the defining module alone would miss
    those callers.
    """
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "trendvar"
                                  or mod_name.startswith("trendvar.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def install(tracer):
    """Wrap every target that exists; mark the rest absent."""
    importlib.import_module("trendvar.cli")
    for module_name, attr, counter, count_fn in TARGETS:
        name = f"{module_name}.{attr.rsplit('.', 1)[-1]}"
        try:
            owner = importlib.import_module(f"trendvar.{module_name}")
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
        except (ImportError, AttributeError):
            tracer.absent.append(name)
            continue
        wrapped = tracer.wrap(name, original, counter, count_fn)
        if name == "model.forward":
            wrapped = _count_tape_entries(tracer, wrapped)
        setattr(owner, path[-1], wrapped)
        if len(path) == 1:
            _patch_everywhere(original, wrapped)


def _count_tape_entries(tracer, forward):
    """Wrap ``forward`` (outside its span) to count the tape entries each
    forward pass records."""
    try:
        active_tape = importlib.import_module("trendvar.autodiff").active_tape
    except (ImportError, AttributeError):
        tracer.absent.append("autodiff.tape")
        return forward

    def tape_size():
        tape = active_tape()
        return tape, len(tape.entries)

    @functools.wraps(forward)
    def wrapper(*args, **kwargs):
        before = tracer.guard("model.forward", tape_size)
        result = forward(*args, **kwargs)
        if before is not None:
            tape, start = before
            tracer.count("autodiff.tape.entries", "model.forward",
                         lambda: len(tape.entries) - start)
        return result

    return wrapper


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] \
        else args.command
    sys.path.insert(0, os.path.abspath(args.src))
    tracer = Tracer()
    install(tracer)
    cli = importlib.import_module("trendvar.cli")
    code = cli.main(command)
    tracer.dump(args.spans, code)
    return code


# ---------------------------------------------------------------- analysis

def _per_name(dumps):
    """Calls, inclusive and self seconds per span name over all dumps."""
    calls, total, child = {}, {}, {}
    for dump in dumps:
        names, spans = dump["names"], dump["spans"]
        child_time = [0.0] * len(spans)
        for name_id, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name_id, start, end, parent) in enumerate(spans):
            name = names[name_id]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            child[name] = child.get(name, 0.0) + child_time[i]
    self_s = {name: total[name] - child[name] for name in total}
    return calls, total, self_s


_LOADS = ("data.load_cohort", "data.load_visit_table")


def layer_metrics(dumps, traced_wall_s, untraced_wall_s):
    """Per-layer metrics of one traced repetition (one dump per command).

    Layers that were never called, or absent from the program, read 0.
    """
    calls, total, self_s = _per_name(dumps)
    counts = {}
    for dump in dumps:
        for key, value in dump["counts"].items():
            counts[key] = combine(key, counts.get(key), value)
    run_fold = [end - start for dump in dumps
                for name_id, start, end, _ in dump["spans"]
                if dump["names"][name_id] == "training.run_fold"]
    # load_cohort reads the visits through load_visit_table: time only the
    # outermost load.
    load_s = 0.0
    for dump in dumps:
        names, spans = dump["names"], dump["spans"]
        for name_id, start, end, parent in spans:
            if names[name_id] in _LOADS and not (
                    parent >= 0 and names[spans[parent][0]] in _LOADS):
                load_s += end - start

    def n(name):
        return calls.get(name, 0)

    def inc(name):
        return total.get(name, 0.0)

    def own(name):
        return self_s.get(name, 0.0)

    def per_call_us(name):
        return inc(name) / n(name) * 1e6 if n(name) else 0.0

    hot = (inc("model.forward") + inc("autodiff.backward")
           + inc("training.adam_step"))
    values = {
        "data.load_cohort.s": (inc("data.load_cohort"), "s"),
        "data.load_visit_table.s": (inc("data.load_visit_table"), "s"),
        "data.load.rows_per_s": (
            counts.get("data.load.rows", 0) / load_s if load_s else 0.0,
            "1/s"),
        "data.preprocess.s": (inc("data.compute_stats") + inc("data.normalize")
                              + inc("data.pad_to_length"), "s"),
        "wavelets.decompose.calls": (n("wavelets.decompose"), "count"),
        "wavelets.decompose.self_s": (own("wavelets.decompose"), "s"),
        "wavelets.decompose.us_per_call": (
            per_call_us("wavelets.decompose"), "us"),
        "model.prepare_sample.calls": (n("model.prepare_sample"), "count"),
        "model.prepare_sample.s": (inc("model.prepare_sample"), "s"),
        "model.forward.calls": (n("model.forward"), "count"),
        "model.forward.self_s": (own("model.forward"), "s"),
        "model.forward.us_per_call": (per_call_us("model.forward"), "us"),
        "dilated.correlation_forward.calls": (
            n("dilated.correlation_forward"), "count"),
        "dilated.correlation_forward.self_s": (
            own("dilated.correlation_forward"), "s"),
        "diff_attention.diff_attention.calls": (
            n("diff_attention.diff_attention"), "count"),
        "diff_attention.diff_attention.self_s": (
            own("diff_attention.diff_attention"), "s"),
        "autodiff.tape.entries_per_forward": (
            counts.get("autodiff.tape.entries", 0) / n("model.forward")
            if n("model.forward") else 0.0, "count"),
        "autodiff.backward.calls": (n("autodiff.backward"), "count"),
        "autodiff.backward.self_s": (own("autodiff.backward"), "s"),
        "autodiff.backward.us_per_call": (
            per_call_us("autodiff.backward"), "us"),
        "training.adam_step.calls": (n("training.adam_step"), "count"),
        "training.adam_step.self_s": (own("training.adam_step"), "s"),
        "training.train.self_s": (own("training.train"), "s"),
        "training.run_fold.s_sum": (sum(run_fold), "s"),
        "training.run_fold.s_max": (max(run_fold, default=0.0), "s"),
        "training.predict_probs.self_s": (
            own("training.predict_probs"), "s"),
        "metrics.macro_one_vs_rest.s": (inc("metrics.macro_one_vs_rest"), "s"),
        "metrics.trend_variation_report.s": (
            inc("metrics.trend_variation_report"), "s"),
        "model.save_checkpoint.s": (inc("model.save_checkpoint"), "s"),
        "model.load_checkpoint.s": (inc("model.load_checkpoint"), "s"),
        "model.checkpoint.bytes": (counts.get("model.checkpoint.bytes", 0),
                                   "bytes"),
        "cli.self_s": (own("cli.main"), "s"),
        "trace.model_path_share": (
            hot / traced_wall_s if traced_wall_s else 0.0, "ratio"),
        "trace.overhead_ratio": (
            traced_wall_s / untraced_wall_s if untraced_wall_s else 0.0,
            "ratio"),
    }
    absent = sorted({name for dump in dumps for name in dump["absent"]})
    hook_errors = sorted({e for dump in dumps for e in dump["hook_errors"]})
    return values, absent, hook_errors


if __name__ == "__main__":
    sys.exit(main())
