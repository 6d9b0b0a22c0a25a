"""Cohort loading, preprocessing and synthetic cohort generation.

A cohort is three CSV files joined on patient id:

  visits.csv  patient_id,visit_index,<feature columns>   one row per visit
  static.csv  patient_id,<feature columns>               one row per patient
  labels.csv  patient_id,label                           one row per patient

Visit cells may be empty (missing measurement); they are forward-filled
within the patient and any leading gap falls back to 0.0.  All error
messages carry file/line/column coordinates because cohort files are
typically exported by hand from somewhere messier.
"""

import csv
import os
from dataclasses import dataclass, replace
from itertools import chain, compress, islice

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class Patient:
    patient_id: str
    visits: np.ndarray      # (t, c) float64, t >= 1
    static: np.ndarray      # (s,) float64
    label: int


@dataclass(frozen=True)
class Cohort:
    """Immutable bundle of patients plus the feature naming.

    ``t_max`` is None until the cohort has been padded to a fixed length.
    """

    patients: tuple
    dynamic_names: tuple
    static_names: tuple
    n_classes: int
    t_max: "int | None" = None

    def __len__(self):
        return len(self.patients)

    @property
    def n_dynamic(self):
        return len(self.dynamic_names)

    @property
    def n_static(self):
        return len(self.static_names)

    def labels(self):
        return np.array([p.label for p in self.patients], dtype=np.int64)


@dataclass(frozen=True)
class FeatureStats:
    """Per-feature means and standard deviations used for z-scoring."""

    dynamic_mean: np.ndarray
    dynamic_std: np.ndarray
    static_mean: np.ndarray
    static_std: np.ndarray


# Rows of visits.csv turned into arrays at a time: the loader holds one
# chunk of rows as Python strings and 8 bytes per cell otherwise.
CHUNK_ROWS = 1024


def _rows(path):
    """Yield ``(line_no, cells)`` for every row of a cohort CSV, header first.

    The file is read as the rows are consumed.  An unreadable file, bytes
    that are not UTF-8 and rows the csv module rejects raise ``DataError``
    with the file (and line); a file without rows is "empty".
    """
    line_no = 0
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for line_no, row in enumerate(csv.reader(fh), start=1):
                yield line_no, row
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        # The text layer decodes ahead of the csv rows, so the line comes
        # from a second, binary pass.
        raise DataError(
            f"{path}:{_undecodable_line(path)}: not UTF-8 text ({exc.reason})"
        ) from None
    except csv.Error as exc:
        raise DataError(f"{path}:{line_no + 1}: {exc}") from None
    if line_no == 0:
        raise DataError(f"{path}: file is empty")


def _undecodable_line(path):
    """The number of the first line of ``path`` that is not UTF-8."""
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return line_no
    return "?"


def _parse_float(path, line_no, column, text):
    try:
        value = float(text)
    except ValueError:
        raise DataError(
            f"{path}:{line_no}: column {column}: not a number: {text!r}"
        ) from None
    if not np.isfinite(value):
        raise DataError(
            f"{path}:{line_no}: column {column}: non-finite value {text!r}"
        )
    return value


def load_visit_table(path):
    """Parse visits.csv alone: {patient_id: (t, c) array}, feature names.

    Patients keep their first-seen order; rows are sorted by visit_index per
    patient; missing cells are forward-filled then zero-filled.  Useful for
    diagnostics that do not need statics or labels.
    """
    rows = _rows(path)
    _, header = next(rows)
    if len(header) < 3 or header[0] != "patient_id" or header[1] != "visit_index":
        raise DataError(
            f"{path}:1: header must start with patient_id,visit_index and "
            f"carry at least one feature column, got {header}"
        )
    names = tuple(header[2:])
    tables = _visit_tables_by_chunk(rows, len(header))
    if tables is None:
        rows = _rows(path)
        next(rows)
        tables = _visit_tables_by_row(path, rows, names)
    return tables, names


def _visit_tables_by_chunk(rows, width):
    """The visit tables from column passes over chunks of ``CHUNK_ROWS`` rows.

    ``rows`` yields ``(line_no, cells)`` after the header.  Each chunk becomes
    arrays at once; the sort and the forward fill run on their concatenation.
    Returns None as soon as a row is off (ragged, empty id, bad visit_index,
    unparsable or non-finite cell); the per-row walk then names the first
    such problem with its line and column.
    """
    body = (row for _, row in rows if row)
    first_seen = {}
    parts = []
    while chunk := list(islice(body, CHUNK_ROWS)):
        part = _visit_chunk(chunk, width, first_seen)
        if part is None:
            return None
        parts.append(part)
    if not parts:
        return {}
    codes, visit_index, values, present = map(np.concatenate, zip(*parts))
    del parts
    n = codes.shape[0]
    # Stable: rows of one patient with equal visit_index keep file order.
    order = np.lexsort((visit_index, codes))
    values = values[order]
    present = present[order]
    counts = np.bincount(codes, minlength=len(first_seen))
    ends = np.cumsum(counts)
    starts = ends - counts
    # Each cell takes the latest present cell at or above it in its column,
    # if that one belongs to the same patient; a leading gap takes 0.
    last = np.where(present, np.arange(n)[:, None], -1)
    np.maximum.accumulate(last, axis=0, out=last)
    filled = np.take_along_axis(values, last, axis=0)
    filled[last < np.repeat(starts, counts)[:, None]] = 0.0
    return {pid: filled[s:e] for pid, s, e in zip(first_seen, starts, ends)}


def _visit_chunk(chunk, width, first_seen):
    """Patient codes, visit_index, values and present mask of some rows.

    ``chunk`` holds non-blank rows; ``first_seen`` maps patient ids to codes
    and grows with every new id.  Values and mask are (rows, c); missing
    cells hold 0.  Returns None if any row is off.
    """
    if any(len(row) != width for row in chunk):
        return None
    k, c = len(chunk), width - 2
    cells = list(chain.from_iterable(chunk))
    pids = cells[0::width]
    if "" in pids:
        return None
    # Feature cells column by column: (c, k) once reshaped.
    features = list(chain.from_iterable(
        cells[j::width] for j in range(2, width)))
    try:
        visit_index = np.fromiter(map(int, cells[1::width]), np.int64, k)
        present = np.fromiter(map(bool, features), bool, k * c)
        values = np.zeros(k * c)
        values[present] = np.fromiter(
            map(float, compress(features, present.tolist())), np.float64)
    except (ValueError, OverflowError):
        return None
    if not np.isfinite(values).all():
        return None
    codes = np.fromiter(
        (first_seen.setdefault(pid, len(first_seen)) for pid in pids),
        np.intp, k)
    return codes, visit_index, values.reshape(c, k).T, present.reshape(c, k).T


def _visit_tables_by_row(path, rows, names):
    """The visit tables row by row, raising the first problem by line.

    ``rows`` yields ``(line_no, cells)`` after the header.
    """
    width = len(names) + 2
    per_patient = {}
    for line_no, row in rows:
        if not row:
            continue
        if len(row) != width:
            raise DataError(
                f"{path}:{line_no}: expected {width} cells, got {len(row)}"
            )
        pid = row[0]
        if not pid:
            raise DataError(f"{path}:{line_no}: empty patient id")
        try:
            visit_index = int(row[1])
        except ValueError:
            raise DataError(
                f"{path}:{line_no}: column visit_index: not an integer: "
                f"{row[1]!r}"
            ) from None
        values = []
        for name, cell in zip(names, row[2:]):
            if cell == "":
                values.append(None)
            else:
                values.append(_parse_float(path, line_no, name, cell))
        per_patient.setdefault(pid, []).append((visit_index, values))
    tables = {}
    for pid, entries in per_patient.items():
        entries.sort(key=lambda e: e[0])
        matrix = np.zeros((len(entries), len(names)))
        for j in range(len(names)):
            last = 0.0
            for i, (_, values) in enumerate(entries):
                if values[j] is not None:
                    last = values[j]
                matrix[i, j] = last
        tables[pid] = matrix
    return tables


def _load_static_table(path):
    rows = _rows(path)
    _, header = next(rows)
    if len(header) < 2 or header[0] != "patient_id":
        raise DataError(
            f"{path}:1: header must start with patient_id and carry at "
            f"least one feature column, got {header}"
        )
    names = tuple(header[1:])
    table = {}
    for line_no, row in rows:
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(
                f"{path}:{line_no}: expected {len(header)} cells, got {len(row)}"
            )
        pid = row[0]
        if pid in table:
            raise DataError(f"{path}:{line_no}: duplicate patient id {pid!r}")
        table[pid] = np.array(
            [_parse_float(path, line_no, name, cell)
             for name, cell in zip(names, row[1:])],
        )
    return table, names


def _load_label_table(path):
    rows = _rows(path)
    _, header = next(rows)
    if header != ["patient_id", "label"]:
        raise DataError(
            f"{path}:1: header must be patient_id,label, got {header}"
        )
    table = {}
    order = []
    for line_no, row in rows:
        if not row:
            continue
        if len(row) != 2:
            raise DataError(
                f"{path}:{line_no}: expected 2 cells, got {len(row)}"
            )
        pid = row[0]
        if pid in table:
            raise DataError(f"{path}:{line_no}: duplicate patient id {pid!r}")
        try:
            table[pid] = int(row[1])
        except ValueError:
            raise DataError(
                f"{path}:{line_no}: column label: not an integer: {row[1]!r}"
            ) from None
        if table[pid] < 0:
            raise DataError(
                f"{path}:{line_no}: column label: negative label {row[1]}"
            )
        order.append(pid)
    if not order:
        raise DataError(f"{path}: no patients")
    return table, order


def load_cohort(visits_path, static_path, labels_path):
    """Load and join the three cohort files.

    Patient order follows labels.csv.  Every id must appear in all three
    files; strays on either side are reported by name.
    """
    visit_tables, dynamic_names = load_visit_table(visits_path)
    static_table, static_names = _load_static_table(static_path)
    label_table, order = _load_label_table(labels_path)
    for pid in order:
        if pid not in visit_tables:
            raise DataError(
                f"{visits_path}: unknown patient id {pid!r} "
                f"(listed in {labels_path} but has no visits)"
            )
        if pid not in static_table:
            raise DataError(
                f"{static_path}: unknown patient id {pid!r} "
                f"(listed in {labels_path} but has no static row)"
            )
    for pid in visit_tables:
        if pid not in label_table:
            raise DataError(
                f"{visits_path}: unknown patient id {pid!r} (not in "
                f"{labels_path})"
            )
    for pid in static_table:
        if pid not in label_table:
            raise DataError(
                f"{static_path}: unknown patient id {pid!r} (not in "
                f"{labels_path})"
            )
    n_classes = max(label_table.values()) + 1
    patients = tuple(
        Patient(pid, visit_tables[pid], static_table[pid], label_table[pid])
        for pid in order
    )
    return Cohort(patients, dynamic_names, static_names, n_classes)


def write_cohort(cohort, directory):
    """Write visits/static/labels CSVs; returns the three paths.

    Floats are written with repr() so a rewrite of the same cohort is
    byte-identical.
    """
    os.makedirs(directory, exist_ok=True)
    visits_path = os.path.join(directory, "visits.csv")
    static_path = os.path.join(directory, "static.csv")
    labels_path = os.path.join(directory, "labels.csv")
    with open(visits_path, "w", newline="") as fh:
        fh.write("patient_id,visit_index," + ",".join(cohort.dynamic_names) + "\n")
        for p in cohort.patients:
            for i in range(p.visits.shape[0]):
                cells = ",".join(repr(float(v)) for v in p.visits[i])
                fh.write(f"{p.patient_id},{i},{cells}\n")
    with open(static_path, "w", newline="") as fh:
        fh.write("patient_id," + ",".join(cohort.static_names) + "\n")
        for p in cohort.patients:
            cells = ",".join(repr(float(v)) for v in p.static)
            fh.write(f"{p.patient_id},{cells}\n")
    with open(labels_path, "w", newline="") as fh:
        fh.write("patient_id,label\n")
        for p in cohort.patients:
            fh.write(f"{p.patient_id},{p.label}\n")
    return visits_path, static_path, labels_path


def pad_to_length(cohort, t_max):
    """Fix every patient to exactly t_max visits.

    Longer histories keep their most recent t_max visits; shorter ones
    repeat the final visit, which leaves trend flat and variation ~zero in
    the padding instead of injecting an artificial jump to zero.
    """
    if t_max < 1:
        raise DataError(f"pad_to_length: t_max must be >= 1, got {t_max}")
    if not cohort.patients:
        return replace(cohort, t_max=t_max)
    rows, lengths = _stacked_visits(cohort.patients)
    starts = np.cumsum(lengths) - lengths
    # Visit j of a padded history is row skip + j of the patient, capped at
    # its final row; skip drops the oldest visits of a long history.
    skip = np.maximum(lengths - t_max, 0)
    take = np.minimum(skip[:, None] + np.arange(t_max), lengths[:, None] - 1)
    padded = rows[starts[:, None] + take]
    patients = tuple(Patient(p.patient_id, visits, p.static, p.label)
                     for p, visits in zip(cohort.patients, padded))
    return replace(cohort, patients=patients, t_max=t_max)


def _stacked_visits(patients):
    """All visit rows of ``patients`` in one (sum t, c) array, and each t."""
    lengths = np.array([p.visits.shape[0] for p in patients])
    return np.concatenate([p.visits for p in patients]), lengths


def compute_stats(patients):
    """Feature means/stds over all visit rows (and statics) of ``patients``.

    Population std (ddof 0); constant features keep std 0 and are neutralised
    in ``normalize``.
    """
    patients = list(patients)
    if not patients:
        raise DataError("compute_stats: empty patient list")
    stacked = np.vstack([p.visits for p in patients])
    statics = np.vstack([p.static for p in patients])
    return FeatureStats(
        dynamic_mean=stacked.mean(axis=0),
        dynamic_std=stacked.std(axis=0),
        static_mean=statics.mean(axis=0),
        static_std=statics.std(axis=0),
    )


def _zscore(matrix, mean, std):
    out = matrix - mean
    safe = np.where(std > 0, std, 1.0)
    out /= safe
    out[..., std == 0] = 0.0
    return out


def normalize(cohort, stats):
    """Z-score every patient with the given stats (never its own)."""
    if not cohort.patients:
        return cohort
    rows, lengths = _stacked_visits(cohort.patients)
    visits = np.split(
        _zscore(rows, stats.dynamic_mean, stats.dynamic_std),
        np.cumsum(lengths)[:-1])
    static = _zscore(np.stack([p.static for p in cohort.patients]),
                     stats.static_mean, stats.static_std)
    patients = tuple(Patient(p.patient_id, v, s, p.label)
                     for p, v, s in zip(cohort.patients, visits, static))
    return replace(cohort, patients=patients)


# ---------------------------------------------------------------------------
# Synthetic cohorts.
#
# Each dynamic feature of a class-k patient follows
#
#   x[i] = base_j + dir * slope_k * tau_i
#        + amp_k * (1 + 0.8 * corr_sign_k * dir * (2 tau_i - 1)) * alt_i / 2
#        + noise
#
# tau is a 0..1 grid over the patient's visits and alt alternates +-1, so the
# second term is a visit-to-visit oscillation whose envelope grows or shrinks
# ALONG the trend direction according to corr_sign_k.  With
# randomize_trend_direction on, dir is a per-feature coin flip: neither the
# trend alone nor the oscillation alone carries class information, only the
# sign coupling between them does.


@dataclass(frozen=True)
class SynthSpec:
    n_patients: int
    n_classes: int
    slopes: tuple
    amplitudes: tuple
    corr_signs: tuple
    n_dynamic: int = 5
    n_static: int = 4
    mean_visits: float = 12.0
    noise_scale: float = 0.1
    n_noise_features: int = 0
    randomize_trend_direction: bool = False
    static_class_weight: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.n_patients < self.n_classes:
            raise DataError(
                f"synthetic spec: {self.n_patients} patients cannot cover "
                f"{self.n_classes} classes"
            )
        if self.n_classes < 2:
            raise DataError("synthetic spec: need at least 2 classes")
        for label, seq in (("slopes", self.slopes),
                           ("amplitudes", self.amplitudes),
                           ("corr_signs", self.corr_signs)):
            if len(seq) != self.n_classes:
                raise DataError(
                    f"synthetic spec: {label} has {len(seq)} entries for "
                    f"{self.n_classes} classes"
                )
        triplets = list(zip(self.slopes, self.amplitudes, self.corr_signs))
        if len(set(triplets)) != len(triplets):
            raise DataError(
                "synthetic spec: degenerate class parameters, two classes "
                "share (slope, amplitude, corr_sign) "
                f"{sorted(triplets)}"
            )
        if self.n_dynamic < 1 or self.n_static < 1:
            raise DataError(
                "synthetic spec: need at least one dynamic and one static "
                "feature"
            )
        if not 0 <= self.n_noise_features < self.n_dynamic:
            raise DataError(
                f"synthetic spec: n_noise_features {self.n_noise_features} "
                f"must leave at least one informative dynamic feature"
            )
        if self.mean_visits < 3:
            raise DataError(
                f"synthetic spec: mean_visits must be >= 3, got "
                f"{self.mean_visits}"
            )


def synth_generate(spec):
    """Deterministic synthetic cohort for a ``SynthSpec``.

    Classes are assigned round-robin so every class is populated; visit
    counts vary around ``mean_visits`` with a floor of 3.
    """
    rng = np.random.default_rng(spec.seed)
    patients = []
    digits = len(str(spec.n_patients - 1))
    for idx in range(spec.n_patients):
        k = idx % spec.n_classes
        t = max(3, int(round(rng.normal(spec.mean_visits, 1.5))))
        tau = np.linspace(0.0, 1.0, t) if t > 1 else np.zeros(1)
        visits = np.empty((t, spec.n_dynamic))
        for j in range(spec.n_dynamic):
            base = 0.25 * j
            if j >= spec.n_dynamic - spec.n_noise_features:
                visits[:, j] = base + rng.normal(0.0, 1.0, t)
                continue
            direction = float(rng.choice((-1.0, 1.0))) \
                if spec.randomize_trend_direction else 1.0
            phase = int(rng.integers(0, 2))
            alternation = np.where((np.arange(t) + phase) % 2 == 0, 1.0, -1.0)
            envelope = spec.amplitudes[k] * (
                1.0 + 0.8 * spec.corr_signs[k] * direction * (2.0 * tau - 1.0)
            )
            visits[:, j] = (
                base
                + direction * spec.slopes[k] * tau
                + 0.5 * envelope * alternation
                + rng.normal(0.0, spec.noise_scale, t)
            )
        static = np.empty(spec.n_static)
        for i in range(spec.n_static):
            lean = 1.0 if (i + k) % 2 == 0 else -1.0
            prob = float(np.clip(0.5 + spec.static_class_weight * lean,
                                 0.05, 0.95))
            static[i] = 1.0 if rng.random() < prob else 0.0
        patients.append(Patient(f"p{idx:0{digits}d}", visits, static, k))
    dynamic_names = tuple(f"dyn_{j}" for j in range(spec.n_dynamic))
    static_names = tuple(f"st_{i}" for i in range(spec.n_static))
    return Cohort(tuple(patients), dynamic_names, static_names,
                  spec.n_classes)
