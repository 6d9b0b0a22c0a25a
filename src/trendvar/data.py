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
import math
import os
import warnings
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .errors import DataError


@dataclass(frozen=True, eq=False)
class Cohort:
    """Immutable ragged cohort: every visit row in one array plus offsets.

    ``values`` (R, c) stacks the visit rows of all patients in patient
    order; patient ``i`` owns rows ``offsets[i]:offsets[i + 1]`` (the CSR
    ``indptr`` layout), ``offsets`` being (N + 1,) from 0 to R.  ``static``
    is (N, s), ``labels`` (N,) int64 and ``ids`` the N patient ids.
    """

    ids: tuple
    values: np.ndarray
    offsets: np.ndarray
    static: np.ndarray
    labels: np.ndarray
    dynamic_names: tuple
    static_names: tuple
    n_classes: int

    @classmethod
    def stack(cls, ids, visits, static, labels, dynamic_names, static_names,
              n_classes):
        """A cohort from one (t_i, c) visit matrix and one static row per
        patient."""
        return cls(tuple(ids), np.concatenate(visits),
                   np.cumsum([0] + [v.shape[0] for v in visits]),
                   np.asarray(static, dtype=np.float64),
                   np.asarray(labels, dtype=np.int64), tuple(dynamic_names),
                   tuple(static_names), n_classes)

    def __len__(self):
        return len(self.ids)

    @property
    def n_dynamic(self):
        return len(self.dynamic_names)

    @property
    def n_static(self):
        return len(self.static_names)

    def visits(self, i):
        """The (t_i, c) visit rows of patient ``i``, a view."""
        return self.values[self.offsets[i]:self.offsets[i + 1]]

    def take(self, index):
        """The patients at ``index`` (a slice or index array), in its order.

        Their visit rows are gathered by offsets into one new array.
        """
        index = np.arange(len(self))[index]
        starts = self.offsets[index]
        lengths = self.offsets[index + 1] - starts
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        rows = np.repeat(starts - offsets[:-1], lengths) \
            + np.arange(offsets[-1])
        return Cohort(tuple(self.ids[i] for i in index.tolist()),
                      self.values[rows], offsets, self.static[index],
                      self.labels[index], self.dynamic_names,
                      self.static_names, self.n_classes)


@dataclass(frozen=True)
class FeatureStats:
    """Per-feature means and standard deviations used for z-scoring."""

    dynamic_mean: np.ndarray
    dynamic_std: np.ndarray
    static_mean: np.ndarray
    static_std: np.ndarray


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


def _feature_names(path, header, start):
    """The names of a header's feature columns, from column ``start`` on;
    a repeated name raises on line 1."""
    seen = set()
    for name in header[start:]:
        if name in seen:
            raise DataError(f"{path}:1: repeated feature name {name!r}")
        seen.add(name)
    return tuple(header[start:])


def _parse_float(path, line_no, column, text):
    try:
        value = float(text)
    except ValueError:
        raise DataError(
            f"{path}:{line_no}: column {column}: not a number: {text!r}"
        ) from None
    if not math.isfinite(value):
        raise DataError(
            f"{path}:{line_no}: column {column}: non-finite value {text!r}"
        )
    return value


def load_visit_table(path):
    """Parse visits.csv alone into a visits-only ``Cohort``.

    Patients keep their first-seen order; rows are sorted by visit_index per
    patient; missing cells are forward-filled then zero-filled.  The cohort
    has no static features and every label is 0: it serves diagnostics
    that do not need them.
    """
    rows = _rows(path)
    _, header = next(rows)
    if len(header) < 3 or header[0] != "patient_id" or header[1] != "visit_index":
        raise DataError(
            f"{path}:1: header must start with patient_id,visit_index and "
            f"carry at least one feature column, got {header}"
        )
    names = _feature_names(path, header, 2)
    parsed = _visit_tables_by_column(path, len(names))
    if parsed is None:
        parsed = _visit_tables_by_row(path, rows, names)
    rows.close()
    ids, values, offsets = parsed
    return Cohort(ids, values, offsets, np.zeros((len(ids), 0)),
                  np.zeros(len(ids), dtype=np.int64), names, (), 1)


def _visit_tables_by_column(path, c):
    """The ids, visit rows and offsets of the patients from numpy's C
    tokenizer, or None where the row walk must decide (see
    ``_visit_records``).

    The sort and the forward fill are skipped when their result would be
    the identity: rows that come sorted by patient and visit_index, and a
    table without a missing cell.
    """
    parsed = _visit_records(path, c)
    if parsed is None:
        return None
    ids, table = parsed
    codes, visit_index = table["code"], table["visit_index"]
    step = np.diff(codes)
    if ((step > 0) | ((step == 0) & (np.diff(visit_index) >= 0))).all():
        values = np.ascontiguousarray(table["values"])
    else:
        # Stable: rows of one patient with equal visit_index keep file order.
        values = table["values"][np.lexsort((visit_index, codes))]
    counts = np.bincount(codes, minlength=len(ids))
    del table, codes, visit_index
    offsets = np.concatenate([[0], np.cumsum(counts)])
    present = ~np.isnan(values)
    if present.all():
        return ids, values, offsets
    # Each cell takes the latest present cell at or above it in its column,
    # if that one belongs to the same patient; a leading gap takes 0.
    last = np.where(present, np.arange(len(values))[:, None], -1)
    np.maximum.accumulate(last, axis=0, out=last)
    filled = np.take_along_axis(values, last, axis=0)
    filled[last < np.repeat(offsets[:-1], counts)[:, None]] = 0.0
    return ids, filled, offsets


def _visit_records(path, c, cell=None):
    r"""The ids in first-seen order and the (code, visit_index, values)
    records of the rows below the header of visits.csv, or None.

    ``cell`` converts the feature cells; None parses them in C, and a file
    whose first failing cell is an empty feature cell is read again with
    ``_cell_or_nan``.  None is returned on any other numpy error or warning
    (an empty table warns), bytes that are not UTF-8, an empty id, a
    non-finite value, and where the csv module could read the file
    otherwise: numpy strips the separators \x1c-\x1f around a number,
    which int() and float() reject, and does not cap the length of a field.
    A field is no longer than its record, which spans at most
    ``lines - records + 1`` lines.
    """
    first_seen = {}
    converters = dict.fromkeys(range(2, c + 2), cell) if cell else {}
    converters[0] = lambda pid: first_seen.setdefault(pid, len(first_seen))
    lines = longest = 0

    def batches(fh):
        nonlocal lines, longest
        while batch := fh.readlines(1 << 16):
            text = "".join(batch)
            if any(sep in text for sep in "\x1c\x1d\x1e\x1f"):
                raise ValueError("separator character")
            lines += len(batch)
            longest = max(longest, *map(len, batch))
            yield batch

    dtype = np.dtype([("code", np.intp), ("visit_index", np.int64),
                      ("values", np.float64, (c,))])
    try:
        with open(path, newline="", encoding="utf-8") as fh, \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            next(csv.reader(fh))
            table = np.loadtxt(chain.from_iterable(batches(fh)), dtype=dtype,
                               delimiter=",", comments=None, quotechar='"',
                               ndmin=1, converters=converters, encoding=None)
    except ValueError as exc:
        if cell is None and str(exc).startswith(_EMPTY_FEATURE_CELL):
            return _visit_records(path, c, _cell_or_nan)
        return None
    except (OSError, csv.Error, Warning):
        return None
    if ("" in first_seen
            or (cell is None and not np.isfinite(table["values"]).all())
            or longest * (lines - len(table) + 1) > csv.field_size_limit()):
        return None
    return tuple(first_seen), table


# How np.loadtxt reports an empty cell of a float64 field.
_EMPTY_FEATURE_CELL = "could not convert string '' to float64"


def _cell_or_nan(text):
    """A feature cell read as the row walk reads it, NaN if empty."""
    if not text:
        return np.nan
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _visit_tables_by_row(path, rows, names):
    """The ids, visit rows and offsets of the patients, row by row, raising
    the first problem by line.

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
    offsets = np.cumsum([0] + [len(e) for e in per_patient.values()])
    matrix = np.zeros((offsets[-1], len(names)))
    for start, entries in zip(offsets.tolist(), per_patient.values()):
        entries.sort(key=lambda e: e[0])
        for j in range(len(names)):
            last = 0.0
            for i, (_, values) in enumerate(entries):
                if values[j] is not None:
                    last = values[j]
                matrix[start + i, j] = last
    return tuple(per_patient), matrix, offsets


def _patient_rows(path, rows, width):
    """``(line_no, patient_id, cells)`` of the non-blank rows of a file with
    one row per patient; a ragged row or a repeated id raises by line."""
    seen = set()
    for line_no, row in rows:
        if not row:
            continue
        if len(row) != width:
            raise DataError(
                f"{path}:{line_no}: expected {width} cells, got {len(row)}"
            )
        if row[0] in seen:
            raise DataError(
                f"{path}:{line_no}: duplicate patient id {row[0]!r}")
        seen.add(row[0])
        yield line_no, row[0], row[1:]


def _load_static_table(path):
    rows = _rows(path)
    _, header = next(rows)
    if len(header) < 2 or header[0] != "patient_id":
        raise DataError(
            f"{path}:1: header must start with patient_id and carry at "
            f"least one feature column, got {header}"
        )
    names = _feature_names(path, header, 1)
    table = {
        pid: np.array([_parse_float(path, line_no, name, cell)
                       for name, cell in zip(names, cells)])
        for line_no, pid, cells in _patient_rows(path, rows, len(header))
    }
    return table, names


def _load_label_table(path):
    """{patient_id: label} in file order."""
    rows = _rows(path)
    _, header = next(rows)
    if header != ["patient_id", "label"]:
        raise DataError(
            f"{path}:1: header must be patient_id,label, got {header}"
        )
    table = {}
    for line_no, pid, (cell,) in _patient_rows(path, rows, 2):
        try:
            table[pid] = int(cell)
        except ValueError:
            raise DataError(
                f"{path}:{line_no}: column label: not an integer: {cell!r}"
            ) from None
        if table[pid] < 0:
            raise DataError(
                f"{path}:{line_no}: column label: negative label {cell}"
            )
    if not table:
        raise DataError(f"{path}: no patients")
    return table


def load_cohort(visits_path, static_path, labels_path):
    """Load and join the three cohort files.

    The patients follow the order of labels.csv.  Every id must appear in
    all three files; strays on either side are reported by name.
    """
    visits = load_visit_table(visits_path)
    static_table, static_names = _load_static_table(static_path)
    label_table = _load_label_table(labels_path)
    position = {pid: i for i, pid in enumerate(visits.ids)}
    for pid in label_table:
        for table, path, lack in ((position, visits_path, "has no visits"),
                                  (static_table, static_path,
                                   "has no static row")):
            if pid not in table:
                raise DataError(
                    f"{path}: unknown patient id {pid!r} "
                    f"(listed in {labels_path} but {lack})"
                )
    for ids, path in ((visits.ids, visits_path), (static_table, static_path)):
        for pid in ids:
            if pid not in label_table:
                raise DataError(
                    f"{path}: unknown patient id {pid!r} (not in "
                    f"{labels_path})"
                )
    order = list(label_table)
    return replace(
        visits.take([position[pid] for pid in order]),
        static=np.array([static_table[pid] for pid in order]),
        labels=np.array([label_table[pid] for pid in order], dtype=np.int64),
        static_names=static_names,
        n_classes=max(label_table.values()) + 1,
    )


def csv_field(text):
    """``text`` as one CSV field, quoted as ``csv.writer`` quotes it: only
    a field that holds a comma, a double quote or a line break is quoted,
    its quotes doubled."""
    if any(mark in text for mark in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_cohort(cohort, directory):
    """Write visits/static/labels CSVs; returns the three paths.

    Floats are written with repr() so a rewrite of the same cohort is
    byte-identical.  Each patient's visit rows go out as one block.
    """
    os.makedirs(directory, exist_ok=True)
    visits_path = os.path.join(directory, "visits.csv")
    static_path = os.path.join(directory, "static.csv")
    labels_path = os.path.join(directory, "labels.csv")
    ids = [csv_field(pid) for pid in cohort.ids]
    with open(visits_path, "w", newline="") as fh:
        fh.write(",".join(["patient_id", "visit_index",
                           *map(csv_field, cohort.dynamic_names)]) + "\n")
        for i, pid in enumerate(ids):
            fh.write("".join([
                f"{pid},{visit},{','.join(map(repr, row))}\n"
                for visit, row in enumerate(cohort.visits(i).tolist())]))
    with open(static_path, "w", newline="") as fh:
        fh.write(",".join(["patient_id",
                           *map(csv_field, cohort.static_names)]) + "\n")
        for pid, row in zip(ids, cohort.static.tolist()):
            fh.write(f"{pid},{','.join(map(repr, row))}\n")
    with open(labels_path, "w", newline="") as fh:
        fh.write("patient_id,label\n")
        for pid, label in zip(ids, cohort.labels.tolist()):
            fh.write(f"{pid},{label}\n")
    return visits_path, static_path, labels_path


def pad_to_length(cohort, t_max):
    """Every patient's visits fixed to exactly t_max: an (N, t_max, c) array.

    Longer histories keep their most recent t_max visits; shorter ones
    repeat the final visit, which leaves trend flat and variation ~zero in
    the padding instead of injecting an artificial jump to zero.
    """
    if t_max < 1:
        raise DataError(f"pad_to_length: t_max must be >= 1, got {t_max}")
    lengths = np.diff(cohort.offsets)
    # Visit j of a padded history is row skip + j of the patient, capped at
    # its final row; skip drops the oldest visits of a long history.
    skip = np.maximum(lengths - t_max, 0)
    take = np.minimum(skip[:, None] + np.arange(t_max), lengths[:, None] - 1)
    return cohort.values[cohort.offsets[:-1, None] + take]


def compute_stats(cohort):
    """Feature means/stds over all visit rows (and statics) of ``cohort``.

    Population std (ddof 0); constant features keep std 0 and are neutralised
    in ``normalize``.
    """
    if not len(cohort):
        raise DataError("compute_stats: empty cohort")
    return FeatureStats(
        dynamic_mean=cohort.values.mean(axis=0),
        dynamic_std=cohort.values.std(axis=0),
        static_mean=cohort.static.mean(axis=0),
        static_std=cohort.static.std(axis=0),
    )


def _zscore(matrix, mean, std):
    out = matrix - mean
    safe = np.where(std > 0, std, 1.0)
    out /= safe
    out[..., std == 0] = 0.0
    return out


def normalize(cohort, stats):
    """Z-score every patient with the given stats (never its own)."""
    return replace(
        cohort,
        values=_zscore(cohort.values, stats.dynamic_mean, stats.dynamic_std),
        static=_zscore(cohort.static, stats.static_mean, stats.static_std),
    )


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
            if not all(math.isfinite(value) for value in seq):
                raise DataError(
                    f"synthetic spec: {label} must be finite, got "
                    f"{', '.join(map(str, seq))}"
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
        if not (math.isfinite(self.mean_visits) and self.mean_visits >= 3):
            raise DataError(
                f"synthetic spec: mean_visits must be finite and >= 3, got "
                f"{self.mean_visits}"
            )
        if not (np.isfinite(self.noise_scale) and self.noise_scale >= 0):
            raise DataError(
                f"synthetic spec: noise_scale must be finite and >= 0, got "
                f"{self.noise_scale}"
            )
        if not np.isfinite(self.static_class_weight):
            raise DataError(
                f"synthetic spec: static_class_weight must be finite, got "
                f"{self.static_class_weight}"
            )


def synth_generate(spec):
    """Deterministic synthetic cohort for a ``SynthSpec``.

    Classes are assigned round-robin so every class is populated; visit
    counts vary around ``mean_visits`` with a floor of 3.  The same spec and
    seed give the same cohort, bit for bit: per patient the stream yields
    the visit count, then for each informative feature its optional trend
    direction, its phase and its noise, then the noise features, then the
    statics.  Class parameters that overflow raise ``DataError``.
    """
    rng = np.random.default_rng(spec.seed)
    c = spec.n_dynamic
    n_informative = c - spec.n_noise_features
    # Per column, a noise feature has zero slope, amplitude and coupling,
    # which leaves base + noise of its value.
    informative = (np.arange(c) < n_informative).astype(np.float64)
    base = 0.25 * np.arange(c)
    slopes = np.asarray(spec.slopes, dtype=np.float64)
    amplitudes = np.asarray(spec.amplitudes, dtype=np.float64)[:, None] \
        * informative
    coupling = 0.8 * np.asarray(spec.corr_signs, dtype=np.float64)
    # The two static probabilities, for (i + k) even and odd.
    weight = spec.static_class_weight
    probs = [min(max(0.5 + weight * lean, 0.05), 0.95)
             for lean in (1.0, -1.0)]
    static_prob = np.array([[probs[(i + k) % 2] for i in range(spec.n_static)]
                            for k in range(spec.n_classes)])
    grids = {}  # t -> (tau, 2 tau - 1, alternation of phase 0 and 1)
    labels = np.arange(spec.n_patients) % spec.n_classes
    static = np.empty((spec.n_patients, spec.n_static))
    visit_list = []
    with np.errstate(over="ignore", invalid="ignore"):
        for idx, k in enumerate(labels.tolist()):
            t = max(3, int(round(rng.normal(spec.mean_visits, 1.5))))
            if t not in grids:
                tau = np.linspace(0.0, 1.0, t)[:, None]
                grids[t] = (tau, 2.0 * tau - 1.0, np.where(
                    (np.arange(t)[:, None] + np.arange(2)) % 2 == 0,
                    1.0, -1.0))
            tau, centred, alternations = grids[t]
            directions = informative.copy()
            phases = np.zeros(c, dtype=np.intp)
            noise = []
            for j in range(n_informative):
                if spec.randomize_trend_direction:
                    directions[j] = rng.choice((-1.0, 1.0))
                phases[j] = rng.integers(0, 2)
                noise.append(rng.normal(0.0, spec.noise_scale, t))
            if spec.n_noise_features:
                noise.extend(rng.normal(0.0, 1.0, (spec.n_noise_features, t)))
            rng.random(out=static[idx])
            # Each element takes the operations of the formula above in
            # its order, as when the features were built one at a time.
            envelope = amplitudes[k] * (
                1.0 + coupling[k] * directions * centred)
            visit_list.append(
                base
                + directions * slopes[k] * tau
                + 0.5 * envelope * alternations[:, phases]
                + np.array(noise).T)
    digits = len(str(spec.n_patients - 1))
    cohort = Cohort.stack(
        [f"p{idx:0{digits}d}" for idx in range(spec.n_patients)],
        visit_list, (static < static_prob[labels]).astype(np.float64),
        labels, [f"dyn_{j}" for j in range(c)],
        [f"st_{i}" for i in range(spec.n_static)], spec.n_classes)
    overflow = ~np.isfinite(cohort.values).all(axis=0)
    if overflow.any():
        raise DataError(
            f"synthetic cohort: visit values of "
            f"{cohort.dynamic_names[overflow.argmax()]} overflow; slopes, "
            f"amplitudes and corr_signs must keep every value finite"
        )
    return cohort
