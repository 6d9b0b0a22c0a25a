"""Cohort IO, preprocessing and synthetic generator tests."""

import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendvar import data
from trendvar.data import (
    Cohort,
    Patient,
    SynthSpec,
    compute_stats,
    load_cohort,
    load_visit_table,
    normalize,
    pad_to_length,
    synth_generate,
    write_cohort,
)
from trendvar.errors import DataError


def write(path, text):
    path.write_text(text)
    return str(path)


# -- visit table parsing ----------------------------------------------------

def test_visit_table_basic_shape(tmp_path):
    path = write(tmp_path / "v.csv",
                 "patient_id,visit_index,hr,bp\n"
                 "a,0,60.0,120.0\n"
                 "a,1,61.0,121.0\n"
                 "b,0,70.0,130.0\n")
    tables, names = load_visit_table(path)
    assert names == ("hr", "bp")
    assert set(tables) == {"a", "b"}
    np.testing.assert_array_equal(tables["a"],
                                  [[60.0, 120.0], [61.0, 121.0]])
    np.testing.assert_array_equal(tables["b"], [[70.0, 130.0]])


def test_visit_rows_are_sorted_by_visit_index(tmp_path):
    path = write(tmp_path / "v.csv",
                 "patient_id,visit_index,hr\n"
                 "a,2,3.0\n"
                 "a,0,1.0\n"
                 "a,1,2.0\n")
    tables, _ = load_visit_table(path)
    np.testing.assert_array_equal(tables["a"].ravel(), [1.0, 2.0, 3.0])


def test_missing_cells_forward_fill_then_zero(tmp_path):
    path = write(tmp_path / "v.csv",
                 "patient_id,visit_index,hr,bp\n"
                 "a,0,,5.0\n"
                 "a,1,2.0,\n"
                 "a,2,,\n")
    tables, _ = load_visit_table(path)
    # hr: leading gap -> 0, then 2 carried forward; bp: 5 carried forward
    np.testing.assert_array_equal(tables["a"],
                                  [[0.0, 5.0], [2.0, 5.0], [2.0, 5.0]])


def test_visit_table_error_coordinates(tmp_path):
    path = write(tmp_path / "v.csv",
                 "patient_id,visit_index,hr\n"
                 "a,0,60.0\n"
                 "a,1,sixty\n")
    with pytest.raises(DataError, match=r"v\.csv:3: column hr: not a number"):
        load_visit_table(path)

    bad_header = write(tmp_path / "h.csv", "id,visit,hr\na,0,1\n")
    with pytest.raises(DataError, match=r"h\.csv:1: header"):
        load_visit_table(bad_header)

    bad_index = write(tmp_path / "i.csv",
                      "patient_id,visit_index,hr\na,first,1.0\n")
    with pytest.raises(DataError, match="visit_index: not an integer"):
        load_visit_table(bad_index)

    ragged = write(tmp_path / "r.csv",
                   "patient_id,visit_index,hr\na,0\n")
    with pytest.raises(DataError, match=r"r\.csv:2: expected 3 cells"):
        load_visit_table(ragged)

    nonfinite = write(tmp_path / "n.csv",
                      "patient_id,visit_index,hr\na,0,inf\n")
    with pytest.raises(DataError, match="non-finite"):
        load_visit_table(nonfinite)

    empty = write(tmp_path / "e.csv", "")
    with pytest.raises(DataError, match="file is empty"):
        load_visit_table(empty)

    with pytest.raises(DataError, match="cannot read"):
        load_visit_table(str(tmp_path / "missing.csv"))


def test_interleaved_patients_keep_first_seen_order(tmp_path):
    path = write(tmp_path / "v.csv",
                 "patient_id,visit_index,hr\n"
                 "b,0,1.0\n"
                 "a,0,10.0\n"
                 "b,1,2.0\n"
                 "c,0,100.0\n"
                 "a,1,20.0\n"
                 "b,2,3.0\n")
    tables, _ = load_visit_table(path)
    assert list(tables) == ["b", "a", "c"]
    np.testing.assert_array_equal(tables["b"].ravel(), [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(tables["a"].ravel(), [10.0, 20.0])
    np.testing.assert_array_equal(tables["c"].ravel(), [100.0])


def test_out_of_order_visits_sort_stably_per_patient(tmp_path):
    path = write(tmp_path / "v.csv",
                 "patient_id,visit_index,hr\n"
                 "a,5,3.0\n"
                 "b,1,20.0\n"
                 "a,-2,1.0\n"
                 "b,0,10.0\n"
                 "a,5,4.0\n"
                 "a,0,2.0\n")
    tables, _ = load_visit_table(path)
    # Equal visit_index values keep their file order (3.0 before 4.0).
    np.testing.assert_array_equal(tables["a"].ravel(), [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(tables["b"].ravel(), [10.0, 20.0])


def test_leading_gap_then_later_gap_per_patient(tmp_path):
    path = write(tmp_path / "v.csv",
                 "patient_id,visit_index,hr,bp\n"
                 "a,0,7.0,1.0\n"
                 "b,1,,\n"
                 "b,0,,2.0\n"
                 "b,2,5.0,\n"
                 "b,3,,3.0\n"
                 "a,1,,\n")
    tables, _ = load_visit_table(path)
    # b's leading hr gap is 0, never a's 7.0; later gaps carry b's own.
    np.testing.assert_array_equal(
        tables["b"], [[0.0, 2.0], [0.0, 2.0], [5.0, 2.0], [5.0, 3.0]])
    np.testing.assert_array_equal(tables["a"], [[7.0, 1.0], [7.0, 1.0]])


def test_nonfinite_cell_deep_in_the_file_names_line_and_column(tmp_path):
    lines = ["patient_id,visit_index,hr,bp"]
    lines += [f"p{i % 7},{i},{i}.5,{-i}.25" for i in range(400)]
    lines[312] = "p3,311,1.0,nan"
    path = write(tmp_path / "v.csv", "\n".join(lines) + "\n")
    with pytest.raises(DataError,
                       match=r"v\.csv:313: column bp: non-finite value 'nan'"):
        load_visit_table(path)
    lines[312] = "p3,311,-inf,"
    path = write(tmp_path / "v.csv", "\n".join(lines) + "\n")
    with pytest.raises(DataError,
                       match=r"v\.csv:313: column hr: non-finite value"):
        load_visit_table(path)


_CELLS = st.one_of(
    st.just(""),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10 ** 6, 10 ** 6).map(str))


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.one_of(
    st.none(),  # a blank row
    st.tuples(st.sampled_from("abcd"), st.integers(-3, 3),
              st.lists(_CELLS, min_size=2, max_size=2))),
    max_size=25))
def test_column_pass_equals_the_row_walk(rows):
    lines = [[] if row is None else [row[0], str(row[1]), *row[2]]
             for row in rows]
    numbered = list(enumerate(lines, start=2))
    by_row = data._visit_tables_by_row("v.csv", iter(numbered), ("x", "y"))
    for chunk_rows in (1, 2, 3, data.CHUNK_ROWS):
        with mock.patch.object(data, "CHUNK_ROWS", chunk_rows):
            by_chunk = data._visit_tables_by_chunk(iter(numbered), 4)
        assert list(by_chunk) == list(by_row), chunk_rows
        for pid, matrix in by_row.items():
            np.testing.assert_array_equal(by_chunk[pid], matrix)


def test_patient_rows_span_chunk_boundaries(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "CHUNK_ROWS", 2)
    path = write(tmp_path / "v.csv",
                 "patient_id,visit_index,hr,bp\n"
                 "a,2,,1.0\n"
                 "b,0,5.0,\n"
                 "a,0,,\n"
                 "a,1,3.0,\n"
                 "b,1,,6.0\n"
                 "a,3,,\n"
                 "c,0,9.0,9.5\n")
    tables, _ = load_visit_table(path)
    assert list(tables) == ["a", "b", "c"]
    # a's rows sit in three chunks; the sort and the fill see them together.
    np.testing.assert_array_equal(
        tables["a"], [[0.0, 0.0], [3.0, 0.0], [3.0, 1.0], [3.0, 1.0]])
    np.testing.assert_array_equal(tables["b"], [[5.0, 0.0], [5.0, 6.0]])
    np.testing.assert_array_equal(tables["c"], [[9.0, 9.5]])


def test_blank_rows_at_chunk_boundaries_are_skipped(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "CHUNK_ROWS", 2)
    path = write(tmp_path / "v.csv",
                 "patient_id,visit_index,hr\n"
                 "a,0,1.0\n"
                 "a,1,2.0\n"
                 "\n"
                 "\n"
                 "a,2,3.0\n"
                 "\n"
                 "b,0,4.0\n"
                 "\n")
    tables, _ = load_visit_table(path)
    np.testing.assert_array_equal(tables["a"].ravel(), [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(tables["b"].ravel(), [4.0])


def test_bad_cell_in_a_later_chunk_names_its_line(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "CHUNK_ROWS", 2)
    lines = ["patient_id,visit_index,hr,bp"]
    lines += [f"p{i % 3},{i},{i}.5,1.0" for i in range(9)]
    lines[7] = "p0,6,6.5,high"
    path = write(tmp_path / "v.csv", "\n".join(lines) + "\n")
    with pytest.raises(DataError,
                       match=r"v\.csv:8: column bp: not a number: 'high'"):
        load_visit_table(path)


def test_header_only_file_has_no_patients(tmp_path):
    path = write(tmp_path / "v.csv", "patient_id,visit_index,hr\n\n")
    assert load_visit_table(path) == ({}, ("hr",))
    v, s, y = cohort_files(tmp_path)
    header_only = write(tmp_path / "visits_header.csv",
                        "patient_id,visit_index,hr\n")
    with pytest.raises(DataError, match="'a' .*has no visits"):
        load_cohort(header_only, s, y)


def test_undecodable_bytes_name_their_line(tmp_path):
    # Far enough down that the text layer decodes it before the csv module
    # reaches its row.
    lines = [b"patient_id,visit_index,hr"]
    lines += [b"p%d,%d,1.0" % (i % 9, i) for i in range(3000)]
    lines[2500] = b"p1,2499,caf\xe9"
    path = tmp_path / "v.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(DataError, match=r"v\.csv:2501: not UTF-8 text"):
        load_visit_table(str(path))
    static = tmp_path / "s.csv"
    static.write_bytes(b"patient_id,age\na,30.0\n\xe9,40.0\n")
    v, _, y = cohort_files(tmp_path)
    with pytest.raises(DataError, match=r"s\.csv:3: not UTF-8 text"):
        load_cohort(v, str(static), y)


def test_oversized_field_names_its_line(tmp_path):
    path = write(tmp_path / "v.csv",
                 "patient_id,visit_index,hr\na,0,1.0\n"
                 f"a,1,{'9' * 200_000}\n")
    with pytest.raises(DataError,
                       match=r"v\.csv:3: field larger than field limit"):
        load_visit_table(path)


def test_loader_memory_is_bounded_by_the_tables(tmp_path):
    rng = np.random.default_rng(0)
    n_patients, n_visits, c = 1200, 25, 8
    values = rng.normal(size=(n_patients * n_visits, c))
    values[rng.random(values.shape) < 0.1] = np.nan
    lines = ["patient_id,visit_index," + ",".join(f"f{j}" for j in range(c))]
    for row, cells in enumerate(values.tolist()):
        pid, visit = divmod(row, n_visits)
        lines.append(f"p{pid},{visit}," + ",".join(
            "" if v != v else repr(v) for v in cells))
    path = write(tmp_path / "v.csv", "\n".join(lines) + "\n")
    del lines, values
    tracemalloc.start()
    try:
        tables, _ = load_visit_table(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nbytes = sum(table.nbytes for table in tables.values())
    assert nbytes == n_patients * n_visits * c * 8
    # The whole file as Python rows would be over 17 times the tables.
    assert peak <= 6 * nbytes + 4 * 2 ** 20, (peak, nbytes)


# -- full cohort loading ----------------------------------------------------

def cohort_files(tmp_path, visits=None, static=None, labels=None):
    v = write(tmp_path / "visits.csv", visits or
              "patient_id,visit_index,hr\n"
              "a,0,1.0\na,1,2.0\nb,0,3.0\n")
    s = write(tmp_path / "static.csv", static or
              "patient_id,age\na,30.0\nb,40.0\n")
    y = write(tmp_path / "labels.csv", labels or
              "patient_id,label\na,0\nb,1\n")
    return v, s, y


def test_load_cohort_joins_in_label_order(tmp_path):
    cohort = load_cohort(*cohort_files(tmp_path))
    assert [p.patient_id for p in cohort.patients] == ["a", "b"]
    assert cohort.dynamic_names == ("hr",)
    assert cohort.static_names == ("age",)
    assert cohort.n_classes == 2
    assert cohort.patients[0].label == 0
    np.testing.assert_array_equal(cohort.patients[1].static, [40.0])
    assert cohort.t_max is None


def test_load_cohort_reports_strays_by_name(tmp_path):
    v, s, y = cohort_files(
        tmp_path,
        labels="patient_id,label\na,0\nb,1\nc,0\n")
    with pytest.raises(DataError, match="'c'"):
        load_cohort(v, s, y)

    v2, s2, y2 = cohort_files(
        tmp_path,
        visits="patient_id,visit_index,hr\na,0,1.0\nb,0,2.0\nzz,0,9.0\n")
    with pytest.raises(DataError, match="'zz'"):
        load_cohort(v2, s2, y2)


def test_label_table_validation(tmp_path):
    v, s, _ = cohort_files(tmp_path)
    dup = write(tmp_path / "dup.csv", "patient_id,label\na,0\na,1\nb,1\n")
    with pytest.raises(DataError, match="duplicate patient id"):
        load_cohort(v, s, dup)
    neg = write(tmp_path / "neg.csv", "patient_id,label\na,-1\nb,1\n")
    with pytest.raises(DataError, match="negative label"):
        load_cohort(v, s, neg)
    word = write(tmp_path / "word.csv", "patient_id,label\na,yes\nb,1\n")
    with pytest.raises(DataError, match="not an integer"):
        load_cohort(v, s, word)


def test_write_then_load_round_trip(tmp_path):
    spec = SynthSpec(n_patients=9, n_classes=3, slopes=(-1.0, 0.0, 1.0),
                     amplitudes=(0.3, 0.9, 0.6), corr_signs=(1.0, -1.0, 1.0),
                     n_dynamic=3, n_static=2, seed=4)
    cohort = synth_generate(spec)
    paths = write_cohort(cohort, tmp_path / "out")
    loaded = load_cohort(*paths)
    assert loaded.dynamic_names == cohort.dynamic_names
    assert loaded.static_names == cohort.static_names
    assert loaded.n_classes == cohort.n_classes
    for orig, back in zip(cohort.patients, loaded.patients):
        assert orig.patient_id == back.patient_id
        assert orig.label == back.label
        np.testing.assert_array_equal(orig.visits, back.visits)
        np.testing.assert_array_equal(orig.static, back.static)


def test_write_cohort_is_byte_stable(tmp_path):
    cohort = synth_generate(SynthSpec(
        n_patients=4, n_classes=2, slopes=(1.0, -1.0),
        amplitudes=(0.1, 0.2), corr_signs=(1.0, 1.0), seed=0))
    first = write_cohort(cohort, tmp_path / "a")
    second = write_cohort(cohort, tmp_path / "b")
    for fa, fb in zip(first, second):
        assert Path(fa).read_bytes() == Path(fb).read_bytes()


# -- padding and normalization ----------------------------------------------

def two_patient_cohort():
    a = Patient("a", np.array([[1.0], [2.0], [3.0], [4.0]]),
                np.array([10.0]), 0)
    b = Patient("b", np.array([[5.0], [6.0]]), np.array([20.0]), 1)
    return Cohort((a, b), ("x",), ("s",), 2)


def test_pad_keeps_most_recent_visits():
    cohort = two_patient_cohort()
    padded = pad_to_length(cohort, 3)
    assert padded.t_max == 3
    np.testing.assert_array_equal(padded.patients[0].visits.ravel(),
                                  [2.0, 3.0, 4.0])


def test_pad_repeats_final_visit():
    cohort = two_patient_cohort()
    padded = pad_to_length(cohort, 5)
    np.testing.assert_array_equal(padded.patients[1].visits.ravel(),
                                  [5.0, 6.0, 6.0, 6.0, 6.0])


def test_pad_exact_length_is_a_copy():
    cohort = two_patient_cohort()
    padded = pad_to_length(cohort, 4)
    np.testing.assert_array_equal(padded.patients[0].visits,
                                  cohort.patients[0].visits)
    padded.patients[0].visits[0, 0] = 99.0
    assert cohort.patients[0].visits[0, 0] == 1.0


def test_pad_rejects_nonpositive_length():
    with pytest.raises(DataError, match="t_max"):
        pad_to_length(two_patient_cohort(), 0)


def test_compute_stats_population_std():
    cohort = two_patient_cohort()
    stats = compute_stats(cohort.patients)
    rows = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    assert stats.dynamic_mean[0] == pytest.approx(rows.mean())
    assert stats.dynamic_std[0] == pytest.approx(rows.std())  # ddof=0
    assert stats.static_mean[0] == pytest.approx(15.0)
    with pytest.raises(DataError, match="empty patient list"):
        compute_stats([])


def test_normalize_matches_direct_zscore():
    cohort = two_patient_cohort()
    stats = compute_stats(cohort.patients)
    normed = normalize(cohort, stats)
    expected = (cohort.patients[0].visits - stats.dynamic_mean) \
        / stats.dynamic_std
    np.testing.assert_allclose(normed.patients[0].visits, expected,
                               atol=1e-15)
    # normalized features have pooled mean 0 / std 1
    pooled = np.vstack([p.visits for p in normed.patients])
    assert pooled.mean() == pytest.approx(0.0, abs=1e-12)
    assert pooled.std() == pytest.approx(1.0, abs=1e-12)


def test_normalize_zeroes_constant_features():
    a = Patient("a", np.array([[7.0], [7.0]]), np.array([3.0]), 0)
    b = Patient("b", np.array([[7.0], [7.0]]), np.array([3.0]), 1)
    cohort = Cohort((a, b), ("x",), ("s",), 2)
    stats = compute_stats(cohort.patients)
    assert stats.dynamic_std[0] == 0.0
    normed = normalize(cohort, stats)
    for p in normed.patients:
        assert np.abs(p.visits).max() == 0.0
        assert np.abs(p.static).max() == 0.0


def test_normalize_does_not_mutate_input():
    cohort = two_patient_cohort()
    before = cohort.patients[0].visits.copy()
    normalize(cohort, compute_stats(cohort.patients))
    np.testing.assert_array_equal(cohort.patients[0].visits, before)


# -- synthetic cohorts ------------------------------------------------------

def test_synth_round_robin_labels_and_ids():
    cohort = synth_generate(SynthSpec(
        n_patients=7, n_classes=3, slopes=(-1.0, 0.0, 1.0),
        amplitudes=(0.1, 0.2, 0.3), corr_signs=(1.0, 1.0, 1.0), seed=1))
    assert cohort.labels().tolist() == [0, 1, 2, 0, 1, 2, 0]
    assert [p.patient_id for p in cohort.patients][:3] == ["p0", "p1", "p2"]
    big = synth_generate(SynthSpec(
        n_patients=12, n_classes=2, slopes=(1.0, -1.0),
        amplitudes=(0.1, 0.1), corr_signs=(1.0, 1.0), seed=1))
    assert big.patients[0].patient_id == "p00"
    assert big.patients[11].patient_id == "p11"


def test_synth_is_seeded():
    spec = SynthSpec(n_patients=5, n_classes=2, slopes=(1.0, -1.0),
                     amplitudes=(0.2, 0.2), corr_signs=(1.0, 1.0), seed=9)
    a = synth_generate(spec)
    b = synth_generate(spec)
    for pa, pb in zip(a.patients, b.patients):
        np.testing.assert_array_equal(pa.visits, pb.visits)
        np.testing.assert_array_equal(pa.static, pb.static)


def test_synth_pure_trend_is_strictly_monotone():
    cohort = synth_generate(SynthSpec(
        n_patients=6, n_classes=2, slopes=(1.0, -1.0),
        amplitudes=(0.0, 0.0), corr_signs=(1.0, -1.0),
        n_dynamic=2, noise_scale=0.0, seed=3))
    for p in cohort.patients:
        diffs = np.diff(p.visits, axis=0)
        if p.label == 0:
            assert np.all(diffs > 0)
        else:
            assert np.all(diffs < 0)


def test_synth_pure_oscillation_alternates():
    cohort = synth_generate(SynthSpec(
        n_patients=4, n_classes=2, slopes=(0.0, 0.0),
        amplitudes=(0.5, 1.0), corr_signs=(0.0, 0.0),
        n_dynamic=1, noise_scale=0.0, seed=6))
    for p in cohort.patients:
        diffs = np.diff(p.visits[:, 0])
        signs = np.sign(diffs)
        assert np.all(signs[1:] == -signs[:-1])


def test_synth_visit_counts_and_statics():
    cohort = synth_generate(SynthSpec(
        n_patients=60, n_classes=2, slopes=(1.0, -1.0),
        amplitudes=(0.2, 0.2), corr_signs=(1.0, 1.0),
        mean_visits=4.0, seed=2))
    counts = [p.visits.shape[0] for p in cohort.patients]
    assert min(counts) >= 3
    assert len(set(counts)) > 1
    for p in cohort.patients:
        assert set(np.unique(p.static)) <= {0.0, 1.0}


def test_synth_randomized_direction_mixes_trends():
    cohort = synth_generate(SynthSpec(
        n_patients=20, n_classes=2, slopes=(1.0, 1.0),
        amplitudes=(0.0, 0.0), corr_signs=(1.0, -1.0),
        n_dynamic=1, noise_scale=0.0,
        randomize_trend_direction=True, seed=5))
    rising = sum(np.all(np.diff(p.visits[:, 0]) > 0) for p in cohort.patients)
    falling = sum(np.all(np.diff(p.visits[:, 0]) < 0)
                  for p in cohort.patients)
    assert rising + falling == 20
    assert rising > 0 and falling > 0


def test_synth_noise_features_lack_trend_structure():
    cohort = synth_generate(SynthSpec(
        n_patients=30, n_classes=2, slopes=(2.0, -2.0),
        amplitudes=(0.0, 0.0), corr_signs=(1.0, 1.0),
        n_dynamic=3, n_noise_features=1, noise_scale=0.0, seed=7))
    # informative columns move monotonically; the noise column does not
    noise_monotone = 0
    for p in cohort.patients:
        assert np.all(np.diff(p.visits[:, 0]) != 0)
        diffs = np.diff(p.visits[:, 2])
        if np.all(diffs > 0) or np.all(diffs < 0):
            noise_monotone += 1
    assert noise_monotone < len(cohort.patients) // 2


def test_synth_spec_validation():
    good = dict(n_patients=10, n_classes=2, slopes=(1.0, -1.0),
                amplitudes=(0.1, 0.1), corr_signs=(1.0, 1.0))
    SynthSpec(**good)
    with pytest.raises(DataError, match="cannot cover"):
        SynthSpec(**{**good, "n_patients": 1})
    with pytest.raises(DataError, match="at least 2 classes"):
        SynthSpec(**{**good, "n_classes": 1, "slopes": (1.0,),
                     "amplitudes": (0.1,), "corr_signs": (1.0,)})
    with pytest.raises(DataError, match="slopes has 3 entries"):
        SynthSpec(**{**good, "slopes": (1.0, 0.0, -1.0)})
    with pytest.raises(DataError, match="degenerate class parameters"):
        SynthSpec(**{**good, "slopes": (1.0, 1.0),
                     "amplitudes": (0.1, 0.1)})
    with pytest.raises(DataError, match="n_noise_features"):
        SynthSpec(**{**good, "n_noise_features": 5})
    with pytest.raises(DataError, match="mean_visits"):
        SynthSpec(**{**good, "mean_visits": 2.0})
