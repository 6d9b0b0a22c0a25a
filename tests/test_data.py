"""Cohort IO, preprocessing and synthetic generator tests."""

import csv
import io
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendvar import data
from trendvar.data import (
    Cohort,
    SynthSpec,
    compute_stats,
    csv_field,
    load_cohort,
    load_visit_table,
    normalize,
    pad_to_length,
    synth_generate,
    write_cohort,
)
from trendvar.cli import SYNTH_PRESETS
from trendvar.errors import DataError, NumericError
from synth_reference import reference_synth_generate, reference_write_cohort


def write(path, text):
    path.write_text(text)
    return str(path)


def visit_tables(cohort):
    """{patient_id: (t, c) visit rows} of a cohort, in cohort order."""
    return {pid: cohort.visits(i) for i, pid in enumerate(cohort.ids)}


# -- visit table parsing ----------------------------------------------------

def test_visit_table_basic_shape(tmp_path):
    path = write(tmp_path / "v.csv",
                 "patient_id,visit_index,hr,bp\n"
                 "a,0,60.0,120.0\n"
                 "a,1,61.0,121.0\n"
                 "b,0,70.0,130.0\n")
    cohort = load_visit_table(path)
    tables = visit_tables(cohort)
    assert cohort.dynamic_names == ("hr", "bp")
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
    tables = visit_tables(load_visit_table(path))
    np.testing.assert_array_equal(tables["a"].ravel(), [1.0, 2.0, 3.0])


def test_missing_cells_forward_fill_then_zero(tmp_path):
    path = write(tmp_path / "v.csv",
                 "patient_id,visit_index,hr,bp\n"
                 "a,0,,5.0\n"
                 "a,1,2.0,\n"
                 "a,2,,\n")
    tables = visit_tables(load_visit_table(path))
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

    # The numpy pass hands a row without an id to the row walk.
    no_id = write(tmp_path / "v.csv",
                  "patient_id,visit_index,hr\na,0,60.0\n,1,61.0\n")
    with pytest.raises(DataError, match=r"v\.csv:3: empty patient id"):
        load_visit_table(no_id)

    bad_header = write(tmp_path / "h.csv", "id,visit,hr\na,0,1\n")
    with pytest.raises(DataError, match=r"h\.csv:1: header"):
        load_visit_table(bad_header)

    repeated = write(tmp_path / "d.csv",
                     "patient_id,visit_index,a,a\np,0,1.0,2.0\n")
    with pytest.raises(DataError,
                       match=r"d\.csv:1: repeated feature name 'a'"):
        load_visit_table(repeated)

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


def test_repeated_static_feature_name_is_rejected(tmp_path):
    visits = write(tmp_path / "v.csv",
                   "patient_id,visit_index,a,b\np,0,1.0,2.0\n")
    static = write(tmp_path / "s.csv", "patient_id,s,t,s\np,1.0,2.0,3.0\n")
    labels = write(tmp_path / "y.csv", "patient_id,label\np,0\n")
    with pytest.raises(DataError,
                       match=r"s\.csv:1: repeated feature name 's'"):
        load_cohort(visits, static, labels)


def test_interleaved_patients_keep_first_seen_order(tmp_path):
    path = write(tmp_path / "v.csv",
                 "patient_id,visit_index,hr\n"
                 "b,0,1.0\n"
                 "a,0,10.0\n"
                 "b,1,2.0\n"
                 "c,0,100.0\n"
                 "a,1,20.0\n"
                 "b,2,3.0\n")
    tables = visit_tables(load_visit_table(path))
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
    tables = visit_tables(load_visit_table(path))
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
    tables = visit_tables(load_visit_table(path))
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


# Plain fields, which the column pass must read as the row walk does.
_SPACE = st.sampled_from(
    ["", " ", "\t", "\x0b", "\x0c", "\xa0", "\x85", "\u2003", "\u3000"])
_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10 ** 6, 10 ** 6).map(str))
_CELL = st.one_of(
    st.sampled_from(["", '""']),
    st.tuples(_SPACE, _NUMBER, _SPACE).map("".join),
    _NUMBER.map('"{}"'.format))
# (text, value) of a visit_index cell.
_VISIT = st.one_of(
    st.tuples(_SPACE, st.sampled_from(["", "+"]), st.integers(0, 3),
              _SPACE).map(lambda t: (t[0] + t[1] + str(t[2]) + t[3], t[2])),
    st.integers(-3, -1).map(lambda v: (str(v), v)))
_ID = st.text(alphabet='ab ,"\r\n', min_size=1, max_size=4)
# (column, field) that numpy rejects or reads otherwise than the row walk,
# or that the row walk rejects; the column pass may defer on them.  Column
# 4 is a cell too many.
_ODD = st.sampled_from(
    [(0, ""), (0, "a\x1cb"), (4, "1")]
    + [(1, text) for text in
       ["1_0", "\u0663", "1.0", "\x1e2", "", "99999999999999999999"]]
    + [(column, text) for column in (2, 3) for text in
       ["1_0", "\u0661\u0662", "\uff13", "nan", "-inf", "Infinity", "1e400",
        "0x1p3", "\x1c1.5", "2.5\x1f", " ", "x", "1.5\x00"]])


def _quoted(text):
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.one_of(
    st.none(),  # a blank row
    st.tuples(_ID, _VISIT, _CELL, _CELL)), max_size=25),
    odd=st.none() | st.tuples(st.integers(0, 24), _ODD),
    ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=26,
                  max_size=26),
    presorted=st.booleans(), complete=st.booleans())
def test_column_pass_equals_the_row_walk(tmp_path_factory, rows, odd, ends,
                                         presorted, complete):
    # Tables that come sorted, or without a missing cell, take the loader's
    # shortcuts past the sort and the fill; the rest take the general path.
    if complete:
        rows = [row and (*row[:2], *(
            "0.5" if cell in ("", '""') else cell for cell in row[2:]))
            for row in rows]
    if presorted:
        first = {}
        for row in rows:
            if row:
                first.setdefault(row[0], len(first))
        rows = sorted((row for row in rows if row),
                      key=lambda row: (first[row[0]], row[1][1]))
    lines = [None if row is None
             else [_quoted(row[0]), row[1][0], *row[2:]] for row in rows]
    at = [i for i, line in enumerate(lines) if line]
    if odd and at:
        row, (column, field) = odd
        lines[at[row % len(at)]][column:column + 1] = [field]
    else:
        odd = None
    text = "".join(",".join(line or "") + end for line, end in zip(
        [["patient_id", "visit_index", "x", "y"], *lines], ends))
    path = tmp_path_factory.mktemp("visits") / "v.csv"
    path.write_bytes(text.encode("utf-8"))

    def same_values(a, b):
        # Bit for bit: a -0.0 cell stays -0.0, a missing one is NaN in both.
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    walk = data._rows(str(path))
    next(walk)
    try:
        expected, error = data._visit_tables_by_row(
            str(path), walk, ("x", "y")), None
    except DataError as exc:
        expected, error = None, str(exc)
    by_column = data._visit_records(str(path), 2)
    if by_column is None:
        # A table without rows warns in numpy and takes the row walk too.
        assert odd or not at, "a plain table took the row walk"
    else:
        assert error is None, error
        ids, codes, visit_index, values = by_column
        assert ids == expected[0]
        assert np.array_equal(codes, expected[1])
        assert np.array_equal(visit_index, expected[2])
        assert same_values(values, expected[3])
    try:
        cohort = load_visit_table(str(path))
    except DataError as exc:
        assert str(exc) == error
    else:
        assert error is None, error
        ids, values, offsets = data._visit_tables(*expected)
        assert cohort.ids == ids
        assert cohort.values.flags.c_contiguous
        assert same_values(cohort.values, values)
        assert np.array_equal(cohort.offsets, offsets)


def test_patient_rows_span_chunk_boundaries(tmp_path):
    path = write(tmp_path / "v.csv",
                 "patient_id,visit_index,hr,bp\n"
                 "a,2,,1.0\n"
                 "b,0,5.0,\n"
                 "a,0,,\n"
                 "a,1,3.0,\n"
                 "b,1,,6.0\n"
                 "a,3,,\n"
                 "c,0,9.0,9.5\n")
    tables = visit_tables(load_visit_table(path))
    assert list(tables) == ["a", "b", "c"]
    # a's rows lie apart in the file; the sort and the fill see them together.
    np.testing.assert_array_equal(
        tables["a"], [[0.0, 0.0], [3.0, 0.0], [3.0, 1.0], [3.0, 1.0]])
    np.testing.assert_array_equal(tables["b"], [[5.0, 0.0], [5.0, 6.0]])
    np.testing.assert_array_equal(tables["c"], [[9.0, 9.5]])


def test_blank_rows_at_chunk_boundaries_are_skipped(tmp_path):
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
    tables = visit_tables(load_visit_table(path))
    np.testing.assert_array_equal(tables["a"].ravel(), [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(tables["b"].ravel(), [4.0])


def test_bad_cell_in_a_later_chunk_names_its_line(tmp_path):
    lines = ["patient_id,visit_index,hr,bp"]
    lines += [f"p{i % 3},{i},{i}.5,1.0" for i in range(9)]
    lines[7] = "p0,6,6.5,high"
    path = write(tmp_path / "v.csv", "\n".join(lines) + "\n")
    with pytest.raises(DataError,
                       match=r"v\.csv:8: column bp: not a number: 'high'"):
        load_visit_table(path)


def test_missing_cells_do_not_take_the_row_walk(tmp_path, monkeypatch):
    def no_row_walk(*args):
        raise AssertionError("the row walk ran")

    monkeypatch.setattr(data, "_visit_tables_by_row", no_row_walk)
    dense = write(tmp_path / "dense.csv",
                  "patient_id,visit_index,hr,bp\n"
                  "a,1,2.0,6.0\n"
                  "b,0,4.0,8.0\n"
                  "a,0,1.0,5.0\n")
    cohort = load_visit_table(dense)
    assert [type(pid) for pid in cohort.ids] == [str, str]
    tables = visit_tables(cohort)
    np.testing.assert_array_equal(tables["a"], [[1.0, 5.0], [2.0, 6.0]])
    np.testing.assert_array_equal(tables["b"], [[4.0, 8.0]])
    sparse = write(tmp_path / "sparse.csv",
                   "patient_id,visit_index,hr,bp\n"
                   "a,1,,6.0\n"
                   "b,0,4.0,\n"
                   "a,0,1.0,\n"
                   'a,2,"",""\n'
                   "b,1,,8.0\n")
    tables = visit_tables(load_visit_table(sparse))
    np.testing.assert_array_equal(
        tables["a"], [[1.0, 0.0], [1.0, 6.0], [1.0, 6.0]])
    np.testing.assert_array_equal(tables["b"], [[4.0, 0.0], [4.0, 8.0]])


def test_ids_are_str_under_the_numpy_1_loadtxt_default(tmp_path, monkeypatch):
    # Before numpy 2.0, loadtxt's default encoding="bytes" hands converters
    # latin-1 bytes, so an id would come back as b"a".
    loadtxt = np.loadtxt
    monkeypatch.setattr(
        np, "loadtxt",
        lambda *args, encoding="bytes", **kwargs: loadtxt(
            *args, encoding=encoding, **kwargs))
    monkeypatch.setattr(data, "_visit_tables_by_row", None)
    for body in ("a,0,1.0\nb,0,2.0\n", "a,0,\nb,0,2.0\n"):
        path = write(tmp_path / "v.csv", "patient_id,visit_index,hr\n" + body)
        assert load_visit_table(path).ids == ("a", "b")


def test_bad_cells_skip_the_converter_pass(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(data, "_cell_or_nan", calls.append)
    path = write(tmp_path / "v.csv",
                 "patient_id,visit_index,hr\na,0,1.0\na,1,x\na,2,\n")
    with pytest.raises(DataError, match=r"v\.csv:3: column hr: not a number"):
        load_visit_table(path)

    # The numpy pass hands a row without an id to the row walk.
    no_id = write(tmp_path / "v.csv",
                  "patient_id,visit_index,hr\na,0,60.0\n,1,61.0\n")
    with pytest.raises(DataError, match=r"v\.csv:3: empty patient id"):
        load_visit_table(no_id)
    assert calls == []


def test_header_only_file_has_no_patients(tmp_path):
    path = write(tmp_path / "v.csv", "patient_id,visit_index,hr\n\n")
    cohort = load_visit_table(path)
    assert cohort.ids == () and cohort.dynamic_names == ("hr",)
    assert cohort.values.shape == (0, 1)
    np.testing.assert_array_equal(cohort.offsets, [0])
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
    # numpy reads a long id, a long finite number and a number after many
    # quoted line ends; the csv module's field limit rejects them all.
    for pid, cell in [("a", "9" * 200_000), ("a" * 200_000, "1.0"),
                      ("a", "0." + "0" * 200_000 + "1"),
                      ("a", '"' + "\n" * 200_000 + '1.5"')]:
        path = write(tmp_path / "v.csv",
                     "patient_id,visit_index,hr\na,0,1.0\n"
                     f"{pid},1,{cell}\n")
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
        cohort = load_visit_table(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nbytes = cohort.values.nbytes
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
    v, s, y = cohort_files(tmp_path)
    cohort = load_cohort(v, s, y)
    assert cohort.ids == ("a", "b")
    assert cohort.dynamic_names == ("hr",)
    assert cohort.static_names == ("age",)
    assert cohort.n_classes == 2
    assert cohort.labels[0] == 0
    np.testing.assert_array_equal(cohort.static[1], [40.0])
    np.testing.assert_array_equal(cohort.offsets, [0, 2, 3])
    # A blank line between patients of static.csv or labels.csv is skipped.
    blank = load_cohort(
        v, write(tmp_path / "blank_static.csv",
                 "patient_id,age\na,30.0\n\nb,40.0\n"),
        write(tmp_path / "blank_labels.csv",
              "patient_id,label\na,0\n\nb,1\n"))
    assert blank.ids == cohort.ids
    np.testing.assert_array_equal(blank.static, cohort.static)
    np.testing.assert_array_equal(blank.labels, cohort.labels)


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
    header = write(tmp_path / "header.csv", "id,label\na,0\nb,1\n")
    with pytest.raises(DataError,
                       match=r"header\.csv:1: header must be patient_id,label"):
        load_cohort(v, s, header)
    no_rows = write(tmp_path / "no_rows.csv", "patient_id,label\n")
    with pytest.raises(DataError, match=r"no_rows\.csv: no patients"):
        load_cohort(v, s, no_rows)


def test_static_table_needs_a_feature(tmp_path):
    v, _, y = cohort_files(tmp_path)
    ids_only = write(tmp_path / "ids.csv", "patient_id\na\nb\n")
    with pytest.raises(DataError,
                       match=r"ids\.csv:1: header must start with patient_id "
                             r"and name at least one feature"):
        load_cohort(v, ids_only, y)


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
    assert loaded.ids == cohort.ids
    np.testing.assert_array_equal(loaded.labels, cohort.labels)
    np.testing.assert_array_equal(loaded.values, cohort.values)
    np.testing.assert_array_equal(loaded.offsets, cohort.offsets)
    np.testing.assert_array_equal(loaded.static, cohort.static)


# Ids and names that hold what a CSV field must quote.
_AWKWARD_IDS = ("p,1", 'p"2', "p\n3", "p\r4", 'a,"b"', "plain")


def test_csv_field_quotes_as_csv_writer_does():
    for text in _AWKWARD_IDS + (" lead", "'q'", '"', "p\r\n5", "x;y"):
        row = io.StringIO()
        csv.writer(row).writerow([text, "x"])
        assert row.getvalue() == f"{csv_field(text)},x\r\n", repr(text)
    assert csv_field("p007") == "p007"


def test_awkward_ids_and_names_round_trip(tmp_path):
    cohort = replace(
        synth_generate(SynthSpec(
            n_patients=len(_AWKWARD_IDS), n_classes=3,
            slopes=(-1.0, 0.0, 1.0), amplitudes=(0.3, 0.9, 0.6),
            corr_signs=(1.0, -1.0, 1.0), n_dynamic=3, n_static=2, seed=4)),
        ids=_AWKWARD_IDS, dynamic_names=("a,1", 'b"2', "c"),
        static_names=("s,1", "s\n2"))
    loaded = load_cohort(*write_cohort(cohort, tmp_path / "out"))
    assert loaded.ids == cohort.ids
    assert loaded.dynamic_names == cohort.dynamic_names
    assert loaded.static_names == cohort.static_names
    np.testing.assert_array_equal(loaded.values, cohort.values)
    np.testing.assert_array_equal(loaded.offsets, cohort.offsets)
    np.testing.assert_array_equal(loaded.static, cohort.static)
    np.testing.assert_array_equal(loaded.labels, cohort.labels)


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
    return Cohort.stack(
        ("a", "b"),
        [np.array([[1.0], [2.0], [3.0], [4.0]]), np.array([[5.0], [6.0]])],
        [[10.0], [20.0]], [0, 1], ("x",), ("s",), 2)


def test_pad_keeps_most_recent_visits():
    cohort = two_patient_cohort()
    padded = pad_to_length(cohort, 3)
    assert padded.shape == (2, 3, 1)
    np.testing.assert_array_equal(padded[0].ravel(), [2.0, 3.0, 4.0])


def test_pad_repeats_final_visit():
    cohort = two_patient_cohort()
    padded = pad_to_length(cohort, 5)
    np.testing.assert_array_equal(padded[1].ravel(),
                                  [5.0, 6.0, 6.0, 6.0, 6.0])


def test_pad_exact_length_is_a_copy():
    cohort = two_patient_cohort()
    padded = pad_to_length(cohort, 4)
    np.testing.assert_array_equal(padded[0], cohort.visits(0))
    padded[0, 0, 0] = 99.0
    assert cohort.visits(0)[0, 0] == 1.0


@settings(max_examples=80, deadline=None)
@given(labels=st.lists(st.integers(0, 4), min_size=1, max_size=8),
       data=st.data())
def test_take_then_pad_equals_padding_each_patient(labels, data):
    n = len(labels)
    lengths = data.draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    index = data.draw(st.lists(st.integers(0, n - 1), max_size=12))
    t_max = data.draw(st.integers(1, 7))
    # Every cell distinct, so any misaligned row shows.
    visits = [100.0 * i + np.arange(2.0 * t).reshape(t, 2)
              for i, t in enumerate(lengths)]
    cohort = Cohort.stack([f"p{i}" for i in range(n)], visits,
                          -np.arange(float(n))[:, None], labels, ("x", "y"),
                          ("s",), 5)
    part = cohort.take(np.array(index, dtype=np.intp))

    def pad_one(v):
        if v.shape[0] >= t_max:
            return v[v.shape[0] - t_max:]
        return np.concatenate([v] + [v[-1:]] * (t_max - v.shape[0]))

    expected = np.array([pad_one(visits[i]) for i in index]).reshape(
        len(index), t_max, 2)
    np.testing.assert_array_equal(pad_to_length(part, t_max), expected)
    assert part.ids == tuple(f"p{i}" for i in index)
    assert part.labels.tolist() == [labels[i] for i in index]
    assert part.static.ravel().tolist() == [-float(i) for i in index]
    for k, i in enumerate(index):
        np.testing.assert_array_equal(part.visits(k), visits[i])


def test_pad_rejects_nonpositive_length():
    with pytest.raises(DataError, match="t_max"):
        pad_to_length(two_patient_cohort(), 0)


def test_compute_stats_population_std():
    cohort = two_patient_cohort()
    stats = compute_stats(cohort)
    rows = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    assert stats.dynamic_mean[0] == pytest.approx(rows.mean())
    assert stats.dynamic_std[0] == pytest.approx(rows.std())  # ddof=0
    assert stats.static_mean[0] == pytest.approx(15.0)
    with pytest.raises(DataError, match="empty cohort"):
        compute_stats(cohort.take([]))


def test_compute_stats_names_a_feature_that_overflows():
    cohort = two_patient_cohort()
    # A static mean that overflows, then a visit std that does.
    for changed in (replace(cohort, static=np.array([[1.7e308], [1.7e308]])),
                    replace(cohort, values=np.tile([[1e308], [-1e308]],
                                                   (3, 1)))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="feature '[sx]'"):
                compute_stats(changed)


def test_normalize_matches_direct_zscore():
    cohort = two_patient_cohort()
    stats = compute_stats(cohort)
    normed = normalize(cohort, stats)
    expected = (cohort.visits(0) - stats.dynamic_mean) / stats.dynamic_std
    np.testing.assert_allclose(normed.visits(0), expected, atol=1e-15)
    # normalized features have pooled mean 0 / std 1
    pooled = normed.values
    assert pooled.mean() == pytest.approx(0.0, abs=1e-12)
    assert pooled.std() == pytest.approx(1.0, abs=1e-12)


def test_normalize_zeroes_constant_features():
    cohort = Cohort.stack(("a", "b"), [np.full((2, 1), 7.0)] * 2,
                          [[3.0], [3.0]], [0, 1], ("x",), ("s",), 2)
    stats = compute_stats(cohort)
    assert stats.dynamic_std[0] == 0.0
    normed = normalize(cohort, stats)
    for i in range(len(normed)):
        assert np.abs(normed.visits(i)).max() == 0.0
        assert np.abs(normed.static[i]).max() == 0.0


def test_normalize_does_not_mutate_input():
    cohort = two_patient_cohort()
    before = cohort.visits(0).copy()
    normalize(cohort, compute_stats(cohort))
    np.testing.assert_array_equal(cohort.visits(0), before)


# -- synthetic cohorts ------------------------------------------------------

def test_synth_round_robin_labels_and_ids():
    cohort = synth_generate(SynthSpec(
        n_patients=7, n_classes=3, slopes=(-1.0, 0.0, 1.0),
        amplitudes=(0.1, 0.2, 0.3), corr_signs=(1.0, 1.0, 1.0), seed=1))
    assert cohort.labels.tolist() == [0, 1, 2, 0, 1, 2, 0]
    assert cohort.ids[:3] == ("p0", "p1", "p2")
    big = synth_generate(SynthSpec(
        n_patients=12, n_classes=2, slopes=(1.0, -1.0),
        amplitudes=(0.1, 0.1), corr_signs=(1.0, 1.0), seed=1))
    assert big.ids[0] == "p00"
    assert big.ids[11] == "p11"


def test_synth_is_seeded():
    spec = SynthSpec(n_patients=5, n_classes=2, slopes=(1.0, -1.0),
                     amplitudes=(0.2, 0.2), corr_signs=(1.0, 1.0), seed=9)
    a = synth_generate(spec)
    b = synth_generate(spec)
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.offsets, b.offsets)
    np.testing.assert_array_equal(a.static, b.static)


def test_synth_pure_trend_is_strictly_monotone():
    cohort = synth_generate(SynthSpec(
        n_patients=6, n_classes=2, slopes=(1.0, -1.0),
        amplitudes=(0.0, 0.0), corr_signs=(1.0, -1.0),
        n_dynamic=2, noise_scale=0.0, seed=3))
    for i, label in enumerate(cohort.labels):
        diffs = np.diff(cohort.visits(i), axis=0)
        if label == 0:
            assert np.all(diffs > 0)
        else:
            assert np.all(diffs < 0)


def test_synth_pure_oscillation_alternates():
    cohort = synth_generate(SynthSpec(
        n_patients=4, n_classes=2, slopes=(0.0, 0.0),
        amplitudes=(0.5, 1.0), corr_signs=(0.0, 0.0),
        n_dynamic=1, noise_scale=0.0, seed=6))
    for i in range(len(cohort)):
        diffs = np.diff(cohort.visits(i)[:, 0])
        signs = np.sign(diffs)
        assert np.all(signs[1:] == -signs[:-1])


def test_synth_visit_counts_and_statics():
    cohort = synth_generate(SynthSpec(
        n_patients=60, n_classes=2, slopes=(1.0, -1.0),
        amplitudes=(0.2, 0.2), corr_signs=(1.0, 1.0),
        mean_visits=4.0, seed=2))
    counts = np.diff(cohort.offsets).tolist()
    assert min(counts) >= 3
    assert len(set(counts)) > 1
    for static in cohort.static:
        assert set(np.unique(static)) <= {0.0, 1.0}


def test_synth_randomized_direction_mixes_trends():
    cohort = synth_generate(SynthSpec(
        n_patients=20, n_classes=2, slopes=(1.0, 1.0),
        amplitudes=(0.0, 0.0), corr_signs=(1.0, -1.0),
        n_dynamic=1, noise_scale=0.0,
        randomize_trend_direction=True, seed=5))
    series = [cohort.visits(i)[:, 0] for i in range(len(cohort))]
    rising = sum(np.all(np.diff(x) > 0) for x in series)
    falling = sum(np.all(np.diff(x) < 0) for x in series)
    assert rising + falling == 20
    assert rising > 0 and falling > 0


def test_synth_noise_features_lack_trend_structure():
    cohort = synth_generate(SynthSpec(
        n_patients=30, n_classes=2, slopes=(2.0, -2.0),
        amplitudes=(0.0, 0.0), corr_signs=(1.0, 1.0),
        n_dynamic=3, n_noise_features=1, noise_scale=0.0, seed=7))
    # informative columns move monotonically; the noise column does not
    noise_monotone = 0
    for i in range(len(cohort)):
        assert np.all(np.diff(cohort.visits(i)[:, 0]) != 0)
        diffs = np.diff(cohort.visits(i)[:, 2])
        if np.all(diffs > 0) or np.all(diffs < 0):
            noise_monotone += 1
    assert noise_monotone < len(cohort) // 2


_DRAW_ORDER_SPECS = [
    pytest.param(replace(SYNTH_PRESETS[name], seed=seed),
                 id=f"{name}-seed{seed}")
    for name in sorted(SYNTH_PRESETS) for seed in (0, 1, 7)
] + [
    pytest.param(replace(SYNTH_PRESETS["default"], n_noise_features=2,
                         randomize_trend_direction=True, seed=3),
                 id="noise-features-random-direction"),
    pytest.param(replace(SYNTH_PRESETS["default"], mean_visits=3, n_static=1,
                         static_class_weight=-0.7, seed=5),
                 id="short-one-static-negative-weight"),
]


@pytest.mark.parametrize("spec", _DRAW_ORDER_SPECS)
def test_synth_matches_the_per_feature_reference(tmp_path, spec):
    """Same draws from the same stream, the same bits and the same bytes as
    the generator that built one feature at a time."""
    cohort, expected = synth_generate(spec), reference_synth_generate(spec)
    for field in ("values", "offsets", "static", "labels"):
        got, want = getattr(cohort, field), getattr(expected, field)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), field
        assert got.tobytes() == want.tobytes(), field
    assert cohort.ids == expected.ids
    written = write_cohort(cohort, tmp_path / "new")
    reference = reference_write_cohort(expected, tmp_path / "reference")
    for new, old in zip(written, reference):
        assert Path(new).read_bytes() == Path(old).read_bytes(), new


def test_synth_overflow_is_a_named_data_error_without_a_warning():
    spec = SynthSpec(n_patients=6, n_classes=2, slopes=(1.0, -1.0),
                     amplitudes=(1e308, 0.3), corr_signs=(1.0, 1.0), seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="visit values of dyn_0 overflow"):
            synth_generate(spec)


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
    with pytest.raises(DataError, match="mean_visits"):
        SynthSpec(**{**good, "mean_visits": float("nan")})
    for noise in (-1.0, float("nan"), float("inf")):
        with pytest.raises(DataError, match="noise_scale"):
            SynthSpec(**{**good, "noise_scale": noise})
    SynthSpec(**{**good, "noise_scale": 0.0})
    for weight in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(DataError, match="static_class_weight"):
            SynthSpec(**{**good, "static_class_weight": weight})
    SynthSpec(**{**good, "static_class_weight": -0.3})
    with pytest.raises(DataError, match="mean_visits must be finite"):
        SynthSpec(**{**good, "mean_visits": float("inf")})
    for field in ("slopes", "amplitudes", "corr_signs"):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(DataError, match=f"{field} must be finite"):
                SynthSpec(**{**good, field: (bad, 0.5)})
