"""Wavelet stage tests, against the loop oracle of ``wavelet_oracle``."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohorts import cohort_of
from trendvar import wavelets
from trendvar.data import Cohort
from trendvar.errors import ConfigError, NumericError
from trendvar.wavelets import (
    MAX_ORDER,
    MIN_ORDER,
    TrendVariationPair,
    analysis_matrix,
    coefficient_count,
    decompose,
    decompose_batch,
    decompose_ragged,
    reconstruct,
    symlet_filters,
)
from wavelet_oracle import oracle_line

ALL_ORDERS = range(MIN_ORDER, MAX_ORDER + 1)


@pytest.mark.parametrize("order", ALL_ORDERS)
def test_filter_invariants(order):
    pair = symlet_filters(order)
    f = pair.length
    assert len(pair.lowpass) == 2 * order
    assert abs(pair.lowpass.sum() - np.sqrt(2)) <= 1e-12
    assert abs(np.dot(pair.lowpass, pair.lowpass) - 1.0) <= 1e-12
    for n in range(f):
        assert pair.highpass[n] == (-1.0) ** n * pair.lowpass[f - 1 - n]
    grid = np.arange(f, dtype=float)
    for p in range(order):
        assert abs(np.dot(grid ** p, pair.highpass)) <= 1e-7 * f ** p


def test_order2_matches_published_values():
    pair = symlet_filters(2)
    expected = [0.4829629131, 0.8365163037, 0.2241438680, -0.1294095226]
    assert pair.lowpass == pytest.approx(expected, abs=1e-10)


def test_unsupported_order_names_the_range():
    for bad in (1, 0, 21, 40):
        with pytest.raises(ConfigError, match="2..20"):
            symlet_filters(bad)


def test_filter_pairs_are_built_on_first_use_once_and_read_only():
    source = os.path.dirname(os.path.dirname(wavelets.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import trendvar.wavelets as w; "
         "print(w.symlet_filters.cache_info().currsize)"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=source))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"
    for order in ALL_ORDERS:
        pair = symlet_filters(order)
        assert pair is symlet_filters(order)
        for line in (pair.lowpass, pair.highpass):
            with pytest.raises(ValueError, match="read-only"):
                line[0] = 0.0


def test_constant_series_worked_example():
    pair = decompose(np.full(4, 4.0), 2)
    assert pair.trend == pytest.approx(np.full(3, 4.0 * np.sqrt(2)), abs=1e-12)
    assert np.abs(pair.variation).max() <= 1e-12


@pytest.mark.parametrize("order", [2, 5, 9, 14, 20])
def test_matches_naive_oracle(order):
    rng = np.random.default_rng(order)
    filters = symlet_filters(order)
    for t in (1, 2, 3, 7, 25):
        x = rng.normal(size=t) * 5
        pair = decompose(x, order)
        np.testing.assert_allclose(
            pair.trend, oracle_line(x, filters.lowpass), atol=1e-12)
        np.testing.assert_allclose(
            pair.variation, oracle_line(x, filters.highpass), atol=1e-12)


def test_coefficient_count_examples():
    assert coefficient_count(10, 18) == 22
    assert coefficient_count(4, 2) == 3
    assert coefficient_count(1, 20) == 20
    for order in ALL_ORDERS:
        for t in (1, 4, 11):
            assert coefficient_count(t, order) == (t + 2 * order - 1) // 2


def test_ramp_annihilated_in_the_interior():
    # One vanishing moment kills affine signals away from the boundary.
    t, order = 40, 3
    x = 2.5 * np.arange(t) + 1.0
    pair = decompose(x, order)
    f = 2 * order
    interior = pair.variation[(f - 2) // 2:(t - 2) // 2 + 1]
    assert interior.size > 0
    assert np.abs(interior).max() <= 1e-10


@pytest.mark.parametrize("order", ALL_ORDERS)
def test_perfect_reconstruction(order):
    rng = np.random.default_rng(100 + order)
    for t in (1, 2, 5, 10, 37):
        x = rng.normal(size=t) * 10
        pair = decompose(x, order)
        back = reconstruct(pair, order, t)
        np.testing.assert_allclose(back, x, atol=1e-10)


def test_linearity_of_decomposition():
    rng = np.random.default_rng(4)
    x = rng.normal(size=15)
    y = rng.normal(size=15)
    a = decompose(2.0 * x + y, 6)
    bx = decompose(x, 6)
    by = decompose(y, 6)
    np.testing.assert_allclose(a.trend, 2 * bx.trend + by.trend, atol=1e-12)
    np.testing.assert_allclose(
        a.variation, 2 * bx.variation + by.variation, atol=1e-12)


def test_constant_shift_moves_only_trend():
    rng = np.random.default_rng(5)
    x = rng.normal(size=12)
    base = decompose(x, 4)
    shifted = decompose(x + 3.0, 4)
    np.testing.assert_allclose(
        shifted.trend, base.trend + 3.0 * np.sqrt(2), atol=1e-10)
    np.testing.assert_allclose(shifted.variation, base.variation, atol=1e-10)


def test_reconstruct_rejects_length_mismatch():
    pair = decompose(np.arange(8.0), 3)
    with pytest.raises(ConfigError, match="length mismatch"):
        reconstruct(pair, 3, 20)


def split(series, order):
    """``decompose_batch`` of an (n, c, t) stack, its features named
    ``f0..`` and its patients ``p0..``."""
    n, c, _ = np.shape(series)
    return decompose_batch(series, order, [f"f{j}" for j in range(c)],
                           [f"p{i}" for i in range(n)])


def test_decompose_batch_columns_and_errors():
    # A (t, c) visit matrix goes in transposed, one series per feature.
    matrix = np.column_stack([np.arange(6.0), np.arange(6.0)])
    lines = split(matrix.T[None], 2)
    assert lines.shape == (1, 2, 2, coefficient_count(6, 2))
    np.testing.assert_array_equal(lines[0, 0], lines[0, 1])

    bad = matrix.copy()
    bad[3, 1] = np.nan
    with pytest.raises(NumericError, match="visit 3, feature 'f1'"):
        split(bad.T[None], 2)
    with pytest.raises(NumericError,
                       match="visit 3, feature 'f1' of patient 'p4'"):
        split(np.stack([matrix.T] * 4 + [bad.T]), 2)

    with pytest.raises(ConfigError, match=r"\(n, c, t\)"):
        decompose_batch(np.float64(5.0), 2, (), ())
    with pytest.raises(ConfigError, match=r"\(n, c, t\)"):
        decompose_batch(np.zeros((3, 4)), 2, ("a", "b", "c"), ("p",))
    with pytest.raises(ConfigError, match=r"\(n, c, t\)"):
        split(np.zeros((1, 3, 0)), 2)
    with pytest.raises(ConfigError, match="2..20"):
        split(np.zeros((1, 3, 4)), 21)


def test_decompose_batch_names_a_feature_whose_coefficients_overflow():
    series = np.stack([np.arange(6.0), np.full(6, 1.7e308)])
    with pytest.raises(NumericError, match="coefficient 0, feature 'b'"):
        decompose_batch(series[None], 2, ("a", "b"), ("x",))
    with pytest.raises(NumericError, match="feature 'b' of patient 'z'"):
        decompose_batch(np.stack([np.zeros_like(series)] * 2 + [series]), 2,
                        ("a", "b"), ("x", "y", "z"))


def test_analysis_matrix_is_cached_and_read_only():
    matrix = analysis_matrix(5, 9)
    assert matrix is analysis_matrix(5, 9)
    assert matrix.shape == (2 * coefficient_count(9, 5), 9)
    assert not matrix.flags.writeable
    with pytest.raises(ConfigError, match="positive"):
        analysis_matrix(5, 0)


@settings(max_examples=60, deadline=None)
@given(order=st.integers(MIN_ORDER, MAX_ORDER),
       length=st.integers(1, 64),
       lead=st.tuples(st.integers(0, 3), st.integers(0, 3)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_batch_matches_per_series_decompose(order, length, lead, seed):
    series = np.random.default_rng(seed).normal(
        scale=10.0, size=(*lead, length))
    lines = split(series, order)
    m = coefficient_count(length, order)
    assert lines.shape == (*lead, 2, m)
    for index in np.ndindex(*lead):
        pair = decompose(series[index], order)
        np.testing.assert_array_equal(lines[index][0], pair.trend)
        np.testing.assert_array_equal(lines[index][1], pair.variation)
        back = reconstruct(TrendVariationPair(*lines[index]), order, length)
        np.testing.assert_allclose(back, series[index], rtol=0, atol=1e-10)


# Order 14 at these lengths is where a BLAS matmul rounds a row of a stack
# differently from the same row alone.
_BLAS_SENSITIVE_LENGTHS = [16, 17, 18, 23, 24, 25, 26, 31, 32, 33, 34, 39]


@settings(max_examples=60, deadline=None)
@given(order=st.one_of(st.just(14), st.integers(MIN_ORDER, MAX_ORDER)),
       length=st.one_of(st.sampled_from(_BLAS_SENSITIVE_LENGTHS),
                        st.integers(1, 44)),
       rows=st.integers(1, 300),
       seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_batch_row_does_not_depend_on_the_rest_of_the_stack(
        order, length, rows, seed, data):
    stack = np.random.default_rng(seed).normal(size=(rows, 1, length))
    k = data.draw(st.integers(0, rows - 1))
    np.testing.assert_array_equal(split(stack[k:k + 1], order)[0],
                                  split(stack, order)[k])


def test_ragged_groups_by_length_in_first_seen_order():
    rng = np.random.default_rng(8)
    series = [rng.normal(size=(3, t)) for t in (5, 7, 5, 1, 7)]
    cohort = cohort_of([s.T for s in series])
    groups = list(decompose_ragged(cohort, 4))
    assert [indices.tolist() for indices, _ in groups] == [[0, 2], [1, 4], [3]]
    for indices, lines in groups:
        for i, lines_i in zip(indices, lines):
            np.testing.assert_array_equal(
                lines_i, split(series[i][None], 4)[0])
    assert list(decompose_ragged(cohort.take(slice(0, 0)), 4)) == []


def test_ragged_errors_name_the_patient_not_its_place_in_a_group():
    values = np.arange(22.0)[:, None]
    values[-6:] = 1.7e308  # the fourth patient, second of the 6-visit group
    offsets = np.cumsum([0, 6, 5, 5, 6])
    cohort = Cohort.stack(
        ("p1", "p2", "p3", "p4"),
        [values[a:b] for a, b in zip(offsets[:-1], offsets[1:])],
        np.zeros((4, 0)), np.zeros(4), ("a",), (), 1)
    with pytest.raises(NumericError, match="of patient 'p4':"):
        list(decompose_ragged(cohort, 2))


def test_ragged_errors_name_the_first_failing_patient_in_cohort_order():
    # p2 shares p0's group of 4 visits, which is split first; p1 comes
    # first in the cohort.
    cohort = Cohort.stack(
        ("p0", "p1", "p2"),
        [np.arange(4.0)[:, None], np.full((3, 1), 1.7e308),
         np.full((4, 1), 1.7e308)],
        np.zeros((3, 0)), np.zeros(3), ("a",), (), 1)
    groups = decompose_ragged(cohort, 2)
    with pytest.raises(NumericError, match="of patient 'p1':"):
        next(groups)


def test_single_visit_is_representable():
    pair = decompose(np.array([2.5]), 14)
    assert pair.trend.size == coefficient_count(1, 14)
    back = reconstruct(pair, 14, 1)
    assert back == pytest.approx([2.5], abs=1e-10)
    with pytest.raises(ConfigError, match="non-empty"):
        decompose([], 14)


def test_decompose_refuses_what_decompose_batch_refuses():
    # A NaN would smear across 2K coefficients; these values overflow them.
    with pytest.raises(NumericError, match="non-finite value at visit 0"):
        decompose(np.array([np.nan, 1.0, 2.0, 3.0]), 2)
    with pytest.raises(NumericError, match="the values overflow the split"):
        decompose(np.full(4, 1.7e308), 2)


# Prints a hash of the split matrix at every order and length 1..40 and of
# the lines of a fixed stack of short histories (t < order, the histories
# of ``synth --mean-visits 3``), then a hash of a dot product and a
# convolution, which move with the BLAS kernel.
_HASHES = """
import hashlib
import numpy as np
from trendvar.wavelets import (MAX_ORDER, MIN_ORDER, analysis_matrix,
                               decompose_batch)
split = hashlib.sha256()
for order in range(MIN_ORDER, MAX_ORDER + 1):
    for t in range(1, 41):
        split.update(analysis_matrix(order, t).tobytes())
rng = np.random.default_rng(1)
for t in range(1, 14):
    split.update(decompose_batch(rng.normal(size=(70, 3, t)), 14,
                                 ("a", "b", "c"), range(70)).tobytes())
a, b = np.random.default_rng(0).normal(size=(2, 1000))
blas = hashlib.sha256(np.dot(a, b).tobytes()
                      + np.convolve(a, b[:50]).tobytes())
print(split.hexdigest(), blas.hexdigest())
"""


def test_split_does_not_depend_on_the_blas_kernel(capsys):
    exec(_HASHES, {})
    here = capsys.readouterr().out.split()
    source = os.path.dirname(os.path.dirname(wavelets.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _HASHES], capture_output=True, text=True,
        env=dict(os.environ, OPENBLAS_CORETYPE="Prescott",
                 PYTHONPATH=source))
    assert proc.returncode == 0, proc.stderr
    prescott = proc.stdout.split()
    if prescott[1] == here[1]:
        pytest.skip("OPENBLAS_CORETYPE=Prescott changed no BLAS result: the "
                    "variable acts only on a DYNAMIC_ARCH OpenBLAS")
    assert prescott[0] == here[0]
