"""Cohorts and prepared batches built from plain arrays, for tests.

``model.prepare`` takes a raw ``Cohort`` and z-scores it with stats.  Stats
of mean 0 and std 1 (``unit_stats``) make that z-score an exact identity, so
a batch prepared from arrays holds the lines of exactly those arrays.
"""

import numpy as np

from trendvar.data import Cohort, FeatureStats
from trendvar.model import prepare


def cohort_of(visits, static=None, labels=None, names=None):
    """The cohort of ``visits``, one (t_i, c) matrix per patient (or an
    (n, t, c) array), with (n, s) ``static`` rows (none when not given), n
    ``labels`` (0 when not given) and the dynamic feature ``names`` (``f0..``
    when not given).  The patients are ``p0..`` and the static features
    ``s0..``."""
    n, c = len(visits), np.shape(visits[0])[1]
    static = np.zeros((n, 0)) if static is None else static
    labels = np.zeros(n, dtype=np.int64) if labels is None else labels
    names = [f"f{j}" for j in range(c)] if names is None else names
    return Cohort.stack([f"p{i}" for i in range(n)], visits, static, labels,
                        names, [f"s{j}" for j in range(np.shape(static)[1])],
                        int(np.max(labels)) + 1)


def unit_stats(n_dynamic, n_static):
    """Stats whose z-score leaves every value as it is."""
    return FeatureStats(np.zeros(n_dynamic), np.ones(n_dynamic),
                        np.zeros(n_static), np.ones(n_static))


def prepare_raw(cohort, config):
    """``prepare`` of ``cohort`` without z-scoring."""
    return prepare(cohort, unit_stats(cohort.values.shape[1],
                                      cohort.static.shape[1]), config)


def prepare_arrays(visits, static, labels, config):
    """The prepared batch of exactly these padded arrays: (n, t_max, c)
    ``visits``, (n, s) ``static`` and n ``labels``."""
    return prepare_raw(cohort_of(visits, static, labels), config)
