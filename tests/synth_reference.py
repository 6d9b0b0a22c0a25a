"""The synthetic generator and cohort writer as they were first written:
one numpy expression per (patient, feature) pair, one ``np.clip`` per
static cell and one ``write`` per visit row.

They are the oracles of ``test_data``'s draw-order tests:
``synth_generate`` must make the same draws from the same stream and give
the same bits, and ``write_cohort`` the same bytes.
"""

import os

import numpy as np

from trendvar.data import Cohort


def reference_synth_generate(spec):
    rng = np.random.default_rng(spec.seed)
    visit_list = []
    static = np.empty((spec.n_patients, spec.n_static))
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
        for i in range(spec.n_static):
            lean = 1.0 if (i + k) % 2 == 0 else -1.0
            prob = float(np.clip(0.5 + spec.static_class_weight * lean,
                                 0.05, 0.95))
            static[idx, i] = 1.0 if rng.random() < prob else 0.0
        visit_list.append(visits)
    return Cohort.stack(
        [f"p{idx:0{digits}d}" for idx in range(spec.n_patients)],
        visit_list, static, np.arange(spec.n_patients) % spec.n_classes,
        [f"dyn_{j}" for j in range(spec.n_dynamic)],
        [f"st_{i}" for i in range(spec.n_static)], spec.n_classes)


def reference_write_cohort(cohort, directory):
    """The cohort writer as first written: one ``write`` per visit row."""
    os.makedirs(directory, exist_ok=True)
    visits_path = os.path.join(directory, "visits.csv")
    static_path = os.path.join(directory, "static.csv")
    labels_path = os.path.join(directory, "labels.csv")
    with open(visits_path, "w", newline="") as fh:
        fh.write("patient_id,visit_index," + ",".join(cohort.dynamic_names) + "\n")
        for i, pid in enumerate(cohort.ids):
            for visit, row in enumerate(cohort.visits(i).tolist()):
                fh.write(f"{pid},{visit},{','.join(map(repr, row))}\n")
    with open(static_path, "w", newline="") as fh:
        fh.write("patient_id," + ",".join(cohort.static_names) + "\n")
        for pid, row in zip(cohort.ids, cohort.static.tolist()):
            fh.write(f"{pid},{','.join(map(repr, row))}\n")
    with open(labels_path, "w", newline="") as fh:
        fh.write("patient_id,label\n")
        for pid, label in zip(cohort.ids, cohort.labels.tolist()):
            fh.write(f"{pid},{label}\n")
    return visits_path, static_path, labels_path
