import json

import numpy as np
import pytest

from trialbench.cohort import (
    Cohort,
    PatientDB,
    PatientStream,
    SkipSignal,
    build_cohort,
    count_features,
    load_patient_db,
)
from trialbench.refset import DIRECTION_A, LABEL_STRONG, ReferenceEntry

ENTRY = ReferenceEntry("DRUG_A", "DRUG_B", "OUT", LABEL_STRONG, DIRECTION_A,
                       2.0, 0.01, 0.02)


def _patient(pid, events, start=0, end=400):
    return PatientStream(pid, start, end, tuple(events))


def _db(patients, vocab=("DRUG_A", "DRUG_B", "OUT", "COV0"), dense=None):
    return PatientDB(patients=list(patients), vocabulary=list(vocab),
                     dense_features=dense)


def test_stream_validation():
    with pytest.raises(ValueError):
        _patient("p", [(5, "diagnosis", "X"), (3, "diagnosis", "Y")])
    with pytest.raises(ValueError):
        _patient("p", [(500, "diagnosis", "X")], end=400)


def test_count_features_strictly_pre_index():
    patient = _patient("p", [(3, "diagnosis", "COV0"), (10, "diagnosis", "COV0"),
                             (10, "drug_claim", "DRUG_A")])
    db = _db([patient])
    vec = count_features(patient, 10, db.vocab_index)
    assert vec[db.vocab_index["COV0"]] == 1.0  # the day-10 code is not pre-index
    assert vec.sum() == 1.0


def _bulk_patients(n_a=120, n_b=130):
    patients = []
    for i in range(n_a):
        events = [(2, "diagnosis", "COV0")] if i % 2 == 0 else []
        events += [(40, "drug_claim", "DRUG_A")]
        if i % 3 == 0:
            events += [(40 + 30 + i % 7, "diagnosis", "OUT")]
        patients.append(_patient(f"a{i:04d}", sorted(events)))
    for i in range(n_b):
        events = [(50, "drug_claim", "DRUG_B")]
        if i % 4 == 0:
            events += [(50 + 60, "diagnosis", "OUT")]
        patients.append(_patient(f"b{i:04d}", sorted(events)))
    return patients


def test_build_cohort_basic():
    cohort = build_cohort(_db(_bulk_patients()), ENTRY, seed=0)
    assert isinstance(cohort, Cohort)
    assert cohort.treated.sum() == 120 and (~cohort.treated).sum() == 130
    # treated patient a0000: event at day 70, index 40 -> time 30
    i = cohort.patient_ids.index("a0000")
    assert cohort.treated[i] and cohort.event[i] and cohort.time[i] == 30
    # censored control b0001: follow-up to observation end
    j = cohort.patient_ids.index("b0001")
    assert not cohort.treated[j] and not cohort.event[j] and cohort.time[j] == 350
    # features are the pre-index counts in vocabulary order
    assert cohort.features[i][3] == 1.0  # COV0 present for even a-patients


def test_first_claim_defines_arm():
    patients = _bulk_patients()
    patients.append(_patient("zz_both", [(10, "drug_claim", "DRUG_B"),
                                         (20, "drug_claim", "DRUG_A")]))
    cohort = build_cohort(_db(patients), ENTRY, seed=0)
    i = cohort.patient_ids.index("zz_both")
    assert not cohort.treated[i]  # drug B came first


def test_same_day_dual_initiation_excluded():
    patients = _bulk_patients()
    patients.append(_patient("zz_dual", [(10, "drug_claim", "DRUG_A"),
                                         (10, "drug_claim", "DRUG_B")]))
    cohort = build_cohort(_db(patients), ENTRY, seed=0)
    assert "zz_dual" not in cohort.patient_ids


def test_prior_outcome_is_not_washed_out():
    patients = _bulk_patients()
    patients.append(_patient("zz_prior", [(5, "diagnosis", "OUT"),
                                          (10, "drug_claim", "DRUG_A")]))
    kept = build_cohort(_db(patients), ENTRY, seed=0)
    assert "zz_prior" in kept.patient_ids


def test_skip_signals():
    missing = build_cohort(_db(_bulk_patients(), vocab=("DRUG_A", "DRUG_B")),
                           ENTRY, seed=0)
    assert isinstance(missing, SkipSignal) and "OUT" in missing.reason
    tiny = build_cohort(_db(_bulk_patients(n_a=50)), ENTRY, seed=0)
    assert isinstance(tiny, SkipSignal) and "minimum size" in tiny.reason


def test_downsampling_is_seeded():
    db = _db(_bulk_patients(n_a=180, n_b=150))
    a = build_cohort(db, ENTRY, seed=7, max_per_arm=110)
    b = build_cohort(db, ENTRY, seed=7, max_per_arm=110)
    c = build_cohort(db, ENTRY, seed=8, max_per_arm=110)
    assert a.treated.sum() == (~a.treated).sum() == 110
    assert a.patient_ids == b.patient_ids
    assert a.patient_ids != c.patient_ids
    assert a.patient_ids == sorted(a.patient_ids)


def test_load_patient_db(tmp_path):
    db_path = tmp_path / "claims.jsonl"
    db_path.write_text(json.dumps({
        "patient_id": "p1", "observation_start": 0, "observation_end": 100,
        "events": [[10, "drug_claim", "DRUG_A"]],
    }) + "\n")
    vocab_path = tmp_path / "vocab.txt"
    vocab_path.write_text("DRUG_A\nDRUG_B\nOUT\n")
    dense_path = tmp_path / "dense.jsonl"
    dense_path.write_text(json.dumps({"patient_id": "p1", "features": [0.5, -1.0]}) + "\n")
    db = load_patient_db(db_path, vocab_path, dense_path)
    assert db.vocab_index == {"DRUG_A": 0, "DRUG_B": 1, "OUT": 2}
    assert np.allclose(db.dense_features["p1"], [0.5, -1.0])
    assert db.patients[0].events == ((10, "drug_claim", "DRUG_A"),)


def test_dense_features_used_when_present():
    patients = _bulk_patients()
    dense = {p.patient_id: np.array([float(len(p.patient_id))]) for p in patients}
    cohort = build_cohort(_db(patients, dense=dense), ENTRY, seed=0)
    assert cohort.features.shape == (250, 1)
    assert np.all(cohort.features == 5.0)
