import dataclasses
import json

import numpy as np
import pytest

from oracles import interned_patient_db
from trialbench.cohort import Cohort, PatientDB, SkipSignal, build_cohort, load_patient_db

PAIR = ("DRUG_A", "DRUG_B", ["OUT"])  # drug_a, drug_b and the outcome codes of build_cohort


def _patient(pid, events, start=0, end=400):
    return {"patient_id": pid, "observation_start": start, "observation_end": end,
            "events": [list(ev) for ev in events]}


def _db(patients, vocab=("DRUG_A", "DRUG_B", "OUT", "COV0")):
    return PatientDB.from_records(list(patients), list(vocab))


def test_stream_validation():
    with pytest.raises(ValueError, match="p: events not day-sorted"):
        _db([_patient("p", [(5, "diagnosis", "X"), (3, "diagnosis", "Y")])])
    with pytest.raises(ValueError, match="p: event outside observation window"):
        _db([_patient("p", [(500, "diagnosis", "X")], end=400)])
    with pytest.raises(ValueError, match="p: event outside observation window"):
        _db([_patient("p", [(-1, "diagnosis", "X")], start=0)])
    # equal days, and days on both window bounds, are allowed
    _db([_patient("p", [(0, "diagnosis", "X"), (0, "diagnosis", "Y"),
                        (400, "diagnosis", "X")])])


def test_count_features_strictly_pre_index():
    patients = _bulk_patients()
    patients.append(_patient("zz_counts", [(3, "diagnosis", "COV0"), (3, "procedure", "COV0"),
                                           (10, "diagnosis", "COV0"),
                                           (10, "drug_claim", "DRUG_A"),
                                           (12, "diagnosis", "COV0")]))
    cohort = build_cohort(_db(patients), *PAIR, seed=0)
    vec = cohort.features[cohort.patient_ids.index("zz_counts")]
    # both day-3 COV0 events count, whatever their kind; day 10 is not pre-index
    assert vec.tolist() == [0.0, 0.0, 0.0, 2.0]


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
    cohort = build_cohort(_db(_bulk_patients()), *PAIR, seed=0)
    assert isinstance(cohort, Cohort)
    assert cohort.treated.sum() == 120 and (~cohort.treated).sum() == 130
    # treated patient a0000: event at day 70, index 40 -> time 30
    i = cohort.patient_ids.index("a0000")
    time, event = cohort.outcomes[0]
    assert cohort.treated[i] and event[i] and time[i] == 30
    # censored control b0001: follow-up to observation end
    j = cohort.patient_ids.index("b0001")
    assert not cohort.treated[j] and not event[j] and time[j] == 350
    # features are the pre-index counts in vocabulary order
    assert cohort.features[i][3] == 1.0  # COV0 present for even a-patients


def test_first_claim_defines_arm():
    patients = _bulk_patients()
    patients.append(_patient("zz_both", [(10, "drug_claim", "DRUG_B"),
                                         (20, "drug_claim", "DRUG_A")]))
    cohort = build_cohort(_db(patients), *PAIR, seed=0)
    i = cohort.patient_ids.index("zz_both")
    assert not cohort.treated[i]  # drug B came first


def test_same_day_dual_initiation_excluded():
    patients = _bulk_patients()
    patients.append(_patient("zz_dual", [(10, "drug_claim", "DRUG_A"),
                                         (10, "drug_claim", "DRUG_B")]))
    cohort = build_cohort(_db(patients), *PAIR, seed=0)
    assert "zz_dual" not in cohort.patient_ids


def test_prior_outcome_is_not_washed_out():
    patients = _bulk_patients()
    patients.append(_patient("zz_prior", [(5, "diagnosis", "OUT"),
                                          (10, "drug_claim", "DRUG_A")]))
    kept = build_cohort(_db(patients), *PAIR, seed=0)
    assert "zz_prior" in kept.patient_ids


def test_skip_signals():
    missing = build_cohort(_db(_bulk_patients(), vocab=("DRUG_A", "DRUG_B")),
                           *PAIR, seed=0)
    assert isinstance(missing, SkipSignal) and "OUT" in missing.reason
    tiny = build_cohort(_db(_bulk_patients(n_a=50)), *PAIR, seed=0)
    assert isinstance(tiny, SkipSignal) and "minimum size" in tiny.reason


def test_downsampling_is_seeded():
    db = _db(_bulk_patients(n_a=180, n_b=150))
    a = build_cohort(db, *PAIR, seed=7, max_per_arm=110)
    b = build_cohort(db, *PAIR, seed=7, max_per_arm=110)
    c = build_cohort(db, *PAIR, seed=8, max_per_arm=110)
    more_outcomes = build_cohort(db, "DRUG_A", "DRUG_B", ["OUT", "COV0"], seed=7, max_per_arm=110)
    assert a.treated.sum() == (~a.treated).sum() == 110
    assert a.patient_ids == b.patient_ids == more_outcomes.patient_ids
    assert a.patient_ids != c.patient_ids
    assert a.patient_ids == sorted(a.patient_ids)


def test_load_patient_db(tmp_path):
    db_path = tmp_path / "claims.jsonl"
    db_path.write_text("".join(json.dumps(rec) + "\n" for rec in [
        _patient("p2", [(3, "diagnosis", "OUT"), (10, "drug_claim", "DRUG_A")], end=100),
        _patient("p1", [(10, "drug_claim", "DRUG_A"), (11, "procedure", "OTHER")], end=90),
    ]))
    vocab_path = tmp_path / "vocab.txt"
    vocab_path.write_text("DRUG_A\nDRUG_B\nOUT\n")
    dense_path = tmp_path / "dense.jsonl"
    dense_path.write_text(json.dumps({"patient_id": "p2", "features": [1.5, 2.0]}) + "\n"
                          + json.dumps({"patient_id": "p1", "features": [0.5, -1.0]}) + "\n")
    db = load_patient_db(db_path, vocab_path, dense_path)
    assert db.patients == ["p1", "p2"]  # id order, whatever the line order
    assert db.vocabulary == ["DRUG_A", "DRUG_B", "OUT"]
    assert db.observation_end.tolist() == [90, 100]
    assert db.owner.tolist() == [0, 0, 1, 1]
    assert db.day.tolist() == [10, 11, 3, 10]
    assert [list(db.keys)[k] for k in db.key] == [
        ("drug_claim", "DRUG_A"), ("procedure", "OTHER"),
        ("diagnosis", "OUT"), ("drug_claim", "DRUG_A")]
    assert db.column.tolist() == [0, -1, 2]  # per key; OTHER is not in the vocabulary
    assert db.dense_features.tolist() == [[0.5, -1.0], [1.5, 2.0]]


def test_dense_features_used_when_present():
    patients = _bulk_patients()
    dense = [{"patient_id": p["patient_id"], "features": [float(len(p["patient_id"]))]}
             for p in patients]
    cohort = build_cohort(_db(patients).with_dense_features(dense), *PAIR, seed=0)
    assert cohort.features.shape == (250, 1)
    assert np.all(cohort.features == 5.0)


def test_dense_rows_in_any_order_fill_the_matrix_in_patient_order():
    db = _db([_patient("p2", []), _patient("p1", [])])
    rows = [{"patient_id": "p9", "features": [7, 7.5]},  # not in the table: dropped
            {"patient_id": "p2", "features": [3, -1.0]},
            {"patient_id": "p1", "features": [0.5, 2]}]
    assert db.with_dense_features(iter(rows)).dense_features.tolist() == [[0.5, 2.0],
                                                                           [3.0, -1.0]]


@pytest.mark.parametrize("features, message", [
    ([1.5, True], "p1: dense features must be numbers, not booleans"),
    ([1.5, "2.0"], "p1: dense features must be a list of finite numbers"),
    ([1.5, float("nan")], "p1: dense features must be a list of finite numbers"),
    ([float("-inf"), 2.0], "p1: dense features must be a list of finite numbers"),
    ([[1.5], [2.0]], "p1: dense features must be a list of finite numbers"),
    ("12", "p1: dense features must be a list of finite numbers"),
    ({"a": 1.0}, "p1: dense features must be a list of finite numbers"),
    ([1.5], "p1: 1 dense features, but the first row has 2"),
    (None, "no dense-feature row for 1 patients, first p1"),
], ids=["boolean", "string", "nan", "infinite", "nested", "string_row", "object", "shorter",
        "missing"])
def test_with_dense_features_names_the_bad_row(features, message):
    db = _db([_patient("p1", []), _patient("p2", [])])
    rows = [{"patient_id": "p2", "features": [0.5, 1.0]}]
    if features is not None:
        rows.append({"patient_id": "p1", "features": features})
    with pytest.raises(ValueError, match=f"^{message}$"):
        db.with_dense_features(rows)
    with pytest.raises(ValueError, match="^p2: duplicate patient_id$"):
        db.with_dense_features(rows[:1] * 2)


def test_claims_line_order_does_not_change_the_cohort():
    patients = _bulk_patients(n_a=180, n_b=150)
    shuffled = [patients[i] for i in np.random.default_rng(4).permutation(len(patients))]
    assert shuffled != patients
    a = build_cohort(_db(patients), *PAIR, seed=7, max_per_arm=110)
    b = build_cohort(_db(shuffled), *PAIR, seed=7, max_per_arm=110)
    assert a.patient_ids == b.patient_ids
    for field in ("treated", "features"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    for got, want in zip(a.outcomes[0], b.outcomes[0]):  # time, then event
        assert np.array_equal(got, want)


def _reference_cohort(records, vocab, drug_a, drug_b, outcome_code, seed, max_per_arm,
                      min_per_arm):
    """The per-patient scan that build_cohort replaces, kept as its reference."""
    def first(events, kind, code, since=-np.inf):
        return next((d for d, k, c in events if k == kind and c == code and d >= since), None)

    rows = []  # (patient_id, treated, counts, time, event)
    for rec in sorted(records, key=lambda r: r["patient_id"]):
        events = rec["events"]
        day_a = first(events, "drug_claim", drug_a)
        day_b = first(events, "drug_claim", drug_b)
        if day_a == day_b:  # neither drug, or same-day dual initiation
            continue
        treated = day_b is None or (day_a is not None and day_a < day_b)
        index = day_a if treated else day_b
        outcome = first(events, "diagnosis", outcome_code, since=index)
        counts = [sum(d < index and c == code for d, _, c in events) for code in vocab]
        end = rec["observation_end"] if outcome is None else outcome
        rows.append((rec["patient_id"], treated, counts, end - index, outcome is not None))
    rng = np.random.default_rng(seed)
    arms = [[r for r in rows if r[1]], [r for r in rows if not r[1]]]
    for i, arm in enumerate(arms):
        if len(arm) > max_per_arm:
            keep = np.sort(rng.choice(len(arm), size=max_per_arm, replace=False))
            arms[i] = [arm[j] for j in keep]
    if min(map(len, arms)) < min_per_arm:
        return None
    return sorted(arms[0] + arms[1], key=lambda r: r[0])


DRUGS, DIAGNOSES = ["DRUG_A", "DRUG_B", "DRUG_C"], ["OUT", "COV0", "COV1"]


def _random_records(rng, n=300, pid="p{:04d}"):
    records = []
    for i in range(n):
        start = int(rng.integers(-5, 5))
        end = start + int(rng.integers(0, 200))
        events = sorted((int(rng.integers(start, end + 1)),
                         str(rng.choice(["drug_claim", "diagnosis", "procedure"])),
                         str(rng.choice(DRUGS + DIAGNOSES + ["UNKNOWN"])))
                        for _ in range(int(rng.integers(0, 8))))
        records.append(_patient(pid.format(i), events, start=start, end=end))
    return records


@pytest.mark.parametrize("db_seed", range(4))
def test_build_cohort_matches_per_patient_reference(db_seed):
    rng = np.random.default_rng(db_seed)
    records = _random_records(rng)
    vocab = DRUGS + DIAGNOSES
    db = _db(records, vocab)
    for drug_a, drug_b in [("DRUG_A", "DRUG_B"), ("DRUG_C", "DRUG_A"), ("DRUG_B", "DRUG_C")]:
        for max_per_arm in (20, 1000):
            cohort = build_cohort(db, drug_a, drug_b, DIAGNOSES, seed=db_seed,
                                  max_per_arm=max_per_arm, min_per_arm=10)
            assert isinstance(cohort, Cohort) and len(cohort.outcomes) == len(DIAGNOSES)
            for outcome, (time, event) in zip(DIAGNOSES, cohort.outcomes):
                expected = _reference_cohort(records, vocab, drug_a, drug_b, outcome, db_seed,
                                             max_per_arm, 10)
                assert expected is not None
                assert cohort.patient_ids == [r[0] for r in expected]
                assert cohort.treated.tolist() == [r[1] for r in expected]
                assert cohort.features.tolist() == [r[2] for r in expected]
                assert time.tolist() == [r[3] for r in expected]
                assert event.tolist() == [r[4] for r in expected]


def _reference_table(records, vocabulary):
    """The list-of-records build that the streamed from_records replaces, kept as its
    reference: sort the record dicts by id, then intern (kind, code) per event."""
    records = sorted(records, key=lambda rec: str(rec["patient_id"]))
    events = [rec["events"] for rec in records]
    keys = {}
    key = [keys.setdefault((k, c), len(keys)) for ev in events for _, k, c in ev]
    position = {code: i for i, code in enumerate(vocabulary)}
    return {
        "patients": [str(rec["patient_id"]) for rec in records],
        "observation_end": [rec["observation_end"] for rec in records],
        "owner": [row for row, ev in enumerate(events) for _ in ev],
        "day": [e[0] for ev in events for e in ev],
        "key": key,
        "keys": list(keys.items()),
        "column": [position.get(c, -1) for _, c in keys],
        "vocabulary": list(vocabulary),
    }


@pytest.mark.parametrize("db_seed", range(4))
def test_streamed_load_matches_record_list_reference(tmp_path, db_seed):
    rng = np.random.default_rng(db_seed)
    records = _random_records(rng, pid="p{}")  # unpadded ids: text order is not number order
    shuffled = [records[i] for i in rng.permutation(len(records))]
    db_path, vocab_path = tmp_path / "claims.jsonl", tmp_path / "vocab.txt"
    db_path.write_text("".join(json.dumps(rec) + "\n" for rec in shuffled))
    vocab = DIAGNOSES[::-1] + DRUGS[:2]  # DRUG_C and the procedure codes stay unknown
    vocab_path.write_text("\n".join(vocab) + "\n")
    db = load_patient_db(db_path, vocab_path)
    expected = _reference_table(shuffled, vocab)
    assert db.patients == expected["patients"]
    for field in ("observation_end", "owner", "day", "key", "column"):
        assert getattr(db, field).dtype.kind == "i", field
        assert getattr(db, field).tolist() == expected[field], field
    assert list(db.keys.items()) == expected["keys"]
    assert db.vocabulary == expected["vocabulary"]
    assert db.dense_features is None


def test_from_records_consumes_a_one_shot_generator():
    records = _random_records(np.random.default_rng(5), n=50)
    vocab = DRUGS + DIAGNOSES
    from_list = PatientDB.from_records(records, vocab)
    from_generator = PatientDB.from_records((rec for rec in records), vocab)
    for field in ("observation_end", "owner", "day", "key", "column"):
        assert np.array_equal(getattr(from_list, field), getattr(from_generator, field))
    assert from_generator.patients == from_list.patients
    assert list(from_generator.keys.items()) == list(from_list.keys.items())
    empty = PatientDB.from_records(iter([]), vocab)
    assert empty.patients == [] and empty.owner.size == empty.key.size == 0


def _assert_same_db(got, want):
    for field in dataclasses.fields(PatientDB):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field.name
        else:
            assert a == b, field.name
    assert list(got.keys.items()) == list(want.keys.items())  # == on dicts ignores order


@pytest.mark.parametrize("db_seed", range(6))
def test_from_records_matches_the_interning_oracle(db_seed):
    rng = np.random.default_rng(db_seed)
    records = _random_records(rng, n=200, pid="p{}")
    for i, rec in enumerate(records[::3]):
        rec["patient_id"] = f"患者-é{i}"
    shuffled = [records[i] for i in rng.permutation(len(records))]
    vocab = DIAGNOSES[::-1] + DRUGS[:2]  # DRUG_C, UNKNOWN and every procedure stay unknown
    kinds_of = {}
    for rec in records:
        for _, kind, code in rec["events"]:
            kinds_of.setdefault(code, set()).add(kind)
    assert any(not rec["events"] for rec in records)
    assert max(map(len, kinds_of.values())) == 3
    assert set(kinds_of) - set(vocab)
    _assert_same_db(PatientDB.from_records(shuffled, vocab),
                    interned_patient_db(shuffled, vocab))


BROKEN_PATIENTS = {  # a patient z that breaks one rule of from_records
    "duplicate_id": _patient("p0003", []),
    "boolean_day": _patient("z", [(True, "diagnosis", "OUT")]),
    "float_day": _patient("z", [(3.0, "diagnosis", "OUT")]),
    "boolean_observation_start": _patient("z", [], start=False),
    "integer_kind": _patient("z", [(3, 5, "OUT")]),
    "null_code": _patient("z", [(3, "diagnosis", None)]),
    "list_kind": _patient("z", [(3, ["diagnosis"], "OUT")]),
    "unsorted_days": _patient("z", [(5, "diagnosis", "OUT"), (3, "drug_claim", "DRUG_A")]),
    "day_after_observation_end": _patient("z", [(401, "diagnosis", "OUT")], end=400),
    "day_before_observation_start": _patient("z", [(-1, "diagnosis", "OUT")], start=0),
}


@pytest.mark.parametrize("broken", BROKEN_PATIENTS.values(), ids=BROKEN_PATIENTS)
def test_from_records_raises_as_the_interning_oracle(broken):
    records = _random_records(np.random.default_rng(9), n=30)
    records.insert(11, broken)
    vocab = DRUGS + DIAGNOSES
    with pytest.raises((TypeError, ValueError)) as want:
        interned_patient_db(records, vocab)
    with pytest.raises((TypeError, ValueError)) as got:
        PatientDB.from_records(records, vocab)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
