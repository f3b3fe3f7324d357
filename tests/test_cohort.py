import dataclasses
import json

import numpy as np
import pytest

from oracles import interned_patient_db
from trialbench.cohort import Cohort, PatientDB, SkipSignal, build_cohort, load_patient_db
from trialbench.estimators.methods import METHOD_REGISTRY, RunSettings, run_all_methods

PAIR = ("DRUG_A", "DRUG_B", ["OUT"])  # drug_a, drug_b and the outcome codes of build_cohort
ARM_SIZES = {"max_per_arm": RunSettings.max_per_arm, "min_per_arm": RunSettings.min_per_arm}


def _patient(pid, events, start=0, end=400):
    return {"patient_id": pid, "observation_start": start, "observation_end": end,
            "events": [list(ev) for ev in events]}


def _db(patients, vocab=("DRUG_A", "DRUG_B", "OUT", "COV0")):
    return PatientDB.from_records(list(patients), list(vocab))


def _in_id_order(db):
    """db with its patients in id order and its events grouped by patient in that order,
    each patient's events in file order: the layout of a table that sorts by id on load.
    Every field keeps its dtype."""
    order = sorted(range(len(db.patients)), key=db.patients.__getitem__)
    row = np.argsort(order).astype(db.owner.dtype)  # per file row, its row in id order
    by_patient = np.argsort(row[db.owner], kind="stable")
    return dataclasses.replace(
        db, patients=[db.patients[i] for i in order],
        observation_end=db.observation_end[order], owner=row[db.owner][by_patient],
        day=db.day[by_patient], key=db.key[by_patient],
        dense_features=None if db.dense_features is None else db.dense_features[order])


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
    cohort = build_cohort(_db(patients), *PAIR, seed=0, **ARM_SIZES)
    vec = cohort.features[cohort.patient_ids.index("zz_counts")]
    # both day-3 COV0 events count, whatever their kind; day 10 is not pre-index
    assert cohort.codes == ["COV0"]  # no patient has DRUG_A, DRUG_B or OUT pre-index
    assert vec[cohort.codes.index("COV0")] == 2.0 and vec.sum() == 2.0


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
    cohort = build_cohort(_db(_bulk_patients()), *PAIR, seed=0, **ARM_SIZES)
    assert isinstance(cohort, Cohort)
    assert cohort.treated.sum() == 120 and (~cohort.treated).sum() == 130
    # treated patient a0000: event at day 70, index 40 -> time 30
    i = cohort.patient_ids.index("a0000")
    time, event = cohort.outcomes[0]
    assert cohort.treated[i] and event[i] and time[i] == 30
    # censored control b0001: follow-up to observation end
    j = cohort.patient_ids.index("b0001")
    assert not cohort.treated[j] and not event[j] and time[j] == 350
    # features are the pre-index counts of the codes the cohort has, in vocabulary order
    assert cohort.codes == ["COV0"] and cohort.features.shape == (250, 1)
    assert cohort.features.flags.c_contiguous
    assert cohort.features[i][cohort.codes.index("COV0")] == 1.0  # COV0: even a-patients


def test_cohort_without_pre_index_codes_has_no_count_columns():
    patients = [_patient(p["patient_id"], [ev for ev in p["events"] if ev[2] != "COV0"])
                for p in _bulk_patients()]
    cohort = build_cohort(_db(patients), *PAIR, seed=0, **ARM_SIZES)
    assert cohort.features.shape == (250, 0) and cohort.codes == []
    assert cohort.features.flags.c_contiguous
    [estimates] = run_all_methods(cohort, RunSettings(seed=0))
    assert [e.method_id for e in estimates] == list(METHOD_REGISTRY)
    assert all(e.note == "" and np.isfinite(e.point) for e in estimates), estimates


def test_first_claim_defines_arm():
    patients = _bulk_patients()
    patients.append(_patient("zz_both", [(10, "drug_claim", "DRUG_B"),
                                         (20, "drug_claim", "DRUG_A")]))
    cohort = build_cohort(_db(patients), *PAIR, seed=0, **ARM_SIZES)
    i = cohort.patient_ids.index("zz_both")
    assert not cohort.treated[i]  # drug B came first


def test_same_day_dual_initiation_excluded():
    patients = _bulk_patients()
    patients.append(_patient("zz_dual", [(10, "drug_claim", "DRUG_A"),
                                         (10, "drug_claim", "DRUG_B")]))
    cohort = build_cohort(_db(patients), *PAIR, seed=0, **ARM_SIZES)
    assert "zz_dual" not in cohort.patient_ids


def test_prior_outcome_is_not_washed_out():
    patients = _bulk_patients()
    patients.append(_patient("zz_prior", [(5, "diagnosis", "OUT"),
                                          (10, "drug_claim", "DRUG_A")]))
    kept = build_cohort(_db(patients), *PAIR, seed=0, **ARM_SIZES)
    assert "zz_prior" in kept.patient_ids


def test_skip_signals():
    missing = build_cohort(_db(_bulk_patients(), vocab=("DRUG_A", "DRUG_B")),
                           *PAIR, seed=0, **ARM_SIZES)
    assert isinstance(missing, SkipSignal) and "OUT" in missing.reason
    tiny = build_cohort(_db(_bulk_patients(n_a=50)), *PAIR, seed=0, **ARM_SIZES)
    assert isinstance(tiny, SkipSignal) and "minimum size" in tiny.reason


def test_downsampling_is_seeded():
    db = _db(_bulk_patients(n_a=180, n_b=150))
    a = build_cohort(db, *PAIR, seed=7, max_per_arm=110, min_per_arm=RunSettings.min_per_arm)
    b = build_cohort(db, *PAIR, seed=7, max_per_arm=110, min_per_arm=RunSettings.min_per_arm)
    c = build_cohort(db, *PAIR, seed=8, max_per_arm=110, min_per_arm=RunSettings.min_per_arm)
    more_outcomes = build_cohort(db, "DRUG_A", "DRUG_B", ["OUT", "COV0"], seed=7, max_per_arm=110,
                                 min_per_arm=RunSettings.min_per_arm)
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
    loaded = load_patient_db(db_path, vocab_path, dense_path)
    assert loaded.patients == ["p2", "p1"]  # line order
    assert loaded.owner.tolist() == [0, 0, 1, 1]
    assert loaded.day.tolist() == [3, 10, 10, 11]
    assert loaded.dense_features.tolist() == [[1.5, 2.0], [0.5, -1.0]]
    db = _in_id_order(loaded)
    assert db.patients == ["p1", "p2"]
    assert db.vocabulary == ["DRUG_A", "DRUG_B", "OUT"]
    assert db.observation_end.tolist() == [90, 100]
    assert db.owner.tolist() == [0, 0, 1, 1]
    assert db.day.tolist() == [10, 11, 3, 10]
    assert _named(db) == {
        "key": [("drug_claim", "DRUG_A"), ("procedure", "OTHER"),
                ("diagnosis", "OUT"), ("drug_claim", "DRUG_A")],
        "column": {("drug_claim", "DRUG_A"): 0, ("procedure", "OTHER"): -1,  # not in vocab
                   ("diagnosis", "OUT"): 2}}
    assert db.dense_features.tolist() == [[0.5, -1.0], [1.5, 2.0]]


def test_dense_features_used_when_present():
    patients = _bulk_patients()
    dense = [{"patient_id": p["patient_id"], "features": [float(len(p["patient_id"]))]}
             for p in patients]
    cohort = build_cohort(_db(patients).with_dense_features(dense), *PAIR, seed=0, **ARM_SIZES)
    assert cohort.features.shape == (250, 1)
    assert np.all(cohort.features == 5.0)


def test_dense_rows_in_any_order_fill_the_matrix_in_patient_order():
    db = _db([_patient("p2", []), _patient("p1", [])])
    rows = [{"patient_id": "p9", "features": [7, 7.5]},  # not in the table: dropped
            {"patient_id": "p2", "features": [3, -1.0]},
            {"patient_id": "p1", "features": [0.5, 2]}]
    db = db.with_dense_features(iter(rows))
    assert db.dense_features.tolist() == [[3.0, -1.0], [0.5, 2.0]]  # rows of p2, p1
    assert _in_id_order(db).dense_features.tolist() == [[0.5, 2.0], [3.0, -1.0]]


@pytest.mark.parametrize("features, error, message", [
    ([1.5, True], ValueError, "p1: dense features must be numbers, not booleans"),
    ([1.5, "2.0"], ValueError, "p1: dense features must be a list of finite numbers"),
    ([1.5, float("nan")], ValueError, "p1: dense features must be a list of finite numbers"),
    ([float("-inf"), 2.0], ValueError, "p1: dense features must be a list of finite numbers"),
    ([[1.5], [2.0]], ValueError, "p1: dense features must be a list of finite numbers"),
    ("12", TypeError, "features '12' is not a list"),
    ({"a": 1.0}, TypeError, "features {'a': 1.0} is not a list"),
    (7, TypeError, "features 7 is not a list"),
    ([1.5], ValueError, "p1: 1 dense features, but the first row has 2"),
    (None, ValueError, "no dense-feature row for 1 patients, first p1"),
], ids=["boolean", "string", "nan", "infinite", "nested", "string_row", "object", "number_row",
        "shorter", "missing"])
def test_with_dense_features_names_the_bad_row(features, error, message):
    db = _db([_patient("p1", []), _patient("p2", [])])
    rows = [{"patient_id": "p2", "features": [0.5, 1.0]}]
    if features is not None:
        rows.append({"patient_id": "p1", "features": features})
    with pytest.raises(error, match=f"^{message}$"):
        db.with_dense_features(rows)
    with pytest.raises(ValueError, match="^p2: duplicate patient_id$"):
        db.with_dense_features(rows[:1] * 2)


def test_claims_line_order_does_not_change_the_cohort():
    patients = _bulk_patients(n_a=180, n_b=150)
    shuffled = [patients[i] for i in np.random.default_rng(4).permutation(len(patients))]
    assert shuffled != patients
    a = build_cohort(_db(patients), *PAIR, seed=7, max_per_arm=110,
                     min_per_arm=RunSettings.min_per_arm)
    b = build_cohort(_db(shuffled), *PAIR, seed=7, max_per_arm=110,
                     min_per_arm=RunSettings.min_per_arm)
    assert a.patient_ids == b.patient_ids
    for field in ("treated", "features"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    for got, want in zip(a.outcomes[0], b.outcomes[0]):  # time, then event
        assert np.array_equal(got, want)


@pytest.mark.parametrize("db_seed", range(3))
def test_line_order_renumbers_keys_but_not_the_cohort(db_seed):
    rng = np.random.default_rng(db_seed)
    records = _random_records(rng)
    shuffled = [records[i] for i in rng.permutation(len(records))]
    vocab = DIAGNOSES[::-1] + DRUGS  # UNKNOWN stays outside the vocabulary
    kinds_of = {}
    for rec in records:
        for _, kind, code in rec["events"]:
            kinds_of.setdefault(code, set()).add(kind)
    assert max(map(len, kinds_of.values())) == 3 and set(kinds_of) - set(vocab)
    dense = [{"patient_id": rec["patient_id"], "features": rng.normal(size=3).tolist()}
             for rec in shuffled]
    dbs = [_db(recs, vocab) for recs in (records, shuffled)]
    assert set(dbs[0].keys) == set(dbs[1].keys) and dbs[0].keys != dbs[1].keys
    for drug_a, drug_b in [("DRUG_A", "DRUG_B"), ("DRUG_C", "DRUG_A")]:
        for features in (None, dense):
            a, b = (build_cohort(db if features is None else db.with_dense_features(features),
                                 drug_a, drug_b, DIAGNOSES, seed=db_seed, max_per_arm=40,
                                 min_per_arm=10) for db in dbs)
            assert isinstance(a, Cohort) and len(a.outcomes) == len(DIAGNOSES) >= 2
            assert a.patient_ids == b.patient_ids and a.features.any()
            for field in ("treated", "features"):
                assert np.array_equal(getattr(a, field), getattr(b, field))
            for got, want in zip(a.outcomes, b.outcomes):
                assert all(np.array_equal(x, y) for x, y in zip(got, want))


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
                counts = np.array([r[2] for r in expected])  # one column per vocabulary code
                has = counts.any(axis=0)  # the codes some patient has pre-index
                assert cohort.codes == [code for code, h in zip(vocab, has) if h]
                assert cohort.features.tolist() == counts[:, has].tolist()
                assert time.tolist() == [r[3] for r in expected]
                assert event.tolist() == [r[4] for r in expected]


def _reference_table(records, vocabulary):
    """The list-of-records build that the streamed from_records replaces, kept as its
    reference: sort the record dicts by id; key fields go by (kind, code), as in _named."""
    records = sorted(records, key=lambda rec: str(rec["patient_id"]))
    events = [rec["events"] for rec in records]
    position = {code: i for i, code in enumerate(vocabulary)}
    return {
        "patients": [str(rec["patient_id"]) for rec in records],
        "observation_end": [rec["observation_end"] for rec in records],
        "owner": [row for row, ev in enumerate(events) for _ in ev],
        "day": [e[0] for ev in events for e in ev],
        "key": [(k, c) for ev in events for _, k, c in ev],
        "column": {(k, c): position.get(c, -1) for ev in events for _, k, c in ev},
        "vocabulary": list(vocabulary),
    }


def _named(db):
    """db's key fields by (kind, code) rather than by number: each event's pair, and each
    pair's vocabulary column. Checks that keys are numbered 0, 1, ... in dict order."""
    names = list(db.keys)
    assert list(db.keys.values()) == list(range(len(names))) and len(db.column) == len(names)
    return {"key": [names[k] for k in db.key.tolist()],
            "column": dict(zip(names, db.column.tolist()))}


@pytest.mark.parametrize("db_seed", range(4))
def test_streamed_load_matches_record_list_reference(tmp_path, db_seed):
    rng = np.random.default_rng(db_seed)
    records = _random_records(rng, pid="p{}")  # unpadded ids: text order is not number order
    shuffled = [records[i] for i in rng.permutation(len(records))]
    db_path, vocab_path = tmp_path / "claims.jsonl", tmp_path / "vocab.txt"
    db_path.write_text("".join(json.dumps(rec) + "\n" for rec in shuffled))
    vocab = DIAGNOSES[::-1] + DRUGS[:2]  # DRUG_C and the procedure codes stay unknown
    vocab_path.write_text("\n".join(vocab) + "\n")
    loaded = load_patient_db(db_path, vocab_path)
    assert loaded.patients == [str(rec["patient_id"]) for rec in shuffled]
    db = _in_id_order(loaded)
    expected = _reference_table(shuffled, vocab)
    assert db.patients == expected["patients"]
    for field in ("observation_end", "owner", "day", "key", "column"):
        assert getattr(db, field).dtype.kind == "i", field
    for field in ("observation_end", "owner", "day"):
        assert getattr(db, field).tolist() == expected[field], field
    assert _named(db) == {"key": expected["key"], "column": expected["column"]}
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
    """Every field equal, except that key numbers may differ: key, keys and column are
    compared by (kind, code)."""
    for field in dataclasses.fields(PatientDB):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, field.name
            if field.name not in ("key", "column"):
                assert np.array_equal(a, b), field.name
        elif field.name != "keys":
            assert a == b, field.name
    assert _named(got) == _named(want)


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
    _assert_same_db(_in_id_order(PatientDB.from_records(shuffled, vocab)),
                    interned_patient_db(shuffled, vocab))


@pytest.mark.parametrize("db_seed", range(3))
def test_patients_and_events_keep_file_order(db_seed):
    rng = np.random.default_rng(db_seed)
    records = _random_records(rng, n=100, pid="p{}")
    shuffled = [records[i] for i in rng.permutation(len(records))]
    db = PatientDB.from_records(shuffled, DRUGS + DIAGNOSES)
    assert db.patients == [rec["patient_id"] for rec in shuffled] != sorted(db.patients)
    assert db.observation_end.tolist() == [rec["observation_end"] for rec in shuffled]
    assert db.owner.tolist() == [row for row, rec in enumerate(shuffled) for _ in rec["events"]]
    assert db.day.tolist() == [d for rec in shuffled for d, _, _ in rec["events"]]
    assert _named(db)["key"] == [(k, c) for rec in shuffled for _, k, c in rec["events"]]


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
    "day_above_int64": _patient("z", [(2**63, "diagnosis", "OUT")]),
    "observation_end_below_int64": _patient("z", [], end=-2**63 - 1),
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


TWO_BROKEN_PATIENTS = {  # two patients that break one rule, the larger id first
    "duplicate_ids": [_patient("p0020", []), _patient("p0010", [])],
    "unsorted_days": [_patient(pid, [(5, "diagnosis", "OUT"), (3, "diagnosis", "OUT")])
                      for pid in ("z2", "z1")],
    "day_outside_window": [_patient(pid, [(401, "diagnosis", "OUT")], end=400)
                           for pid in ("z2", "z1")],
}


@pytest.mark.parametrize("broken", TWO_BROKEN_PATIENTS.values(), ids=TWO_BROKEN_PATIENTS)
def test_of_two_broken_patients_the_error_names_the_smaller_id(broken):
    records = _random_records(np.random.default_rng(9), n=30)[::-1]
    records[11:11] = broken
    vocab = DRUGS + DIAGNOSES
    with pytest.raises(ValueError) as want:
        interned_patient_db(records, vocab)
    with pytest.raises(ValueError) as got:
        PatientDB.from_records(records, vocab)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(("p0010: ", "z1: "))


def test_of_two_patients_without_dense_rows_the_error_names_the_smaller_id():
    records = _random_records(np.random.default_rng(9), n=30)[::-1]
    vocab = DRUGS + DIAGNOSES
    rows = [{"patient_id": rec["patient_id"], "features": [1.0]} for rec in records
            if rec["patient_id"] not in ("p0010", "p0020")]
    with pytest.raises(ValueError) as want:
        interned_patient_db(records, vocab).with_dense_features(rows)
    with pytest.raises(ValueError) as got:
        PatientDB.from_records(records, vocab).with_dense_features(rows)
    assert str(got.value) == str(want.value) == \
        "no dense-feature row for 2 patients, first p0010"
