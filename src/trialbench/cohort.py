"""New-user cohort construction from one columnar claims table.

For one drug pair, indexes each patient at their first claim of either
study drug, extracts strictly pre-index count features (or an externally
supplied dense representation), and computes follow-up time and event
status for each of the pair's outcomes.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

# read_jsonl is unused here, but perfbench/tracer.py hooks cohort.read_jsonl by name
from .formats import iter_jsonl, parsing, read_jsonl  # noqa: F401

MAX_ARM_SIZE = 100_000
MIN_ARM_SIZE = 100

KIND_DRUG = "drug_claim"
KIND_DIAGNOSIS = "diagnosis"
KIND_PROCEDURE = "procedure"

NEVER = np.iinfo(np.int64).max  # first day of a claim the patient never had


@dataclass(frozen=True)
class PatientDB:
    """The claims DB as columns: patients in id order, events by patient then day."""
    patients: list[str]            # sorted, unique patient ids
    observation_end: np.ndarray    # per patient
    owner: np.ndarray              # per event: row in patients
    day: np.ndarray                # per event
    key: np.ndarray                # per event: value in keys
    keys: dict[tuple[str, str], int]  # interned (kind, code) pairs
    column: np.ndarray             # per key: vocabulary position of its code, or -1
    vocabulary: list[str]          # fixed feature ordering
    dense_features: np.ndarray | None = None  # (patients, d)

    @classmethod
    def from_records(cls, records, vocabulary) -> PatientDB:
        """Build the table in one pass over claims records in any order, keeping only
        their values in flat columns; an event keeps only the number its (kind, code)
        pair got when first parsed, and keys are then renumbered by first appearance in
        id order. Raises ValueError on a duplicate id, a day or
        observation bound that is not an integer, a kind or code that is not a string,
        or an event out of day order or outside its patient's observation window."""
        ids, start, end, count, day, pair = [], [], [], [], [], []
        numbers = {}  # (kind, code) -> its number, in file order
        for rec in records:
            ids.append(str(rec["patient_id"]))
            start.append(rec["observation_start"])
            end.append(rec["observation_end"])
            count.append(len(rec["events"]))
            for d, k, c in rec["events"]:
                day.append(d)
                pair.append(numbers.setdefault((k, c), len(numbers)))
        order = sorted(range(len(ids)), key=ids.__getitem__)  # record index per row, id order
        patients = [ids[i] for i in order]
        unsorted = np.repeat(np.argsort(order), np.array(count, dtype=np.intp))  # event -> row
        by_patient = np.argsort(unsorted, kind="stable")  # a patient's events keep file order
        owner = unsorted[by_patient]
        day = _integers(day)[by_patient]
        start, end = _integers(start)[order], _integers(end)[order]
        if not all(type(k) is str and type(c) is str for k, c in numbers):
            raise ValueError("event kinds and codes must be strings")
        pairs, first, key = np.unique(np.array(pair, dtype=np.intp)[by_patient],
                                      return_index=True, return_inverse=True)
        by_first = np.argsort(first)  # keys are renumbered by first appearance in id order
        named = list(numbers)
        keys = {named[p]: i for i, p in enumerate(pairs[by_first].tolist())}
        rules = {  # the patient rows that break each rule
            "duplicate patient_id":
                np.flatnonzero([a == b for a, b in zip(patients, patients[1:])]),
            "events not day-sorted": owner[1:][(owner[1:] == owner[:-1]) & (day[1:] < day[:-1])],
            "event outside observation window": owner[(day < start[owner]) | (day > end[owner])],
        }
        for what, bad in rules.items():
            if len(bad):
                raise ValueError(f"{patients[bad[0]]}: {what}")
        position = {code: i for i, code in enumerate(vocabulary)}
        column = np.array([position.get(c, -1) for _, c in keys], dtype=np.intp)
        return cls(patients, end, owner, day, np.argsort(by_first)[key], keys, column,
                   list(vocabulary))

    def with_dense_features(self, rows) -> PatientDB:
        """Attach one feature row per patient from {patient_id, features} records in any
        order, each written straight into its patient's row of the matrix; rows of ids
        not in the table are checked, then dropped. Raises ValueError on a duplicate id,
        a feature that is not a finite JSON number (a boolean is not), rows of unequal
        length or a patient without a row."""
        row_of = {pid: i for i, pid in enumerate(self.patients)}
        matrix = np.empty((len(self.patients), 0))
        seen = set()
        for n, r in enumerate(rows):
            pid, features = str(r["patient_id"]), r["features"]
            if pid in seen:
                raise ValueError(f"{pid}: duplicate patient_id")
            seen.add(pid)
            kinds = set(map(type, features)) if type(features) is list else {type(features)}
            if bool in kinds:
                raise ValueError(f"{pid}: dense features must be numbers, not booleans")
            if not kinds <= {int, float} or not all(map(math.isfinite, features)):
                raise ValueError(f"{pid}: dense features must be a list of finite numbers")
            if n == 0:
                matrix = np.empty((len(self.patients), len(features)))
            if len(features) != matrix.shape[1]:
                raise ValueError(f"{pid}: {len(features)} dense features, but the first row "
                                 f"has {matrix.shape[1]}")
            if pid in row_of:
                matrix[row_of[pid]] = features
        missing = [p for p in self.patients if p not in seen]
        if missing:
            raise ValueError(f"no dense-feature row for {len(missing)} patients, "
                             f"first {missing[0]}")
        return dataclasses.replace(self, dense_features=matrix)

    def earliest_day(self, kind, code, where=True) -> np.ndarray:
        """Per patient, the earliest day of a (kind, code) event among where, or NEVER."""
        mask = (self.key == self.keys.get((kind, code), -1)) & where
        first = np.full(len(self.patients), NEVER)
        np.minimum.at(first, self.owner[mask], self.day[mask])
        return first


def _integers(values) -> np.ndarray:
    """values as int64; ValueError unless each is a JSON integer (a boolean is not) that fits."""
    if set(map(type, values)) - {int} or not (-1 << 63 <= min(values, default=0)
                                              and max(values, default=0) < 1 << 63):
        raise ValueError("event days and observation bounds must be JSON integers")
    return np.array(values, dtype=np.int64)


@dataclass
class Cohort:
    """One drug pair's new users. Per outcome, time is the days from index to event or
    censoring, and event is True where the outcome occurred."""
    patient_ids: list[str]
    treated: np.ndarray   # True where treatment == drug_a
    features: np.ndarray  # (n, p)
    outcomes: list[tuple[np.ndarray, np.ndarray]]  # (time, event) per outcome code, in order


@dataclass(frozen=True)
class SkipSignal:
    reason: str


def load_patient_db(db_path, vocab_path, dense_features_path=None) -> PatientDB:
    """Load the claims table, vocabulary and optional dense features; malformed
    content, and a patient without a dense-feature row, raise InputError naming the file."""
    with parsing(vocab_path), open(vocab_path, encoding="utf-8") as fh:
        vocabulary = [line.strip() for line in fh if line.strip()]
    with parsing(db_path):  # streamed: one parsed record is alive at a time
        db = PatientDB.from_records(iter_jsonl(db_path), vocabulary)
    if dense_features_path is not None:
        with parsing(dense_features_path):  # streamed, like the claims
            db = db.with_dense_features(iter_jsonl(dense_features_path))
    return db


def build_cohort(db: PatientDB, drug_a: str, drug_b: str, outcomes, seed,
                 max_per_arm: int = MAX_ARM_SIZE, min_per_arm: int = MIN_ARM_SIZE):
    """Build the two-arm new-user cohort of one drug pair, with follow-up for each
    outcome code in outcomes.

    Returns a Cohort, or a SkipSignal when a code is unknown to the db
    vocabulary or either arm ends up below the minimum size. Same-day
    dual initiators are excluded; arms above max_per_arm are downsampled
    with default_rng(seed). There is no washout: a patient with an outcome
    recorded before index stays in the cohort.
    """
    missing = [c for c in (drug_a, drug_b, *outcomes) if c not in db.vocabulary]
    if missing:
        return SkipSignal(reason=f"codes not in db vocabulary: {missing}")

    day_a = db.earliest_day(KIND_DRUG, drug_a)
    day_b = db.earliest_day(KIND_DRUG, drug_b)
    rng = np.random.default_rng(seed)
    arms = []
    for arm in (np.flatnonzero(day_a < day_b), np.flatnonzero(day_b < day_a)):
        if len(arm) > max_per_arm:
            arm = arm[rng.choice(len(arm), size=max_per_arm, replace=False)]
        arms.append(arm)
    if min(map(len, arms)) < min_per_arm:
        return SkipSignal(reason=f"arm below minimum size: {len(arms[0])} vs {len(arms[1])}")

    in_cohort = np.zeros(len(db.patients), dtype=bool)
    in_cohort[np.concatenate(arms)] = True
    rows = np.flatnonzero(in_cohort)  # patient-id order
    index_day = np.where(in_cohort, np.minimum(day_a, day_b), NEVER)
    after = db.day >= index_day[db.owner]  # per event; never true outside the cohort
    if db.dense_features is not None:
        features = db.dense_features[rows]
    else:  # pre-index event counts per code, scattered into (rows, vocabulary)
        column = db.column[db.key]
        pre = in_cohort[db.owner] & ~after & (column >= 0)
        width = len(db.vocabulary)
        cell = (np.cumsum(in_cohort) - 1)[db.owner[pre]] * width + column[pre]
        features = np.bincount(cell, minlength=len(rows) * width).reshape(len(rows), width)
    follow_up = []
    for outcome in outcomes:
        day = db.earliest_day(KIND_DIAGNOSIS, outcome, after)[rows]
        end = np.where(day != NEVER, day, db.observation_end[rows])
        follow_up.append(((end - index_day[rows]).astype(float), day != NEVER))
    return Cohort(
        patient_ids=[db.patients[i] for i in rows],
        treated=day_a[rows] < day_b[rows],
        features=features.astype(float),
        outcomes=follow_up,
    )
