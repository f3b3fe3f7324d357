"""New-user cohort construction from one columnar claims table.

For one drug pair, indexes each patient at their first claim of either
study drug, extracts strictly pre-index count features (or an externally
supplied dense representation), and computes follow-up time and event
status for each of the pair's outcomes.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# read_jsonl is unused here, but perfbench/tracer.py hooks cohort.read_jsonl by name
from .formats import iter_jsonl, json_list, json_str, parsing, read_jsonl  # noqa: F401

KIND_DRUG = "drug_claim"
KIND_DIAGNOSIS = "diagnosis"
KIND_PROCEDURE = "procedure"

NEVER = np.iinfo(np.int64).max  # first day of a claim the patient never had


@dataclass(frozen=True)
class PatientDB:
    """The claims DB as columns: patients and their events in file order."""
    patients: list[str]            # unique patient ids, in file order
    observation_end: np.ndarray    # per patient
    owner: np.ndarray              # per event: row in patients; a patient's events are adjacent
    day: np.ndarray                # per event
    key: np.ndarray                # per event: value in keys
    keys: dict[tuple[str, str], int]  # (kind, code) -> number, in the order parsing met them
    column: np.ndarray             # per key: vocabulary position of its code, or -1
    vocabulary: list[str]          # fixed feature ordering
    dense_features: np.ndarray | None = None  # (patients, d)

    @classmethod
    def from_records(cls, records, vocabulary) -> PatientDB:
        """Build the table in one pass over claims records in any order, keeping only
        their values in flat columns, in file order; each (kind, code) pair is numbered
        in the order parsing first meets it, and an event keeps only that number. Raises
        ValueError on a duplicate id, an event that is not a [day, kind, code] list, a
        day or observation bound that is not an integer, a kind or code that is not a
        string, or an event out of day order or outside its patient's observation window,
        where of several patients that break a rule the error names the smallest id;
        raises TypeError at the first id that is not a string, or events not a list."""
        patients, start, end, count, day, pair = [], [], [], [], [], []
        numbers = {}  # (kind, code) -> its number, in file order
        for rec in records:
            patients.append(rec["patient_id"])
            start.append(rec["observation_start"])
            end.append(rec["observation_end"])
            events = json_list(rec, "events")
            count.append(len(events))
            try:
                for d, k, c in events:
                    day.append(d)
                    pair.append(numbers.setdefault((k, c), len(numbers)))
            except (TypeError, ValueError):  # not three values, or a list or object kind or code
                raise ValueError("each event must be a [day, kind, code] list") from None
        # the rules of formats.json_str and json_int, tested a column at a time in C
        if set(map(type, patients)) - {str}:
            bad = next(p for p in patients if type(p) is not str)
            raise TypeError(f"patient_id {bad!r} is not a string")
        owner = np.repeat(np.arange(len(patients)), np.array(count, dtype=np.intp))
        day, start = _integers(day, "event days"), _integers(start, "observation_start")
        end = _integers(end, "observation_end")
        if not all(type(k) is str and type(c) is str for k, c in numbers):
            raise ValueError("event kinds and codes must be strings")
        if len(set(patients)) < len(patients):
            twice = min(p for p, n in Counter(patients).items() if n > 1)
            raise ValueError(f"{twice}: duplicate patient_id")
        rules = {  # the patient rows that break each rule
            "events not day-sorted": owner[1:][(owner[1:] == owner[:-1]) & (day[1:] < day[:-1])],
            "event outside observation window": owner[(day < start[owner]) | (day > end[owner])],
        }
        for what, bad in rules.items():
            if len(bad):
                raise ValueError(f"{min(patients[i] for i in bad.tolist())}: {what}")
        position = {code: i for i, code in enumerate(vocabulary)}
        column = np.array([position.get(c, -1) for _, c in numbers], dtype=np.intp)
        return cls(patients, end, owner, day, np.array(pair, dtype=np.intp), numbers, column,
                   list(vocabulary))

    def with_dense_features(self, rows) -> PatientDB:
        """Attach one feature row per patient from {patient_id, features} records in any
        order, each written straight into its patient's row of the matrix; rows of ids
        not in the table are checked, then dropped. Raises ValueError on a duplicate id, a
        feature that is not a finite JSON number (json_number's rule, a row at a time),
        rows of unequal length or a patient without a row, and TypeError on a non-string id
        or features that are not a list."""
        row_of = {pid: i for i, pid in enumerate(self.patients)}
        matrix = np.empty((len(self.patients), 0))
        seen = set()
        for n, r in enumerate(rows):
            pid, features = json_str(r, "patient_id"), json_list(r, "features")
            if pid in seen:
                raise ValueError(f"{pid}: duplicate patient_id")
            seen.add(pid)
            kinds = set(map(type, features))
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
                             f"first {min(missing)}")
        return dataclasses.replace(self, dense_features=matrix)

    @cached_property
    def vocabulary_set(self) -> frozenset[str]:
        """The vocabulary codes, for membership tests."""
        return frozenset(self.vocabulary)

    def earliest_day(self, kind, code) -> np.ndarray:
        """Per patient, the earliest day of a (kind, code) event, or NEVER."""
        hit = self.key == self.keys.get((kind, code), -1)
        return _first_day(len(self.patients), self.owner[hit], self.day[hit])


def _first_day(n, owner, day) -> np.ndarray:
    """Per row in range(n), the earliest of the days whose owner it is, or NEVER."""
    first = np.full(n, NEVER)
    np.minimum.at(first, owner, day)
    return first


def _integers(values, name) -> np.ndarray:
    """values as int64; ValueError naming them unless each is a JSON integer that fits."""
    message = f"{name} must be JSON integers"
    if set(map(type, values)) - {int}:
        raise ValueError(message)
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise ValueError(message) from None


@dataclass
class Cohort:
    """One drug pair's new users, in patient-id order. Per outcome, time is the days from
    index to event or censoring, and event is True where the outcome occurred."""
    patient_ids: list[str]
    treated: np.ndarray   # True where treatment == drug_a
    features: np.ndarray  # (n, len(codes)) pre-index counts, or (n, d) dense features
    codes: list[str]      # each count column's vocabulary code; [] for dense features
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
                 max_per_arm: int, min_per_arm: int):
    """Build the two-arm new-user cohort of one drug pair, with follow-up for each
    outcome code in outcomes.

    Returns a Cohort, or a SkipSignal when a code is unknown to the db
    vocabulary or either arm ends up below the minimum size. Same-day
    dual initiators are excluded; arms above max_per_arm are downsampled
    with default_rng(seed). There is no washout: a patient with an outcome
    recorded before index stays in the cohort.
    """
    missing = [c for c in (drug_a, drug_b, *outcomes) if c not in db.vocabulary_set]
    if missing:
        return SkipSignal(reason=f"codes not in db vocabulary: {missing}")

    day_a = db.earliest_day(KIND_DRUG, drug_a)
    day_b = db.earliest_day(KIND_DRUG, drug_b)
    # the patients with a first claim of one drug before the other, in patient-id order
    rows = np.array(sorted(np.flatnonzero(day_a != day_b).tolist(), key=db.patients.__getitem__),
                    dtype=np.intp)
    treated = day_a[rows] < day_b[rows]
    rng = np.random.default_rng(seed)
    arms = []  # positions in rows
    for arm in (np.flatnonzero(treated), np.flatnonzero(~treated)):
        if len(arm) > max_per_arm:
            arm = arm[rng.choice(len(arm), size=max_per_arm, replace=False)]
        arms.append(arm)
    if min(map(len, arms)) < min_per_arm:
        return SkipSignal(reason=f"arm below minimum size: {len(arms[0])} vs {len(arms[1])}")

    kept = np.sort(np.concatenate(arms))
    rows, treated = rows[kept], treated[kept]
    index_day = np.minimum(day_a[rows], day_b[rows])
    position = np.full(len(db.patients), -1)  # per patient: its row in the cohort, or -1
    position[rows] = np.arange(len(rows))
    at = position[db.owner]  # per event: its patient's cohort row, or -1
    mine = np.flatnonzero(at >= 0)  # the cohort's events, gathered once
    at, day, key = at[mine], db.day[mine], db.key[mine]
    after = day >= index_day[at]
    if db.dense_features is not None:
        features, codes = db.dense_features[rows], []
    else:  # pre-index event counts of the codes the cohort has, in vocabulary order
        column = db.column[key]
        pre = ~after & (column >= 0)
        used, col = np.unique(column[pre], return_inverse=True)
        codes = [db.vocabulary[i] for i in used.tolist()]
        cell = at[pre] * len(codes) + col
        features = np.bincount(cell, minlength=len(rows) * len(codes))
        features = features.reshape(len(rows), len(codes))
    follow_up = []
    for outcome in outcomes:
        hit = after & (key == db.keys.get((KIND_DIAGNOSIS, outcome), -1))
        first = _first_day(len(rows), at[hit], day[hit])
        end = np.where(first != NEVER, first, db.observation_end[rows])
        follow_up.append(((end - index_day).astype(float), first != NEVER))
    return Cohort(
        patient_ids=[db.patients[i] for i in rows],
        treated=treated,
        features=features.astype(float),
        codes=codes,
        outcomes=follow_up,
    )
