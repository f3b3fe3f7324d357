"""New-user cohort construction from patient event streams.

For one reference entry, indexes each patient at their first claim of
either study drug, extracts strictly pre-index count features (or an
externally supplied dense representation), and computes follow-up time
and event status for the entry's outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formats import InputError, parsing, read_jsonl

MAX_ARM_SIZE = 100_000
MIN_ARM_SIZE = 100

KIND_DRUG = "drug_claim"
KIND_DIAGNOSIS = "diagnosis"
KIND_PROCEDURE = "procedure"


@dataclass(frozen=True)
class PatientStream:
    patient_id: str
    observation_start: int
    observation_end: int
    events: tuple[tuple[int, str, str], ...]  # (day, kind, code), day-sorted

    def __post_init__(self):
        days = [d for d, _, _ in self.events]
        if days != sorted(days):
            raise ValueError(f"{self.patient_id}: events not day-sorted")
        if days and (days[0] < self.observation_start or days[-1] > self.observation_end):
            raise ValueError(f"{self.patient_id}: event outside observation window")


@dataclass
class PatientDB:
    patients: list[PatientStream]
    vocabulary: list[str]  # fixed feature ordering
    dense_features: dict[str, np.ndarray] | None = None

    def __post_init__(self):
        self.vocab_index = {code: i for i, code in enumerate(self.vocabulary)}


@dataclass
class Cohort:
    patient_ids: list[str]
    treated: np.ndarray   # True where treatment == drug_a
    features: np.ndarray  # (n, p)
    time: np.ndarray      # days from index to event/censoring
    event: np.ndarray     # True where the outcome occurred


@dataclass(frozen=True)
class SkipSignal:
    reason: str


def load_patient_db(db_path, vocab_path, dense_features_path=None) -> PatientDB:
    """Load the event streams, vocabulary and optional dense features.

    Malformed content, and a patient without a dense-feature row, raise
    InputError naming the file.
    """
    _, records = read_jsonl(db_path)
    with parsing(db_path):
        patients = [
            PatientStream(
                patient_id=str(rec["patient_id"]),
                observation_start=int(rec["observation_start"]),
                observation_end=int(rec["observation_end"]),
                events=tuple((int(d), str(k), str(c)) for d, k, c in rec["events"]),
            )
            for rec in records
        ]
    with open(vocab_path, encoding="utf-8") as fh:
        vocabulary = [line.strip() for line in fh if line.strip()]
    dense = None
    if dense_features_path is not None:
        _, rows = read_jsonl(dense_features_path)
        with parsing(dense_features_path):
            dense = {str(r["patient_id"]): np.asarray(r["features"], dtype=float) for r in rows}
        missing = [p.patient_id for p in patients if p.patient_id not in dense]
        if missing:
            raise InputError(f"{dense_features_path}: no dense-feature row for {len(missing)} "
                             f"patient(s), first {missing[0]}")
    return PatientDB(patients=patients, vocabulary=vocabulary, dense_features=dense)


def count_features(patient: PatientStream, index_day: int, vocab_index: dict[str, int]) -> np.ndarray:
    """Per-code event counts strictly before the index day."""
    vec = np.zeros(len(vocab_index))
    for day, _, code in patient.events:
        if day >= index_day:
            break
        pos = vocab_index.get(code)
        if pos is not None:
            vec[pos] += 1.0
    return vec


def _first_day(patient: PatientStream, kind: str, code: str, from_day=None):
    for day, k, c in patient.events:
        if k == kind and c == code and (from_day is None or day >= from_day):
            return day
    return None


def build_cohort(db: PatientDB, entry, seed: int,
                 max_per_arm: int = MAX_ARM_SIZE, min_per_arm: int = MIN_ARM_SIZE):
    """Build the two-arm new-user cohort for one reference entry.

    Returns a Cohort, or a SkipSignal when codes are unknown to the db
    vocabulary or either arm ends up below the minimum size. Same-day
    dual initiators are excluded; arms above max_per_arm are seeded
    downsampled. There is no washout: a patient with the outcome
    recorded before index stays in the cohort.
    """
    drug_a, drug_b, outcome = entry.drug_a, entry.drug_b, entry.outcome_code
    known = db.vocab_index
    missing = [c for c in (drug_a, drug_b, outcome) if c not in known]
    if missing:
        return SkipSignal(reason=f"codes not in db vocabulary: {missing}")

    rows = []  # (patient_id, treated, patient, index_day, time, event)
    for patient in db.patients:
        day_a = _first_day(patient, KIND_DRUG, drug_a)
        day_b = _first_day(patient, KIND_DRUG, drug_b)
        if day_a is None and day_b is None:
            continue
        if day_a is not None and day_b is not None and day_a == day_b:
            continue  # ambiguous dual initiation
        if day_b is None or (day_a is not None and day_a < day_b):
            index_day, treated = day_a, True
        else:
            index_day, treated = day_b, False
        event_day = _first_day(patient, KIND_DIAGNOSIS, outcome, from_day=index_day)
        if event_day is not None:
            time, event = event_day - index_day, True
        else:
            time, event = patient.observation_end - index_day, False
        rows.append((patient.patient_id, treated, patient, index_day, time, event))

    rows.sort(key=lambda r: r[0])
    treated_rows = [r for r in rows if r[1]]
    control_rows = [r for r in rows if not r[1]]
    rng = np.random.default_rng(seed)
    if len(treated_rows) > max_per_arm:
        keep = np.sort(rng.choice(len(treated_rows), size=max_per_arm, replace=False))
        treated_rows = [treated_rows[i] for i in keep]
    if len(control_rows) > max_per_arm:
        keep = np.sort(rng.choice(len(control_rows), size=max_per_arm, replace=False))
        control_rows = [control_rows[i] for i in keep]
    if len(treated_rows) < min_per_arm or len(control_rows) < min_per_arm:
        return SkipSignal(
            reason=f"arm below minimum size: {len(treated_rows)} vs {len(control_rows)}"
        )

    rows = sorted(treated_rows + control_rows, key=lambda r: r[0])
    features = []
    for patient_id, _, patient, index_day, _, _ in rows:
        if db.dense_features is not None:
            features.append(db.dense_features[patient_id])
        else:
            features.append(count_features(patient, index_day, known))
    return Cohort(
        patient_ids=[r[0] for r in rows],
        treated=np.array([r[1] for r in rows], dtype=bool),
        features=np.asarray(features, dtype=float),
        time=np.array([r[4] for r in rows], dtype=float),
        event=np.array([r[5] for r in rows], dtype=bool),
    )
