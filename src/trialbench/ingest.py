"""Trial-report ingestion.

Parses normalized trial-dump lines, maps drug text and outcome terms
through file-based dictionaries, applies the arm filtering rules, and
pools counts into per-comparison 2x2 tables.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from itertools import combinations

MIN_MATCH_SCORE = 51
MIN_ARM_PARTICIPANTS = 100

# "+" is load-bearing for the combination-arm filter, so it survives
# normalization while other punctuation is stripped.
_PUNCT_RE = re.compile(r"[^\w\s+]")
_WS_RE = re.compile(r"\s+")


class DumpError(Exception):
    """Unrecoverable problem with a trial dump (e.g. duplicate arm ids)."""


class DictionaryError(Exception):
    """Malformed dictionary file."""


def normalize_text(text: str) -> str:
    """Lowercase, collapse whitespace, strip punctuation except '+'."""
    text = _PUNCT_RE.sub(" ", text.lower())
    return _WS_RE.sub(" ", text).strip()


@dataclass(frozen=True)
class RawArm:
    trial_id: str
    arm_id: str
    arm_name: str
    drug_text: str
    participant_count: int
    outcome_events: tuple[tuple[str, int], ...]  # (term_code, event_count)


@dataclass(frozen=True)
class LineDiagnostic:
    line_number: int
    message: str


@dataclass
class ParseResult:
    arms: list[RawArm]
    diagnostics: list[LineDiagnostic]


@dataclass(frozen=True)
class ArmRecord:
    trial_id: str
    arm_id: str
    ingredient_set: frozenset[str]
    participant_count: int
    outcome_events: dict[str, int]  # outcome_code -> event_count

    @property
    def ingredient(self) -> str:
        (ing,) = self.ingredient_set
        return ing


@dataclass(frozen=True)
class ContingencyTable:
    drug_a: str
    drug_b: str
    outcome_code: str
    a: int   # events in drug-A arms
    n1: int  # drug-A participants
    b: int   # events in drug-B arms
    n2: int  # drug-B participants

    def __post_init__(self):
        if not (0 <= self.a <= self.n1 and 0 <= self.b <= self.n2):
            raise ValueError("cell counts exceed margins")
        if not self.drug_a < self.drug_b:
            raise ValueError("drugs not in canonical order")


class DrugDictionary:
    """Normalized text pattern -> (match_score, ingredient ids).

    Multiple rows may share a pattern (multi-ingredient products or
    competing candidates at different scores).
    """

    def __init__(self, entries):
        self._by_pattern: dict[str, list[tuple[int, str]]] = {}
        for pattern, ingredient_id, score in entries:
            try:
                score = int(score)
            except ValueError:
                raise DictionaryError(f"match_score {score!r} is not an integer") from None
            if not 0 <= score <= 100:
                raise DictionaryError(f"match_score {score} outside [0, 100]")
            key = normalize_text(pattern)
            self._by_pattern.setdefault(key, []).append((score, ingredient_id))

    @classmethod
    def load(cls, path) -> "DrugDictionary":
        return _load_dictionary(cls, path, ("text_pattern", "ingredient_id", "match_score"))

    def lookup(self, drug_text: str) -> frozenset[str]:
        """Ingredient set of the best-scoring match at score >= 51."""
        rows = self._by_pattern.get(normalize_text(drug_text), [])
        rows = [(s, i) for s, i in rows if s >= MIN_MATCH_SCORE]
        if not rows:
            return frozenset()
        best = max(s for s, _ in rows)
        return frozenset(i for s, i in rows if s == best)


class OutcomeDictionary:
    """Direct 1-to-1 source term -> target outcome code mapping."""

    def __init__(self, entries):
        self._map: dict[str, str] = {}
        for source, target in entries:
            if source in self._map and self._map[source] != target:
                raise DictionaryError(f"source term {source!r} maps to multiple targets")
            self._map[source] = target

    @classmethod
    def load(cls, path) -> "OutcomeDictionary":
        return _load_dictionary(cls, path, ("source_term_code", "target_outcome_code"))

    def lookup(self, source_term_code: str) -> str | None:
        return self._map.get(source_term_code)


def _load_dictionary(cls, path, columns):
    """cls built from the rows of the dictionary file at path; a DictionaryError names path."""
    try:
        return cls(_read_delimited(path, columns))
    except DictionaryError as exc:
        raise DictionaryError(f"{path}: {exc}") from exc


def _read_delimited(path, columns):
    """Tab-delimited text with a required header row."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if tuple(header) != tuple(columns):
            raise DictionaryError(f"expected header {columns}, got {tuple(header)}")
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != len(columns):
                raise DictionaryError(f"bad row {line!r}")
            rows.append(tuple(parts))
    return rows


def _json_int(value) -> int:
    if type(value) is not int:  # rejects floats, strings and bools
        raise TypeError(f"count {value!r} is not an integer")
    return value


def parse_dump(lines) -> ParseResult:
    """Parse line-delimited arm records; collect per-line diagnostics.

    Malformed lines are reported, never silently dropped; a count that
    is not a JSON integer is a schema violation. A duplicate
    (trial_id, arm_id) is a hard error.
    """
    arms: list[RawArm] = []
    diagnostics: list[LineDiagnostic] = []
    seen: set[tuple[str, str]] = set()
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            trial_id = str(rec["trial_id"])
            arm_id = str(rec["arm_id"])
            arm_name = str(rec["arm_name"])
            drug_text = str(rec["drug_text"])
            count = _json_int(rec["participant_count"])
            events = tuple(
                (str(ev["term"]), _json_int(ev["count"])) for ev in rec["outcome_events"]
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            diagnostics.append(LineDiagnostic(lineno, f"schema violation: {exc}"))
            continue
        if count < 0:
            diagnostics.append(LineDiagnostic(lineno, "negative participant_count"))
            continue
        bad = [t for t, c in events if c < 0 or c > count]
        if bad:
            diagnostics.append(
                LineDiagnostic(lineno, f"event count outside [0, participant_count] for {bad}")
            )
            continue
        key = (trial_id, arm_id)
        if key in seen:
            raise DumpError(f"line {lineno}: duplicate (trial_id, arm_id) = {key}")
        seen.add(key)
        arms.append(RawArm(trial_id, arm_id, arm_name, drug_text, count, events))
    return ParseResult(arms, diagnostics)


def map_drug(drug_text: str, dictionary: DrugDictionary) -> frozenset[str]:
    return dictionary.lookup(drug_text)


@dataclass
class DropReport:
    counts: dict[str, int] = field(default_factory=dict)

    def bump(self, rule: str):
        self.counts[rule] = self.counts.get(rule, 0) + 1


def filter_arms(mapped_arms, drop_report: DropReport | None = None) -> list[ArmRecord]:
    """Apply the arm quality filters.

    mapped_arms: iterable of (RawArm, ingredient_set). Drops arms with
    < 100 participants, arms not mapping to exactly one ingredient, and
    arms whose name or drug text contains '+'. Rules are counted in
    that order; each dropped arm is charged to the first rule it trips.
    """
    if drop_report is None:
        drop_report = DropReport()
    kept: list[ArmRecord] = []
    for arm, ingredients in mapped_arms:
        if arm.participant_count < MIN_ARM_PARTICIPANTS:
            drop_report.bump("min_participants")
            continue
        if len(ingredients) != 1:
            drop_report.bump("ingredient_count")
            continue
        if "+" in arm.arm_name or "+" in arm.drug_text:
            drop_report.bump("plus_sign")
            continue
        events: dict[str, int] = {}
        for term, count in arm.outcome_events:
            events[term] = events.get(term, 0) + count
        kept.append(
            ArmRecord(
                trial_id=arm.trial_id,
                arm_id=arm.arm_id,
                ingredient_set=frozenset(ingredients),
                participant_count=arm.participant_count,
                outcome_events=events,
            )
        )
    return kept


def map_outcomes(arm: ArmRecord, dictionary: OutcomeDictionary) -> ArmRecord:
    """Rewrite outcome terms to target codes; drop unmapped; sum collisions."""
    mapped: dict[str, int] = {}
    for term, count in arm.outcome_events.items():
        code = dictionary.lookup(term)
        if code is None:
            continue
        mapped[code] = mapped.get(code, 0) + count
    return ArmRecord(
        trial_id=arm.trial_id,
        arm_id=arm.arm_id,
        ingredient_set=arm.ingredient_set,
        participant_count=arm.participant_count,
        outcome_events=mapped,
    )


def aggregate(arms) -> list[ContingencyTable]:
    """Pool counts into one 2x2 table per (drug pair, outcome).

    Within a trial, dosage arms of the same ingredient are summed first;
    trials with more than two single-ingredient drugs contribute one
    comparison per unordered pair. A trial contributes to a (pair,
    outcome) table only if at least one of its two pooled arms reports
    that outcome; the other side then counts zero events against its
    full arm enrollment.
    """
    by_trial: dict[str, dict[str, ArmRecord]] = {}
    for arm in arms:
        pooled = by_trial.setdefault(arm.trial_id, {})
        ing = arm.ingredient
        if ing in pooled:
            prev = pooled[ing]
            events = dict(prev.outcome_events)
            for code, count in arm.outcome_events.items():
                events[code] = events.get(code, 0) + count
            pooled[ing] = ArmRecord(
                trial_id=arm.trial_id,
                arm_id=prev.arm_id,
                ingredient_set=prev.ingredient_set,
                participant_count=prev.participant_count + arm.participant_count,
                outcome_events=events,
            )
        else:
            pooled[ing] = arm

    totals: dict[tuple[str, str, str], list[int]] = {}
    for trial_id in sorted(by_trial):
        pooled = by_trial[trial_id]
        for drug_a, drug_b in combinations(sorted(pooled), 2):
            arm_a, arm_b = pooled[drug_a], pooled[drug_b]
            outcomes = set(arm_a.outcome_events) | set(arm_b.outcome_events)
            for code in outcomes:
                key = (drug_a, drug_b, code)
                cell = totals.setdefault(key, [0, 0, 0, 0])
                cell[0] += arm_a.outcome_events.get(code, 0)
                cell[1] += arm_a.participant_count
                cell[2] += arm_b.outcome_events.get(code, 0)
                cell[3] += arm_b.participant_count

    return [
        ContingencyTable(drug_a=da, drug_b=db, outcome_code=oc, a=c[0], n1=c[1], b=c[2], n2=c[3])
        for (da, db, oc), c in sorted(totals.items())
    ]
