"""Trial-report ingestion.

Parses normalized trial-dump lines, maps drug text and outcome terms
through file-based dictionaries, applies the arm filtering rules, and
pools counts into per-comparison 2x2 tables.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .formats import _load_line, json_int, json_objects, json_str, parsing

MIN_MATCH_SCORE = 51
MIN_ARM_PARTICIPANTS = 100
# Most participants one drug's arms of a 2x2 table may pool (so also one arm
# record): the exact tests keep a log-factorial table up to twice that long.
MAX_POOLED_ARM = 10_000_000

# "+" is load-bearing for the combination-arm filter, so it survives
# normalization while other punctuation is stripped.
_PUNCT_RE = re.compile(r"[^\w\s+]")
_WS_RE = re.compile(r"\s+")


def normalize_text(text: str) -> str:
    """Lowercase, collapse whitespace, strip punctuation except '+'."""
    text = _PUNCT_RE.sub(" ", text.lower())
    return _WS_RE.sub(" ", text).strip()


@dataclass(frozen=True)
class Arm:
    trial_id: str
    arm_id: str
    arm_name: str
    drug_text: str
    participant_count: int
    outcome_events: dict[str, int]  # term -> event count summed over its reports


@dataclass(frozen=True)
class LineDiagnostic:
    line_number: int
    message: str


@dataclass
class ParseResult:
    arms: list[Arm]
    diagnostics: list[LineDiagnostic]


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
        if max(self.n1, self.n2) > MAX_POOLED_ARM:
            raise ValueError(f"{self.drug_a} vs {self.drug_b}: a pooled arm of "
                             f"{max(self.n1, self.n2)} participants exceeds {MAX_POOLED_ARM}")
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
                raise ValueError(f"match_score {score!r} is not an integer") from None
            if not 0 <= score <= 100:
                raise ValueError(f"match_score {score} outside [0, 100]")
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
                raise ValueError(f"source term {source!r} maps to multiple targets")
            self._map[source] = target

    @classmethod
    def load(cls, path) -> "OutcomeDictionary":
        return _load_dictionary(cls, path, ("source_term_code", "target_outcome_code"))

    def lookup(self, source_term_code: str) -> str | None:
        return self._map.get(source_term_code)


def _load_dictionary(cls, path, columns):
    """cls built from the rows of the dictionary file at path; a malformed file raises
    InputError naming path."""
    with parsing(path):
        return cls(_read_delimited(path, columns))


def _read_delimited(path, columns):
    """Tab-delimited text with a required header row."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if tuple(header) != tuple(columns):
            raise ValueError(f"expected header {columns}, got {tuple(header)}")
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != len(columns):
                raise ValueError(f"bad row {line!r}")
            rows.append(tuple(parts))
    return rows


def parse_dump(lines) -> ParseResult:
    """Parse line-delimited arm records; collect per-line diagnostics.

    Malformed lines are reported, never silently dropped; a field of the wrong
    JSON kind is a schema violation. Each event count, and each repeated
    term's sum, is checked against [0, participant_count].
    A duplicate (trial_id, arm_id) raises ValueError.
    """
    arms: list[Arm] = []
    diagnostics: list[LineDiagnostic] = []
    seen: set[tuple[str, str]] = set()
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = _load_line(line)
            trial_id = json_str(rec, "trial_id")
            arm_id = json_str(rec, "arm_id")
            arm_name = json_str(rec, "arm_name")
            drug_text = json_str(rec, "drug_text")
            count = json_int(rec, "participant_count")
            events = [(json_str(ev, "term"), json_int(ev, "count"))
                      for ev in json_objects(rec, "outcome_events")]
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            diagnostics.append(LineDiagnostic(lineno, f"schema violation: {exc}"))
            continue
        if count < 0:
            diagnostics.append(LineDiagnostic(lineno, "negative participant_count"))
            continue
        summed: dict[str, int] = {}
        for term, n in events:
            summed[term] = summed.get(term, 0) + n  # a zero count still reports the term
        bad = [t for t, c in events if c < 0] + [t for t, c in summed.items() if c > count]
        if bad:
            diagnostics.append(
                LineDiagnostic(lineno, f"event count outside [0, participant_count] for {bad}")
            )
            continue
        key = (trial_id, arm_id)
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate (trial_id, arm_id) = {key}")
        seen.add(key)
        arms.append(Arm(trial_id, arm_id, arm_name, drug_text, count, summed))
    return ParseResult(arms, diagnostics)


def map_drug(drug_text: str, dictionary: DrugDictionary) -> frozenset[str]:
    return dictionary.lookup(drug_text)


def filter_arms(mapped_arms, drop_report: Counter) -> list[tuple[str, Arm]]:
    """Apply the arm quality filters; returns (ingredient, arm) pairs.

    mapped_arms: iterable of (Arm, ingredient_set). Drops arms with
    < 100 participants, arms not mapping to exactly one ingredient, and
    arms whose name or drug text contains '+'. Rules are counted in
    drop_report in that order; each dropped arm is charged to the first
    rule it trips.
    """
    kept = []
    for arm, ingredients in mapped_arms:
        if arm.participant_count < MIN_ARM_PARTICIPANTS:
            drop_report["min_participants"] += 1
        elif len(ingredients) != 1:
            drop_report["ingredient_count"] += 1
        elif "+" in arm.arm_name or "+" in arm.drug_text:
            drop_report["plus_sign"] += 1
        else:
            (ingredient,) = ingredients
            kept.append((ingredient, arm))
    return kept


def map_outcomes(arm: Arm, dictionary: OutcomeDictionary) -> Arm:
    """Rewrite outcome terms to target codes; drop unmapped; sum collisions.
    A code summed above the arm's participant_count raises ValueError."""
    mapped: dict[str, int] = {}
    for term, count in arm.outcome_events.items():
        code = dictionary.lookup(term)
        if code is not None:
            mapped[code] = mapped.get(code, 0) + count
    over = sorted(code for code, count in mapped.items() if count > arm.participant_count)
    if over:
        raise ValueError(f"trial {arm.trial_id} arm {arm.arm_id}: events mapped to {over} "
                         f"exceed participant_count {arm.participant_count}")
    return Arm(arm.trial_id, arm.arm_id, arm.arm_name, arm.drug_text, arm.participant_count,
               mapped)


def aggregate(arms) -> list[ContingencyTable]:
    """Pool (ingredient, Arm) pairs into one 2x2 table per (drug pair, outcome).

    Within a trial, dosage arms of the same ingredient are summed first;
    trials with more than two single-ingredient drugs contribute one
    comparison per unordered pair. A trial contributes to a (pair,
    outcome) table only if at least one of its two pooled arms reports
    that outcome, with zero events or more; the other side then counts
    zero events against its full arm enrollment. A pooled arm above
    MAX_POOLED_ARM raises ValueError naming the drug pair.
    """
    by_trial: dict[str, dict[str, list]] = {}  # trial -> ingredient -> [participants, events]
    for ingredient, arm in arms:
        pool = by_trial.setdefault(arm.trial_id, {}).setdefault(ingredient, [0, {}])
        pool[0] += arm.participant_count
        for code, count in arm.outcome_events.items():
            pool[1][code] = pool[1].get(code, 0) + count

    totals: dict[tuple[str, str, str], list[int]] = {}
    for pooled in by_trial.values():
        for drug_a, drug_b in combinations(sorted(pooled), 2):
            (n1, events_a), (n2, events_b) = pooled[drug_a], pooled[drug_b]
            for code in events_a.keys() | events_b.keys():
                cell = totals.setdefault((drug_a, drug_b, code), [0, 0, 0, 0])
                cell[0] += events_a.get(code, 0)
                cell[1] += n1
                cell[2] += events_b.get(code, 0)
                cell[3] += n2

    return [
        ContingencyTable(drug_a=da, drug_b=db, outcome_code=oc, a=c[0], n1=c[1], b=c[2], n2=c[3])
        for (da, db, oc), c in sorted(totals.items())
    ]
